"""Command-line front end.

Subcommands: diag, aut, check, oracle, tate, chain, convert.  Reports are
byte-deterministic for a fixed input and flag set; on diag, aut, check, tate
and chain ``--structured`` switches to the ``evoaut/1`` key-value format.
Exit codes: 0 success, 2 parse or validation failure, 3 resource cap
exceeded, 4 internal invariant violation.  Each ``cmd_*`` is a generator of
report lines, without their newlines, and ``main`` is the one writer: it
writes each line as it comes.  A command raises every error before its first
line, so an exit of 2, 3 or 4 leaves stdout empty.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys

from .algebra import EvolutionAlgebra, Naturality, is_natural_vector
from .autgroup import (
    assemble_aut,
    bruteforce_aut_count,
    diag_group,
    edge_quotients,
    is_automorphism_matrix,
    BRUTEFORCE_MATRIX_CAP,
)
from .errors import EvoautError, NotPrimeField, ParseError, TooLarge
from .files import (
    STRUCTURED_FORMAT,
    detect_format,
    field_tag,
    parse_algebra,
    parse_field_tag,
    parse_graph,
    serialize_algebra,
    serialize_graph,
    structured_lines,
)
from .limits import (
    ChainSpec,
    SYMBOLIC_TATE_FIELDS,
    check_chain_budget,
    tate_module_2,
    tate_stationary_index,
    truncated_chain,
)
from .monomial import bruteforce_solution_sets, check_scan_cap
from .scalar import PrimeField

ELEMENT_LISTING_CAP = 256
# the exit code of each error class, the first that matches counting
EXIT_CODES = ((ParseError, 2), (NotPrimeField, 2), (TooLarge, 3), (EvoautError, 4))


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _load_algebra(args) -> tuple[EvolutionAlgebra, str]:
    """The input file's algebra and its format, ``algebra`` or ``graph``.
    ``--field`` is the field of a graph file without a ``field`` line and
    must name the field of any other file."""
    text = _read_file(args.file)
    field = parse_field_tag(args.field) if args.field else None
    if (fmt := detect_format(text)) == "algebra":
        algebra = parse_algebra(text)
    else:
        algebra = parse_graph(text, default_field=field)
    if field is not None and algebra.field != field:
        raise ParseError(f"--field {args.field} disagrees with the file's field "
                         f"{field_tag(algebra.field)}")
    return algebra, fmt


def _sigma_text(labels, sigma) -> str:
    return " ".join(f"{labels[i]}->{labels[sigma[i]]}" for i in range(len(sigma)))


def _matrix_text(lift) -> str:
    """The matrix of ``lift`` from one shared "0" string and the scales' strings."""
    rows = lift.matrix_rows("0", map(str, lift.scales))
    return "[" + "; ".join(map(",".join, rows)) + "]"


def _vector_text(vec) -> str:
    return ",".join(str(x) for x in vec)


def _order_text(order) -> str:
    return "infinite" if order is None else str(order)


def _group_pairs(group, prefix: str):
    """``diag``, the group's shape, then its free rank, torsion and order, keyed by ``prefix``."""
    yield "diag", group.describe()
    yield f"{prefix}free_rank", group.free_rank
    if group.torsion:
        yield f"{prefix}torsion", ",".join(str(d) for d in group.torsion)
    yield f"{prefix}order", _order_text(group.concrete_order())


# -- diag -----------------------------------------------------------------

def cmd_diag(args):
    algebra, _ = _load_algebra(args)
    group = diag_group(algebra)
    order = group.concrete_order()
    listed = isinstance(algebra.field, PrimeField) and order <= ELEMENT_LISTING_CAP
    elements = group.elements() if listed else []
    if args.structured:
        yield from structured_lines(itertools.chain(
            [("command", "diag"), ("field", field_tag(algebra.field))], _group_pairs(group, ""),
            (("element", _vector_text(vec)) for vec in elements)))
        return
    yield f"Diag(A;B) = {group.describe()}"
    yield f"order = {_order_text(order)}"
    if elements:
        yield "elements:"
        yield from (f"  {_vector_text(vec)}" for vec in elements)


# -- aut ------------------------------------------------------------------

def cmd_aut(args):
    algebra, _ = _load_algebra(args)
    pres = assemble_aut(algebra)
    group_order = _order_text(pres.group_order())
    if args.structured:
        lifts = (pair for ga, lift in pres.lifted for pair in (
            ("lift_sigma", _vector_text(ga.sigma)), ("lift_scales", _vector_text(lift.scales)),
            ("lift_matrix", _matrix_text(lift)[1:-1])))
        yield from structured_lines(itertools.chain(
            [("command", "aut"), ("field", field_tag(algebra.field))],
            _group_pairs(pres.diag, "diag_"), lifts,
            (("not_lifted_sigma", _vector_text(ga.sigma)) for ga in pres.not_lifted),
            [("quotient_order", pres.quotient_order), ("group_order", group_order),
             ("completeness", "full" if pres.full_automorphism_group else "subgroup")]))
        return
    yield f"field: {field_tag(algebra.field)}"
    yield f"Diag(A;B) = {pres.diag.describe()}"
    yield f"diag order = {_order_text(pres.diag.concrete_order())}"
    for ga, lift in pres.lifted:
        yield f"lift: {_sigma_text(algebra.labels, ga.sigma)}"
        yield f"  scales: {_vector_text(lift.scales)}"
        yield f"  matrix: {_matrix_text(lift)}"
    for ga in pres.not_lifted:
        yield f"not lifted: {_sigma_text(algebra.labels, ga.sigma)} (system infeasible)"
    yield f"quotient order = {pres.quotient_order}"
    yield f"group order = {group_order}"
    yield f"completeness: {'= Aut(A)' if pres.full_automorphism_group else 'subgroup of Aut(A)'}"


# -- check ----------------------------------------------------------------

def _items(option: str, literal: str) -> list[str]:
    """The comma-separated items of a list option; an empty item is a ParseError."""
    items = literal.split(",")
    if "" in items:
        raise ParseError(f"bad {option} {literal!r}: empty item")
    return items


def _naturality(algebra: EvolutionAlgebra, literal: str) -> str:
    """The verdict on a ``--vector`` literal; ParseError for a bad one."""
    items = _items("--vector", literal)
    try:
        vec = algebra.vector([algebra.field.parse(c) for c in items])
        verdict = is_natural_vector(algebra, vec)  # refuses the zero vector
    except EvoautError as exc:
        raise ParseError(f"bad --vector {literal!r}: {exc}") from exc
    return {Naturality.NATURAL: "true", Naturality.NOT_NATURAL: "false",
            Naturality.INDETERMINATE: "indeterminate"}[verdict]


def cmd_check(args):
    algebra, _ = _load_algebra(args)
    vectors = [(f"natural({literal})", _naturality(algebra, literal))
               for literal in args.vector or []]
    witness = algebra.two_li_witness()
    verdicts = [("Sing", "true"),
                ("2LI", "true" if witness is None else
                 f"false (witness: sq({algebra.labels[witness[0]]}), "
                 f"sq({algebra.labels[witness[1]]}))"),
                ("nondegenerate", "true" if algebra.is_nondegenerate() else "false"),
                ("perfect", "true" if algebra.is_perfect() else "false"),
                ("invertible", "true" if algebra.is_invertible() else "false")] + vectors
    if args.structured:
        yield from structured_lines([("command", "check"), ("field", field_tag(algebra.field))]
                                    + [(key.lower(), value) for key, value in verdicts])
        return
    yield from (f"{key}: {value}" for key, value in verdicts)


# -- oracle ---------------------------------------------------------------

def cmd_oracle(args):
    algebra, _ = _load_algebra(args)
    if not isinstance(algebra.field, PrimeField):
        raise NotPrimeField("the oracle command needs a finite field (F_p input)")
    check_scan_cap(algebra.field.p, algebra.dim)  # before the symmetries are listed
    pres = assemble_aut(algebra)
    lines = []   # all collected first: a disagreement raises with every one of them
    failures = 0

    # in ints mod p: one scan keyed by w(e) * w(sigma e)^-1 serves every sigma, the
    # identity first.  Sigmas with one key share their lift and scan list, so a lift's
    # coset is listed once, on a verdict miss; a verdict is keyed on the scan list object,
    # so a scan that misses for one sigma fails it alone.  A vector fits one key only, so
    # the cosets are disjoint and the scan cap bounds the listing
    cosets = list(pres.lifted) + [(ga, None) for ga in pres.not_lifted]
    quotients = edge_quotients(algebra)
    scans = bruteforce_solution_sets(algebra.field.p, algebra.dim, pres.decomposition.exponents,
                                     (quotients(ga.sigma) for ga, _ in cosets))
    verdicts, order = {}, pres.diag.concrete_order()   # (lift scales, id(scan list)) -> verdict
    for (ga, lift), brute in zip(cosets, scans):
        shift = None if lift is None else lift.scales
        if (verdict := verdicts.get((shift, id(brute)))) is None:
            structured = [] if shift is None else pres.diag.coset(shift)
            verdict = verdicts[shift, id(brute)] = "PASS" if structured == brute else "FAIL"
        failures += verdict == "FAIL"
        if ga.is_identity() and verdict == "PASS":
            lines.append(f"diag solutions: PASS ({order} = {len(brute)})")
        elif ga.is_identity():   # the first sigma, so its coset was just listed
            diff = next(x for x in structured + brute
                        if x not in structured or x not in brute)
            lines.append(f"diag solutions: FAIL (first divergence {_vector_text(diff)})")
        counts = (f"{order} = {len(brute)}" if shift is not None
                  else f"infeasible = {len(brute)} solutions")
        lines.append(f"twisted coset sigma={_vector_text(ga.sigma)}: {verdict} ({counts})")

    total = algebra.field.p ** (algebra.dim * algebra.dim)
    if total > BRUTEFORCE_MATRIX_CAP:
        lines.append(f"full group oracle: skipped (p^(n^2) = {total} exceeds cap)")
    else:
        assembled = pres.monomial_elements()
        count = bruteforce_aut_count(algebra)
        contained = all(is_automorphism_matrix(algebra, f.residue_matrix())
                        for f in assembled)
        if not contained or len(assembled) > count:
            failures += 1
            lines.append(f"containment: FAIL ({len(assembled)} assembled, {count} brute)")
        else:
            lines.append(f"containment: PASS ({len(assembled)} <= {count})")
        if pres.full_automorphism_group:
            if len(assembled) == count:
                lines.append(f"equality: PASS ({len(assembled)} = {count})")
            else:
                failures += 1
                lines.append(f"equality: FAIL ({len(assembled)} != {count})")
        elif len(assembled) == count:
            lines.append(f"equality: PASS ({count} = {count}; not implied by the flags)")
        else:
            lines.append(f"equality: FAIL as expected (subgroup only; "
                         f"{len(assembled)} < {count})")
    if failures:
        raise EvoautError("oracle disagreement:\n" + "\n".join(lines))
    yield from lines


# -- tate and chain -------------------------------------------------------

def _parse_tate_field(tag: str):
    if tag in SYMBOLIC_TATE_FIELDS:
        return tag
    return parse_field_tag(tag)


def cmd_tate(args):
    if not args.field:
        raise ParseError("tate requires --field")
    field = _parse_tate_field(args.field)
    group = tate_module_2(field)
    index = None if isinstance(field, str) else tate_stationary_index(field)
    if args.structured:
        pairs = [("command", "tate"), ("field", args.field), ("tate", group.describe()),
                 ("symbol", group.symbol), ("stationary_index", index)]
        yield from structured_lines((key, value) for key, value in pairs if value is not None)
    elif index is None:
        yield f"T_2(K^x) = {group.describe()}"
    else:
        yield f"T_2(K^x) = {group.describe()} (stationary index {index})"


def cmd_chain(args):
    if not args.field:
        raise ParseError("chain requires --field")
    if not args.exp:
        raise ParseError("chain requires --exp")
    field = parse_field_tag(args.field)
    items = _items("--exp", args.exp)
    try:
        exps = [int(e) for e in items]
    except ValueError as exc:
        raise ParseError(f"bad exponent list {args.exp!r}") from exc
    if args.depth is not None and args.depth < 1:
        raise ParseError(f"--depth must be at least 1 (got {args.depth})")
    check_chain_budget(field, len(exps) if args.depth is None else args.depth)
    if args.depth is not None:
        if len(exps) == 1:
            exps = exps * args.depth
        elif len(exps) != args.depth:
            raise ParseError("--depth disagrees with the --exp list length")
    try:
        anchor = field.parse(args.anchor) if args.anchor else None
    except EvoautError as exc:
        raise ParseError(f"bad --anchor {args.anchor!r}: {exc}") from exc
    try:
        spec = ChainSpec(field=field, exponents=tuple(exps), anchor=anchor)
    except (ValueError, EvoautError) as exc:
        raise ParseError(str(exc)) from exc
    limit = truncated_chain(spec)
    exponents = ",".join(str(e) for e in exps)
    if args.structured:
        yield from structured_lines(itertools.chain(
            [("command", "chain"), ("field", args.field), ("exponents", exponents)],
            [] if anchor is None else [("anchor", anchor)],
            [("tuples", len(limit.tuples))],
            (("tuple", _vector_text(t)) for t in limit.tuples),
            [("stabilization_depth", limit.stabilization_depth)]))
        return
    yield f"field: {args.field}"
    yield f"exponents: {exponents}"
    if anchor is not None:
        yield f"anchor: {anchor}"
    yield f"tuples = {len(limit.tuples)}"
    yield from (f"  {_vector_text(t)}" for t in limit.tuples)
    yield f"stabilization depth = {limit.stabilization_depth}"


# -- convert ----------------------------------------------------------------

def cmd_convert(args):
    algebra, fmt = _load_algebra(args)
    yield from (serialize_graph if fmt == "algebra" else serialize_algebra)(algebra).splitlines()


# -- driver -----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evoaut",
        description="automorphism groups of finite-dimensional evolution algebras")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, needs_file, help_text):
        p = sub.add_parser(name, help=help_text)
        if needs_file:
            p.add_argument("file", help="algebra or graph input file")
        p.add_argument("--field", help="field tag (F<p> or Q; graph-file default "
                                       "or tate/chain field)")
        p.set_defaults(handler=handler)
        return p

    diag = add("diag", cmd_diag, True, "diagonal automorphism group")
    aut = add("aut", cmd_aut, True, "full monomial automorphism presentation")
    check = add("check", cmd_check, True, "structural predicate report")
    check.add_argument("--vector", action="append",
                       help="comma-separated coordinates to test for naturality")
    add("oracle", cmd_oracle, True, "brute-force cross-check report")
    tate = add("tate", cmd_tate, False, "2-power inverse limit of roots of unity")
    chain = add("chain", cmd_chain, False, "truncated power-map chain census")
    chain.add_argument("--exp", help="comma-separated exponent sequence")
    chain.add_argument("--depth", type=int, help="chain depth (with a single --exp)")
    chain.add_argument("--anchor", help="anchor value for x_1**n_1")
    add("convert", cmd_convert, True, "algebra <-> graph conversion")
    for p in (diag, aut, check, tate, chain):  # the commands with a structured report
        p.add_argument("--structured", action="store_true",
                       help=f"emit the {STRUCTURED_FORMAT} key-value format")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for line in args.handler(args):
            sys.stdout.write(line + "\n")
        return 0
    except BrokenPipeError:
        # the reader stopped early, as `| head` does: the rest of the report, and the
        # flush at exit, go to the null device, so the interpreter raises no second error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except EvoautError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return next(code for kind, code in EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
