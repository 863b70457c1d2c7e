"""Command-line front end.

Subcommands: diag, aut, check, oracle, tate, chain, convert.  Reports are
byte-deterministic for a fixed input and flag set; ``--structured`` switches
to the ``evoaut/1`` key-value format.  Exit codes: 0 success, 2 parse or
validation failure, 3 resource cap exceeded, 4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import os
import sys

from .algebra import EvolutionAlgebra, Naturality, is_natural_vector
from .autgroup import (
    assemble_aut,
    bruteforce_aut_count,
    diag_coset,
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
    tate_module_2,
    tate_stationary_index,
    truncated_chain,
)
from .monomial import bruteforce_solution_sets
from .scalar import PrimeField
from .wgraph import DEFAULT_VERTEX_CAP

ELEMENT_LISTING_CAP = 256


def _resource_cap(args) -> int:
    if args.cap is not None:
        cap, source = args.cap, "--cap"
    else:
        env = os.environ.get("EVOAUT_CAP")
        if env is None:
            return DEFAULT_VERTEX_CAP
        try:
            cap, source = int(env), "EVOAUT_CAP"
        except ValueError as exc:
            raise ParseError(f"EVOAUT_CAP must be an integer, got {env!r}") from exc
    if cap < 1:
        raise ParseError(f"{source} must be at least 1, got {cap}")
    return cap


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _load_algebra(args) -> EvolutionAlgebra:
    text = _read_file(args.file)
    default_field = parse_field_tag(args.field) if getattr(args, "field", None) else None
    if detect_format(text) == "algebra":
        return parse_algebra(text)
    return parse_graph(text, default_field=default_field)


def _sigma_text(labels, sigma) -> str:
    return " ".join(f"{labels[i]}->{labels[sigma[i]]}" for i in range(len(sigma)))


def _matrix_text(rows) -> str:
    return "[" + "; ".join(",".join(str(x) for x in row) for row in rows) + "]"


def _vector_text(vec) -> str:
    return ",".join(str(x) for x in vec)


def _group_pairs(prefix: str, group) -> list[tuple[str, str]]:
    pairs = [(prefix, group.describe())]
    if group.symbol is not None:
        pairs.append(("symbol", group.symbol))
        return pairs
    pairs.append((f"{prefix}_free_rank", str(group.free_rank)))
    if group.torsion:
        pairs.append((f"{prefix}_torsion", ",".join(str(d) for d in group.torsion)))
    order = group.concrete_order()
    pairs.append((f"{prefix}_order", "infinite" if order is None else str(order)))
    return pairs


# -- diag -----------------------------------------------------------------

def cmd_diag(args) -> str:
    algebra = _load_algebra(args)
    coset = diag_coset(algebra)
    group = coset.homogeneous
    order = group.concrete_order()
    elements = None
    if isinstance(algebra.field, PrimeField) and order is not None \
            and order <= ELEMENT_LISTING_CAP:
        elements = coset.elements()
    if args.structured:
        pairs = [("command", "diag"), ("field", field_tag(algebra.field))]
        pairs += [("diag", group.describe()), ("free_rank", str(group.free_rank))]
        if group.torsion:
            pairs.append(("torsion", ",".join(str(d) for d in group.torsion)))
        pairs.append(("order", "infinite" if order is None else str(order)))
        if elements is not None:
            pairs += [("element", _vector_text(vec)) for vec in elements]
        return structured_lines(pairs)
    lines = [f"Diag(A;B) = {group.describe()}",
             f"order = {'infinite' if order is None else order}"]
    if elements is not None:
        lines.append("elements:")
        lines += [f"  {_vector_text(vec)}" for vec in elements]
    return "\n".join(lines) + "\n"


# -- aut ------------------------------------------------------------------

def cmd_aut(args) -> str:
    algebra = _load_algebra(args)
    pres = assemble_aut(algebra, cap=_resource_cap(args))
    diag_order = pres.diag.concrete_order()
    group_order = pres.group_order()
    labels = algebra.labels
    completeness = "= Aut(A)" if pres.full_automorphism_group else "subgroup of Aut(A)"
    if args.structured:
        pairs = [("command", "aut"), ("field", field_tag(algebra.field))]
        pairs += _group_pairs("diag", pres.diag)
        for ga, lift in pres.lifted:
            pairs.append(("lift_sigma", _vector_text(ga.sigma)))
            pairs.append(("lift_scales", _vector_text(lift.scales)))
            pairs.append(("lift_matrix", _matrix_text(lift.to_matrix())[1:-1]))
        for ga in pres.not_lifted:
            pairs.append(("not_lifted_sigma", _vector_text(ga.sigma)))
        pairs.append(("quotient_order", str(pres.quotient_order)))
        pairs.append(("group_order",
                      "infinite" if group_order is None else str(group_order)))
        pairs.append(("completeness",
                      "full" if pres.full_automorphism_group else "subgroup"))
        return structured_lines(pairs)
    lines = [f"field: {field_tag(algebra.field)}",
             f"Diag(A;B) = {pres.diag.describe()}",
             f"diag order = {'infinite' if diag_order is None else diag_order}"]
    for ga, lift in pres.lifted:
        lines.append(f"lift: {_sigma_text(labels, ga.sigma)}")
        lines.append(f"  scales: {_vector_text(lift.scales)}")
        lines.append(f"  matrix: {_matrix_text(lift.to_matrix())}")
    for ga in pres.not_lifted:
        lines.append(f"not lifted: {_sigma_text(labels, ga.sigma)} (system infeasible)")
    lines.append(f"quotient order = {pres.quotient_order}")
    lines.append(f"group order = {'infinite' if group_order is None else group_order}")
    lines.append(f"completeness: {completeness}")
    return "\n".join(lines) + "\n"


# -- check ----------------------------------------------------------------

def cmd_check(args) -> str:
    algebra = _load_algebra(args)
    witness = algebra.two_li_witness()
    verdicts = [("Sing", "true"),
                ("2LI", "true" if witness is None else
                 f"false (witness: sq({algebra.labels[witness[0]]}), "
                 f"sq({algebra.labels[witness[1]]}))"),
                ("nondegenerate", "true" if algebra.is_nondegenerate() else "false"),
                ("perfect", "true" if algebra.is_perfect() else "false"),
                ("invertible", "true" if algebra.is_invertible() else "false")]
    vector_reports = []
    for literal in args.vector or []:
        coords = [c for c in literal.split(",") if c]
        try:
            vec = algebra.vector([algebra.field.parse(c) for c in coords])
            verdict = is_natural_vector(algebra, vec)  # refuses the zero vector
        except EvoautError as exc:
            raise ParseError(f"bad --vector {literal!r}: {exc}") from exc
        text = {Naturality.NATURAL: "true",
                Naturality.NOT_NATURAL: "false",
                Naturality.INDETERMINATE: "indeterminate"}[verdict]
        vector_reports.append((f"natural({literal})", text))
    if args.structured:
        pairs = [("command", "check"), ("field", field_tag(algebra.field))]
        pairs += [(key.lower(), value) for key, value in verdicts + vector_reports]
        return structured_lines(pairs)
    lines = [f"{key}: {value}" for key, value in verdicts + vector_reports]
    return "\n".join(lines) + "\n"


# -- oracle ---------------------------------------------------------------

def cmd_oracle(args) -> str:
    algebra = _load_algebra(args)
    if not isinstance(algebra.field, PrimeField):
        raise NotPrimeField("the oracle command needs a finite field (F_p input)")
    pres = assemble_aut(algebra, cap=_resource_cap(args))
    lines = []
    failures = 0

    # in ints mod p: each sigma's coset is its lift's residues times Diag, listed
    # once, and one scan keyed by w(e) * w(sigma e)^-1 serves every sigma; the
    # identity comes first, with the all-ones key of the diagonal system
    p, diag = algebra.field.p, pres.diag.residues()
    cosets = list(pres.lifted) + [(ga, None) for ga in pres.not_lifted]
    scans = bruteforce_solution_sets(p, algebra.dim, pres.decomposition.exponents,
                                     (edge_quotients(algebra, ga.sigma) for ga, _ in cosets))
    for (ga, lift), brute in zip(cosets, scans):
        shift = None if lift is None else [x.residue for x in lift.scales]
        structured = [] if shift is None else sorted(
            tuple(x * y % p for x, y in zip(shift, vec)) for vec in diag)
        verdict = "PASS" if structured == brute else "FAIL"
        failures += verdict == "FAIL"
        if ga.is_identity() and verdict == "PASS":
            lines.append(f"diag solutions: PASS ({len(structured)} = {len(brute)})")
        elif ga.is_identity():
            diff = next(x for x in structured + brute
                        if x not in structured or x not in brute)
            lines.append(f"diag solutions: FAIL (first divergence {_vector_text(diff)})")
        counts = (f"{len(structured)} = {len(brute)}" if shift is not None
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
    return "\n".join(lines) + "\n"


# -- tate and chain -------------------------------------------------------

def _parse_tate_field(tag: str):
    if tag in SYMBOLIC_TATE_FIELDS:
        return tag
    return parse_field_tag(tag)


def cmd_tate(args) -> str:
    if not args.field:
        raise ParseError("tate requires --field")
    field = _parse_tate_field(args.field)
    group = tate_module_2(field)
    index = None if isinstance(field, str) else tate_stationary_index(field)
    if args.structured:
        pairs = [("command", "tate"), ("field", args.field),
                 ("tate", group.describe())]
        if group.symbol is not None:
            pairs.append(("symbol", group.symbol))
        if index is not None:
            pairs.append(("stationary_index", str(index)))
        return structured_lines(pairs)
    if index is None:
        return f"T_2(K^x) = {group.describe()}\n"
    return f"T_2(K^x) = {group.describe()} (stationary index {index})\n"


def cmd_chain(args) -> str:
    if not args.field:
        raise ParseError("chain requires --field")
    if not args.exp:
        raise ParseError("chain requires --exp")
    field = parse_field_tag(args.field)
    try:
        exps = [int(e) for e in args.exp.split(",") if e]
    except ValueError as exc:
        raise ParseError(f"bad exponent list {args.exp!r}") from exc
    if args.depth is not None:
        if len(exps) == 1:
            exps = exps * args.depth
        elif len(exps) != args.depth:
            raise ParseError("--depth disagrees with the --exp list length")
    anchor = field.parse(args.anchor) if args.anchor else None
    try:
        spec = ChainSpec(field=field, exponents=tuple(exps), anchor=anchor)
    except (ValueError, EvoautError) as exc:
        raise ParseError(str(exc)) from exc
    limit = truncated_chain(spec)
    if args.structured:
        pairs = [("command", "chain"), ("field", args.field),
                 ("exponents", ",".join(str(e) for e in exps))]
        if anchor is not None:
            pairs.append(("anchor", str(anchor)))
        pairs.append(("tuples", str(len(limit.tuples))))
        pairs += [("tuple", _vector_text(t)) for t in limit.tuples]
        pairs.append(("stabilization_depth", str(limit.stabilization_depth)))
        return structured_lines(pairs)
    lines = [f"field: {args.field}",
             f"exponents: {','.join(str(e) for e in exps)}"]
    if anchor is not None:
        lines.append(f"anchor: {anchor}")
    lines.append(f"tuples = {len(limit.tuples)}")
    lines += [f"  {_vector_text(t)}" for t in limit.tuples]
    lines.append(f"stabilization depth = {limit.stabilization_depth}")
    return "\n".join(lines) + "\n"


# -- convert ----------------------------------------------------------------

def cmd_convert(args) -> str:
    text = _read_file(args.file)
    default_field = parse_field_tag(args.field) if args.field else None
    kind = detect_format(text)
    if args.to and args.to == kind:
        raise ParseError(f"input is already a {kind} file")
    if kind == "algebra":
        return serialize_graph(parse_algebra(text))
    return serialize_algebra(parse_graph(text, default_field=default_field))


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
        p.add_argument("--structured", action="store_true",
                       help=f"emit the {STRUCTURED_FORMAT} key-value format")
        p.set_defaults(handler=handler)
        return p

    add("diag", cmd_diag, True, "diagonal automorphism group")
    aut = add("aut", cmd_aut, True, "full monomial automorphism presentation")
    check = add("check", cmd_check, True, "structural predicate report")
    check.add_argument("--vector", action="append",
                       help="comma-separated coordinates to test for naturality")
    oracle = add("oracle", cmd_oracle, True, "brute-force cross-check report")
    for p in (aut, oracle):  # the two commands that enumerate graph symmetries
        p.add_argument("--cap", type=int, help="override the graph enumeration cap "
                                               f"(default {DEFAULT_VERTEX_CAP}; "
                                               "env EVOAUT_CAP)")
    add("tate", cmd_tate, False, "2-power inverse limit of roots of unity")
    chain = add("chain", cmd_chain, False, "truncated power-map chain census")
    chain.add_argument("--exp", help="comma-separated exponent sequence")
    chain.add_argument("--depth", type=int, help="chain depth (with a single --exp)")
    chain.add_argument("--anchor", help="anchor value for x_1**n_1")
    convert = add("convert", cmd_convert, True, "algebra <-> graph conversion")
    convert.add_argument("--to", choices=("algebra", "graph"),
                         help="target format (default: the other one)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        sys.stdout.write(args.handler(args))
        return 0
    except (ParseError, NotPrimeField) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except TooLarge as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except EvoautError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 4


if __name__ == "__main__":
    sys.exit(main())
