"""Command-line front end.

Subcommands: diag, aut, check, oracle, tate, chain, convert.  Reports are
byte-deterministic for a fixed input and flag set; on diag, aut, check, tate
and chain ``--structured`` switches to the ``evoaut/1`` key-value format.
Exit codes: 0 success, 2 parse or validation failure, 3 resource cap
exceeded, 4 internal invariant violation.  Each ``cmd_*`` is a generator of
report lines, without their newlines, and ``main`` is the one writer: it
writes each line as it comes.  A command raises every error before its first
line, so an exit of 2, 3 or 4 leaves stdout empty.

The command line is read by one table, ``COMMANDS`` (each command's handler,
whether it reads a file, and its options from ``OPTIONS``), and a short loop
over argv that accepts what argparse accepted: options before or after the
file, ``--opt value`` and ``--opt=value``, unique prefixes, negative numbers
as values, a ``--`` before positionals, the last of a repeated option (every
``--vector``).  ``-h`` prints the commands and options and exits 0; a usage
error exits 2 with a usage line and an ``error:`` line on stderr.  So no
command loads argparse, gettext or locale.
"""

from __future__ import annotations

import itertools
import os
import sys
import types

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
    exps = [_ascii_int(e) for e in _items("--exp", args.exp)]
    if None in exps:
        raise ParseError(f"bad exponent list {args.exp!r}")
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

# every option: its kind (a value, a flag, a repeatable list or an integer) and help
OPTIONS = {
    "--field": ("value", "field tag (F<p> or Q; graph-file default or tate/chain field)"),
    "--vector": ("list", "comma-separated coordinates to test for naturality (repeatable)"),
    "--exp": ("value", "comma-separated exponent sequence"),
    "--depth": ("int", "chain depth (with a single --exp)"),
    "--anchor": ("value", "anchor value for x_1**n_1"),
    "--structured": ("flag", f"emit the {STRUCTURED_FORMAT} key-value format"),
}
# every command: its handler, whether it reads a file, its options and its help
COMMANDS = {
    "diag": (cmd_diag, True, ("--field", "--structured"), "diagonal automorphism group"),
    "aut": (cmd_aut, True, ("--field", "--structured"), "full monomial automorphism presentation"),
    "check": (cmd_check, True, ("--field", "--vector", "--structured"),
              "structural predicate report"),
    "oracle": (cmd_oracle, True, ("--field",), "brute-force cross-check report"),
    "tate": (cmd_tate, False, ("--field", "--structured"),
             "2-power inverse limit of roots of unity"),
    "chain": (cmd_chain, False, ("--field", "--exp", "--depth", "--anchor", "--structured"),
              "truncated power-map chain census"),
    "convert": (cmd_convert, True, ("--field",), "algebra <-> graph conversion"),
}
HELP = ("-h", "--help")


def _ascii_int(text: str) -> int | None:
    """``text`` as an int if it is ``-?[0-9]+`` in ASCII digits, else None."""
    digits = text[1:] if text.startswith("-") else text
    return int(text) if digits.isascii() and digits.isdigit() else None


def _usage(command=None) -> str:
    if command is None:
        return f"evoaut [-h] {{{','.join(COMMANDS)}}} ..."
    _, reads_file, names, _ = COMMANDS[command]
    words = [name if OPTIONS[name][0] == "flag" else f"{name} {name[2:].upper()}"
             for name in names]
    return " ".join([f"evoaut {command} [-h]"] + [f"[{word}]" for word in words]
                    + ["file"] * reads_file)


def _refuse(message: str, command=None):
    """A usage error: the usage line and the message on stderr, and exit 2."""
    sys.stderr.write(f"usage: {_usage(command)}\nerror: {message}\n")
    raise SystemExit(2)


def _help():
    """The commands and options on stdout, and exit 0."""
    lines = [f"usage: {_usage()}", "",
             "automorphism groups of finite-dimensional evolution algebras", "", "commands:"]
    for command, (_, _, _, text) in COMMANDS.items():
        lines += [f"  {_usage(command)}", f"      {text}"]
    lines += ["", "options, before or after the file, as --opt value or --opt=value, "
              "or by a unique prefix:", f"  {'-h, --help':<17} show this help and exit"]
    lines += [f"  {name if kind == 'flag' else f'{name} {name[2:].upper()}':<17} {text}"
              for name, (kind, text) in OPTIONS.items()]
    sys.stdout.write("\n".join(lines) + "\n")
    raise SystemExit(0)


def _option(token: str, names, command=None):
    """``token`` as an option among ``names``: (name or None if unknown, the value
    after "=" or None), or None for a positional.  A negative number and a token
    with a space are positionals, as in argparse."""
    if token in names:
        return token, None
    if not token.startswith("-") or token == "-":
        return None
    name, eq, value = token.partition("=")
    if eq and name in names:
        return name, value
    if token.startswith("--"):
        found = [option for option in names if option.startswith(name)]
        if len(found) > 1:
            _refuse(f"ambiguous option: {token} could match {', '.join(found)}", command)
        if found:
            return found[0], value if eq else None
    elif token.startswith("-h"):
        return "-h", token[2:]
    number, dot, fraction = token[1:].partition(".")
    if (number + fraction).isdecimal() and (fraction.isdecimal() or not dot) or " " in token:
        return None
    return None, None


def _parse_command(command: str, tokens: list[str], extras: list[str]):
    """The namespace of ``command`` from the tokens after it; unknown tokens go to ``extras``."""
    handler, reads_file, names, _ = COMMANDS[command]
    args = types.SimpleNamespace(command=command, handler=handler)
    for name in names:
        setattr(args, name[2:], False if OPTIONS[name][0] == "flag" else None)
    # the first "--" ends the options; it goes with the file when it touches it
    cut = tokens.index("--") if "--" in tokens else len(tokens)
    kinds = [_option(token, HELP + names, command) for token in tokens[:cut]]
    kinds += ["--"] + [None] * (len(tokens) - cut - 1)
    pending, i = reads_file, 0
    while i < len(tokens):
        token, kind = tokens[i], kinds[i]
        i += 1
        if kind is None and pending:
            args.file, pending = token, False
            i += kinds[i:i + 1] == ["--"]
        elif kind == "--" and pending and i < len(tokens):
            args.file, pending = tokens[i], False
            i += 1
        elif kind is None or kind == "--" or kind[0] is None:
            extras.append(token)
        elif kind[1] is not None and (kind[0] in HELP or OPTIONS[kind[0]][0] == "flag"):
            _refuse(f"argument {'-h/--help' if kind[0] in HELP else kind[0]}: "
                    f"ignored explicit argument {kind[1]!r}", command)
        elif kind[0] in HELP:
            _help()
        else:
            name, value = kind
            option_kind, dest = OPTIONS[name][0], name[2:]
            if option_kind == "flag":
                value = True
            elif value is None:
                if i == len(tokens) or kinds[i] is not None:
                    _refuse(f"argument {name}: expected one argument", command)
                value, i = tokens[i], i + 1
            if option_kind == "int":
                if (number := _ascii_int(value)) is None:
                    _refuse(f"argument {name}: invalid int value: {value!r}", command)
                value = number
            elif option_kind == "list":
                value = (getattr(args, dest) or []) + [value]
            setattr(args, dest, value)
    if pending:
        _refuse("the following arguments are required: file", command)
    return args


def parse_args(argv=None):
    """The attributes every ``cmd_*`` reads, from ``argv`` or the process's arguments.
    A usage error exits 2 with nothing on stdout; ``-h`` prints the help and exits 0."""
    tokens = sys.argv[1:] if argv is None else list(argv)
    extras = []   # the unknown options before the command, then those after it
    for i, token in enumerate(tokens):
        if token == "--" and i + 1 == len(tokens):   # a last "--" leaves no command;
            break                                     # any other is read as one
        kind = None if token == "--" else _option(token, HELP)
        if kind is None:
            if token not in COMMANDS:
                _refuse(f"argument command: invalid choice: {token!r} "
                        f"(choose from {', '.join(map(repr, COMMANDS))})")
            args = _parse_command(token, tokens[i + 1:], extras)
            if extras:
                _refuse(f"unrecognized arguments: {' '.join(extras)}")
            return args
        if kind[0] is None:
            extras.append(token)
        elif kind[1] is not None:
            _refuse(f"argument -h/--help: ignored explicit argument {kind[1]!r}")
        else:
            _help()
    _refuse("the following arguments are required: command")


def main(argv=None) -> int:
    args = parse_args(argv)
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
