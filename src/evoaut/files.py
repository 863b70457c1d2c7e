"""Line-based text formats for algebras, graphs, and structured reports.

All formats are diff-friendly: blank lines and ``#`` comments are ignored on
input, and the serializers emit a unique canonical form.  An algebra file is

    field F7
    basis u1 u2
    sq u1 = 1*u1 + 2*u2

with one ``sq`` line per basis element whose square is nonzero.  A graph file
writes the same algebra as its associated graph: ``vertices`` lists the basis
and each ``edge src -> dst w=<scalar>`` line says that dst appears in src**2
with coefficient w.  Both formats parse to an ``EvolutionAlgebra``, and
``serialize_graph`` writes one edge line per entry of its ``edges``.  The
leading ``field`` line of a graph file is optional on input (it may instead
be supplied by the caller) and always emitted on output.  Structured reports
are ``key = value`` lines under the version tag ``evoaut/1``.
"""

from __future__ import annotations

import itertools

from .algebra import EvolutionAlgebra
from .errors import EvoautError, ParseError
from .monomial import GroupDescription
from .scalar import Field, PrimeField, QQ, Scalar

STRUCTURED_FORMAT = "evoaut/1"


def parse_field_tag(tag: str) -> Field:
    """``F<p>`` or ``Q`` into a field object."""
    tag = tag.strip()
    if tag == "Q":
        return QQ
    if tag.startswith("F") and tag[1:].isdigit():
        try:
            return PrimeField(int(tag[1:]))
        except EvoautError as exc:
            raise ParseError(f"bad field tag {tag!r}: {exc}") from exc
    raise ParseError(f"bad field tag {tag!r} (expected F<p> or Q)")


def field_tag(field: Field) -> str:
    return f"F{field.p}" if isinstance(field, PrimeField) else "Q"


def _content_lines(text: str):
    """(line_number, stripped_content) for every non-blank, non-comment line."""
    for number, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if stripped and not stripped.startswith("#"):
            yield number, stripped


def detect_format(text: str) -> str:
    for _, line in _content_lines(text):
        head = line.split()[0]
        if head in ("basis", "sq"):
            return "algebra"
        if head in ("vertices", "edge"):
            return "graph"
    raise ParseError("cannot tell whether this is an algebra or a graph file")


def _parse_scalar(field: Field, literal: str, line: int) -> Scalar:
    try:
        return field.parse(literal)
    except EvoautError as exc:
        raise ParseError(f"bad scalar literal {literal!r}: {exc}", line=line) from exc


def parse_algebra(text: str) -> EvolutionAlgebra:
    field = None
    labels = None
    squares: dict[str, list[tuple[str, Scalar]]] = {}
    for line_no, line in _content_lines(text):
        tokens = line.split()
        head = tokens[0]
        if head == "field":
            if field is not None:
                raise ParseError("duplicate field line", line=line_no)
            if len(tokens) != 2:
                raise ParseError("expected: field F<p> | field Q", line=line_no)
            field = parse_field_tag(tokens[1])
        elif head == "basis":
            if field is None:
                raise ParseError("field line must precede the basis", line=line_no)
            if labels is not None:
                raise ParseError("duplicate basis line", line=line_no)
            labels = tokens[1:]
            if not labels:
                raise ParseError("basis line lists no labels", line=line_no)
            if len(set(labels)) != len(labels):
                raise ParseError("basis labels must be distinct", line=line_no)
        elif head == "sq":
            if labels is None:
                raise ParseError("sq line before the basis line", line=line_no)
            if len(tokens) < 4 or tokens[2] != "=":
                raise ParseError("expected: sq <label> = <coeff>*<label> [+ ...]",
                                 line=line_no)
            target = tokens[1]
            if target not in labels:
                raise ParseError(f"unknown basis label {target!r}", line=line_no)
            if target in squares:
                raise ParseError(f"duplicate sq line for {target!r}", line=line_no)
            squares[target] = _parse_terms(field, labels, tokens[3:], line_no)
        else:
            raise ParseError(f"unknown directive {head!r}", line=line_no)
    if field is None or labels is None:
        raise ParseError("algebra file needs field and basis lines")
    index = {label: i for i, label in enumerate(labels)}
    n = len(labels)
    rows = [[field.zero] * n for _ in range(n)]
    for target, terms in squares.items():
        for label, coeff in terms:
            rows[index[label]][index[target]] = coeff
    return EvolutionAlgebra(field, rows, labels=labels)


def _parse_terms(field: Field, labels, tokens, line_no: int):
    terms = []
    expect_term = True
    for token in tokens:
        if not expect_term:
            if token != "+":
                raise ParseError(f"expected '+' between terms, got {token!r}", line=line_no)
            expect_term = True
            continue
        if "*" not in token:
            raise ParseError(f"term {token!r} is not of the form <coeff>*<label>",
                             line=line_no)
        literal, label = token.split("*", 1)
        if label not in labels:
            raise ParseError(f"unknown basis label {label!r}", line=line_no)
        if any(label == seen for seen, _ in terms):
            raise ParseError(f"label {label!r} repeated within one square", line=line_no)
        coeff = _parse_scalar(field, literal, line_no)
        if coeff.is_zero():
            raise ParseError("zero coefficients must be omitted", line=line_no)
        terms.append((label, coeff))
        expect_term = False
    if expect_term:
        raise ParseError("dangling '+' or empty square", line=line_no)
    return terms


def serialize_algebra(algebra: EvolutionAlgebra) -> str:
    lines = [f"field {field_tag(algebra.field)}",
             "basis " + " ".join(algebra.labels)]
    for i, edges in itertools.groupby(algebra.edges, key=lambda e: e[0]):
        terms = [f"{w}*{algebra.labels[j]}" for _, j, w in edges]
        lines.append(f"sq {algebra.labels[i]} = " + " + ".join(terms))
    return "\n".join(lines) + "\n"


def parse_graph(text: str, default_field: Field | None = None) -> EvolutionAlgebra:
    field = None
    vertices = None
    edges: dict[tuple[str, str], tuple[str, int]] = {}
    for line_no, line in _content_lines(text):
        tokens = line.split()
        head = tokens[0]
        if head == "field":
            if field is not None:
                raise ParseError("duplicate field line", line=line_no)
            if len(tokens) != 2:
                raise ParseError("expected: field F<p> | field Q", line=line_no)
            field = parse_field_tag(tokens[1])
        elif head == "vertices":
            if vertices is not None:
                raise ParseError("duplicate vertices line", line=line_no)
            vertices = tokens[1:]
            if not vertices:
                raise ParseError("vertices line lists no labels", line=line_no)
            if len(set(vertices)) != len(vertices):
                raise ParseError("vertex labels must be distinct", line=line_no)
        elif head == "edge":
            if vertices is None:
                raise ParseError("edge line before the vertices line", line=line_no)
            if len(tokens) != 5 or tokens[2] != "->" or not tokens[4].startswith("w="):
                raise ParseError("expected: edge <src> -> <dst> w=<scalar>", line=line_no)
            src, dst = tokens[1], tokens[3]
            for label in (src, dst):
                if label not in vertices:
                    raise ParseError(f"unknown vertex {label!r}", line=line_no)
            if (src, dst) in edges:
                raise ParseError(f"duplicate edge {src} -> {dst} "
                                 "(at most one edge per ordered pair)", line=line_no)
            edges[(src, dst)] = (tokens[4][2:], line_no)
        else:
            raise ParseError(f"unknown directive {head!r}", line=line_no)
    if vertices is None:
        raise ParseError("graph file needs a vertices line")
    if field is None:
        field = default_field if default_field is not None else QQ
    index = {label: i for i, label in enumerate(vertices)}
    n = len(vertices)
    rows = [[field.zero] * n for _ in range(n)]
    for (src, dst), (literal, line_no) in edges.items():
        w = _parse_scalar(field, literal, line_no)
        if w.is_zero():
            raise ParseError("edge weights must be nonzero", line=line_no)
        rows[index[dst]][index[src]] = w
    return EvolutionAlgebra(field, rows, labels=vertices)


def serialize_graph(algebra: EvolutionAlgebra) -> str:
    labels = algebra.labels
    lines = [f"field {field_tag(algebra.field)}", "vertices " + " ".join(labels)]
    lines += [f"edge {labels[i]} -> {labels[j]} w={w}" for i, j, w in algebra.edges]
    return "\n".join(lines) + "\n"


# -- structured report format -------------------------------------------

def structured_lines(pairs) -> str:
    out = [f"format = {STRUCTURED_FORMAT}"]
    for key, value in pairs:
        out.append(f"{key} = {value}")
    return "\n".join(out) + "\n"


def parse_structured(text: str) -> list[tuple[str, str]]:
    pairs = []
    for line_no, line in _content_lines(text):
        if " = " not in line:
            raise ParseError("expected 'key = value'", line=line_no)
        key, value = line.split(" = ", 1)
        pairs.append((key.strip(), value.strip()))
    if not pairs or pairs[0] != ("format", STRUCTURED_FORMAT):
        raise ParseError(f"missing '{STRUCTURED_FORMAT}' format tag")
    return pairs


def group_from_structured(pairs, field: Field | None = None) -> GroupDescription:
    """Rebuild the abstract group shape from a structured report."""
    values = {}
    for key, value in pairs:
        values.setdefault(key, []).append(value)
    if "symbol" in values:
        return GroupDescription(free_rank=0, torsion=(), symbol=values["symbol"][0])
    free_rank = int(values.get("free_rank", ["0"])[0])
    torsion_text = values.get("torsion", [""])[0]
    torsion = tuple(int(d) for d in torsion_text.split(",") if d)
    return GroupDescription(free_rank=free_rank, torsion=torsion, field=field)
