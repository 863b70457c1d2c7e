"""Line-based text formats for algebras, graphs, and structured reports.

All formats are diff-friendly: blank lines and ``#`` comments are ignored on
input, and the serializers emit a unique canonical form.  An algebra file is

    field F7
    basis u1 u2
    sq u1 = 1*u1 + 2*u2

with one ``sq`` line per basis element whose square is nonzero.  A graph file
writes the same algebra as its associated graph: ``vertices`` lists the basis
and each ``edge src -> dst w=<scalar>`` line says that dst appears in src**2
with coefficient w.  One reader parses both formats to an ``EvolutionAlgebra``:
only the label line (``basis`` or ``vertices``) and the entry lines differ,
and every entry line becomes edges of ``EvolutionAlgebra.edges``.  The
``field`` line may come anywhere; a graph file may omit it (the caller may
supply a default, else Q), and both serializers emit it first.  Structured
reports are ``key = value`` lines under the version tag ``evoaut/1``.
"""

from __future__ import annotations

import itertools

from .algebra import EvolutionAlgebra
from .errors import EvoautError, ParseError
from .monomial import GroupDescription
from .scalar import Field, PrimeField, QQ

STRUCTURED_FORMAT = "evoaut/1"


def parse_field_tag(tag: str) -> Field:
    """``F<p>`` or ``Q`` into a field object; p is written in the ASCII
    digits 0-9 only."""
    tag = tag.strip()
    if tag == "Q":
        return QQ
    digits = tag[1:]
    if tag.startswith("F") and digits.isascii() and digits.isdigit():
        try:
            return PrimeField(int(digits))
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


def _read(text: str, label_head: str, entry_head: str, entry_edges,
          default_field: Field | None) -> EvolutionAlgebra:
    """The one line loop behind both file formats.

    ``label_head`` names the label line and ``entry_head`` the entry lines;
    ``entry_edges(tokens, line_no)`` turns one entry line into (src, dst,
    literal) edges, each keyed by its pair of basis indices as it is read.
    Literals are read after the loop, once the field is known (the
    ``field`` line, else ``default_field``): each distinct one is parsed and
    checked for zero once, at its first line in file order, which is where
    a bad or zero literal is reported.  The algebra is built from its edge
    list.
    """
    field = labels = None
    edges: dict[tuple[int, int], tuple[str, int]] = {}
    for line_no, line in _content_lines(text):
        head, *tokens = line.split()
        if head == "field":
            if field is not None:
                raise ParseError("duplicate field line", line=line_no)
            if len(tokens) != 1:
                raise ParseError("expected: field F<p> | field Q", line=line_no)
            try:
                field = parse_field_tag(tokens[0])
            except ParseError as exc:
                raise ParseError(str(exc), line=line_no) from exc
        elif head == label_head:
            if labels is not None:
                raise ParseError(f"duplicate {label_head} line", line=line_no)
            if not tokens:
                raise ParseError(f"{label_head} line lists no labels", line=line_no)
            labels = {label: i for i, label in enumerate(tokens)}
            if len(labels) != len(tokens):
                raise ParseError("labels must be distinct", line=line_no)
        elif head == entry_head:
            if labels is None:
                raise ParseError(f"{entry_head} line before the {label_head} line",
                                 line=line_no)
            for src, dst, literal in entry_edges(tokens, line_no):
                try:
                    key = labels[src], labels[dst]
                except KeyError:
                    label = dst if src in labels else src
                    raise ParseError(f"unknown label {label!r}", line=line_no) from None
                if key in edges:
                    raise ParseError(f"duplicate edge {src} -> {dst} "
                                     "(at most one edge per ordered pair)", line=line_no)
                edges[key] = literal, line_no
        else:
            raise ParseError(f"unknown directive {head!r}", line=line_no)
    if labels is None:
        raise ParseError(f"the file has no {label_head} line")
    field = field if field is not None else default_field
    if field is None:
        raise ParseError("the file has no field line")
    weighted, scalars = [], {}
    for (i, j), (literal, line_no) in edges.items():
        if (w := scalars.get(literal)) is None:
            try:
                w = scalars[literal] = field.parse(literal)
            except EvoautError as exc:
                raise ParseError(f"bad scalar literal {literal!r}: {exc}", line=line_no) from exc
            if w.is_zero():
                raise ParseError("zero coefficients and weights must be omitted", line=line_no)
        weighted.append((i, j, w))
    return EvolutionAlgebra(field, len(labels), weighted, labels=list(labels))


def parse_algebra(text: str) -> EvolutionAlgebra:
    squared = set()

    def sq_edges(tokens, line_no):  # u = c*v + ...: edges u -> v of weight c
        terms = tokens[2::2]
        if len(tokens) % 2 == 0 or tokens[1:2] != ["="] or set(tokens[3::2]) - {"+"} \
                or not all("*" in term for term in terms):
            raise ParseError("expected: sq <label> = <coeff>*<label> [+ ...]", line=line_no)
        if tokens[0] in squared:
            raise ParseError(f"duplicate sq line for {tokens[0]!r}", line=line_no)
        squared.add(tokens[0])
        return [(tokens[0], label, literal)
                for literal, label in (term.split("*", 1) for term in terms)]

    return _read(text, "basis", "sq", sq_edges, None)


def serialize_algebra(algebra: EvolutionAlgebra) -> str:
    lines = [f"field {field_tag(algebra.field)}",
             "basis " + " ".join(algebra.labels)]
    for i, edges in itertools.groupby(algebra.edges, key=lambda e: e[0]):
        terms = [f"{w}*{algebra.labels[j]}" for _, j, w in edges]
        lines.append(f"sq {algebra.labels[i]} = " + " + ".join(terms))
    return "\n".join(lines) + "\n"


def _edge_edges(tokens, line_no):  # u -> v w=c
    if len(tokens) != 4 or tokens[1] != "->" or not tokens[3].startswith("w="):
        raise ParseError("expected: edge <src> -> <dst> w=<scalar>", line=line_no)
    return [(tokens[0], tokens[2], tokens[3][2:])]


def parse_graph(text: str, default_field: Field | None = None) -> EvolutionAlgebra:
    return _read(text, "vertices", "edge", _edge_edges,
                 default_field if default_field is not None else QQ)


def serialize_graph(algebra: EvolutionAlgebra) -> str:
    labels = algebra.labels
    lines = [f"field {field_tag(algebra.field)}", "vertices " + " ".join(labels)]
    lines += [f"edge {labels[i]} -> {labels[j]} w={w}" for i, j, w in algebra.edges]
    return "\n".join(lines) + "\n"


# -- structured report format -------------------------------------------

def structured_lines(pairs):
    """The format tag, then one ``key = value`` line per pair of the iterable ``pairs``."""
    yield f"format = {STRUCTURED_FORMAT}"
    yield from (f"{key} = {value}" for key, value in pairs)


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
