from pathlib import Path

import pytest

from evoaut.errors import ParseError
from evoaut.files import (
    detect_format,
    field_tag,
    group_from_structured,
    parse_algebra,
    parse_field_tag,
    parse_graph,
    parse_structured,
    serialize_algebra,
    serialize_graph,
    structured_lines,
)
from evoaut.monomial import GroupDescription
from evoaut.scalar import QQ

from helpers import F5, F7

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def test_parse_field_tag():
    assert parse_field_tag("F7") == F7
    assert parse_field_tag("Q") == QQ
    assert field_tag(F5) == "F5"
    assert field_tag(QQ) == "Q"
    with pytest.raises(ParseError):
        parse_field_tag("F9")
    with pytest.raises(ParseError):
        parse_field_tag("GF(7)")


def test_sample_files_round_trip():
    for path in sorted(SAMPLES.iterdir()):
        text = path.read_text()
        if detect_format(text) == "algebra":
            algebra = parse_algebra(text)
            assert parse_algebra(serialize_algebra(algebra)) == algebra
        else:
            algebra = parse_graph(text)
            assert parse_graph(serialize_graph(algebra)) == algebra


def test_parse_algebra_basics():
    a = parse_algebra("""
# comment
field F7
basis a b
sq a = 1*a + 2*b
""")
    assert a.labels == ("a", "b")
    assert str(a.entry(1, 0)) == "2"
    assert a.square_of(1) == a.zero_vector()


def test_parse_algebra_unicode_minus_and_fractions():
    a = parse_algebra("field Q\nbasis x y\nsq x = −1/2*y\n")
    assert str(a.entry(1, 0)) == "-1/2"


def test_parse_algebra_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_algebra("field F7\nbasis a\nsq a = 1*zz\n")
    assert err.value.line == 3
    with pytest.raises(ParseError):
        parse_algebra("basis a\n")  # missing field line
    with pytest.raises(ParseError):
        parse_algebra("field F7\nbasis a a\n")
    with pytest.raises(ParseError):
        parse_algebra("field F7\nbasis a\nsq a = 1*a\nsq a = 1*a\n")
    with pytest.raises(ParseError):
        parse_algebra("field F7\nbasis a b\nsq a = 1*a + \n")
    with pytest.raises(ParseError):
        parse_algebra("field F7\nbasis a b\nsq a = 1*a 2*b\n")
    with pytest.raises(ParseError):
        parse_algebra("field F7\nbasis a\nsq a = 7*a\n")  # zero coefficient mod 7


ALG, GRAPH = parse_algebra, parse_graph

# (parser, text, line of the error); each rejection in both spellings where
# the format has that construct
REJECTIONS = {
    "duplicate field (algebra)": (ALG, "field F7\nbasis a\nfield F7\n", 3),
    "duplicate field (graph)": (GRAPH, "field F7\nvertices a\nfield F5\n", 3),
    "bad field tag (algebra)": (ALG, "field F8\nbasis a\n", 1),
    "bad field tag (graph)": (GRAPH, "vertices a\nfield F7 F5\n", 2),
    "second label line (algebra)": (ALG, "field F7\nbasis a\nbasis b\n", 3),
    "second label line (graph)": (GRAPH, "vertices a\nvertices a\n", 2),
    "empty label line (algebra)": (ALG, "field F7\nbasis\n", 2),
    "empty label line (graph)": (GRAPH, "vertices\n", 1),
    "repeated labels (algebra)": (ALG, "field F7\nbasis a b a\n", 2),
    "repeated labels (graph)": (GRAPH, "vertices a b a\n", 1),
    "entry before labels (algebra)": (ALG, "field F7\nsq a = 1*a\nbasis a\n", 2),
    "entry before labels (graph)": (GRAPH, "edge a -> a w=1\nvertices a\n", 1),
    "unknown source (algebra)": (ALG, "field F7\nbasis a\nsq b = 1*a\n", 3),
    "unknown target (algebra)": (ALG, "field F7\nbasis a\nsq a = 1*zz\n", 3),
    "unknown source (graph)": (GRAPH, "vertices a b\nedge c -> a w=1\n", 2),
    "unknown target (graph)": (GRAPH, "vertices a b\nedge a -> c w=1\n", 2),
    "duplicate pair (algebra)": (ALG, "field F7\nbasis a b\nsq a = 1*b + 2*b\n", 3),
    "duplicate pair (graph)": (GRAPH, "vertices a b\nedge a -> b w=2\nedge a -> b w=3\n", 3),
    "second sq line, same terms": (ALG, "field F7\nbasis a\nsq a = 1*a\nsq a = 1*a\n", 4),
    "second sq line, other terms": (ALG, "field F7\nbasis a b\nsq a = 1*a\nsq a = 1*b\n", 4),
    "no '=' (algebra)": (ALG, "field F7\nbasis a\nsq a 1*a\n", 3),
    "bare sq (algebra)": (ALG, "field F7\nbasis a\nsq\n", 3),
    "empty square (algebra)": (ALG, "field F7\nbasis a\nsq a =\n", 3),
    "dangling plus (algebra)": (ALG, "field F7\nbasis a b\nsq a = 1*a +\n", 3),
    "missing plus (algebra)": (ALG, "field F7\nbasis a b\nsq a = 1*a 2*b\n", 3),
    "term without '*' (algebra)": (ALG, "field F7\nbasis a\nsq a = a\n", 3),
    "no arrow (graph)": (GRAPH, "vertices a b\nedge a b w=1\n", 2),
    "no weight (graph)": (GRAPH, "vertices a b\nedge a -> b\n", 2),
    "weight without 'w=' (graph)": (GRAPH, "vertices a b\nedge a -> b 1\n", 2),
    "bad literal (algebra)": (ALG, "field F7\nbasis a\nsq a = x*a\n", 3),
    "bad literal (graph)": (GRAPH, "vertices a\nedge a -> a w=x\n", 2),
    "vanishing denominator (algebra)": (ALG, "field F7\nbasis a\nsq a = 1/7*a\n", 3),
    "vanishing denominator (graph)": (GRAPH, "field F7\nvertices a\nedge a -> a w=1/7\n", 3),
    "zero coefficient (algebra)": (ALG, "field F7\nbasis a b\nsq a = 1*a + 7*b\n", 3),
    "zero weight (graph)": (GRAPH, "vertices a\nedge a -> a w=0\n", 2),
    "edge in an algebra file": (ALG, "field F7\nbasis a\nedge a -> a w=1\n", 3),
    "sq in a graph file": (GRAPH, "vertices a\nsq a = 1*a\n", 2),
    "basis in a graph file": (GRAPH, "field F7\nbasis a\n", 2),
    "vertices in an algebra file": (ALG, "field F7\nvertices a\n", 2),
    "no label line (algebra)": (ALG, "field F7\n", None),
    "no label line (graph)": (GRAPH, "field F7\n", None),
    "no field line (algebra)": (ALG, "basis a\nsq a = 1*a\n", None),
}


@pytest.mark.parametrize("parser, text, line", REJECTIONS.values(), ids=REJECTIONS)
def test_parsers_reject_with_the_line_number(parser, text, line):
    with pytest.raises(ParseError) as err:
        parser(text)
    assert err.value.line == line


def test_duplicate_pair_names_the_edge():
    for parser, text, _ in (REJECTIONS["duplicate pair (algebra)"],
                            REJECTIONS["duplicate pair (graph)"]):
        with pytest.raises(ParseError, match="duplicate edge"):
            parser(text)


def test_algebra_field_line_may_follow_the_basis():
    first = parse_algebra("field F7\nbasis a b\nsq a = 1*a + 2*b\n")
    assert parse_algebra("basis a b\nfield F7\nsq a = 1*a + 2*b\n") == first
    assert parse_algebra("basis a b\nsq a = 1*a + 2*b\nfield F7\n") == first


def test_parse_graph_and_sing_condition():
    a = parse_graph("field F5\nvertices a b\nedge a -> b w=2\n")
    assert a.edges == ((0, 1, F5.scalar(2)),)
    assert a.labels == ("a", "b")
    with pytest.raises(ParseError) as err:
        parse_graph("vertices a b\nedge a -> b w=2\nedge a -> b w=3\n")
    assert "duplicate edge" in str(err.value)
    with pytest.raises(ParseError):
        parse_graph("vertices a b\nedge a -> b w=0\n")
    with pytest.raises(ParseError):
        parse_graph("vertices a b\nedge a -> c w=1\n")


def test_parse_graph_default_field():
    text = "vertices a\nedge a -> a w=1/2\n"
    assert parse_graph(text).field == QQ
    assert parse_graph(text, default_field=F5).field == F5
    # an explicit field line wins over the default
    assert parse_graph("field F7\n" + text, default_field=F5).field == F7


def test_detect_format():
    assert detect_format("field Q\nbasis a\n") == "algebra"
    assert detect_format("field Q\nvertices a\n") == "graph"
    with pytest.raises(ParseError):
        detect_format("field Q\n")


def test_structured_round_trip():
    group = GroupDescription(free_rank=1, torsion=(2, 2), field=F5)
    text = structured_lines([
        ("command", "diag"),
        ("diag", group.describe()),
        ("free_rank", str(group.free_rank)),
        ("torsion", ",".join(str(d) for d in group.torsion)),
    ])
    pairs = parse_structured(text)
    rebuilt = group_from_structured(pairs, field=F5)
    assert rebuilt.free_rank == group.free_rank
    assert rebuilt.torsion == group.torsion
    assert rebuilt.describe() == group.describe()
    assert rebuilt.concrete_order() == group.concrete_order()


def test_structured_symbolic_round_trip():
    text = structured_lines([("command", "tate"), ("symbol", "Z_2")])
    rebuilt = group_from_structured(parse_structured(text))
    assert rebuilt.describe() == "Z_2"


def test_structured_requires_format_tag():
    with pytest.raises(ParseError):
        parse_structured("command = diag\n")
