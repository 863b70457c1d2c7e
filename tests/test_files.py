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
