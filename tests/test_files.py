import io
import re
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from evoaut import EvolutionAlgebra
from evoaut.autgroup import diag_system
from evoaut.cli import main
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
from evoaut.monomial import ExponentDecomposition, GroupDescription
from evoaut.scalar import PrimeField, QQ
from evoaut.snf import smith_normal_form

from helpers import (
    F2,
    F5,
    F7,
    assert_raises_exactly,
    dense_exponent_rows,
    square_of,
    structure_matrix,
)

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


@pytest.mark.parametrize("tag", ["F\u00b2", "F\u0663", "F\uff17"],
                         ids=["superscript-two", "arabic-indic-three", "fullwidth-seven"])
def test_field_tag_digits_are_ascii(tag):
    # str.isdigit accepts each of these, and int() reads the last two as 3
    # and 7; a tag is refused as malformed instead, in a field line too
    assert_raises_exactly(lambda: parse_field_tag(tag), ParseError,
                          f"bad field tag {tag!r} (expected F<p> or Q)")
    for parser, text in ((parse_algebra, f"field {tag}\nbasis a\n"),
                         (parse_graph, f"vertices a\nfield {tag}\n")):
        line = text.splitlines().index(f"field {tag}") + 1
        assert_raises_exactly(lambda: parser(text), ParseError,
                              f"bad field tag {tag!r} (expected F<p> or Q) (line {line})")


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
    assert str(structure_matrix(a)[1][0]) == "2"
    assert square_of(a, 1) == a.zero_vector()


def test_parse_algebra_unicode_minus_and_fractions():
    a = parse_algebra("field Q\nbasis x y\nsq x = −1/2*y\n")
    assert str(structure_matrix(a)[1][0]) == "-1/2"


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
    # a literal that repeats is parsed once, and still rejected at its first line
    "repeated bad literal (algebra)":
        (ALG, "field F7\nbasis a b\nsq a = 2*a + x*b\nsq b = x*a\n", 3),
    "repeated bad literal (graph)":
        (GRAPH, "field F7\nvertices a b\nedge a -> a w=2\nedge a -> b w=x\nedge b -> a w=x\n", 4),
    "repeated zero coefficient (algebra)":
        (ALG, "field F7\nbasis a b\nsq a = 2*a + 14*b\nsq b = 14*a\n", 3),
    "repeated zero weight (graph)":
        (GRAPH, "field F7\nvertices a b\nedge a -> a w=2\nedge a -> b w=0\nedge b -> a w=0\n", 4),
    # of two distinct zero literals, the first in file order is reported,
    # though its edge's pair of basis indices sorts after the other's
    "two zero literals (algebra)": (ALG, "field Q\nbasis a b\nsq b = 0/3*a\nsq a = 2*a + 0*b\n", 3),
    "two zero literals (graph)":
        (GRAPH, "vertices a b\nedge a -> a w=2\nedge b -> a w=0/3\nedge a -> b w=0\n", 3),
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
    text = "\n".join(structured_lines([
        ("command", "diag"),
        ("diag", group.describe()),
        ("free_rank", str(group.free_rank)),
        ("torsion", ",".join(str(d) for d in group.torsion)),
    ])) + "\n"
    pairs = parse_structured(text)
    rebuilt = group_from_structured(pairs, field=F5)
    assert rebuilt.free_rank == group.free_rank
    assert rebuilt.torsion == group.torsion
    assert rebuilt.describe() == group.describe()
    assert rebuilt.concrete_order() == group.concrete_order()


def test_structured_symbolic_round_trip():
    text = "\n".join(structured_lines([("command", "tate"), ("symbol", "Z_2")])) + "\n"
    rebuilt = group_from_structured(parse_structured(text))
    assert rebuilt.describe() == "Z_2"


def test_structured_requires_format_tag():
    with pytest.raises(ParseError):
        parse_structured("command = diag\n")


def test_mutated_samples_exit_with_an_answer_a_parse_error_or_a_cap(tmp_path):
    """Sample files with random token and character edits, through every
    command that reads a file: each exits 0, 2 or 3, never 4 or a traceback."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    texts = [path.read_text() for path in sorted(SAMPLES.iterdir())]
    tokens = sorted({token for text in texts for token in text.split()}
                    | {"0", "-1", "1/0", "0*v1", "F2", "F4", "F2147483647", "Q", "->", "=", "#"})
    chars = " \n#*+-/=>.0123456789Feuvwxy"
    edits = st.lists(st.tuples(st.sampled_from(["token", "char"]), st.integers(0, 10**4),
                               st.sampled_from(["delete", "insert", "replace"]),
                               st.sampled_from(tokens), st.sampled_from(chars)),
                     min_size=1, max_size=4)
    path = tmp_path / "mutated"

    def mutate(text, edit):
        kind, at, op, token, char = edit
        if kind == "token":   # split keeps the whitespace at the odd positions
            parts, step, new, sep = re.split(r"(\s+)", text), 2, token, " "
        else:
            parts, step, new, sep = list(text), 1, char, ""
        if not parts:
            return new
        i = at % ((len(parts) + step - 1) // step) * step
        parts[i] = {"delete": "", "insert": new + sep + parts[i], "replace": new}[op]
        return "".join(parts)

    @hypothesis.settings(max_examples=150, deadline=None, database=None)
    @hypothesis.given(st.sampled_from(texts), edits)
    def check(text, edits):
        for edit in edits:
            text = mutate(text, edit)
        path.write_text(text)
        for command in ("diag", "aut", "check", "convert"):
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                code = main([command, str(path)])
            assert code in (0, 2, 3), (command, text)

    check()


def test_parsed_algebra_equals_the_one_built_from_its_squares():
    # the parser builds an algebra from its edges, one scalar per edge; the
    # same structure matrix given densely to from_squares gives the same
    # algebra, and the diagonal system, held by its nonzeros, the same SNF
    # as the dense exponent matrix
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def structures(draw):
        field = draw(st.sampled_from([F2, F7, PrimeField(683), QQ]))
        n = draw(st.integers(1, 12))
        p = getattr(field, "p", 0)
        # a nonzero weight, an integer or a/b, with neither part divisible by p
        part = st.integers(-50, 50).filter(lambda x: x % p if p else x)
        weight = st.builds(Fraction, part, part.map(abs))
        squares = [[0] * n for _ in range(n)]
        for i in range(n):   # loops and zero squares included
            for j in draw(st.sets(st.integers(0, n - 1), max_size=n)):
                squares[i][j] = draw(weight)
        return field, squares, draw(st.permutations(range(n)))

    @hypothesis.settings(max_examples=150, deadline=None, database=None)
    @hypothesis.given(structures())
    def check(case):
        field, squares, order = case
        n = len(squares)
        labels = [f"v{k}" for k in order]
        lines = [f"field {field_tag(field)}", "basis " + " ".join(labels)]
        for i in reversed(order):   # sq lines and their terms out of basis order
            terms = [f"{w}*{labels[j]}" for j, w in reversed(list(enumerate(squares[i]))) if w]
            if terms:
                lines.append(f"sq {labels[i]} = " + " + ".join(terms))
        parsed = parse_algebra("\n".join(lines) + "\n")
        built = EvolutionAlgebra.from_squares(field, squares, labels=labels)
        assert (parsed.weights, parsed.edges, parsed.labels) == \
            (built.weights, built.edges, built.labels)
        assert parsed == built and hash(parsed) == hash(built)
        snf = ExponentDecomposition(diag_system(parsed))._snf
        dense = smith_normal_form(dense_exponent_rows(built), n)
        assert (snf.row_ops, snf.col_ops, snf.diagonal) == \
            (dense.row_ops, dense.col_ops, dense.diagonal)

    check()


def test_structured_line_without_an_equals_sign_is_refused():
    assert_raises_exactly(lambda: parse_structured("format = evoaut/1\ndiag 1\n"), ParseError,
                          "expected 'key = value' (line 2)")
