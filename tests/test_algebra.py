import itertools
import random
from fractions import Fraction

import pytest

from evoaut import EvolutionAlgebra
from evoaut.algebra import (
    BasisChange,
    Naturality,
    _natural_bases,
    _scalar_multiple,
    check_natural_basis,
    is_natural_vector,
    same_orbit,
    vec_is_zero,
    verify_unique_basis_up_to_scaling,
)
from evoaut.errors import (
    DimensionMismatch,
    NotANaturalBasis,
    TooLarge,
    ZeroVector,
)
from evoaut.scalar import QQ

from helpers import (
    F2,
    F3,
    F5,
    F7,
    assert_raises_exactly,
    chain_2li_algebra,
    ear_algebra,
    random_algebra,
    reference_det,
    reference_f2_basis_search,
    reference_rank,
    reference_scalar_multiple,
    reference_two_li_witness,
    reference_unique_basis,
    square_of,
    structure_matrix,
    three_cycle_algebra,
    two_loop_algebra,
    zero_square_algebra,
)


def multiply_oracle(algebra, u, v):
    """Independent product: expand sum_i sum_j u_i v_j e_i e_j term by term."""
    out = list(algebra.zero_vector())
    for i in range(algebra.dim):
        for j in range(algebra.dim):
            if i != j:
                continue  # distinct basis elements multiply to zero
            c = u[i] * v[j]
            square = square_of(algebra, i)
            for k in range(algebra.dim):
                out[k] = out[k] + c * square[k]
    return tuple(out)


def test_multiply_basic_examples():
    a = EvolutionAlgebra.from_squares(QQ, [[1, 2], [0, 0]])  # e1^2 = e1 + 2e2
    e1, e2 = a.basis_vector(0), a.basis_vector(1)
    assert a.multiply(e1, e1) == a.vector([1, 2])
    assert vec_is_zero(a.multiply(e1, e2))


def test_multiply_bilinear_expansion():
    a = two_loop_algebra(QQ)  # e1^2 = e1 + e2, e2^2 = 2e1 + e2
    u = a.vector([1, 1])
    v = a.vector([1, -1])
    # (e1 + e2)(e1 - e2) = e1^2 - e2^2 = (1,1) - (2,1) = (-1, 0)
    expected = a.vector([-1, 0])
    assert a.multiply(u, v) == expected
    assert multiply_oracle(a, u, v) == expected


def test_multiply_commutative_bilinear_random():
    rng = random.Random(31)
    for algebra in (two_loop_algebra(F5), ear_algebra(F7), three_cycle_algebra()):
        f = algebra.field
        def rand_vec():
            if f is QQ:
                return algebra.vector([rng.randint(-3, 3) for _ in range(algebra.dim)])
            return algebra.vector([rng.randrange(f.p) for _ in range(algebra.dim)])
        for _ in range(200):
            u, v, w = rand_vec(), rand_vec(), rand_vec()
            uv = algebra.multiply(u, v)
            assert uv == algebra.multiply(v, u)
            assert uv == multiply_oracle(algebra, u, v)
            lhs = algebra.multiply(tuple(a + b for a, b in zip(u, w)), v)
            rhs = tuple(a + b for a, b in zip(uv, algebra.multiply(w, v)))
            assert lhs == rhs


def test_multiply_dimension_mismatch():
    a = two_loop_algebra(QQ)
    with pytest.raises(DimensionMismatch):
        a.multiply(a.vector([1, 2]), [1, 2, 3])


def test_2li_examples():
    assert chain_2li_algebra(QQ, 4).is_2li()
    loop_chain = EvolutionAlgebra.from_squares(QQ, [[1, 0, 0], [1, 0, 0], [0, 1, 0]])
    assert not loop_chain.is_2li()
    assert loop_chain.two_li_witness() == (0, 1)
    single = EvolutionAlgebra.from_squares(QQ, [[1]])
    assert single.is_2li()  # vacuous at dimension one


def test_structure_predicates():
    degenerate = EvolutionAlgebra.from_squares(QQ, [[1, 0], [0, 0]])
    assert not degenerate.is_nondegenerate()
    assert not degenerate.is_perfect()
    assert not degenerate.is_invertible()

    a = two_loop_algebra(QQ)  # structure matrix [[1,2],[1,1]], det -1
    assert a.det() == QQ.scalar(-1)
    assert a.is_nondegenerate() and a.is_perfect() and a.is_invertible()

    # the ear algebra's columns 4 and 5 are always proportional (both are
    # multiples of e_1), so no weighting of that graph is invertible
    ear = ear_algebra(QQ)
    assert ear.det() == QQ.zero
    assert not ear.is_invertible()
    assert not ear.is_perfect()
    assert not ear.is_2li()


def test_perfect_iff_invertible_in_finite_dimension():
    rng = random.Random(37)
    for _ in range(300):
        field = rng.choice([F3, F5, F7])
        a = random_algebra(rng, field, rng.randint(1, 4))
        assert a.is_perfect() == a.is_invertible()


def test_natural_vector_char2_counterexample():
    # all squares equal and nonzero over F_2: (1,1,1) is not natural
    a = EvolutionAlgebra.from_squares(F2, [[1, 0, 0], [1, 0, 0], [1, 0, 0]])
    assert is_natural_vector(a, a.vector([1, 1, 1])) is Naturality.NOT_NATURAL


def test_natural_vector_basis_members_and_span_one():
    for algebra in (two_loop_algebra(QQ), ear_algebra(F7),
                    EvolutionAlgebra.from_squares(F2, [[1, 0], [1, 0]])):
        for i in range(algebra.dim):
            assert is_natural_vector(algebra, algebra.basis_vector(i)) is Naturality.NATURAL
    # e1^2 = e2^2 = e3, e3^2 = 0 over Q: u = e1 + e2 has u^2 = 2 e3 != 0,
    # one-dimensional span of squares, characteristic 0 -> natural
    a = EvolutionAlgebra.from_squares(QQ, [[0, 0, 1], [0, 0, 1], [0, 0, 0]])
    assert is_natural_vector(a, a.vector([1, 1, 0])) is Naturality.NATURAL


def test_natural_vector_span_two_and_zero_square():
    a = two_loop_algebra(QQ)
    assert is_natural_vector(a, a.vector([1, 1])) is Naturality.NOT_NATURAL
    z = EvolutionAlgebra.from_squares(QQ, [[0, 0], [0, 0]])
    assert is_natural_vector(z, z.vector([1, 1])) is Naturality.NATURAL
    mixed = EvolutionAlgebra.from_squares(QQ, [[1, 0], [0, 0]])
    # u = e1 + e2 squares to e1 != 0, span dim 1, char 0 -> natural
    assert is_natural_vector(mixed, mixed.vector([1, 1])) is Naturality.NATURAL
    with pytest.raises(ZeroVector):
        is_natural_vector(a, a.zero_vector())


def test_natural_vector_indeterminate_beyond_f2_search():
    # char 2, span dim 1, u^2 = 3 e1 = e1 != 0, dimension above the search cap
    squares = [[1, 0, 0, 0, 0]] * 3 + [[0] * 5] * 2
    a = EvolutionAlgebra.from_squares(F2, squares)
    verdict = is_natural_vector(a, a.vector([1, 1, 1, 0, 0]))
    assert verdict is Naturality.INDETERMINATE


def test_same_orbit_examples():
    a = two_loop_algebra(QQ)
    b1 = [a.basis_vector(0), a.basis_vector(1)]
    b2 = [a.vector([0, 2]), a.vector([3, 0])]
    change = same_orbit(a, b1, b2)
    assert change is not None
    assert change.perm == (1, 0)
    assert [str(k) for k in change.scales] == ["2", "3"]
    assert change.apply(tuple(b1)) == tuple(b2)

    assert same_orbit(a, b1, b1) == BasisChange(perm=(0, 1),
                                                scales=(QQ.one, QQ.one))


def test_same_orbit_second_orbit():
    a = zero_square_algebra(QQ)
    b1 = [a.basis_vector(0), a.basis_vector(1)]
    b2 = [a.vector([1, 1]), a.basis_vector(1)]  # {e1 + e2, e2} is natural
    assert same_orbit(a, b1, b2) is None


def test_same_orbit_rejects_non_basis():
    a = two_loop_algebra(QQ)
    b1 = [a.basis_vector(0), a.basis_vector(1)]
    with pytest.raises(NotANaturalBasis) as err:
        same_orbit(a, b1, [a.vector([1, 1]), a.basis_vector(1)])
    assert err.value.witness is not None
    with pytest.raises(NotANaturalBasis):
        same_orbit(a, b1, [a.basis_vector(0), a.basis_vector(0)])


def test_unique_basis_oracle():
    inv = EvolutionAlgebra.from_squares(F3, [[1, 1], [2, 1]])
    assert inv.is_invertible()
    assert verify_unique_basis_up_to_scaling(inv)

    deg = zero_square_algebra(F3)
    assert not verify_unique_basis_up_to_scaling(deg)

    single = EvolutionAlgebra.from_squares(F3, [[1]])
    assert verify_unique_basis_up_to_scaling(single)

    with pytest.raises(TooLarge):
        verify_unique_basis_up_to_scaling(ear_algebra(F5))
    with pytest.raises(TooLarge):
        verify_unique_basis_up_to_scaling(two_loop_algebra(F7))


def test_labels_and_construction_errors():
    # the edge list is checked: indices in range, one edge per pair, no zero weight
    with pytest.raises(DimensionMismatch, match="not between basis elements 0 to 0"):
        EvolutionAlgebra(QQ, 1, [(0, 0, QQ.one), (0, 1, QQ.one)])
    with pytest.raises(DimensionMismatch, match="not between basis elements"):
        EvolutionAlgebra(QQ, 2, [(True, 0, QQ.one)])
    with pytest.raises(DimensionMismatch, match="listed twice"):
        EvolutionAlgebra(QQ, 2, [(0, 1, 1), (1, 1, 1), (0, 1, 2)])
    with pytest.raises(ZeroVector, match="weight zero"):
        EvolutionAlgebra(F7, 2, [(0, 1, 7)])
    with pytest.raises(DimensionMismatch):
        EvolutionAlgebra.from_squares(QQ, [[QQ.one, QQ.one]])
    with pytest.raises(DimensionMismatch):
        EvolutionAlgebra.from_squares(QQ, [[1, 0], [0, 1]], labels=["a", "a"])
    with pytest.raises(TooLarge):
        EvolutionAlgebra.from_squares(QQ, [[0] * 65 for _ in range(65)])


def test_predicates_match_the_references():
    """rank, det, the 2LI witness, perfection, invertibility, scalar multiples
    and the natural-basis verdicts against the references, on matrices with
    zero, repeated and proportional columns."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    unique_verdicts, f2_verdicts = set(), set()

    def scalars(field):
        if field is QQ:
            return st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
        return st.integers(0, field.p - 1)

    @st.composite
    def algebras(draw):
        field = draw(st.sampled_from([F2, F3, F7, QQ]))
        n = draw(st.integers(1, 5))
        squares = []
        for _ in range(n):
            kind = draw(st.sampled_from(["random", "zero", "repeat", "multiple"]
                                        if squares else ["random", "zero"]))
            if kind == "random":
                squares.append([field.scalar(x) for x in
                                draw(st.lists(scalars(field), min_size=n, max_size=n))])
            elif kind == "zero":
                squares.append([field.zero] * n)
            else:
                k = field.one if kind == "repeat" else field.scalar(draw(scalars(field)))
                squares.append([k * x for x in draw(st.sampled_from(squares))])
        return EvolutionAlgebra.from_squares(field, squares)

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(algebras())
    @hypothesis.example(EvolutionAlgebra.from_squares(QQ, [[0, 1], [1, 0]]))
    @hypothesis.example(EvolutionAlgebra.from_squares(F3, [[1, 0], [0, 0]]))
    @hypothesis.example(EvolutionAlgebra.from_squares(F7, [[0]]))
    # (1, 1) lies in no natural basis and the natural basis is unique up to
    # scaling, so both verdict sets are full whatever the draws
    @hypothesis.example(EvolutionAlgebra.from_squares(F2, [[0, 1], [0, 1]]))
    def check(algebra):
        field, n, rows = algebra.field, algebra.dim, structure_matrix(algebra)
        assert algebra.rank() == reference_rank(rows)
        assert algebra.det() == reference_det(field, rows)
        assert algebra.two_li_witness() == reference_two_li_witness(algebra)
        assert algebra.is_perfect() == (reference_rank(rows) == n)
        assert algebra.is_invertible() == (not reference_det(field, rows).is_zero())
        for i, j in itertools.product(range(n), repeat=2):
            w, b = square_of(algebra, i), square_of(algebra, j)
            assert _scalar_multiple(w, b) == reference_scalar_multiple(w, b)
        if field is not QQ and field.p <= 5 and n <= 3:
            verdict = reference_unique_basis(algebra)
            assert verify_unique_basis_up_to_scaling(algebra) == verdict
            unique_verdicts.add(verdict)
        if field is F2 and n <= 3:
            for bits in itertools.product((0, 1), repeat=n):
                u = algebra.vector(bits)
                if any(bits):
                    verdict = reference_f2_basis_search(algebra, u)
                    assert any(u in basis for basis in _natural_bases(algebra)) == verdict
                    f2_verdicts.add(verdict)

    check()
    assert unique_verdicts == {True, False}
    assert f2_verdicts == {True, False}


@pytest.mark.parametrize("field, n, seed", [(F2, 64, 1), (F7, 64, 2), (F7, 24, 3),
                                            (QQ, 16, 4), (QQ, 32, 5)])
def test_predicates_match_the_references_at_scale(field, n, seed):
    """rank, det, the 2LI witness and naturality against the dense references
    on a seeded algebra of five terms per square: as drawn, with three zero
    squares, and with its last square 3 times a late one (sq e64 = 3 sq e40
    at n = 64; over F_2 a repeat).  Naturality is asked of vectors whose
    supports take in zero squares."""
    rng = random.Random(seed)

    def coefficient():
        if field is QQ:
            return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 3]))
        return rng.randrange(1, field.p)

    def reference_naturality(algebra, u):
        support = [i for i, x in enumerate(u) if not x.is_zero()]
        squares = [square_of(algebra, i) for i in support]
        if len(support) == 1:
            return Naturality.NATURAL
        square = [sum((u[i] * u[i] * sq[j] for i, sq in zip(support, squares)), field.zero)
                  for j in range(n)]
        if vec_is_zero(square):
            zero = all(vec_is_zero(sq) for sq in squares)
            return Naturality.NATURAL if zero else Naturality.NOT_NATURAL
        if reference_rank(squares) >= 2:
            return Naturality.NOT_NATURAL
        return Naturality.NATURAL if field is not F2 else Naturality.INDETERMINATE

    drawn = [[0] * n for _ in range(n)]
    for square in drawn:
        for j in rng.sample(range(n), 5):
            square[j] = coefficient()
    zeros = sorted(rng.sample(range(n), 3))
    zeroed = [[0] * n if i in zeros else square for i, square in enumerate(drawn)]
    late = n * 5 // 8 - 1
    scaled = drawn[:-1] + [[3 * x for x in drawn[late]]]
    others = [i for i in range(n) if i not in zeros]
    supports = [[zeros[0], others[0]], zeros[:2], [zeros[0]] + others[:2],
                zeros[1:] + others[-1:], [late, n - 1]]
    verdicts = set()
    for squares in (drawn, zeroed, scaled):
        algebra = EvolutionAlgebra.from_squares(field, squares)
        rows = structure_matrix(algebra)
        assert algebra.rank() == reference_rank(rows)
        assert algebra.det() == reference_det(field, rows)
        assert algebra.two_li_witness() == reference_two_li_witness(algebra)
        for support in supports:
            coords = [0] * n
            for i in support:
                coords[i] = coefficient()
            u = algebra.vector(coords)
            verdict = is_natural_vector(algebra, u)
            assert verdict is reference_naturality(algebra, u)
            verdicts.add(verdict)
    assert reference_two_li_witness(algebra) == (late, n - 1)
    assert len(verdicts) >= 2


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: EvolutionAlgebra(F2, 0, []), DimensionMismatch,
                 "an evolution algebra needs at least one basis element", id="dimension-0"),
    pytest.param(lambda: check_natural_basis(EvolutionAlgebra(F3, 2, []), [[1, 0]]),
                 NotANaturalBasis, "expected 2 vectors, got 1", id="basis-too-short"),
    pytest.param(lambda: check_natural_basis(EvolutionAlgebra(F3, 2, []), [[1, 0], [2, 0]]),
                 NotANaturalBasis, "vectors are linearly dependent", id="basis-dependent"),
])
def test_bad_algebras_and_bases_are_refused(call, error, message):
    assert_raises_exactly(call, error, message)
