import itertools
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from evoaut import EvolutionAlgebra, autgroup, monomial
from evoaut.autgroup import (
    AutPresentation,
    MonomialAutomorphism,
    assemble_aut,
    bruteforce_aut,
    bruteforce_aut_count,
    diag_group,
    diag_system,
    is_automorphism_matrix,
)
from evoaut.errors import (
    DimensionMismatch,
    InvariantViolation,
    NotAGraphAutomorphism,
    NotAnAutomorphism,
    NotPrimeField,
    TooLarge,
)
from evoaut.files import parse_algebra
from evoaut.monomial import (
    ExponentDecomposition,
    GroupDescription,
    MonomialSystem,
    solve_inhomogeneous,
)
from evoaut.scalar import FpScalar, PrimeField, QQ, Scalar
from evoaut.snf import SmithDecomposition
from evoaut.wgraph import GraphAutomorphism, enumerate_graph_automorphisms, tree_of

from helpers import (
    F2,
    F3,
    F5,
    F7,
    assert_raises_exactly,
    block_union_algebra,
    compose,
    composition_table,
    coset_automorphisms,
    count_particular_calls,
    count_snf_calls,
    diag_coset,
    drop_lift,
    ear_algebra,
    inverse_permutation,
    invert,
    is_diagonal,
    is_identity,
    planted_rational_systems,
    random_algebra,
    run_python,
    scalar_generators,
    scalar_generators_hold,
    reference_assemble_aut,
    scalar_particular,
    solve,
    split_star_algebra,
    square_relations_hold,
    star_algebra,
    structure_matrix,
    three_cycle_algebra,
    to_matrix,
    twisted_limit,
    two_cycles_algebra,
    two_loop_algebra,
    zero_algebra,
)

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def det_mod(T, p, n):
    """Determinants mod p of a stack of n x n matrices, by the permutation expansion."""
    acc = 0  # becomes an int64 array at the first product, as n >= 1
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b])
        prod = 1
        for r in range(n):
            prod = prod * T[:, r, perm[r]] % p
        acc = (acc + (-1) ** inversions * prod) % p
    return acc


def scan_chunk(T, M, p, n):
    """Surviving matrices of one decoded chunk (invertible homomorphisms)."""
    for i in range(n):
        had = T[:, :, i] * T[:, :, i] % p
        lhs = had @ M.T % p
        rhs = T @ M[:, i] % p
        T = T[(lhs == rhs).all(axis=1)]
    for i in range(n):
        for j in range(i + 1, n):
            had = T[:, :, i] * T[:, :, j] % p
            lhs = had @ M.T % p
            T = T[(lhs == 0).all(axis=1)]
    return T[det_mod(T, p, n) != 0]


def raw_scan(algebra):
    """Reference matrix oracle: decode all p^(n^2) matrices and keep every
    invertible homomorphism, as sorted residue matrices."""
    p = algebra.field.p
    n = algebra.dim
    M = np.array([[x.residue for x in row] for row in structure_matrix(algebra)],
                 dtype=np.int64)
    total = p ** (n * n)
    found = []
    chunk = 1 << 16
    for lo in range(0, total, chunk):
        size = min(total, lo + chunk) - lo
        rem = np.arange(lo, lo + size, dtype=np.int64)
        T = np.empty((size, n, n), dtype=np.int64)
        for r in range(n):
            for c in range(n):
                T[:, r, c] = rem % p
                rem = rem // p
        good = scan_chunk(T, M, p, n)
        found.extend(tuple(tuple(int(x) for x in row) for row in mat) for mat in good)
    return sorted(found)


def assert_oracle_matches_scan(algebra):
    expected = raw_scan(algebra)
    assert bruteforce_aut(algebra) == expected
    assert bruteforce_aut_count(algebra) == len(expected)


def residue_vectors(vectors):
    return [tuple(x.residue for x in v) for v in vectors]


def matrix_strings(rows):
    return [[str(x) for x in row] for row in rows]


def mat_mul_scalar(a, b):
    n = len(a)
    return tuple(tuple(sum((a[i][k] * b[k][j] for k in range(n)),
                           start=a[0][0].field.zero) for j in range(n))
                 for i in range(n))


def test_diag_group_examples():
    assert diag_group(ear_algebra(QQ)).describe() == "mu_3(K)"
    assert diag_group(star_algebra(QQ)).describe() == "(K^x)^1 x mu_2(K)^2"
    # e1^2 = e1 + 2e2, e2^2 = 2e1 + e2: the loop at e1 forces 1 everywhere
    both_loops = EvolutionAlgebra.from_squares(QQ, [[1, 2], [2, 1]])
    assert diag_group(both_loops).describe() == "1"


def test_trivial_diag_group_lists_the_identity():
    zero = EvolutionAlgebra(F2, 2, [])
    assert diag_group(zero).concrete_order() == 1
    assert diag_group(zero).elements() == [(F2.one, F2.one)]
    both_loops = EvolutionAlgebra.from_squares(QQ, [[1, 2], [2, 1]])
    assert diag_group(both_loops).elements() == [(QQ.one, QQ.one)]
    assert diag_coset(both_loops).elements() == [(QQ.one, QQ.one)]
    # a nontrivial group without generators is still caught by the count
    with pytest.raises(InvariantViolation, match="expected order 4"):
        GroupDescription(free_rank=1, field=F5, n_vars=2).elements()


def test_diag_weights_do_not_enter():
    a = ear_algebra(F7)
    reweighted = EvolutionAlgebra.from_squares(F7, [
        [0, 3, 0, 0, 5],
        [0, 0, 2, 0, 0],
        [0, 0, 0, 6, 0],
        [4, 0, 0, 0, 0],
        [3, 0, 0, 0, 0],
    ])
    assert [e[:2] for e in a.edges] == [e[:2] for e in reweighted.edges]
    assert diag_group(a).describe() == diag_group(reweighted).describe()


def test_twisted_limit_three_cycle():
    a = three_cycle_algebra()
    coset = twisted_limit(a, (1, 2, 0))
    assert coset.is_feasible
    assert [str(x) for x in coset.particular] == ["-1", "-1/2", "2"]
    lift = MonomialAutomorphism(a, (1, 2, 0), coset.particular)
    assert matrix_strings(to_matrix(lift)) == [
        ["0", "0", "2"],
        ["-1", "0", "0"],
        ["0", "-1/2", "0"],
    ]
    square = compose(lift, lift)
    assert matrix_strings(to_matrix(square)) == [
        ["0", "-1", "0"],
        ["0", "0", "-2"],
        ["1/2", "0", "0"],
    ]


def test_twisted_limit_swap_infeasible():
    for field in (QQ, F3, F5, F7):
        assert not twisted_limit(two_loop_algebra(field), (1, 0)).is_feasible


def test_twisted_limit_identity_is_diag():
    a = ear_algebra(F7)
    identity = twisted_limit(a, (0, 1, 2, 3, 4))
    assert identity.particular == tuple([F7.one] * 5)
    assert identity.elements() == diag_coset(a).elements()


def test_twisted_limit_rejects_non_automorphism():
    a = EvolutionAlgebra.from_squares(QQ, [[1, 0], [1, 0]])  # loop at e1 only
    with pytest.raises(NotAGraphAutomorphism):
        twisted_limit(a, (1, 0))


def test_edge_quotients_read_the_weights():
    # the swap of two_loop_algebra, edge by edge: w(e) / w(sigma e), as a
    # residue over F_7 (2^-1 = 4) and as a rational over Q
    assert autgroup.edge_quotients(two_loop_algebra(F7))((1, 0)) == [1, 4, 2, 1]
    assert autgroup.edge_quotients(two_loop_algebra(QQ))((1, 0)) == [1, Fraction(1, 2), 2, 1]
    assert [c for _, c in autgroup.twisted_system(two_loop_algebra(F7), (1, 0)).rows] == \
        [F7.one, F7.scalar(4), F7.scalar(2), F7.one]
    for field in (QQ, F7):  # the loop at e1 has no image under the swap
        a = EvolutionAlgebra.from_squares(field, [[1, 0], [1, 0]])
        with pytest.raises(NotAGraphAutomorphism):
            autgroup.edge_quotients(a)((1, 0))
        with pytest.raises(NotAGraphAutomorphism):
            autgroup.twisted_system(a, (1, 0))


@pytest.mark.parametrize("sigma", [(0, 0), (1, 0, 2), (0,), (1, 2)],
                         ids=["repeated", "too-long", "too-short", "out-of-range"])
def test_twisted_system_refuses_a_sigma_that_is_no_permutation(sigma):
    # the two loops and the swap of samples/two_loops_swap_f5.alg; these once
    # gave a system, or raised IndexError
    algebra = parse_algebra((SAMPLES / "two_loops_swap_f5.alg").read_text())
    assert algebra.dim == 2
    assert_raises_exactly(lambda: autgroup.twisted_system(algebra, sigma),
                          NotAGraphAutomorphism, f"{sigma} is not a permutation of the basis")


def test_twisted_systems_of_one_algebra_share_one_quotient_map(monkeypatch):
    inverted, inv = [], FpScalar.inv

    def counting_inv(x):
        inverted.append(x)
        return inv(x)

    monkeypatch.setattr(FpScalar, "inv", counting_inv)
    algebra = two_loop_algebra(F7)
    for k in range(100):
        autgroup.twisted_system(algebra, ((0, 1), (1, 0))[k % 2])
    assert len(inverted) == len(algebra.edges) == 4   # each weight inverted once
    assert autgroup.edge_quotients(algebra) is autgroup.edge_quotients(algebra)


def test_edge_quotients_match_the_structure_matrix(corpus):
    # for every graph symmetry, quotient k times the weight of the image of
    # edge k is the weight of edge k, read off the structure matrix; edges
    # come in the order (u, v) by u, then v
    sigmas = 0
    for algebra in corpus:
        p, n, M = algebra.field.p, algebra.dim, structure_matrix(algebra)
        edges = [(u, v) for u in range(n) for v in range(n) if not M[v][u].is_zero()]
        quotients = autgroup.edge_quotients(algebra)
        for ga in enumerate_graph_automorphisms(algebra):
            s, q = ga.sigma, quotients(ga.sigma)
            assert len(q) == len(edges)
            assert all(q[k] * M[s[v]][s[u]].residue % p == M[v][u].residue
                       for k, (u, v) in enumerate(edges))
            sigmas += 1
    assert sigmas > len(corpus)


def test_diag_of_the_largest_field_prime_takes_no_discrete_log():
    # the all-ones right-hand side has the known log 0, so the baby-step
    # table of about sqrt(p) = 46,341 entries is never built
    field = PrimeField(2147483647)
    algebra = EvolutionAlgebra.from_squares(field, [[0, 3], [5, 0]])
    coset = diag_coset(algebra)
    assert coset.count() == 3
    assert field._baby is None


@pytest.mark.parametrize("field", [F7, QQ])
def test_identity_lift_builds_no_u(monkeypatch, field):
    # every right-hand side of the diagonal system is 1, so the canonical
    # solution is all ones without replaying U from the SNF's log
    rng = random.Random(19)
    squares = [[rng.randrange(1, 7) if rng.random() < 0.5 else 0 for _ in range(12)]
               for _ in range(12)]
    algebra = EvolutionAlgebra.from_squares(field, squares)
    expected = diag_coset(algebra)

    def no_u(self):
        raise AssertionError("U was rebuilt")

    monkeypatch.setattr(SmithDecomposition, "U", property(no_u))
    coset = diag_coset(algebra)
    assert coset == expected and coset.particular == (field.one,) * 12


def test_monomial_automorphism_validation():
    a = two_loop_algebra(QQ)
    with pytest.raises(NotAnAutomorphism):
        MonomialAutomorphism(a, (1, 0), (QQ.one, QQ.one))  # swap does not lift
    with pytest.raises(NotAnAutomorphism):
        MonomialAutomorphism(a, (0, 1), (QQ.one, QQ.zero))
    ident = MonomialAutomorphism(a, (0, 1), (QQ.one, QQ.one))
    assert is_identity(ident)
    assert to_matrix(ident) == ((QQ.one, QQ.zero), (QQ.zero, QQ.one))


def lift_check_accepts(algebra, sigma, scales) -> bool:
    try:
        MonomialAutomorphism(algebra, sigma, scales)
    except NotAnAutomorphism:
        return False
    return True


# e1^2 = e2: sigma swaps e2 and e3, so it sends the non-edge 1 -> 3 onto the
# edge 1 -> 2 (and that edge onto a non-edge)
NON_EDGE_ONTO_EDGE = (EvolutionAlgebra.from_squares(F7, [[0, 1, 0], [0, 0, 0], [0, 0, 0]]),
                      (0, 2, 1))


def test_lift_check_rejects_a_non_edge_sent_onto_an_edge():
    algebra, sigma = NON_EDGE_ONTO_EDGE
    for xs in itertools.product(range(1, 7), repeat=3):
        scales = [F7.scalar(x) for x in xs]
        assert not square_relations_hold(algebra, sigma, scales)
        assert not lift_check_accepts(algebra, sigma, scales)


def test_lift_check_matches_the_dense_reference():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    verdicts = set()

    def scalars(field, nonzero):
        if field is QQ:
            nums = st.integers(-4, 4).filter(lambda x: x != 0) if nonzero else st.integers(-4, 4)
            return st.builds(Fraction, nums, st.integers(1, 3))
        return st.integers(1 if nonzero else 0, field.p - 1)

    @st.composite
    def cases(draw):
        field = draw(st.sampled_from([F2, F3, F7, QQ]))
        n = draw(st.integers(1, 4))
        entry = st.one_of(st.just(0), scalars(field, nonzero=False))
        squares = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                                min_size=n, max_size=n))
        scales = draw(st.lists(scalars(field, nonzero=True), min_size=n, max_size=n))
        return EvolutionAlgebra.from_squares(field, squares), [field.scalar(x) for x in scales]

    @hypothesis.settings(max_examples=150, deadline=None, database=None)
    @hypothesis.given(cases())
    @hypothesis.example((NON_EDGE_ONTO_EDGE[0], [F7.one] * 3))
    def check(case):
        algebra, random_scales = case
        decomposition = ExponentDecomposition(diag_system(algebra))
        quotients = autgroup.edge_quotients(algebra)
        sigmas = list(itertools.permutations(range(algebra.dim)))
        # every sigma is tried with the random scales and with the lift of every
        # sigma that lifts, its own included
        candidates = [random_scales]
        for sigma in sigmas:
            try:
                lift = decomposition.particular(quotients(sigma))
            except NotAGraphAutomorphism:
                continue
            if lift is not None:
                candidates.append(list(lift))
        for sigma in sigmas:
            for scales in candidates:
                verdict = square_relations_hold(algebra, sigma, scales)
                assert lift_check_accepts(algebra, sigma, scales) == verdict
                verdicts.add(verdict)

    check()
    assert verdicts == {True, False}


F683 = PrimeField(683)   # p - 1 = 2 * 11 * 31


def test_log_arithmetic_matches_the_scalar_reference():
    """particular (through solve and through edge_quotients) and the homogeneous
    generators, computed in log coordinates, against the scalar references."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    feasible = set()

    def weights(field):
        if field is QQ:
            return st.builds(Fraction, st.integers(-4, 4).filter(lambda x: x != 0),
                             st.integers(1, 3))
        return st.integers(1, field.p - 1)

    @st.composite
    def cases(draw):
        field = draw(st.sampled_from([F2, F3, F7, F683, QQ]))
        n = draw(st.integers(1, 5))
        edges = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                             max_size=2 * n))
        squares = [[0] * n for _ in range(n)]
        for u, v in edges:
            squares[u][v] = draw(weights(field))
        algebra = EvolutionAlgebra.from_squares(field, squares)
        if draw(st.booleans()):
            symmetries = [s for s in itertools.permutations(range(n))
                          if {(s[u], s[v]) for u, v in edges} == edges]
            return algebra, draw(st.sampled_from(symmetries)), None
        rhs = [field.scalar(draw(weights(field))) for _ in algebra.edges]
        return algebra, None, rhs

    # a 2-cycle over F_7 has the diagonal equation y**3 == c with three roots
    # when c is a nontrivial cube: the canonical one is the smallest
    two_cycle = EvolutionAlgebra.from_squares(F7, [[0, 1], [1, 0]])

    @hypothesis.settings(max_examples=200, deadline=None, database=None)
    @hypothesis.given(cases())
    @hypothesis.example((two_cycle, None, [F7.scalar(6), F7.one]))
    @hypothesis.example((two_cycle, None, [F7.scalar(3), F7.one]))
    def check(case):
        algebra, sigma, rhs = case
        decomposition = ExponentDecomposition(diag_system(algebra))
        assert decomposition.homogeneous.generators == scalar_generators(decomposition)
        assert scalar_generators_hold(decomposition)
        if sigma is not None:
            M = structure_matrix(algebra)
            rhs = [w / M[sigma[v]][sigma[u]] for u, v, w in algebra.edges]
            assert [c for _, c in autgroup.twisted_system(algebra, sigma).rows] == rhs
            twisted = autgroup.edge_quotients(algebra)(sigma)
            assert decomposition.particular(twisted) == scalar_particular(decomposition, rhs)
        expected = scalar_particular(decomposition, rhs)
        system = MonomialSystem(algebra.field, algebra.dim,
                                tuple(zip(decomposition.exponents, rhs)))
        assert solve(decomposition, system).particular == expected
        feasible.add(expected is not None)

    check()
    assert feasible == {True, False}


def test_edge_systems_equal_the_systems_the_constructor_builds():
    # diag_system and twisted_system build their rows as MonomialSystem holds
    # them and hand them over unread; the public constructor, given the same
    # relations as dense rows, must hold an equal system
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def weights(field):
        if field is QQ:
            return st.builds(Fraction, st.integers(-4, 4).filter(lambda x: x != 0),
                             st.integers(1, 3))
        return st.integers(1, field.p - 1)

    @st.composite
    def cases(draw):
        field = draw(st.sampled_from([F2, F7, QQ]))
        n = draw(st.integers(1, 5))
        edges = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                             max_size=2 * n))
        squares = [[0] * n for _ in range(n)]
        for u, v in edges:
            squares[u][v] = draw(weights(field))
        symmetries = [s for s in itertools.permutations(range(n))
                      if {(s[u], s[v]) for u, v in edges} == edges]
        return EvolutionAlgebra.from_squares(field, squares), draw(st.sampled_from(symmetries))

    loops = EvolutionAlgebra.from_squares(F7, [[3, 2, 0], [0, 0, 5], [0, 4, 6]])

    @hypothesis.settings(max_examples=150, deadline=None, database=None)
    @hypothesis.given(cases())
    @hypothesis.example((loops, (0, 1, 2)))
    def check(case):
        algebra, sigma = case
        n, M = algebra.dim, structure_matrix(algebra)
        dense = []
        for u, v, _ in algebra.edges:
            row = [0] * n
            row[u] += 2
            row[v] -= 1
            dense.append(row)
        twisted = [w / M[sigma[v]][sigma[u]] for u, v, w in algebra.edges]
        for built, rhs in ((diag_system(algebra), [1] * len(dense)),
                           (autgroup.twisted_system(algebra, sigma), twisted)):
            public = MonomialSystem(algebra.field, n, tuple(zip(dense, rhs)))
            assert built == public and hash(built) == hash(public)

    check()


def test_compose_invert_match_matrices():
    rng = random.Random(61)
    z = zero_algebra(F5, 3)  # every monomial map is an automorphism here
    perms = [(0, 1, 2), (1, 0, 2), (2, 0, 1), (1, 2, 0), (0, 2, 1), (2, 1, 0)]
    for _ in range(200):
        f = MonomialAutomorphism(z, rng.choice(perms),
                                 tuple(F5.scalar(rng.randrange(1, 5)) for _ in range(3)))
        g = MonomialAutomorphism(z, rng.choice(perms),
                                 tuple(F5.scalar(rng.randrange(1, 5)) for _ in range(3)))
        fg = compose(f, g)
        # bullet rule: scale at i is g-scale there times f-scale at g(i)
        for i in range(3):
            assert fg.scales[i] == g.scales[i] * f.scales[g.sigma[i]]
        assert to_matrix(fg) == mat_mul_scalar(to_matrix(f), to_matrix(g))
        assert is_identity(compose(f, invert(f)))
        assert is_identity(compose(invert(f), f))


def test_three_cycle_composition_collapses_to_identity():
    a = three_cycle_algebra()
    pres = assemble_aut(a)
    lifts = {ga.sigma: lift for ga, lift in pres.lifted}
    f = lifts[(1, 2, 0)]
    g = lifts[(2, 0, 1)]
    assert is_identity(compose(f, g))  # diag is trivial here


def test_assemble_three_cycle():
    pres = assemble_aut(three_cycle_algebra())
    assert pres.diag.describe() == "1"
    assert [ga.sigma for ga, _ in pres.lifted] == [(0, 1, 2), (1, 2, 0), (2, 0, 1)]
    assert pres.quotient_order == 3
    assert pres.group_order() == 3
    assert pres.full_automorphism_group  # invertible structure matrix


def test_assemble_two_loop():
    pres = assemble_aut(two_loop_algebra(QQ))
    assert pres.diag.describe() == "1"
    assert [ga.sigma for ga, _ in pres.lifted] == [(0, 1)]
    assert [ga.sigma for ga in pres.not_lifted] == [(1, 0)]
    assert pres.group_order() == 1
    assert pres.full_automorphism_group


def test_assemble_cubic_root_lift():
    a = EvolutionAlgebra.from_squares(F7, [[2, 1], [1, 1]])
    # e1^2 = 2e1 + e2, e2^2 = e1 + e2: loop weights differ by the cube root 2
    pres = assemble_aut(a)
    assert pres.quotient_order == 2
    assert composition_table(pres) == ((0, 1), (1, 0))  # quotient is the 2-element group
    lifts = {ga.sigma: lift for ga, lift in pres.lifted}
    assert tuple(x.residue for x in lifts[(1, 0)].scales) == (2, 4)


def test_assemble_zero_algebra_subgroup_only():
    pres = assemble_aut(zero_algebra(F3, 3))
    assert pres.diag.describe() == "(K^x)^3"
    assert pres.quotient_order == 6
    one = F3.one
    assert all(lift.scales == (one, one, one) for _, lift in pres.lifted)
    assert not pres.full_automorphism_group
    assert pres.group_order() == 8 * 6


def test_assemble_ear():
    pres = assemble_aut(ear_algebra(F7))
    assert pres.diag.describe() == "mu_3(K)"
    assert pres.quotient_order == 1
    assert pres.group_order() == 3
    assert not pres.full_automorphism_group  # neither 2LI nor invertible
    autos = pres.monomial_elements()
    assert len(autos) == 3
    assert all(map(is_diagonal, autos))


def test_bruteforce_aut_examples():
    only_identity = bruteforce_aut(two_loop_algebra(F5))
    assert only_identity == [((1, 0), (0, 1))]

    gl2 = bruteforce_aut(zero_algebra(F3, 2))
    assert len(gl2) == 48  # all of GL_2(F_3)
    assert bruteforce_aut_count(zero_algebra(F3, 2)) == 48

    with pytest.raises(TooLarge):
        bruteforce_aut(ear_algebra(F7))
    with pytest.raises(NotPrimeField):
        bruteforce_aut(two_loop_algebra(QQ))


def test_bruteforce_aut_stops_past_its_output_cap():
    # p^(n^2) = 7^9 is inside the matrix cap, but the list of all
    # |GL_3(F_7)| = 33,784,128 automorphisms would take about 5 GB
    start = time.perf_counter()
    with pytest.raises(TooLarge, match="automorphisms to list"):
        bruteforce_aut(zero_algebra(F7, 3))
    assert time.perf_counter() - start < 20.0
    # |GL_3(F_5)| = 1,488,000 is past the listing cap of 10^6, so the F_5
    # zero algebra stops the same way, and counting it is not capped
    start = time.perf_counter()
    with pytest.raises(TooLarge, match="automorphisms to list"):
        bruteforce_aut(zero_algebra(F5, 3))
    assert time.perf_counter() - start < 10.0
    assert bruteforce_aut_count(zero_algebra(F5, 3)) == 1488000


def test_oracle_matches_raw_scan_on_corpus(corpus):
    small = [a for a in corpus if a.field.p ** (a.dim ** 2) <= 10**5]
    assert len(small) > 250
    for algebra in small:
        assert_oracle_matches_scan(algebra)


@pytest.mark.parametrize("field, n, order", [(F2, 1, 1), (F2, 2, 6), (F2, 3, 168),
                                             (F3, 1, 2), (F3, 2, 48)])
def test_oracle_matches_raw_scan_on_zero_algebras(field, n, order):
    # every invertible matrix is an automorphism: |GL_n(F_p)|
    assert_oracle_matches_scan(zero_algebra(field, n))
    assert bruteforce_aut_count(zero_algebra(field, n)) == order


@pytest.mark.parametrize("cases", [
    # dimension 1, where a vector is its residue and no table is built
    pytest.param(lambda: [zero_algebra(PrimeField(101), 1),
                          EvolutionAlgebra.from_squares(F7, [[3]])], id="dimension-one"),
    # the zero algebra, where every relation reads 0 = 0
    pytest.param(lambda: [zero_algebra(F3, 2)], id="zero-algebra"),
    # relations solved for another column: a 3-cycle and a nilpotent square
    pytest.param(lambda: [three_cycle_algebra(F3),
                          EvolutionAlgebra.from_squares(F5, [[0, 0], [2, 0]])],
                 id="solved-relations"),
])
def test_oracle_matches_raw_scan_on_edge_cases(cases):
    for algebra in cases():
        assert_oracle_matches_scan(algebra)


def test_oracle_on_dimension_one_over_a_large_field():
    # p - 1 automorphisms of the zero algebra; sq u = 3*u fixes u
    field = PrimeField(1000003)
    assert bruteforce_aut_count(zero_algebra(field, 1)) == field.p - 1
    loop = EvolutionAlgebra.from_squares(field, [[3]])
    assert bruteforce_aut_count(loop) == 1
    assert bruteforce_aut(loop) == [((1,),)]


def test_oracle_counts_gl2_of_f97_within_gate():
    start = time.perf_counter()
    count = bruteforce_aut_count(zero_algebra(PrimeField(97), 2))
    assert count == (97**2 - 1) * (97**2 - 97)  # |GL_2(F_97)| = 87,607,296
    assert time.perf_counter() - start < 30.0


def test_oracle_matches_raw_scan_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # every shape with p^(n^2) <= 10^5
    shapes = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3),
              (5, 1), (5, 2), (7, 1), (7, 2), (11, 2)]

    @st.composite
    def algebras(draw):
        p, n = draw(st.sampled_from(shapes))
        entry = st.one_of(st.just(0), st.integers(0, p - 1))
        squares = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                                min_size=n, max_size=n))
        zero_rows = draw(st.sets(st.integers(0, n - 1)))
        zero_cols = draw(st.sets(st.integers(0, n - 1)))
        squares = [[0 if i in zero_cols or j in zero_rows else x for j, x in enumerate(col)]
                   for i, col in enumerate(squares)]
        return EvolutionAlgebra.from_squares(PrimeField(p), squares)

    @hypothesis.settings(max_examples=80, deadline=None, database=None)
    @hypothesis.given(algebras())
    def check(algebra):
        assert_oracle_matches_scan(algebra)

    check()


def test_oracle_count_of_the_f5_zero_algebra_stays_small():
    # |GL_3(F_5)| = 1,488,000 automorphisms, counted in bounded chunks.  The
    # interpreter's own peak is VmHWM: its ru_maxrss would also count the
    # peak of this (large) test process, which Linux carries across exec
    status = Path("/proc/self/status")
    if not status.exists():
        pytest.skip("needs /proc/self/status")
    script = ("from pathlib import Path\n"
              "from evoaut import EvolutionAlgebra\n"
              "from evoaut.autgroup import bruteforce_aut_count\n"
              "from evoaut.scalar import PrimeField\n"
              "zero = EvolutionAlgebra.from_squares(PrimeField(5), [[0] * 3 for _ in range(3)])\n"
              "count = bruteforce_aut_count(zero)\n"
              "peak = next(line for line in Path('/proc/self/status').read_text().splitlines()\n"
              "            if line.startswith('VmHWM:'))\n"
              "print(count, peak.split()[1])\n")
    done = run_python(["-c", script], timeout=120)
    assert done.returncode == 0, done.stderr
    count, peak_kb = map(int, done.stdout.split())
    assert count == 1488000
    assert peak_kb < 150 * 1024


def test_bruteforce_matches_assembled_on_small_cases():
    cases = [
        two_loop_algebra(F5),
        two_loop_algebra(F7),
        three_cycle_algebra(F5),
        EvolutionAlgebra.from_squares(F7, [[2, 1], [1, 1]]),
    ]
    for a in cases:
        pres = assemble_aut(a)
        assembled = sorted(f.residue_matrix() for f in pres.monomial_elements())
        brute = bruteforce_aut(a)
        if pres.full_automorphism_group:
            assert assembled == brute
        else:
            assert set(assembled) <= set(brute)


def test_bruteforce_loop_chain_is_full_despite_flag():
    from evoaut.limits import loop_chain_algebra

    # the loop-rooted chain is neither 2LI nor invertible, yet its whole
    # automorphism group is monomial; confirmed by raw enumeration
    for a in (loop_chain_algebra(F5, 2), loop_chain_algebra(F7, 2),
              loop_chain_algebra(F3, 3)):
        pres = assemble_aut(a)
        assert not pres.full_automorphism_group  # flag is only sufficient
        assembled = sorted(f.residue_matrix() for f in pres.monomial_elements())
        assert assembled == bruteforce_aut(a)  # equality still holds here
        assert len(assembled) == 2


def test_looped_star_swap_lifts():
    # two looped spokes into a looped sink; the spoke swap lifts exactly
    # because the squared loop-weight ratio equals the spoke-weight ratio
    star = EvolutionAlgebra.from_squares(QQ, [[1, 0, 0], [1, 1, 0], [4, 0, 2]])
    pres = assemble_aut(star)
    assert pres.diag.describe() == "1"
    assert [ga.sigma for ga, _ in pres.lifted] == [(0, 1, 2), (0, 2, 1)]
    lifts = {ga.sigma: lift for ga, lift in pres.lifted}
    assert [str(x) for x in lifts[(0, 2, 1)].scales] == ["1", "1/2", "2"]
    assert pres.full_automorphism_group and pres.group_order() == 2

    mismatched = EvolutionAlgebra.from_squares(QQ, [[1, 0, 0], [1, 1, 0], [3, 0, 2]])
    assert [ga.sigma for ga, _ in assemble_aut(mismatched).lifted] == [(0, 1, 2)]


def test_umrof_properties_spot_checks():
    rng = random.Random(67)
    for _ in range(40):
        a = random_algebra(rng, F5, rng.randint(1, 3))
        pres = assemble_aut(a)
        diag_elements = coset_automorphisms(a, tuple(range(a.dim)), diag_coset(a))
        for ga, lift in pres.lifted:
            coset = twisted_limit(a, ga)
            members = coset_automorphisms(a, ga, coset)
            # coset decomposition: every member is diagonal-compose-particular
            assert sorted(f.sort_key() for f in members) == \
                sorted(compose(d, lift).sort_key() for d in diag_elements)
            # inverse law
            inverse = inverse_permutation(ga.sigma)
            inverse_members = coset_automorphisms(a, inverse, twisted_limit(a, inverse))
            assert sorted(invert(f).sort_key() for f in members) == \
                sorted(f.sort_key() for f in inverse_members)
            # normality of the diagonal subgroup
            for d in diag_elements:
                assert is_diagonal(compose(compose(lift, d), invert(lift)))
        # disjointness across distinct sigmas
        seen = {}
        for ga, _ in pres.lifted:
            for f in coset_automorphisms(a, ga, twisted_limit(a, ga)):
                key = f.residue_matrix()
                assert key not in seen
                seen[key] = ga.sigma


def test_remark_hoy_loop_trees_are_fixed():
    rng = random.Random(71)
    for _ in range(60):
        a = random_algebra(rng, F7, rng.randint(1, 3))
        loops = [u for u, v, _ in a.edges if u == v]
        if not loops:
            continue
        fixed = tree_of(a, loops)
        for vec in diag_coset(a).elements():
            for v in fixed:
                assert vec[v] == F7.one


def test_is_automorphism_matrix_agrees_with_scan():
    rng = random.Random(73)
    for _ in range(20):
        a = random_algebra(rng, F3, 2)
        brute = set(bruteforce_aut(a))
        import itertools
        for mat in itertools.product(range(3), repeat=4):
            rows = ((mat[0], mat[1]), (mat[2], mat[3]))
            assert (rows in brute) == is_automorphism_matrix(a, rows)


@pytest.mark.parametrize("rows, error", [
    ([[1, 0, 0], [0, 1, 0]], DimensionMismatch),    # 2 x 3
    ([[1]], DimensionMismatch),                     # 1 x 1
    ([[1, 0], [0, 1.9]], ValueError),               # 1.9 is not truncated to 1
])
def test_is_automorphism_matrix_rejects_malformed_matrices(rows, error):
    algebra = EvolutionAlgebra.from_squares(F3, [[1, 0], [0, 1]])
    assert is_automorphism_matrix(algebra, [[1, 0], [0, 1]])
    with pytest.raises(error):
        is_automorphism_matrix(algebra, rows)


def test_assemble_seven_spoke_star_within_gate():
    start = time.perf_counter()
    pres = assemble_aut(star_algebra(F7, 7))
    elapsed = time.perf_counter() - start
    assert pres.group_order() == math.factorial(7) * 3 * 2**7
    assert elapsed < 30.0


def test_assemble_eight_spoke_star_within_gate():
    start = time.perf_counter()
    pres = assemble_aut(star_algebra(F7, 8))
    elapsed = time.perf_counter() - start
    assert len(pres.lifted) == math.factorial(8)
    assert pres.group_order() == math.factorial(8) * 3 * 2**8
    assert elapsed < 30.0


def test_assemble_six_two_cycles_within_gate():
    start = time.perf_counter()
    pres = assemble_aut(two_cycles_algebra(F7, 6))
    elapsed = time.perf_counter() - start
    # Aut(graph) = Z_2 wr S_6; each 2-cycle contributes mu_3 to the diagonal group
    assert len(pres.lifted) == 2**6 * math.factorial(6) == 46_080
    assert pres.group_order() == 46_080 * 3**6
    assert elapsed < 30.0


def test_dense_dimension_64_diag_within_gate():
    # about 1,200 edges: the SNF's row transform is that large, and must be
    # proven unimodular without an O(m^3) determinant
    algebra = random_algebra(random.Random(64), F7, 64, density=19 / 64)
    start = time.perf_counter()
    group = diag_group(algebra)
    elapsed = time.perf_counter() - start
    assert (group.free_rank, group.torsion) == (0, ())
    assert elapsed < 30.0


def test_assemble_runs_one_snf_per_algebra(monkeypatch):
    calls = count_snf_calls(monkeypatch)
    pres = assemble_aut(star_algebra(F7, 4))
    assert pres.quotient_order == 24
    assert calls == [4]
    # the kept decomposition serves later solves without another SNF
    for ga, lift in pres.lifted:
        coset = solve(pres.decomposition, autgroup.twisted_system(pres.algebra, ga.sigma))
        assert coset.particular == lift.scales
    assert len(pres.monomial_elements()) == pres.group_order()
    assert calls == [4]


def count_lift_checks(monkeypatch):
    """Record the sigma of every lift check and every SolutionCoset built."""
    checked, cosets = [], []
    real_verify = MonomialAutomorphism._verify
    real_init = monomial.SolutionCoset.__init__

    def verify(self):
        checked.append(self.sigma)
        real_verify(self)

    def init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        cosets.append(self)

    monkeypatch.setattr(MonomialAutomorphism, "_verify", verify)
    monkeypatch.setattr(monomial.SolutionCoset, "__init__", init)
    return checked, cosets


@pytest.mark.parametrize("algebra, lifted, not_lifted", [
    (star_algebra(F7, 4), 24, 0),
    (two_loop_algebra(QQ), 1, 1),
])
def test_assemble_checks_each_lift_once(monkeypatch, algebra, lifted, not_lifted):
    checked, cosets = count_lift_checks(monkeypatch)
    pres = assemble_aut(algebra)
    assert (len(pres.lifted), len(pres.not_lifted)) == (lifted, not_lifted)
    assert checked == [ga.sigma for ga, _ in pres.lifted]
    assert cosets == []


def test_monomial_elements_builds_each_element_once(monkeypatch):
    pres = assemble_aut(star_algebra(F7, 3))
    checked, cosets = count_lift_checks(monkeypatch)
    elements = pres.monomial_elements()
    assert len(checked) == len(elements) == pres.group_order() == 6 * 6 * 2**2
    assert len(set(elements)) == len(elements)
    assert cosets == []


@pytest.mark.parametrize("dropped, message", [
    ((1, 2, 0, 3), "not closed under composition"),   # a 3-cycle of the spokes
    ((1, 0, 2, 3), "not closed under composition"),   # a transposition
    ((0, 1, 2, 3), "do not form a group"),            # the identity
])
def test_closure_check_catches_a_dropped_lift(monkeypatch, dropped, message):
    algebra = star_algebra(QQ, 3)
    assert assemble_aut(algebra).quotient_order == 6
    drop_lift(monkeypatch, dropped)
    with pytest.raises(InvariantViolation, match=message):
        assemble_aut(algebra)


def swapped_identity_presentation():
    """An ``AutPresentation`` whose one lift, the identity, is paired with the swap."""
    algebra = EvolutionAlgebra.from_squares(F5, [[1, 0], [0, 1]])
    identity = MonomialAutomorphism(algebra, (0, 1), (1, 1))
    return AutPresentation(algebra, assemble_aut(algebra).decomposition,
                           ((GraphAutomorphism((1, 0)), identity),), (), True)


# weights of each field in more than one square class, where it has two
CLASS_WEIGHTS = {F2: [1], F3: [1, 2], F5: [1, 2, 3, 4], F7: [1, 2, 3, 4, 5, 6],
                 QQ: [1, 2, 3, -1, 4, Fraction(1, 2), -2]}


def structured_algebras(field, rng):
    """Split stars, disjoint 2-cycles with unequal weights and shuffled block
    unions of small stars, cycles and loops: the families where the lifted
    group L is nontrivial and yet some sigmas do not lift."""
    weight = lambda: rng.choice(CLASS_WEIGHTS[field])
    for spokes in (3, 4, 5, 6):
        yield star_algebra(field, spokes, [weight() for _ in range(spokes)])
    for k in (2, 3):
        yield two_cycles_algebra(field, k, (weight(), weight()))
    blocks = {"star": lambda: [[0, 0, weight()], [0, 0, weight()], [0, 0, 0]],
              "2-cycle": lambda: [[0, weight()], [weight(), 0]],
              "3-cycle": lambda: [[0, weight(), 0], [0, 0, weight()], [weight(), 0, 0]],
              "loop": lambda: [[weight()]]}
    for _ in range(10):
        chosen = [blocks[kind]() for kind in rng.choices(sorted(blocks), k=4)]
        n = sum(map(len, chosen))
        yield block_union_algebra(field, chosen, rng.sample(range(n), n))


@pytest.mark.parametrize("field", [F2, F3, F5, F7, QQ], ids=str)
def test_coset_skipping_equals_solving_every_sigma(field):
    rng = random.Random(f"assembly-{field}")
    mixed = 0
    for algebra in structured_algebras(field, rng):
        pres, expected = assemble_aut(algebra), reference_assemble_aut(algebra)
        assert [(ga.sigma, lift.scales) for ga, lift in pres.lifted] == \
            [(ga.sigma, lift.scales) for ga, lift in expected.lifted]
        assert pres.not_lifted == expected.not_lifted
        assert pres.full_automorphism_group == expected.full_automorphism_group
        mixed += len(pres.lifted) > 1 and len(pres.not_lifted) > 0
    # F_2 has one square class, so there every sigma lifts
    assert mixed == 0 if field == F2 else mixed >= 5


@pytest.mark.parametrize("algebra, sigmas, lifts, bound", [
    # |L| solves that lift, and two per failed coset of L (its first sigma
    # and the re-solve) when the walk meets the rest of the coset after the
    # lifts that carry the failed sigma there
    pytest.param(split_star_algebra(F7, 3, 4), 5040, 144, 212, id="F7-star-3+4"),
    pytest.param(split_star_algebra(F7, 4, 4), 40320, 1152, 1288, id="F7-star-4+4"),
    pytest.param(two_cycles_algebra(F7, 6, (1, 3)), 46080, 720, 846, id="F7-six-2-cycles"),
])
def test_assembly_solves_once_per_failed_coset(monkeypatch, algebra, sigmas, lifts, bound):
    calls = count_particular_calls(monkeypatch)
    pres = assemble_aut(algebra)
    assert (len(pres.lifted), len(pres.lifted) + len(pres.not_lifted)) == (lifts, sigmas)
    assert len(calls) <= bound


@pytest.mark.parametrize("algebra", [split_star_algebra(F7, 2, 3), split_star_algebra(F7, 3, 4)],
                         ids=["F7-star-2+3", "F7-star-3+4"])
def test_every_dropped_lift_is_caught_despite_coset_skipping(monkeypatch, algebra):
    # a wrong "no solution" bars tau . h for every lift h, so the closure
    # check alone may see a subgroup; the re-solve of tau . h then lifts
    lifted = [ga.sigma for ga, _ in assemble_aut(algebra).lifted]
    for dropped in lifted:
        with monkeypatch.context() as patch:
            drop_lift(patch, dropped)
            with pytest.raises(InvariantViolation, match="lifted sigmas"):
                assemble_aut(algebra)


def refuse_scalar_arithmetic(monkeypatch):
    """Make +, -, * and / of every scalar class raise.  inv, ** and unary -
    stay: the quotient map takes each weight's inverse once, and the
    decomposition raises its base to each distinct log once."""
    def refused(name):
        def operator(self, other):
            raise AssertionError(f"scalar {name} inside the solver")
        return operator

    for cls in (Scalar, *Scalar.__subclasses__()):
        for name in ("__add__", "__sub__", "__mul__", "__truediv__"):
            if name in vars(cls):
                monkeypatch.setattr(cls, name, refused(name))


def test_solver_does_no_scalar_arithmetic(monkeypatch):
    # the solve and the lift check run on raw values over both fields:
    # scalars are built for answers, never computed with
    q_star = star_algebra(QQ, 5, [1, 4, 9, 1, 4])
    f7_star = split_star_algebra(F7, 2, 3)
    planted = list(planted_rational_systems())
    refuse_scalar_arithmetic(monkeypatch)
    pres = assemble_aut(q_star)
    assert (len(pres.lifted), len(pres.not_lifted)) == (120, 0)
    pres = assemble_aut(f7_star)
    assert (len(pres.lifted), len(pres.not_lifted)) == (12, 108)
    assert all(solve_inhomogeneous(system).is_feasible for system, _ in planted)


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: MonomialAutomorphism(two_loop_algebra(F5), (0, 0), (1, 1)),
                 NotAnAutomorphism, "(0, 0) is not a permutation of the basis",
                 id="sigma-not-a-permutation"),
    pytest.param(lambda: MonomialAutomorphism(two_loop_algebra(QQ), (0, 1), (1, 1))
                 .residue_matrix(), NotPrimeField, "residue matrices exist over F_p only",
                 id="residue-matrix-over-q"),
    pytest.param(lambda: is_automorphism_matrix(two_loop_algebra(QQ), [[1, 0], [0, 1]]),
                 NotPrimeField, "residue matrices exist over F_p only",
                 id="membership-over-q"),
    pytest.param(swapped_identity_presentation, InvariantViolation,
                 "lift does not project back onto its sigma", id="lift-of-another-sigma"),
])
def test_bad_lifts_and_matrices_are_refused(call, error, message):
    assert_raises_exactly(call, error, message)
