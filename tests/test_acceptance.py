"""Acceptance suite: one test per acceptance criterion, exact tolerances.

Every check is exact arithmetic; the only tolerances are the stated runtime
budgets.  Each test prints a single PASS line (visible with ``pytest -s``).
"""

import math
import random
import time
from fractions import Fraction
from pathlib import Path

from evoaut import EvolutionAlgebra
from evoaut.algebra import same_orbit, verify_unique_basis_up_to_scaling
from evoaut.autgroup import (
    BRUTEFORCE_MATRIX_CAP,
    assemble_aut,
    bruteforce_aut,
    compose,
    coset_automorphisms,
    diag_coset,
    diag_system,
    invert,
    is_automorphism_matrix,
    twisted_limit,
    twisted_system,
)
from evoaut.cli import main
from evoaut.limits import (
    loop_chain_algebra,
    loop_chain_diag_group,
    tate_module_2,
    tate_stationary_index,
    verify_stationary_collapse,
)
from evoaut.files import parse_algebra, parse_graph, serialize_algebra, serialize_graph
from evoaut.monomial import enumerate_solutions_bruteforce, solve_inhomogeneous
from evoaut.scalar import PrimeField, QQ
from evoaut.wgraph import enumerate_graph_automorphisms, tree_of

from helpers import (
    F3,
    F5,
    F7,
    ear_algebra,
    is_sorted_subset,
    random_algebra,
    random_rational_algebra,
    three_cycle_algebra,
    two_loop_algebra,
    zero_square_algebra,
)

SAMPLES = Path(__file__).resolve().parent.parent / "samples"

# the matrix oracle runs wherever its own cap admits: every corpus shape
# except n=4 over F_5
MATRIX_ORACLE_BUDGET = BRUTEFORCE_MATRIX_CAP


def report(criterion, text):
    print(f"ACCEPTANCE {criterion}: PASS - {text}")


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, out


def test_criterion_01_cycle_with_ear(capsys, tmp_path):
    start = time.perf_counter()
    code, out = run_cli(capsys, "diag", SAMPLES / "cycle_with_ear.alg")
    assert code == 0 and "Diag(A;B) = mu_3(K)" in out
    # the same report must come from the graph-file form of the input
    code, graph_text = run_cli(capsys, "convert", SAMPLES / "cycle_with_ear.alg")
    assert code == 0
    graph_file = tmp_path / "ear.graph"
    graph_file.write_text(graph_text)
    code, out = run_cli(capsys, "diag", graph_file)
    assert code == 0 and "Diag(A;B) = mu_3(K)" in out

    f7 = ear_algebra(F7)
    structured = diag_coset(f7).elements()
    brute = enumerate_solutions_bruteforce(diag_system(f7))
    assert len(structured) == 3 and structured == brute
    assert len(enumerate_solutions_bruteforce(diag_system(ear_algebra(F5)))) == 1
    assert diag_coset(ear_algebra(F5)).count() == 1
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"cycle-with-ear diag = mu_3(K); 3 solutions over F_7, 1 over F_5 "
              f"({elapsed:.2f}s)")


def test_criterion_02_three_cycle_matrices(capsys):
    code, out = run_cli(capsys, "aut", SAMPLES / "three_cycle_loops.alg")
    assert code == 0
    assert "group order = 3" in out
    assert "Diag(A;B) = 1" in out
    assert "matrix: [0,0,2; -1,0,0; 0,-1/2,0]" in out
    assert "matrix: [0,-1,0; 0,0,-2; 1/2,0,0]" in out

    a = three_cycle_algebra()
    pres = assemble_aut(a)
    assert pres.group_order() == 3
    lifts = {ga.sigma: lift for ga, lift in pres.lifted}
    expected = [[0, 0, 2], [-1, 0, 0], [0, Fraction(-1, 2), 0]]
    got = lifts[(1, 2, 0)].to_matrix()
    assert [[x.fraction for x in row] for row in got] == \
        [[Fraction(v) for v in row] for row in expected]
    square = compose(lifts[(1, 2, 0)], lifts[(1, 2, 0)])
    assert square.to_matrix() == lifts[(2, 0, 1)].to_matrix()
    report(2, "three-cycle |Aut| = 3 with the exact monomial matrices; Diag trivial")


def test_criterion_03_swap_never_lifts():
    for field in (QQ, F3, F5, F7, PrimeField(11), PrimeField(13)):
        assert not twisted_limit(two_loop_algebra(field), (1, 0)).is_feasible
    pres = assemble_aut(two_loop_algebra(QQ))
    assert pres.group_order() == 1
    assert [ga.sigma for ga, _ in pres.lifted] == [(0, 1)]
    brute = bruteforce_aut(two_loop_algebra(F5))
    assert brute == [((1, 0), (0, 1))]
    report(3, "swap infeasible over Q and F_3..F_13; Aut(A,B) = {1}; "
              "F_5 brute force finds only the identity")


def test_criterion_04_cubic_root_lift():
    rho = 2  # cube root of 1 in F_7
    lifting = EvolutionAlgebra.from_squares(F7, [[rho, 1], [1, 1]])
    pres = assemble_aut(lifting)
    assert pres.quotient_order == 2
    assert (1, 0) in [ga.sigma for ga, _ in pres.lifted]
    assert pres.table == ((0, 1), (1, 0))

    # generic unequal weights: no lift (w(h)/w(k))^3 != w(f)/w(g)
    for squares in ([[3, 1], [1, 1]], [[2, 1], [3, 1]], [[4, 5], [1, 1]]):
        generic = EvolutionAlgebra.from_squares(F7, squares)
        assert not twisted_limit(generic, (1, 0)).is_feasible
    report(4, "swap lifts over F_7 with loop ratio rho=2 (quotient C_2); "
              "generic weights do not lift")


def test_criterion_05_tate_table():
    for p in (3, 5, 13, 17, 97):
        start = time.perf_counter()
        field = PrimeField(p)
        assert tate_module_2(field).describe() == "1"
        s = tate_stationary_index(field)
        assert s == len(bin(p - 1)) - len(bin(p - 1).rstrip("0"))
        assert verify_stationary_collapse(field, s + 3)
        assert time.perf_counter() - start < 1.0
    assert tate_module_2(QQ).describe() == "1"
    report(5, "T_2 trivial for F_3, F_5, F_13, F_17, F_97 and Q; "
              "stationary collapse verified at depth v_2(p-1)+3")


def test_criterion_06_loop_chain_diag_groups():
    assert loop_chain_diag_group(QQ, 1).describe() == "1"
    for n in range(2, 7):
        group = loop_chain_diag_group(QQ, n)
        assert group.torsion == (2 ** (n - 1),)
        assert group.describe() == f"mu_{2 ** (n - 1)}(K)"
    f17 = PrimeField(17)
    for n in range(1, 7):
        assert loop_chain_diag_group(f17, n).concrete_order() == \
            math.gcd(2 ** (n - 1), 16)
    for n in range(1, 5):
        brute = enumerate_solutions_bruteforce(diag_system(loop_chain_algebra(f17, n)))
        assert len(brute) == math.gcd(2 ** (n - 1), 16)
        assert diag_coset(loop_chain_algebra(f17, n)).elements() == brute
    report(6, "loop-rooted chain diag groups are mu_{2^(n-1)}(K) for n <= 6; "
              "F_17 counts match gcd(2^(n-1), 16) and exhaustive enumeration")


def test_criterion_07_solver_vs_oracle(corpus):
    start = time.perf_counter()
    checked_sigmas = 0
    matrix_oracle_runs = 0
    equality_runs = 0
    for algebra in corpus:
        pres = assemble_aut(algebra)
        lifted_sigmas = {ga.sigma for ga, _ in pres.lifted}
        for ga in enumerate_graph_automorphisms(algebra):
            coset = solve_inhomogeneous(twisted_system(algebra, ga.sigma))
            brute = enumerate_solutions_bruteforce(twisted_system(algebra, ga.sigma))
            assert coset.elements() == brute
            assert coset.is_feasible == (ga.sigma in lifted_sigmas)
            checked_sigmas += 1
        elements = pres.monomial_elements()
        assert all(is_automorphism_matrix(algebra, f.residue_matrix())
                   for f in elements)
        total = algebra.field.p ** (algebra.dim ** 2)
        if total <= MATRIX_ORACLE_BUDGET:
            matrix_oracle_runs += 1
            brute_matrices = bruteforce_aut(algebra)
            assembled = sorted(f.residue_matrix() for f in elements)
            assert is_sorted_subset(assembled, brute_matrices)
            if pres.full_automorphism_group:
                equality_runs += 1
                assert assembled == brute_matrices
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(7, f"{len(corpus)} random algebras, {checked_sigmas} twisted cosets "
              f"vs brute force; matrix oracle on {matrix_oracle_runs} instances "
              f"({equality_runs} exact equalities) in {elapsed:.1f}s")


def test_criterion_08_coset_laws(corpus):
    start = time.perf_counter()
    for algebra in corpus:
        pres = assemble_aut(algebra)
        identity = tuple(range(algebra.dim))
        diag_elements = coset_automorphisms(algebra, identity, diag_coset(algebra))
        # (i) the identity lift's coset is the diagonal group
        assert twisted_limit(algebra, identity).elements() == \
            diag_coset(algebra).elements()
        seen = {}
        for ga, lift in pres.lifted:
            members = coset_automorphisms(algebra, ga, twisted_limit(algebra, ga))
            member_keys = sorted(f.sort_key() for f in members)
            # (vi) coset decomposition through the particular lift
            assert member_keys == sorted(compose(d, lift).sort_key()
                                         for d in diag_elements)
            # (ii) inverses land exactly in the coset of the inverse sigma
            inverse_members = coset_automorphisms(
                algebra, ga.inverse(), twisted_limit(algebra, ga.inverse()))
            assert sorted(invert(f).sort_key() for f in members) == \
                sorted(f.sort_key() for f in inverse_members)
            # normality of Diag in U
            for d in diag_elements:
                assert compose(compose(lift, d), invert(lift)).is_diagonal
            # (v) disjointness across sigmas
            for f in members:
                key = f.residue_matrix()
                assert key not in seen
                seen[key] = ga.sigma
    elapsed = time.perf_counter() - start
    report(8, f"identity/inverse/disjointness/coset/normality laws hold "
              f"element-wise on the corpus ({elapsed:.1f}s)")


def test_criterion_09_functor_round_trip(corpus):
    rng = random.Random(101)
    instances = list(corpus)
    while len(instances) < 1000:
        if rng.random() < 0.5:
            instances.append(random_rational_algebra(rng, rng.randint(1, 6)))
        else:
            field = rng.choice([F3, F5, F7, PrimeField(11)])
            instances.append(random_algebra(rng, field, rng.randint(1, 6),
                                            density=rng.choice([0.2, 0.5, 0.8])))
    for algebra in instances:
        assert parse_graph(serialize_graph(algebra)) == algebra
        assert parse_algebra(serialize_algebra(algebra)) == algebra
        pairs = [(u, v) for u, v, _ in algebra.edges]
        assert len(pairs) == len(set(pairs))  # single-edge condition
        assert all(not w.is_zero() for _, _, w in algebra.edges)
    report(9, f"algebra <-> weighted-graph text round trip is the identity on "
              f"{len(instances)} instances; single-edge condition everywhere")


def test_criterion_10_unique_basis(corpus):
    checked = 0
    for algebra in corpus:
        if algebra.field.p > 5 or algebra.dim > 3:
            continue
        if algebra.is_2li() or algebra.is_invertible():
            assert verify_unique_basis_up_to_scaling(algebra)
            checked += 1
    assert checked > 0

    explicit = EvolutionAlgebra.from_squares(F3, [[1, 1], [2, 1]])
    assert explicit.is_invertible()
    assert verify_unique_basis_up_to_scaling(explicit)

    for field in (F3, F5):
        degenerate = zero_square_algebra(field)
        assert not verify_unique_basis_up_to_scaling(degenerate)
        second = [degenerate.vector([1, 1]), degenerate.basis_vector(1)]
        basis = [degenerate.basis_vector(0), degenerate.basis_vector(1)]
        assert same_orbit(degenerate, basis, second) is None
    report(10, f"unique-basis oracle confirms permuted scalings only on "
               f"{checked} 2LI/invertible corpus instances; degenerate example "
               f"has a second orbit")


def test_criterion_11_loop_trees_fixed(corpus):
    verified = 0
    for algebra in corpus:
        loops = [u for u, v, _ in algebra.edges if u == v]
        if not loops:
            continue
        fixed = tree_of(algebra, loops)
        one = algebra.field.one
        for vec in diag_coset(algebra).elements():
            for v in fixed:
                assert vec[v] == one
                verified += 1
    assert verified > 0
    report(11, f"every diagonal automorphism fixes every vertex in the tree of "
               f"each loop vertex ({verified} scale checks)")
