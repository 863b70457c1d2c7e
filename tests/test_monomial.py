import itertools
import math
import random
from fractions import Fraction

import pytest

from evoaut import monomial
from evoaut.errors import InvariantViolation, NotPrimeField, TooLarge, ZeroArgument
from evoaut.monomial import (
    ExponentDecomposition,
    GroupDescription,
    MonomialSystem,
    SolutionCoset,
    bruteforce_solution_sets,
    enumerate_solutions_bruteforce,
    solve_homogeneous,
    solve_inhomogeneous,
)
from evoaut.scalar import PrimeField, QQ
from evoaut.snf import SmithDecomposition, smith_normal_form

from helpers import (
    F2,
    F3,
    F5,
    F7,
    assert_raises_exactly,
    planted_rational_systems,
    power_product,
    satisfied_by,
    solve,
)


def system(field, n, rows):
    return MonomialSystem(field, n, tuple((tuple(e), field.scalar(c)) for e, c in rows))


EAR_ROWS = [
    ([2, -1, 0, 0, 0], 1),
    ([0, 2, -1, 0, 0], 1),
    ([0, 0, 2, -1, 0], 1),
    ([-1, 0, 0, 2, 0], 1),
    ([2, 0, 0, 0, -1], 1),
    ([-1, 0, 0, 0, 2], 1),
]


def test_rhs_must_be_nonzero():
    with pytest.raises(ZeroArgument):
        system(QQ, 1, [([1], 0)])


def test_solve_homogeneous_unconstrained():
    g = solve_homogeneous(system(QQ, 3, []))
    assert g.describe() == "(K^x)^3"
    assert g.free_rank == 3 and g.torsion == ()


def test_solve_homogeneous_loop_row():
    g = solve_homogeneous(system(F5, 1, [([1], 1)]))
    assert g.describe() == "1"
    assert g.concrete_order() == 1


def test_solve_homogeneous_ear():
    g = solve_homogeneous(system(F7, 5, EAR_ROWS))
    assert g.describe() == "mu_3(K)"
    elements = g.elements()
    residues = [tuple(x.residue for x in vec) for vec in elements]
    assert residues == [(1, 1, 1, 1, 1), (2, 4, 2, 4, 4), (4, 2, 4, 2, 2)]

    over_q = solve_homogeneous(system(QQ, 5, EAR_ROWS))
    assert over_q.describe() == "mu_3(K)"
    assert over_q.concrete_order() == 1  # Q has no nontrivial cube roots


def test_solve_inhomogeneous_swap_infeasible():
    # lifting system of the two-loop swap: x1 = x1^2, x2 = x2^2,
    # x2 = 2 x1^2, 2 x1 = x2^2  (weights 1,1,1,2)
    rows = [([1, 0], 1), ([0, 1], 1), ([2, -1], Fraction(1, 2)), ([-1, 2], 2)]
    for field in (QQ, F3, F5, F7, PrimeField(11), PrimeField(13)):
        rows_f = [([1, 0], 1), ([0, 1], 1),
                  ([2, -1], field.parse("1/2")), ([-1, 2], 2)]
        coset = solve_inhomogeneous(system(field, 2, rows_f))
        assert not coset.is_feasible
        assert coset.count() == 0
    assert not solve_inhomogeneous(system(QQ, 2, rows)).is_feasible


def test_solve_inhomogeneous_three_cycle():
    # loop rows x_i = k x_i^2 and edge rows x_j = k x_i^2 from the worked
    # three-cycle example; unique solution (-1, -1/2, 2)
    coset = solve_inhomogeneous(system(QQ, 3, [
        ([1, 0, 0], -1),                 # x1 = -x1^2
        ([2, -1, 0], -2),                # x2 = -(1/2) x1^2
        ([0, 1, 0], Fraction(-1, 2)),    # x2 = -2 x2^2
        ([0, 2, -1], Fraction(1, 8)),    # x3 = 8 x2^2
        ([0, 0, 1], 2),                  # x3 = (1/2) x3^2
        ([-1, 0, 2], -4),                # x1 = -(1/4) x3^2
    ]))
    assert coset.is_feasible
    assert [str(x) for x in coset.particular] == ["-1", "-1/2", "2"]
    assert coset.homogeneous.describe() == "1"
    assert [[str(x) for x in vec] for vec in coset.elements()] == [["-1", "-1/2", "2"]]


def test_identity_twist_gives_all_ones_particular():
    s = system(F7, 5, EAR_ROWS)
    coset = solve_inhomogeneous(s)
    assert coset.particular == tuple([F7.one] * 5)


def test_cubic_root_swap_over_f7():
    # x1 = 2, x2 = 1/2 from the loops; cross rows consistent
    rows = [([1, 0], 2), ([0, 1], F7.parse("1/2")), ([2, -1], 1), ([-1, 2], 1)]
    coset = solve_inhomogeneous(system(F7, 2, rows))
    assert coset.is_feasible
    assert tuple(x.residue for x in coset.particular) == (2, 4)
    assert coset.count() == 1


def test_infeasible_vs_zero_rows():
    # x1 * x2 = 2 and x1 * x2 = 3 conflict through a zero row of the SNF
    coset = solve_inhomogeneous(system(QQ, 2, [([1, 1], 2), ([1, 1], 3)]))
    assert not coset.is_feasible


def test_enumerate_bruteforce_examples():
    assert [tuple(x.residue for x in v)
            for v in enumerate_solutions_bruteforce(system(F5, 1, [([1], 1)]))] == [(1,)]
    assert [tuple(x.residue for x in v)
            for v in enumerate_solutions_bruteforce(system(F3, 1, []))] == [(1,), (2,)]
    with pytest.raises(TooLarge):
        enumerate_solutions_bruteforce(system(F7, 10, []))
    with pytest.raises(NotPrimeField):
        enumerate_solutions_bruteforce(system(QQ, 1, []))


def test_ear_solutions_match_bruteforce():
    s = system(F7, 5, EAR_ROWS)
    brute = enumerate_solutions_bruteforce(s)
    assert len(brute) == 3
    assert solve_inhomogeneous(s).elements() == brute

    s5 = system(F5, 5, EAR_ROWS)
    assert len(enumerate_solutions_bruteforce(s5)) == 1


def random_system(rng, field, n, rows):
    out = []
    for _ in range(rows):
        exps = [rng.randint(-2, 2) for _ in range(n)]
        rhs = rng.randrange(1, field.p)
        out.append((exps, rhs))
    return system(field, n, out)


def test_solver_matches_bruteforce_on_random_systems():
    rng = random.Random(53)
    for _ in range(300):
        field = rng.choice([F3, F5, F7])
        n = rng.randint(1, 3)
        s = random_system(rng, field, n, rng.randint(0, 4))
        coset = solve_inhomogeneous(s)
        brute = enumerate_solutions_bruteforce(s)
        assert coset.elements() == brute
        expected = coset.count()
        assert len(brute) == (expected or 0)
        if coset.is_feasible:
            g = coset.homogeneous
            order = (field.p - 1) ** g.free_rank
            for d in g.torsion:
                order *= math.gcd(d, field.p - 1)
            assert len(brute) == order


def test_feasibility_invariant_under_solution_shift():
    # multiplying each rhs by the row value of a known solution translates
    # the coset by that solution
    rng = random.Random(59)
    for _ in range(100):
        field = rng.choice([F5, F7])
        n = rng.randint(1, 3)
        s = random_system(rng, field, n, rng.randint(1, 3))
        coset = solve_inhomogeneous(s)
        if not coset.is_feasible:
            continue
        shift = tuple(field.scalar(rng.randrange(1, field.p)) for _ in range(n))
        shifted_rows = []
        for exps, rhs in s.rows:
            shifted_rows.append((exps, rhs * power_product(field, shift, exps)))
        shifted = MonomialSystem(field, n, tuple(shifted_rows))
        shifted_solutions = enumerate_solutions_bruteforce(shifted)
        translated = sorted(
            (tuple(a * b for a, b in zip(vec, shift)) for vec in coset.elements()),
            key=lambda v: tuple(x.residue for x in v))
        assert shifted_solutions == translated


def test_rational_systems_with_planted_solutions():
    # the solver can never claim feasibility wrongly (the particular solution
    # is substituted back by the coset constructor), so the failure mode to
    # guard against over Q is a false Infeasible: plant a known solution
    for planted_system, planted in planted_rational_systems():
        coset = solve_inhomogeneous(planted_system)
        assert coset.is_feasible
        if coset.count() is not None:
            # finite coset: the planted solution must literally appear
            assert tuple(planted) in coset.elements()


def test_rational_feasibility_projects_to_prime_fields():
    # a rational solution reduces mod p whenever p divides none of the
    # numerators/denominators involved, so Q-feasible systems with 2,3-smooth
    # data must stay feasible over F_7 and F_11 with matching reductions
    rng = random.Random(89)
    for _ in range(100):
        n = rng.randint(1, 3)
        planted = [QQ.scalar(Fraction(rng.choice([-3, -2, -1, 1, 2, 3]),
                                      rng.choice([1, 2, 3]))) for _ in range(n)]
        rows = []
        for _ in range(rng.randint(1, 3)):
            exps = [rng.randint(-2, 2) for _ in range(n)]
            rows.append((exps, power_product(QQ, planted, enumerate(exps))))
        assert solve_inhomogeneous(system(QQ, n, rows)).is_feasible
        for field in (F7, PrimeField(11)):
            reduced = [(exps, field.scalar(rhs.fraction)) for exps, rhs in rows]
            coset = solve_inhomogeneous(MonomialSystem(field, n, tuple(reduced)))
            assert coset.is_feasible
            image = tuple(field.scalar(x.fraction) for x in planted)
            assert image in coset.elements()


def test_exponent_rows_are_held_by_their_nonzeros():
    dense = system(F7, 3, [([2, 0, -1], 3), ([0, 0, 0], 1)])
    assert dense.rows == ((((0, 2), (2, -1)), F7.scalar(3)), ((), F7.one))
    assert system(F7, 3, [(((0, 2), (1, 0), (2, -1)), 3), ((), 1)]) == dense
    for pairs in (((2, -1), (0, 2)),     # out of variable order
                  ((0, 2), (0, -1)),     # one variable twice
                  ((0, 2), (3, -1)),     # a variable outside range(3)
                  ((-1, 2),)):
        with pytest.raises(ValueError, match="increasing order"):
            system(F7, 3, [(pairs, 3)])
    with pytest.raises(ValueError, match="non-integer"):
        system(F7, 3, [(((0, 2.5),), 3)])


def test_exponent_rows_are_read_as_the_snf_reads_them():
    # a dict row is read by its keys as columns, not as a dense row of keys
    as_dict = MonomialSystem(F7, 2, [({0: 2, 1: -1}, 1)])
    assert as_dict == MonomialSystem(F7, 2, [(((0, 2), (1, -1)), 1)]) \
        == MonomialSystem(F7, 2, [([2, -1], 1)])
    assert as_dict.rows == ((((0, 2), (1, -1)), F7.one),)
    assert MonomialSystem(F7, 2, [({1: 2}, 1)]).rows == ((((1, 2),), F7.one),)
    # as in the SNF, a bool is not an exponent
    with pytest.raises(ValueError, match="non-integer"):
        MonomialSystem(F7, 2, [([True, -1], 1)])


def test_zero_exponent_rows():
    assert solve_inhomogeneous(system(QQ, 2, [([0, 0], 1)])).is_feasible
    assert not solve_inhomogeneous(system(QQ, 2, [([0, 0], 2)])).is_feasible
    assert not solve_inhomogeneous(system(F5, 2, [([0, 0], 3)])).is_feasible


def test_group_description_dsl():
    assert GroupDescription(free_rank=0).describe() == "1"
    assert GroupDescription(free_rank=2).describe() == "(K^x)^2"
    assert GroupDescription(free_rank=1, torsion=(2, 2)).describe() == \
        "(K^x)^1 x mu_2(K)^2"
    assert GroupDescription(free_rank=0, torsion=(3,)).describe() == "mu_3(K)"
    assert GroupDescription(free_rank=0, torsion=(2, 4, 8)).describe() == \
        "mu_2(K) x mu_4(K) x mu_8(K)"
    assert GroupDescription(free_rank=0, symbol="Z_2").describe() == "Z_2"


def test_group_description_orders():
    g = GroupDescription(free_rank=1, torsion=(2, 2), field=F5)
    assert g.concrete_order() == 4 * 2 * 2
    assert GroupDescription(free_rank=1, field=QQ).concrete_order() is None
    assert GroupDescription(free_rank=0, torsion=(2, 6), field=QQ).concrete_order() == 4


def test_group_residues_are_the_elements_residues():
    group = solve_homogeneous(system(F7, 5, EAR_ROWS))
    assert group.coset(None) == [tuple(x.residue for x in vec) for vec in group.elements()]
    assert group.coset(None) == [(1, 1, 1, 1, 1), (2, 4, 2, 4, 4), (4, 2, 4, 2, 2)]
    # a shift by a group element lists the group again
    assert group.coset(group.elements()[1]) == group.coset(None)


def _mu3_over_f7(generators, orders, torsion=(3,)):
    # mu_3(F_7) on two coordinates: g = (2, 4) has order 3
    return GroupDescription(free_rank=0, torsion=torsion, field=F7, n_vars=2,
                            generators=tuple(tuple(map(F7.scalar, gen)) for gen in generators),
                            generator_orders=orders)


def test_coset_lists_one_product_per_element():
    group = _mu3_over_f7([(2, 4)], (3,))
    assert group.coset(None) == [(1, 1), (2, 4), (4, 2)]
    assert group.coset((F7.scalar(3), F7.scalar(3))) == [(3, 3), (5, 6), (6, 5)]


@pytest.mark.parametrize("generators, orders, torsion, message", [
    ([(2, 4), (2, 4)], (3, 3), (3,), "would list 9 elements"),   # a repeated generator
    ([(2, 4)], (6,), (3,), "would list 6 elements"),     # a multiple of the true order
    ([(2, 4), (2, 4)], (3, 1), (3,), "does not have order 1"),
    ([(2, 4), (4, 2)], (3, 3), (3, 3), "generated 3 elements, expected order 9"),
], ids=["repeated", "multiple-order", "short-order", "dependent"])
def test_coset_refuses_generators_that_do_not_give_the_order(generators, orders, torsion,
                                                             message):
    # the closure listing of earlier versions accepted the first three, as it
    # read neither the orders nor how often an element was reached
    with pytest.raises(InvariantViolation, match=message):
        _mu3_over_f7(generators, orders, torsion).coset(None)


def test_shared_scan_matches_a_direct_check_of_each_system():
    rng = random.Random(59)
    for _ in range(60):
        field = rng.choice([F3, F5, F7])
        n = rng.randint(1, 3)
        base = random_system(rng, field, n, rng.randint(0, 4))
        systems = [base] + [system(field, n, [(e, rng.randrange(1, field.p)) for e, _ in base.rows])
                            for _ in range(rng.randint(0, 5))]
        systems.append(rng.choice(systems))  # equal right-hand sides share one list
        points = list(itertools.product(range(1, field.p), repeat=n))
        expected = [[x for x in points if satisfied_by(s, x)] for s in systems]
        rights = (tuple(c.residue for _, c in s.rows) for s in systems)
        exponents = [e for e, _ in base.rows]
        assert bruteforce_solution_sets(field.p, n, exponents, rights) == expected


def test_raw_certificate_accepts_what_the_scalar_check_accepts():
    # SolutionCoset checks a particular solution in raw values: pow(x, e, p)
    # over F_p, Fraction powers over Q.  The reference check evaluates each
    # row in scalars; the two must agree on every vector, feasible or not
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    verdicts = set()

    @st.composite
    def cases(draw):
        field = draw(st.sampled_from([F2, F3, F7, QQ]))
        n = draw(st.integers(1, 4))

        def unit():
            if field is QQ:
                return QQ.scalar(Fraction(draw(st.sampled_from([-3, -2, -1, 1, 2, 5])),
                                          draw(st.integers(1, 4))))
            return field.scalar(draw(st.integers(1, field.p - 1)))

        xs = tuple(unit() for _ in range(n))
        rows = []
        for _ in range(draw(st.integers(0, 4))):
            exps = [0] * n
            kind = draw(st.sampled_from(["random", "edge", "loop", "zero"]))
            if kind == "random":
                exps = [draw(st.integers(-3, 3)) for _ in range(n)]
            elif kind == "edge" and n > 1:   # x_u**2 / x_v, as an algebra's edge gives it
                u, v = draw(st.permutations(range(n)))[:2]
                exps[u], exps[v] = 2, -1
            elif kind != "zero":
                exps[draw(st.integers(0, n - 1))] = 1
            met = power_product(field, xs, enumerate(exps))
            rows.append((exps, met if draw(st.booleans()) else unit()))
        return system(field, n, rows), xs

    @hypothesis.settings(max_examples=500, deadline=None, database=None)
    @hypothesis.given(cases())
    def check(case):
        s, xs = case
        try:
            SolutionCoset(s, xs, GroupDescription(free_rank=0))
            accepted = True
        except InvariantViolation as exc:
            assert str(exc) == "particular solution fails the system"
            accepted = False
        assert accepted == satisfied_by(s, xs)
        verdicts.add(accepted)

    check()
    assert verdicts == {True, False}


def test_decomposition_solves_every_right_hand_side():
    decomposition = ExponentDecomposition(system(F7, 5, EAR_ROWS))
    rng = random.Random(11)
    for _ in range(20):
        s = system(F7, 5, [(e, rng.randrange(1, 7)) for e, _ in EAR_ROWS])
        assert solve(decomposition, s).elements() == enumerate_solutions_bruteforce(s)
        assert solve(decomposition, s) == solve_inhomogeneous(s)


def test_decomposition_rejects_other_exponent_rows():
    decomposition = ExponentDecomposition(system(F7, 5, EAR_ROWS))
    others = [system(F7, 5, EAR_ROWS[:-1]),
              system(F7, 5, EAR_ROWS[1:] + EAR_ROWS[:1]),
              system(F7, 5, [([3, -1, 0, 0, 0], 1)] + EAR_ROWS[1:]),
              system(F5, 5, EAR_ROWS),
              system(F7, 6, [(e + [0], c) for e, c in EAR_ROWS])]
    for other in others:
        with pytest.raises(InvariantViolation):
            solve(decomposition, other)
    empty = ExponentDecomposition(system(F7, 2, []))
    with pytest.raises(InvariantViolation):
        solve(empty, system(F7, 3, []))


def test_decomposition_replays_v_only_when_it_is_read(monkeypatch):
    replays = []
    real = SmithDecomposition.V
    monkeypatch.setattr(SmithDecomposition, "V",
                        property(lambda snf: replays.append(snf) or real.fget(snf)))
    # the ear's invariant factors are 1, 1, 1, 1, 3, and mu_3(F_5) is trivial:
    # no generator, and the all-ones lift needs neither U nor V
    trivial = ExponentDecomposition(system(F5, 5, EAR_ROWS))
    assert trivial.homogeneous.generators == ()
    assert trivial.particular([1] * 6) == (F5.one,) * 5
    assert replays == []
    # over F_7, mu_3 has a generator, which reads V once
    ear = ExponentDecomposition(system(F7, 5, EAR_ROWS))
    assert ear.homogeneous.generators
    assert len(replays) == 1
    assert ear.V == real.fget(smith_normal_form([row for row, _ in EAR_ROWS], 5))
    # a particular solution reads the V already replayed: here the one of
    # the right-hand sides that x = (3, 1, 1, 1, 1) gives
    assert ear.particular([2, 1, 1, 5, 2, 5]) is not None
    assert len(replays) == 1


def test_decomposition_checks_its_generators_against_the_rows(monkeypatch):
    real = monomial._generator_logs

    def corrupted(*args):
        generators, orders = real(*args)
        assert generators
        return [tuple(1 for _ in gen) for gen in generators], orders

    monkeypatch.setattr(monomial, "_generator_logs", corrupted)
    with pytest.raises(InvariantViolation):
        ExponentDecomposition(system(F7, 5, EAR_ROWS))


def coset_with_a_zero_entry():
    relation = system(F7, 2, [([1, 1], 1)])
    return SolutionCoset(relation, (F7.zero, F7.one), solve_homogeneous(relation))


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: GroupDescription(1, field=QQ).coset(None), TooLarge,
                 "monomial: cannot list an infinite or symbolic group ((K^x)^1)",
                 id="infinite-group"),
    pytest.param(lambda: GroupDescription(2, field=PrimeField(1009)).coset(None), TooLarge,
                 "monomial: group order exceeds the listing cap 1000000 (order 1016064)",
                 id="group-past-the-listing-cap"),
    pytest.param(coset_with_a_zero_entry, InvariantViolation,
                 "particular solution must lie in (K^x)^n", id="particular-with-a-zero"),
])
def test_unlistable_groups_and_bad_cosets_are_refused(call, error, message):
    assert_raises_exactly(call, error, message)
