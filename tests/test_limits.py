import math
import random
import time

import pytest

from evoaut.autgroup import diag_system
from evoaut.errors import DepthTooSmall, EvoautError, FieldMismatch, NotPrimeField, TooLarge
from evoaut.limits import (
    ChainSpec,
    TruncatedLimit,
    loop_chain_algebra,
    loop_chain_diag_group,
    tate_module_2,
    tate_stationary_index,
    truncated_chain,
    two_adic_valuation,
    verify_stationary_collapse,
)
from evoaut.monomial import enumerate_solutions_bruteforce
from evoaut.scalar import PrimeField, QQ

from helpers import F2, F3, F5, F7, assert_raises_exactly, reference_stationary_collapse, square_of

F13 = PrimeField(13)
F17 = PrimeField(17)


def residues(tuples):
    return [tuple(x.residue for x in t) for t in tuples]


def test_truncated_chain_anchored():
    spec = ChainSpec(field=F7, exponents=(2, 2, 2), anchor=F7.one)
    limit = truncated_chain(spec)
    assert residues(limit.tuples) == [(1, 1, 1), (1, 1, 6)]


def test_truncated_chain_identity_maps():
    spec = ChainSpec(field=F5, exponents=(1, 1, 1))
    limit = truncated_chain(spec)
    assert residues(limit.tuples) == [(1, 1, 1), (2, 2, 2), (3, 3, 3), (4, 4, 4)]
    assert limit.stabilization_depth == 1


def test_truncated_chain_free_tail():
    spec = ChainSpec(field=F5, exponents=(2, 2))
    limit = truncated_chain(spec)
    assert residues(limit.tuples) == [(1, 1), (1, 4), (4, 2), (4, 3)]
    assert limit.stabilization_depth == 2


def test_truncated_limit_checks_each_link_and_the_anchor():
    spec = ChainSpec(F7, (2, 2), anchor=4)
    chain = (F7.scalar(2), F7.scalar(3))                     # 3**2 == 2 and 2**2 == 4
    assert TruncatedLimit(spec, (chain,), 2).tuples == (chain,)
    with pytest.raises(EvoautError, match="compatibility at index 0"):
        TruncatedLimit(spec, ((F7.scalar(2), F7.scalar(2)),), 2)
    with pytest.raises(EvoautError, match="compatibility at index 1"):
        TruncatedLimit(ChainSpec(F7, (1, 1, 2)), ((F7.one, F7.one, F7.scalar(3)),), 3)
    with pytest.raises(EvoautError, match="anchor"):
        TruncatedLimit(ChainSpec(F7, (2, 2), anchor=2), (chain,), 2)
    with pytest.raises(NotPrimeField):
        TruncatedLimit(ChainSpec(QQ, (2,)), (), 1)


def test_truncated_limit_rejects_scalars_of_another_field():
    # 2**2 == 4: the residues' link holds mod 7 in both, but the F_5 scalars
    # are not elements of F_7
    with pytest.raises(FieldMismatch, match="outside F7"):
        TruncatedLimit(ChainSpec(F7, (2, 2)), ((F5.scalar(4), F5.scalar(2)),), 2)
    with pytest.raises(FieldMismatch, match="outside F7"):
        TruncatedLimit(ChainSpec(F7, (2, 2)), ((F7.scalar(4), F5.scalar(2)),), 2)


def test_truncated_chain_validation():
    with pytest.raises(NotPrimeField):
        truncated_chain(ChainSpec(field=QQ, exponents=(2, 2)))
    with pytest.raises(ValueError):
        ChainSpec(field=F5, exponents=())
    with pytest.raises(ValueError):
        ChainSpec(field=F5, exponents=(0, 2))
    with pytest.raises(EvoautError):
        ChainSpec(field=F5, exponents=(2,), anchor=F5.zero)
    with pytest.raises(TooLarge):
        truncated_chain(ChainSpec(field=PrimeField(65537), exponents=(2,) * 64))


def test_truncation_tower_consistency():
    rng = random.Random(79)
    for _ in range(60):
        field = rng.choice([F5, F7, F13])
        depth = rng.randint(2, 5)
        exps = tuple(rng.randint(1, 4) for _ in range(depth))
        anchor = field.scalar(rng.randrange(1, field.p)) if rng.random() < 0.5 else None
        try:
            deeper = truncated_chain(ChainSpec(field=field, exponents=exps + (rng.randint(1, 4),),
                                               anchor=anchor))
        except EvoautError:
            continue
        shallow = truncated_chain(ChainSpec(field=field, exponents=exps, anchor=anchor))
        shallow_set = set(residues(shallow.tuples))
        for chain in residues(deeper.tuples):
            assert chain[:depth] in shallow_set


def test_tate_module_values():
    for p in (3, 5, 13, 17, 97):
        field = PrimeField(p)
        assert tate_module_2(field).describe() == "1"
        assert tate_stationary_index(field) == two_adic_valuation(p - 1)
    assert tate_module_2(QQ).describe() == "1"
    assert tate_stationary_index(QQ) == 1
    assert tate_module_2(F2).describe() == "1"  # characteristic 2: only 1 is a 2-power root
    assert tate_stationary_index(F2) == 0
    assert tate_module_2("acl-not2").describe() == "Z_2"
    assert tate_module_2("Q-zeta2inf").describe() == "Z_2"
    with pytest.raises(EvoautError):
        tate_module_2("acl-not3")


def test_stationary_index_examples():
    assert tate_stationary_index(F13) == 2
    assert tate_stationary_index(F17) == 4
    assert tate_stationary_index(F3) == 1


def test_verify_stationary_collapse_examples():
    assert verify_stationary_collapse(F13, 5)
    assert verify_stationary_collapse(F5, 4)
    assert verify_stationary_collapse(F3, 3)
    with pytest.raises(DepthTooSmall):
        verify_stationary_collapse(F13, 3)
    with pytest.raises(NotPrimeField):
        verify_stationary_collapse(QQ, 5)


def test_verify_stationary_collapse_refuses_past_the_budget_before_it_builds():
    start = time.perf_counter()
    with pytest.raises(TooLarge, match=r"\(p-1\)\*depth = 2\*20000000"):
        verify_stationary_collapse(F3, 20_000_000)
    assert time.perf_counter() - start < 0.5


def test_stationary_collapse_all_small_primes():
    for p in range(3, 101):
        if all(p % d for d in range(2, p)):
            field = PrimeField(p)
            s = tate_stationary_index(field)
            assert verify_stationary_collapse(field, s + 3)


def test_stationary_collapse_matches_the_reference():
    for p in (3, 5, 13, 17, 97):
        field = PrimeField(p)
        s = tate_stationary_index(field)
        for depth in range(s + 2, s + 5):
            assert verify_stationary_collapse(field, depth) == \
                reference_stationary_collapse(field, depth)


def test_loop_chain_diag_group_shapes():
    assert loop_chain_diag_group(QQ, 1).describe() == "1"
    for n in range(2, 7):
        assert loop_chain_diag_group(QQ, n).describe() == f"mu_{2 ** (n - 1)}(K)"
        assert loop_chain_diag_group(QQ, n).torsion == (2 ** (n - 1),)


def test_loop_chain_diag_group_orders_over_f17():
    for n in range(1, 7):
        expected = math.gcd(2 ** (n - 1), 16)
        assert loop_chain_diag_group(F17, n).concrete_order() == expected
    for n in range(1, 5):
        brute = enumerate_solutions_bruteforce(diag_system(loop_chain_algebra(F17, n)))
        assert len(brute) == math.gcd(2 ** (n - 1), 16)


def test_loop_chain_algebra_shape():
    a = loop_chain_algebra(QQ, 3)
    assert square_of(a, 0) == a.basis_vector(0)
    assert square_of(a, 1) == a.basis_vector(0)
    assert square_of(a, 2) == a.basis_vector(1)
    assert not a.is_2li()
    assert not a.is_invertible()


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: TruncatedLimit(ChainSpec(F7, (2, 2)), ((F7.one,),), 1), EvoautError,
                 "tuple depth mismatch", id="tuple-of-the-wrong-depth"),
    pytest.param(lambda: tate_module_2(7), EvoautError, "unsupported field 7",
                 id="tate-of-an-int"),
    pytest.param(lambda: loop_chain_algebra(F7, 0), ValueError, "dimension must be positive",
                 id="loop-chain-of-dimension-0"),
])
def test_bad_chains_and_fields_are_refused(call, error, message):
    assert_raises_exactly(call, error, message)
