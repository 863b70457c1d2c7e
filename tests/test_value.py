"""Value semantics of the value classes: equality and hash over the fields in
order, a repr that names them, and the constructors' validation."""

import pytest

from evoaut.algebra import BasisChange
from evoaut.autgroup import AutPresentation, assemble_aut
from evoaut.errors import (DimensionMismatch, EvoautError, InvariantViolation, ZeroArgument,
                           ZeroVector)
from evoaut.limits import ChainSpec, TruncatedLimit, truncated_chain
from evoaut.monomial import ExponentDecomposition, GroupDescription, MonomialSystem, SolutionCoset
from evoaut.snf import SmithDecomposition, smith_normal_form
from evoaut.wgraph import GraphAutomorphism

from helpers import F5, F7, star_algebra

SYSTEM = MonomialSystem(F7, 2, (((2, -1), 3),))
PRES = assemble_aut(star_algebra(F7, 2))


def coset(particular):
    return SolutionCoset(SYSTEM, particular, ExponentDecomposition(SYSTEM).homogeneous)


def presentation(full):
    return AutPresentation(PRES.algebra, PRES.decomposition, PRES.lifted, PRES.not_lifted, full)


# each case (build, a, b): build(a) twice gives two equal instances, and
# build(b) one that differs from them in one field
CASES = {
    "BasisChange": (lambda k: BasisChange((1, 0), (F7.one, F7.scalar(k))), 2, 3),
    "GraphAutomorphism": (GraphAutomorphism, (1, 0, 2), (0, 2, 1)),
    "MonomialSystem": (lambda c: MonomialSystem(F7, 2, (((2, -1), c),)), 3, 5),
    "GroupDescription": (lambda t: GroupDescription(1, t, F7, n_vars=2), (2,), (3,)),
    "SolutionCoset": (coset, (F7.scalar(3), F7.scalar(3)), None),
    "SmithDecomposition": (smith_normal_form, [[2, 4], [6, 8]], [[2, 4], [6, 9]]),
    "AutPresentation": (presentation, True, False),
    "ChainSpec": (lambda anchor: ChainSpec(F7, [2, 2], anchor), None, 1),
    "TruncatedLimit": (lambda p: truncated_chain(ChainSpec(p, (2, 2))), F7, F5),
}


@pytest.mark.parametrize("build, a, b", CASES.values(), ids=CASES.keys())
def test_equal_fields_give_equal_values(build, a, b):
    x, y, z = build(a), build(a), build(b)
    assert x is not y
    assert x == y and hash(x) == hash(y) and {x: 1}[y] == 1
    assert x != z
    assert x != tuple(getattr(x, name) for name in x.__slots__)
    assert repr(x).startswith(f"{type(x).__name__}({x.__slots__[0]}=")


def test_normalized_fields_compare_normalized():
    assert ChainSpec(F7, [2, 2], 1) == ChainSpec(F7, (2, 2), F7.one)
    assert MonomialSystem(F7, 1, [([2], 3)]) == MonomialSystem(F7, 1, (((2,), F7.scalar(3)),))
    dense = smith_normal_form([[2, 4], [6, 8]])
    assert dense.rank == 2 and dense == smith_normal_form(((2, 4), (6, 8)))
    assert repr(GraphAutomorphism((1, 0))) == "GraphAutomorphism(sigma=(1, 0))"


@pytest.mark.parametrize("build, error", [
    (lambda: GraphAutomorphism((0, 0)), DimensionMismatch),
    (lambda: BasisChange((0, 0), (F7.one, F7.one)), DimensionMismatch),
    (lambda: BasisChange((1, 0), (F7.one, F7.zero)), ZeroVector),
    (lambda: MonomialSystem(F7, -1, ()), ValueError),
    (lambda: MonomialSystem(F7, 2, (((2,), 3),)), ValueError),
    (lambda: MonomialSystem(F7, 1, (((2,), 0),)), ZeroArgument),
    (lambda: GroupDescription(-1), ValueError),
    (lambda: GroupDescription(0, (2, 3)), InvariantViolation),
    (lambda: GroupDescription(0, (1,)), InvariantViolation),
    (lambda: GroupDescription(0, generators=((F7.one,),)), InvariantViolation),
    (lambda: coset((F7.one, F7.one)), InvariantViolation),
    (lambda: coset((F7.one,)), InvariantViolation),
    (lambda: SmithDecomposition(((2,),), ((1,),), ((2,),), ((1,),), [[1]], [[2]]),
     InvariantViolation),
    (lambda: AutPresentation(PRES.algebra, PRES.decomposition, PRES.lifted[1:],
                             PRES.not_lifted, True), InvariantViolation),
    (lambda: ChainSpec(F7, ()), ValueError),
    (lambda: ChainSpec(F7, (2,), 0), EvoautError),
    (lambda: TruncatedLimit(ChainSpec(F7, (2, 2)), ((F7.one, F7.scalar(3)),), 1), EvoautError),
])
def test_constructor_errors(build, error):
    with pytest.raises(error):
        build()
