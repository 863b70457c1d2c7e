import itertools
import random

import pytest

from evoaut.errors import TooLarge, UnknownVertex
from evoaut.files import parse_algebra, parse_graph, serialize_algebra, serialize_graph
from evoaut.scalar import QQ
from evoaut.wgraph import (
    GraphAutomorphism,
    enumerate_graph_automorphisms,
    is_graph_isomorphism,
    is_unweighted_automorphism,
    tree_of,
)

from helpers import (
    F5,
    F7,
    ear_algebra,
    random_algebra,
    random_rational_algebra,
    two_loop_algebra,
    zero_algebra,
    zero_square_algebra,
)


def pairs(algebra):
    return [(u, v) for u, v, _ in algebra.edges]


def graph_algebra(labels, weights):
    """The algebra whose graph has the given labels and {(src, dst): weight} edges."""
    text = "vertices " + " ".join(labels) + "\n"
    text += "".join(f"edge {labels[u]} -> {labels[v]} w={w}\n" for (u, v), w in weights.items())
    return parse_graph(text)


def test_algebra_edges_examples():
    a = zero_square_algebra(QQ)
    assert a.edges == ((0, 0, QQ.one),)

    a = two_loop_algebra(QQ)
    assert pairs(a) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert str(a.entry(0, 1)) == "2"  # the edge 1 -> 0
    assert str(a.entry(1, 0)) == "1"  # the edge 0 -> 1

    assert zero_algebra(QQ, 3).edges == ()


def test_graph_text_examples():
    loop = parse_graph("vertices v\nedge v -> v w=1\n")
    assert loop.square_of(0) == (QQ.one,)
    assert loop.labels == ("v",)

    ear = ear_algebra(QQ)
    assert pairs(ear) == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 0), (4, 0)]
    assert parse_graph(serialize_graph(ear)) == ear


def test_round_trip_on_random_instances():
    rng = random.Random(41)
    for _ in range(100):
        if rng.random() < 0.5:
            a = random_algebra(rng, rng.choice([F5, F7]), rng.randint(1, 5))
        else:
            a = random_rational_algebra(rng, rng.randint(1, 5))
        assert parse_graph(serialize_graph(a)) == a
        assert parse_algebra(serialize_algebra(a)) == a
        # single-edge condition: each ordered pair appears at most once
        assert len(pairs(a)) == len(set(pairs(a)))
        assert all(not w.is_zero() for _, _, w in a.edges)


def test_tree_of():
    ear = ear_algebra(QQ)
    assert tree_of(ear, ["e1"]) == frozenset({0, 1, 2, 3, 4})
    empty = zero_algebra(QQ, 3)
    assert tree_of(empty, ["e2"]) == frozenset({1})
    chain = graph_algebra(["a", "b", "c"], {(0, 1): 1, (1, 2): 1})
    assert tree_of(chain, [1]) == frozenset({1, 2})
    assert tree_of(chain, ["a"]) == frozenset({0, 1, 2})
    with pytest.raises(UnknownVertex):
        tree_of(chain, ["zz"])
    with pytest.raises(UnknownVertex):
        tree_of(chain, [3])


def test_tree_is_fixed_point_of_expansion():
    rng = random.Random(43)
    for _ in range(50):
        a = random_algebra(rng, F5, rng.randint(1, 5))
        seed = rng.randrange(a.dim)
        tree = tree_of(a, [seed])
        expanded = set(tree)
        expanded.update(v for u, v, _ in a.edges if u in tree)
        assert expanded == tree


def brute_force_automorphisms(algebra):
    out = []
    for sigma in itertools.permutations(range(algebra.dim)):
        if is_unweighted_automorphism(algebra, sigma):
            out.append(sigma)
    return sorted(out)


def test_enumerate_graph_automorphisms_examples():
    two = two_loop_algebra(QQ)
    assert [a.sigma for a in enumerate_graph_automorphisms(two)] == [(0, 1), (1, 0)]

    ear = ear_algebra(QQ)
    sigmas = [a.sigma for a in enumerate_graph_automorphisms(ear)]
    assert sigmas == brute_force_automorphisms(ear)
    assert sigmas == [(0, 1, 2, 3, 4)]  # vertex 1 has the unique out-degree 2

    assert len(enumerate_graph_automorphisms(zero_algebra(QQ, 3))) == 6


def test_enumeration_matches_brute_force_and_is_a_group():
    rng = random.Random(47)
    for _ in range(60):
        a = random_algebra(rng, F5, rng.randint(1, 5), density=rng.choice([0.2, 0.5, 0.8]))
        autos = enumerate_graph_automorphisms(a)
        sigmas = [x.sigma for x in autos]
        assert sigmas == brute_force_automorphisms(a)
        assert sigmas[0] == tuple(range(a.dim))
        found = set(sigmas)
        for x in autos:
            assert x.inverse().sigma in found
            for y in autos:
                assert x.compose(y).sigma in found


def test_enumeration_cap():
    with pytest.raises(TooLarge):
        enumerate_graph_automorphisms(zero_algebra(QQ, 13))


def test_cross_graph_isomorphism():
    g = two_loop_algebra(QQ)
    relabeled = graph_algebra(["x", "y"], {(1, 1): 1, (1, 0): 1, (0, 1): 2, (0, 0): 1})
    assert is_graph_isomorphism(g, relabeled, (1, 0))
    assert is_graph_isomorphism(g, relabeled, (0, 1))  # symmetric edge set
    chain = graph_algebra(["x", "y"], {(0, 1): 1})
    assert not is_graph_isomorphism(g, chain, (0, 1))
    assert not is_graph_isomorphism(g, zero_algebra(QQ, 3), (0, 1, 2))


def test_graph_automorphism_type():
    with pytest.raises(Exception):
        GraphAutomorphism((0, 0))
    ga = GraphAutomorphism((1, 2, 0))
    assert ga(0) == 1
    assert ga.inverse().sigma == (2, 0, 1)
    assert ga.compose(ga.inverse()).is_identity()
