import itertools
import math
import random
import time

import pytest

from evoaut import wgraph
from evoaut.algebra import EvolutionAlgebra
from evoaut.errors import TooLarge, UnknownVertex
from evoaut.files import parse_algebra, parse_graph, serialize_algebra, serialize_graph
from evoaut.scalar import QQ
from evoaut.wgraph import (
    GraphAutomorphism,
    enumerate_graph_automorphisms,
    is_graph_isomorphism,
    tree_of,
)

from helpers import (
    F5,
    F7,
    assert_raises_exactly,
    block_union_algebra,
    count_search_nodes,
    ear_algebra,
    inverse_permutation,
    is_unweighted_automorphism,
    random_algebra,
    random_rational_algebra,
    reference_graph_automorphisms,
    square_of,
    star_algebra,
    structure_matrix,
    two_cycles_algebra,
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
    assert str(structure_matrix(a)[0][1]) == "2"  # the edge 1 -> 0
    assert str(structure_matrix(a)[1][0]) == "1"  # the edge 0 -> 1

    assert zero_algebra(QQ, 3).edges == ()


def test_graph_text_examples():
    loop = parse_graph("vertices v\nedge v -> v w=1\n")
    assert square_of(loop, 0) == (QQ.one,)
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
            assert inverse_permutation(x.sigma) in found
            for y in autos:
                assert x.compose(y).sigma in found


def test_enumeration_cap():
    with pytest.raises(TooLarge):
        enumerate_graph_automorphisms(zero_algebra(QQ, 13))


def circulant_algebra(n, steps):
    """The circulant digraph i -> i + s (mod n), s in ``steps``: vertex-transitive,
    with the rotations in its group."""
    return EvolutionAlgebra.from_squares(F5, [[1 if (j - i) % n in steps else 0
                                               for j in range(n)] for i in range(n)])


def regular_algebra(rng, n, degree):
    """A random digraph in which every vertex has out- and in-degree ``degree``:
    the union of ``degree`` random permutations that share no pair."""
    while True:
        squares = [[0] * n for _ in range(n)]
        for _ in range(degree):
            perm = rng.sample(range(n), n)
            for i, j in enumerate(perm):
                squares[i][j] += 1
        if all(w <= 1 for row in squares for w in row):
            return EvolutionAlgebra.from_squares(F5, squares)


def structured_graphs():
    rng = random.Random(59)
    cycle = lambda k: [[1 if j == (i + 1) % k else 0 for j in range(k)] for i in range(k)]
    yield from (star_algebra(F7, k) for k in range(1, 8))
    yield from (zero_algebra(F5, n) for n in range(1, 8))
    yield two_cycles_algebra(F5, 4)
    yield block_union_algebra(F5, [cycle(3), cycle(3), cycle(2)], rng.sample(range(8), 8))
    yield block_union_algebra(F5, [cycle(4), cycle(4), [[1]]], rng.sample(range(9), 9))
    for steps in ({1}, {1, 3}, {1, 2, 5}, {1, 4, 5}, {1, 2, 5, 7}):
        yield circulant_algebra(12, steps)
    for degree in (2, 3, 4):
        yield from (regular_algebra(rng, 12, degree) for _ in range(3))


def random_graphs():
    rng = random.Random(61)
    for _ in range(600):
        yield random_algebra(rng, F5, rng.randint(1, 9),
                             density=rng.choice([0.1, 0.2, 0.3, 0.5, 0.8]))


@pytest.mark.parametrize("graphs", [structured_graphs, random_graphs])
def test_chain_listing_equals_the_reference_backtracking(graphs):
    # the stabilizer chain's searches are disjoint subtrees of the reference's
    # one backtracking tree, and it never visits the fixed prefix's leaf, so
    # it visits fewer nodes
    for algebra in graphs():
        nodes = []
        expected = reference_graph_automorphisms(algebra, nodes)
        listed, visited = count_search_nodes(lambda: enumerate_graph_automorphisms(algebra))
        assert [ga.sigma for ga in listed] == expected
        assert 0 < visited < nodes[0]


def test_eleven_spokes_are_refused_before_any_sigma_is_listed(monkeypatch):
    # the transversals give |Aut| = 11! before a product is formed
    built = []
    monkeypatch.setattr(wgraph, "GraphAutomorphism", lambda sigma: built.append(sigma))
    algebra = star_algebra(F7, 11)
    start = time.perf_counter()
    _, visited = count_search_nodes(lambda: assert_raises_exactly(
        lambda: enumerate_graph_automorphisms(algebra), TooLarge,
        "wgraph: more than 100000 graph automorphisms (12 vertices)"))
    elapsed = time.perf_counter() - start
    assert built == [] and elapsed < 0.5
    # one search per pair of spokes, each one node per level below it
    assert visited < 12 * math.comb(11, 2)


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
    assert inverse_permutation(ga.sigma) == (2, 0, 1)
    assert ga.compose(GraphAutomorphism((2, 0, 1))).is_identity()
