"""Symmetries of the graph associated with an evolution algebra.

The graph of Elduque and Labra has one vertex per basis element and an edge
i -> j of weight w whenever e_j appears in e_i**2 with coefficient w: at most
one edge per ordered pair, each of nonzero weight.  That is exactly
``EvolutionAlgebra.edges``, so the functions here take the algebra and read
its edge list; a vertex is a basis index, or a label where ``tree_of`` takes
seeds.  Only adjacency matters here, never weights.
``enumerate_graph_automorphisms`` lists the adjacency-preserving permutations
from a stabilizer chain: one first-leaf search on a plain adjacency table per
candidate image of each base vertex gives a transversal per level, whose
elements are checked against the edge list, and the group is their products.
"""

from __future__ import annotations

from itertools import islice
from math import prod
from operator import itemgetter, lt

from .algebra import EvolutionAlgebra
from .errors import DimensionMismatch, InvariantViolation, TooLarge, UnknownVertex
from .value import Value

DEFAULT_VERTEX_CAP = 12
MAX_AUTOMORPHISMS = 100_000


class GraphAutomorphism(Value):
    """Adjacency-preserving vertex permutation; weights are not consulted."""

    __slots__ = ("sigma",)

    def __init__(self, sigma: tuple[int, ...]):
        if sorted(sigma) != list(range(len(sigma))):
            raise DimensionMismatch("sigma is not a permutation")
        self.sigma = sigma

    def compose(self, other: "GraphAutomorphism") -> "GraphAutomorphism":
        """self after other: (self . other)(v) = self(other(v)).  No path of the
        program calls it; the benchmark's tracer (bench/spans.py) wraps it by name."""
        return GraphAutomorphism(tuple(self.sigma[other.sigma[v]]
                                       for v in range(len(self.sigma))))

    def is_identity(self) -> bool:
        return all(img == i for i, img in enumerate(self.sigma))


def _vertex_index(algebra: EvolutionAlgebra, vertex) -> int:
    if isinstance(vertex, int):
        if not 0 <= vertex < algebra.dim:
            raise UnknownVertex(f"vertex index {vertex} out of range")
        return vertex
    try:
        return algebra.labels.index(vertex)
    except ValueError:
        raise UnknownVertex(f"unknown vertex label {vertex!r}") from None


def tree_of(algebra: EvolutionAlgebra, seeds) -> frozenset[int]:
    """All vertices reachable from the seeds (labels or indices) by directed
    paths, seeds included."""
    successors = [[] for _ in range(algebra.dim)]
    for u, v, _ in algebra.edges:
        successors[u].append(v)
    frontier = [_vertex_index(algebra, s) for s in seeds]
    seen = set(frontier)
    while frontier:
        for v in successors[frontier.pop()]:
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    return frozenset(seen)


def is_graph_isomorphism(algebra: EvolutionAlgebra, other: EvolutionAlgebra, sigma) -> bool:
    """Adjacency-only isomorphism test between two graphs along sigma: the
    image of the edge set under sigma is the other graph's edge set."""
    sigma = tuple(sigma)
    n = algebra.dim
    if other.dim != n or sorted(sigma) != list(range(n)):
        return False
    return {(sigma[u], sigma[v]) for u, v, _ in algebra.edges} == other.weights.keys()


def enumerate_graph_automorphisms(algebra: EvolutionAlgebra) -> list[GraphAutomorphism]:
    """All adjacency-preserving permutations, identity first.

    The group is listed from a stabilizer chain.  Vertices are ordered by
    (out-degree, in-degree, loop flag, label), and candidates are pruned by
    that same invariant signature.  At base level k, with ``order[:k]`` fixed
    pointwise, one first-leaf search per candidate image w of ``order[k]``
    finds an automorphism that fixes them and maps ``order[k]`` to w, if there
    is one; the identity answers for ``order[k]`` itself.  Those searches give
    a transversal T_k of the level's stabilizer, and they explore disjoint
    parts of the full backtracking tree.  So |Aut| = prod |T_k| is known
    before any element is listed, which lets ``MAX_AUTOMORPHISMS`` refuse
    near-symmetric graphs whose group would not fit in memory at once.  The
    group is the products T_0 . T_1 ... (each term applied after the next),
    sorted lexicographically by permutation word.  The search reads
    adjacency from a local n x n table; every transversal element is checked
    against the edge list, which makes every product an automorphism, and
    the listing must hold exactly prod |T_k| distinct permutations.
    """
    n = algebra.dim
    if n > DEFAULT_VERTEX_CAP:
        raise TooLarge(f"wgraph: vertex count exceeds the enumeration cap "
                       f"{DEFAULT_VERTEX_CAP} ({n} vertices)")
    adjacent = [[False] * n for _ in range(n)]
    for u, v, _ in algebra.edges:
        adjacent[u][v] = True
    entering = list(zip(*adjacent))
    signature = [(sum(adjacent[v]), sum(entering[v]), adjacent[v][v]) for v in range(n)]
    order = sorted(range(n), key=lambda v: (signature[v], algebra.labels[v]))
    candidates = [[w for w in range(n) if signature[w] == signature[v]] for v in range(n)]
    options = [candidates[v] for v in order] + [()]   # the images tried at each level
    assigned: list[tuple[int, int]] = []
    image = list(range(n))
    used = [False] * n

    def first_leaf(k: int, images, found=None) -> bool:
        """At the node where order[:k] is assigned, try order[k] -> w for each
        w of ``images``, depth first, and stop at the first full assignment
        below, left in ``image``.  Given a list ``found``, append the first
        full assignment below each w to it instead, and go on to the next w."""
        if k == n:
            return True
        v = order[k]
        into_v, out_of_v = entering[v], adjacent[v]
        for w in images:
            if used[w]:
                continue
            into_w, out_of_w = entering[w], adjacent[w]
            for u, img in assigned:
                if into_v[u] != into_w[img] or out_of_v[u] != out_of_w[img]:
                    break
            else:
                assigned.append((v, w))
                image[v] = w
                used[w] = True
                if first_leaf(k + 1, options[k + 1]):
                    if found is None:
                        return True
                    found.append(tuple(image))
                    for _, img in assigned[k + 1:]:
                        used[img] = False
                    del assigned[k + 1:]
                used[w] = False
                assigned.pop()
        return False

    identity = tuple(range(n))
    edges = algebra.weights.keys()
    transversals = []
    for k, v in enumerate(order):
        found = []
        first_leaf(k, [w for w in options[k] if w != v], found)
        for sigma in found:
            if {(sigma[a], sigma[b]) for a, b in edges} != edges:
                raise InvariantViolation(f"search produced a non-automorphism {sigma}")
        transversals.append([identity] + found)
        assigned.append((v, v))
        image[v] = v
        used[v] = True
    size = prod(map(len, transversals))
    if size > MAX_AUTOMORPHISMS:
        raise TooLarge(f"wgraph: more than {MAX_AUTOMORPHISMS} graph automorphisms "
                       f"({n} vertices)")
    sigmas = [identity]
    for level in transversals:
        if len(level) > 1:   # itemgetter(*t)(s) is s after t; n >= 2 here, so it is a tuple
            after = [itemgetter(*t) for t in level]
            sigmas = [product(s) for s in sigmas for product in after]
    sigmas.sort()
    if not all(map(lt, sigmas, islice(sigmas, 1, None))):
        raise InvariantViolation("stabilizer chain listed an automorphism twice")
    result = [GraphAutomorphism(sigma) for sigma in sigmas]
    if not result or not result[0].is_identity():
        raise InvariantViolation("identity automorphism missing from enumeration")
    return result
