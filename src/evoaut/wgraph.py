"""Symmetries of the graph associated with an evolution algebra.

The graph of Elduque and Labra has one vertex per basis element and an edge
i -> j of weight w whenever e_j appears in e_i**2 with coefficient w: at most
one edge per ordered pair, each of nonzero weight.  That is exactly
``EvolutionAlgebra.edges``, so the functions here take the algebra and read
its edge list; a vertex is a basis index, or a label where ``tree_of`` takes
seeds.  Only adjacency matters here, never weights.
``enumerate_graph_automorphisms`` lists the adjacency-preserving permutations
by backtracking on a plain adjacency table and rechecks each one against the
edge list.
"""

from __future__ import annotations

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

    def __call__(self, v: int) -> int:
        return self.sigma[v]

    def inverse(self) -> "GraphAutomorphism":
        inv = [0] * len(self.sigma)
        for i, img in enumerate(self.sigma):
            inv[img] = i
        return GraphAutomorphism(tuple(inv))

    def compose(self, other: "GraphAutomorphism") -> "GraphAutomorphism":
        """self after other: (self . other)(v) = self(other(v))."""
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
    return {(sigma[u], sigma[v]) for u, v, _ in algebra.edges} == \
        {(u, v) for u, v, _ in other.edges}


def is_unweighted_automorphism(algebra: EvolutionAlgebra, sigma) -> bool:
    """Does sigma preserve adjacency of the graph (both directions)?"""
    return is_graph_isomorphism(algebra, algebra, sigma)


def enumerate_graph_automorphisms(algebra: EvolutionAlgebra) -> list[GraphAutomorphism]:
    """All adjacency-preserving permutations, identity first.

    Backtracking over vertices ordered by (out-degree, in-degree, loop flag,
    label); candidates are pruned by that same invariant signature, and the
    output is sorted lexicographically by permutation word.  The search reads
    adjacency from a local n x n table, and every permutation it yields is
    checked once more against the edge list.  ``MAX_AUTOMORPHISMS``
    guards pathological near-symmetric graphs whose group would not fit in
    memory anyway.
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
    assigned: list[tuple[int, int]] = []
    image = [0] * n
    used = [False] * n
    found: list[tuple[int, ...]] = []

    def backtrack(k: int):
        if k == n:
            if len(found) >= MAX_AUTOMORPHISMS:
                raise TooLarge(f"wgraph: more than {MAX_AUTOMORPHISMS} graph automorphisms "
                               f"({n} vertices)")
            found.append(tuple(image))
            return
        v = order[k]
        into_v, out_of_v = entering[v], adjacent[v]
        for w in candidates[v]:
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
                backtrack(k + 1)
                used[w] = False
                assigned.pop()

    backtrack(0)
    sigmas = sorted(found)
    edges = {(u, v) for u, v, _ in algebra.edges}
    for sigma in sigmas:
        if {(sigma[u], sigma[v]) for u, v in edges} != edges:
            raise InvariantViolation(f"search produced a non-automorphism {sigma}")
    result = [GraphAutomorphism(sigma) for sigma in sigmas]
    if not result or not result[0].is_identity():
        raise InvariantViolation("identity automorphism missing from enumeration")
    return result
