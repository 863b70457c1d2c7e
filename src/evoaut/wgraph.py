"""Weighted directed graphs and the correspondence with evolution algebras.

A weighted graph stores at most one edge per ordered vertex pair (that is the
single-edge condition the correspondence needs) and a nonzero weight on each
edge.  ``algebra_to_wgraph`` and ``wgraph_to_algebra`` are mutually inverse:
basis element i becomes a vertex, and an edge i -> j of weight w records that
e_j appears in e_i**2 with coefficient w.  ``enumerate_graph_automorphisms``
lists the adjacency-preserving permutations by backtracking on a plain
adjacency table and rechecks each one against the graph.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import EvolutionAlgebra
from .errors import (
    DimensionMismatch,
    FieldMismatch,
    InvariantViolation,
    TooLarge,
    UnknownVertex,
    ZeroArgument,
)
from .scalar import Field, Scalar

DEFAULT_VERTEX_CAP = 12
MAX_AUTOMORPHISMS = 100_000


class WeightedGraph:
    def __init__(self, field: Field, vertices, weights: dict):
        self.field = field
        self.vertices = tuple(vertices)
        n = len(self.vertices)
        if len(set(self.vertices)) != n:
            raise DimensionMismatch("vertex labels must be distinct")
        cleaned = {}
        for (src, dst), w in weights.items():
            if not (0 <= src < n and 0 <= dst < n):
                raise UnknownVertex(f"edge ({src}, {dst}) references a missing vertex")
            w = field.scalar(w)
            if w.is_zero():
                raise ZeroArgument(f"edge ({src}, {dst}) has zero weight")
            cleaned[(src, dst)] = w
        self.weights = cleaned
        self._out = {i: tuple(sorted(j for (s, j) in cleaned if s == i)) for i in range(n)}
        self._in = {i: tuple(sorted(s for (s, j) in cleaned if j == i)) for i in range(n)}

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    def edges(self) -> list[tuple[int, int]]:
        return sorted(self.weights)

    def weight(self, src: int, dst: int) -> Scalar:
        return self.weights[(src, dst)]

    def out_neighbors(self, v: int):
        return self._out[v]

    def in_neighbors(self, v: int):
        return self._in[v]

    def loop_vertices(self) -> list[int]:
        return [v for v in range(self.n_vertices) if (v, v) in self.weights]

    def vertex_index(self, vertex) -> int:
        if isinstance(vertex, int):
            if not 0 <= vertex < self.n_vertices:
                raise UnknownVertex(f"vertex index {vertex} out of range")
            return vertex
        try:
            return self.vertices.index(vertex)
        except ValueError:
            raise UnknownVertex(f"unknown vertex label {vertex!r}") from None

    def __eq__(self, other):
        return (isinstance(other, WeightedGraph)
                and self.field == other.field
                and self.vertices == other.vertices
                and self.weights == other.weights)

    def __hash__(self):
        return hash((self.field, self.vertices, tuple(sorted(self.weights.items(), key=lambda e: e[0]))))

    def __repr__(self):
        return f"WeightedGraph({self.n_vertices} vertices, {len(self.weights)} edges)"


@dataclass(frozen=True)
class GraphAutomorphism:
    """Adjacency-preserving vertex permutation; weights are not consulted."""

    sigma: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.sigma) != list(range(len(self.sigma))):
            raise DimensionMismatch("sigma is not a permutation")

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


def algebra_to_wgraph(algebra: EvolutionAlgebra) -> WeightedGraph:
    """One vertex per basis element; edge i -> j weighted by the coefficient
    of e_j in e_i**2, whenever that coefficient is nonzero."""
    weights = {(i, j): w for i, j, w in algebra.edges}
    return WeightedGraph(algebra.field, algebra.labels, weights)


def wgraph_to_algebra(graph: WeightedGraph, field: Field) -> EvolutionAlgebra:
    """Inverse of algebra_to_wgraph; the round trip is the identity."""
    if graph.field != field:
        raise FieldMismatch(f"graph weights live in {graph.field}, not {field}")
    n = graph.n_vertices
    zero = field.zero
    rows = [[zero] * n for _ in range(n)]
    for (src, dst), w in graph.weights.items():
        rows[dst][src] = w
    return EvolutionAlgebra(field, rows, labels=graph.vertices)


def tree_of(graph: WeightedGraph, seeds) -> frozenset[int]:
    """All vertices reachable from the seed set by directed paths (seeds included)."""
    frontier = [graph.vertex_index(s) for s in seeds]
    seen = set(frontier)
    while frontier:
        v = frontier.pop()
        for w in graph.out_neighbors(v):
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return frozenset(seen)


def is_graph_isomorphism(graph: WeightedGraph, other: WeightedGraph, sigma) -> bool:
    """Adjacency-only isomorphism test between two graphs along sigma: the
    image of the edge set under sigma is the other graph's edge set."""
    sigma = tuple(sigma)
    n = graph.n_vertices
    if other.n_vertices != n or sorted(sigma) != list(range(n)):
        return False
    return {(sigma[u], sigma[v]) for u, v in graph.weights} == other.weights.keys()


def is_unweighted_automorphism(graph: WeightedGraph, sigma) -> bool:
    """Does sigma preserve adjacency of the graph (both directions)?"""
    return is_graph_isomorphism(graph, graph, sigma)


def enumerate_graph_automorphisms(graph: WeightedGraph,
                                  cap: int = DEFAULT_VERTEX_CAP) -> list[GraphAutomorphism]:
    """All adjacency-preserving permutations, identity first.

    Backtracking over vertices ordered by (out-degree, in-degree, loop flag,
    label); candidates are pruned by that same invariant signature, and the
    output is sorted lexicographically by permutation word.  The search reads
    adjacency from a local n x n table, and every permutation it yields is
    checked once more against the graph itself.  ``MAX_AUTOMORPHISMS``
    guards pathological near-symmetric graphs whose group would not fit in
    memory anyway.
    """
    n = graph.n_vertices
    if n > cap:
        raise TooLarge(f"{n} vertices exceeds the enumeration cap of {cap}")
    adjacent = [[(u, v) in graph.weights for v in range(n)] for u in range(n)]
    entering = list(zip(*adjacent))
    signature = [(len(graph.out_neighbors(v)), len(graph.in_neighbors(v)),
                  adjacent[v][v]) for v in range(n)]
    order = sorted(range(n), key=lambda v: (signature[v], graph.vertices[v]))
    candidates = [[w for w in range(n) if signature[w] == signature[v]] for v in range(n)]
    assigned: list[tuple[int, int]] = []
    image = [0] * n
    used = [False] * n
    found: list[tuple[int, ...]] = []

    def backtrack(k: int):
        if k == n:
            if len(found) >= MAX_AUTOMORPHISMS:
                raise TooLarge(f"more than {MAX_AUTOMORPHISMS} graph automorphisms")
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
    for sigma in sigmas:
        if not is_unweighted_automorphism(graph, sigma):
            raise InvariantViolation(f"search produced a non-automorphism {sigma}")
    result = [GraphAutomorphism(sigma) for sigma in sigmas]
    if not result or not result[0].is_identity():
        raise InvariantViolation("identity automorphism missing from enumeration")
    return result
