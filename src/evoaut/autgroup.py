"""Automorphism groups of evolution algebras with a fixed natural basis.

The diagonal automorphisms solve the homogeneous system x_u**2 == x_v over
the edges of the associated graph (weights do not enter).  A symmetry sigma
of the unweighted graph lifts to algebra automorphisms e_i -> x_i e_sigma(i)
exactly when the twisted system x_u**2 / x_v == w(u,v) / w(sigma u, sigma v)
is solvable; the union of all lifted cosets is a group, a semidirect product
of the diagonal subgroup by the lifted graph symmetries.  All twisted systems
share one exponent decomposition per algebra; closure is checked by generators.

``bruteforce_aut`` is the independent oracle: a raw scan of all n x n
matrices over F_p for invertible algebra homomorphisms, vectorized with
integer numpy arithmetic (exact; no floating point).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .algebra import EvolutionAlgebra, Vector
from .errors import (
    AlgebraMismatch,
    InvariantViolation,
    NotAGraphAutomorphism,
    NotAnAutomorphism,
    NotPrimeField,
    TooLarge,
)
from .monomial import (
    ENUMERATION_CAP,
    ExponentDecomposition,
    GroupDescription,
    MonomialSystem,
    SolutionCoset,
    solve_homogeneous,
    solve_inhomogeneous,
)
from .scalar import PrimeField, Scalar
from .wgraph import (
    DEFAULT_VERTEX_CAP,
    GraphAutomorphism,
    algebra_to_wgraph,
    enumerate_graph_automorphisms,
    is_unweighted_automorphism,
)

if TYPE_CHECKING:
    import numpy as np

BRUTEFORCE_MATRIX_CAP = 10**8


class MonomialAutomorphism:
    """The linear map e_i -> x_i e_sigma(i), verified to be an automorphism.

    Construction checks the defining relation on every basis square, so an
    instance is an algebra automorphism by fiat.
    """

    def __init__(self, algebra: EvolutionAlgebra, sigma, scales):
        sigma = tuple(sigma)
        if sorted(sigma) != list(range(algebra.dim)):
            raise NotAnAutomorphism(f"{sigma} is not a permutation of the basis")
        scales = tuple(algebra.field.scalar(x) for x in scales)
        if len(scales) != algebra.dim or any(x.is_zero() for x in scales):
            raise NotAnAutomorphism("scales must be a vector of nonzero field elements")
        self.algebra = algebra
        self.sigma = sigma
        self.scales = scales
        self._verify()

    def _verify(self):
        for i in range(self.algebra.dim):
            lhs = self.apply(self.algebra.square_of(i))
            x2 = self.scales[i] * self.scales[i]
            rhs = tuple(x2 * w for w in self.algebra.square_of(self.sigma[i]))
            if lhs != rhs:
                raise NotAnAutomorphism(
                    f"sigma={self.sigma}, scales fail the square relation at index {i}")

    def apply(self, vec) -> Vector:
        vec = self.algebra.vector(vec)
        out = list(self.algebra.zero_vector())
        for i in range(self.algebra.dim):
            if not vec[i].is_zero():
                out[self.sigma[i]] = vec[i] * self.scales[i]
        return tuple(out)

    @property
    def is_diagonal(self) -> bool:
        return all(img == i for i, img in enumerate(self.sigma))

    def is_identity(self) -> bool:
        one = self.algebra.field.one
        return self.is_diagonal and all(x == one for x in self.scales)

    def to_matrix(self) -> tuple[tuple[Scalar, ...], ...]:
        """Matrix with column i holding the image of e_i."""
        n = self.algebra.dim
        zero = self.algebra.field.zero
        rows = [[zero] * n for _ in range(n)]
        for i in range(n):
            rows[self.sigma[i]][i] = self.scales[i]
        return tuple(tuple(r) for r in rows)

    def residue_matrix(self) -> tuple[tuple[int, ...], ...]:
        if not isinstance(self.algebra.field, PrimeField):
            raise NotPrimeField("residue matrices exist over F_p only")
        return tuple(tuple(x.residue for x in row) for row in self.to_matrix())

    def sort_key(self):
        return (self.sigma, tuple(str(x) for x in self.scales))

    def __eq__(self, other):
        return (isinstance(other, MonomialAutomorphism)
                and self.algebra == other.algebra
                and self.sigma == other.sigma
                and self.scales == other.scales)

    def __hash__(self):
        return hash((self.sigma, self.scales))

    def __repr__(self):
        images = " ".join(f"e{i + 1}->{x}*e{s + 1}"
                          for i, (s, x) in enumerate(zip(self.sigma, self.scales)))
        return f"MonomialAutomorphism({images})"


def identity_automorphism(algebra: EvolutionAlgebra) -> MonomialAutomorphism:
    one = algebra.field.one
    return MonomialAutomorphism(algebra, tuple(range(algebra.dim)),
                                tuple(one for _ in range(algebra.dim)))


def compose(f: MonomialAutomorphism, g: MonomialAutomorphism) -> MonomialAutomorphism:
    """f after g, matching matrix multiplication to_matrix(f) @ to_matrix(g)."""
    if f.algebra != g.algebra:
        raise AlgebraMismatch("cannot compose automorphisms of different algebras")
    sigma = tuple(f.sigma[g.sigma[i]] for i in range(len(f.sigma)))
    scales = tuple(g.scales[i] * f.scales[g.sigma[i]] for i in range(len(f.sigma)))
    return MonomialAutomorphism(f.algebra, sigma, scales)


def invert(f: MonomialAutomorphism) -> MonomialAutomorphism:
    inv_sigma = [0] * len(f.sigma)
    for i, img in enumerate(f.sigma):
        inv_sigma[img] = i
    scales = tuple(f.scales[inv_sigma[j]].inv() for j in range(len(f.sigma)))
    return MonomialAutomorphism(f.algebra, tuple(inv_sigma), scales)


def diag_system(algebra: EvolutionAlgebra) -> MonomialSystem:
    """Homogeneous system x_u**2 == x_v over the edges of the graph."""
    return twisted_system(algebra, tuple(range(algebra.dim)))


def twisted_system(algebra: EvolutionAlgebra, sigma) -> MonomialSystem:
    """Relations that make e_i -> x_i e_sigma(i) an algebra homomorphism.

    Each edge u -> v of weight w contributes x_u**2 / x_v == w / w', where w'
    is the weight of the image edge sigma(u) -> sigma(v); a loop contributes
    the linear relation x_u == w / w'.
    """
    sigma = tuple(sigma)
    n = algebra.dim
    rows = []
    for u in range(n):
        for v in range(n):
            w = algebra.entry(v, u)
            if w.is_zero():
                continue
            image_w = algebra.entry(sigma[v], sigma[u])
            if image_w.is_zero():
                raise NotAGraphAutomorphism(
                    f"edge {u}->{v} has no image under sigma={sigma}")
            exps = [0] * n
            exps[u] += 2
            exps[v] -= 1
            rows.append((tuple(exps), w / image_w))
    return MonomialSystem(algebra.field, n, tuple(rows))


def diag_group(algebra: EvolutionAlgebra) -> GroupDescription:
    """Structure of the diagonal automorphism group of (A, B)."""
    return solve_homogeneous(diag_system(algebra))


def diag_coset(algebra: EvolutionAlgebra) -> SolutionCoset:
    """The diagonal group as the coset of the identity lift."""
    return solve_inhomogeneous(diag_system(algebra))


def twisted_limit(algebra: EvolutionAlgebra, sigma) -> SolutionCoset:
    """Solution coset of the lifting system for a graph automorphism sigma."""
    if isinstance(sigma, GraphAutomorphism):
        sigma = sigma.sigma
    sigma = tuple(sigma)
    graph = algebra_to_wgraph(algebra)
    if not is_unweighted_automorphism(graph, sigma):
        raise NotAGraphAutomorphism(f"{sigma} does not preserve the graph")
    return solve_inhomogeneous(twisted_system(algebra, sigma))


def coset_automorphisms(algebra: EvolutionAlgebra, sigma, coset: SolutionCoset,
                        cap: int = ENUMERATION_CAP) -> list[MonomialAutomorphism]:
    """Materialize every automorphism in a feasible twisted coset (finite case)."""
    if isinstance(sigma, GraphAutomorphism):
        sigma = sigma.sigma
    return [MonomialAutomorphism(algebra, sigma, xs) for xs in coset.elements(cap)]


@dataclass(frozen=True)
class AutPresentation:
    """Assembled description of the basis-monomial automorphism group U.

    ``decomposition`` solves the diagonal and every twisted system; ``diag`` is
    its homogeneous group.  ``lifted`` pairs each liftable graph automorphism
    with its canonical particular lift (the section of the quotient map); the
    lifted sigmas are checked by generators to form a group, and their
    composition ``table``, indexed like ``lifted``, is computed on demand.
    ``full_automorphism_group`` is True when the algebra is 2LI or its structure
    matrix is invertible, so that U is all of Aut(A); otherwise U may be proper.
    """

    algebra: EvolutionAlgebra
    decomposition: ExponentDecomposition
    lifted: tuple[tuple[GraphAutomorphism, MonomialAutomorphism], ...]
    not_lifted: tuple[GraphAutomorphism, ...]
    full_automorphism_group: bool

    def __post_init__(self):
        for ga, particular in self.lifted:
            if ga.sigma != particular.sigma:
                raise InvariantViolation("lift does not project back onto its sigma")
        # breadth-first closure under greedily picked generators; each new generator at
        # least doubles it, so this costs at most 2 * |lifted| * |generators| compositions
        allowed = {ga for ga, _ in self.lifted}
        reached = {GraphAutomorphism(tuple(range(self.algebra.dim)))}
        generators = []
        for g, _ in self.lifted:
            if g not in reached:
                generators.append(g)
                queue = list(reached)
                for x in queue:
                    new = {x.compose(s) for s in generators} - reached
                    if not new <= allowed:
                        raise InvariantViolation("lifted sigmas are not closed under composition")
                    reached |= new
                    queue += new
        if reached != allowed:
            raise InvariantViolation("lifted sigmas do not form a group")

    @property
    def diag(self) -> GroupDescription:
        return self.decomposition.homogeneous

    @property
    def table(self) -> tuple[tuple[int, ...], ...]:
        index = {ga: k for k, (ga, _) in enumerate(self.lifted)}
        return tuple(tuple(index[a.compose(b)] for b, _ in self.lifted) for a, _ in self.lifted)

    @property
    def quotient_order(self) -> int:
        return len(self.lifted)

    def group_order(self):
        """|U| = |Diag| * number of lifted sigmas; None when infinite."""
        d = self.diag.concrete_order()
        return None if d is None else d * len(self.lifted)

    def monomial_elements(self, cap: int = ENUMERATION_CAP) -> list[MonomialAutomorphism]:
        """All of U, element by element; requires a finite diagonal part."""
        if self.diag.concrete_order() is None:
            raise TooLarge("diagonal subgroup is infinite; U cannot be enumerated")
        diag_vectors = self.decomposition.solve(diag_system(self.algebra)).elements(cap)
        out = []
        for _, lift in self.lifted:
            for vec in diag_vectors:
                out.append(compose(MonomialAutomorphism(self.algebra,
                                                        tuple(range(self.algebra.dim)),
                                                        vec), lift))
        out.sort(key=lambda a: a.sort_key())
        return out


def assemble_aut(algebra: EvolutionAlgebra,
                 cap: int = DEFAULT_VERTEX_CAP) -> AutPresentation:
    """Enumerate graph symmetries, keep the liftable ones, verify closure."""
    graph = algebra_to_wgraph(algebra)
    autos = enumerate_graph_automorphisms(graph, cap)
    decomposition = ExponentDecomposition(diag_system(algebra))
    lifted = []
    not_lifted = []
    for ga in autos:
        coset = decomposition.solve(twisted_system(algebra, ga.sigma))
        if coset.is_feasible:
            lifted.append((ga, MonomialAutomorphism(algebra, ga.sigma, coset.particular)))
        else:
            not_lifted.append(ga)
    full = algebra.is_2li() or algebra.is_invertible()
    return AutPresentation(algebra=algebra, decomposition=decomposition, lifted=tuple(lifted),
                           not_lifted=tuple(not_lifted), full_automorphism_group=full)


# -- brute-force oracle over F_p ----------------------------------------

def _oracle_guard(algebra: EvolutionAlgebra, cap: int) -> int:
    field = algebra.field
    if not isinstance(field, PrimeField):
        raise NotPrimeField("the brute-force oracle needs a finite field")
    total = field.p ** (algebra.dim * algebra.dim)
    if total > cap:
        raise TooLarge(f"p^(n^2) = {total} exceeds the cap {cap}")
    return total


def _det_mod(T: np.ndarray, p: int, n: int) -> np.ndarray:
    acc = 0  # becomes an int64 array at the first product, as n >= 1
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for a in range(n) for b in range(a + 1, n)
                         if perm[a] > perm[b])
        prod = 1
        for r in range(n):
            prod = prod * T[:, r, perm[r]] % p
        acc = (acc + (-1) ** inversions * prod) % p
    return acc


def _scan_chunk(T: np.ndarray, M: np.ndarray, p: int, n: int) -> np.ndarray:
    """Surviving matrices of one decoded chunk (invertible homomorphisms)."""
    for i in range(n):
        had = T[:, :, i] * T[:, :, i] % p
        lhs = had @ M.T % p
        rhs = T @ M[:, i] % p
        T = T[(lhs == rhs).all(axis=1)]
        if not len(T):
            return T
    for i in range(n):
        for j in range(i + 1, n):
            had = T[:, :, i] * T[:, :, j] % p
            lhs = had @ M.T % p
            T = T[(lhs == 0).all(axis=1)]
            if not len(T):
                return T
    return T[_det_mod(T, p, n) != 0]


def _bruteforce_scan(algebra: EvolutionAlgebra, cap: int, collect: bool):
    import numpy as np
    total = _oracle_guard(algebra, cap)
    p = algebra.field.p
    n = algebra.dim
    M = np.array([[algebra.matrix[j][i].residue for i in range(n)]
                  for j in range(n)], dtype=np.int64)
    count = 0
    found = [] if collect else None
    chunk = 1 << 16
    for lo in range(0, total, chunk):
        size = min(total, lo + chunk) - lo
        rem = np.arange(lo, lo + size, dtype=np.int64)
        T = np.empty((size, n, n), dtype=np.int64)
        for r in range(n):
            for c in range(n):
                T[:, r, c] = rem % p
                rem = rem // p
        good = _scan_chunk(T, M, p, n)
        count += len(good)
        if collect:
            found.extend(tuple(tuple(int(x) for x in row) for row in mat) for mat in good)
    return count, found


def bruteforce_aut(algebra: EvolutionAlgebra,
                   cap: int = BRUTEFORCE_MATRIX_CAP) -> list[tuple[tuple[int, ...], ...]]:
    """Oracle: every invertible matrix acting as an algebra homomorphism.

    Scans all p^(n^2) matrices; returns residue matrices in sorted order.
    Deliberately ignorant of the monomial structure theory it validates.
    """
    _, found = _bruteforce_scan(algebra, cap, collect=True)
    return sorted(found)


def bruteforce_aut_count(algebra: EvolutionAlgebra,
                         cap: int = BRUTEFORCE_MATRIX_CAP) -> int:
    count, _ = _bruteforce_scan(algebra, cap, collect=False)
    return count


def is_automorphism_matrix(algebra: EvolutionAlgebra, rows) -> bool:
    """Pure-python membership test matching the brute-force criteria."""
    field = algebra.field
    if not isinstance(field, PrimeField):
        raise NotPrimeField("residue matrices exist over F_p only")
    p = field.p
    n = algebra.dim
    M = [[algebra.matrix[j][i].residue for i in range(n)] for j in range(n)]
    T = [list(map(int, r)) for r in rows]
    for i in range(n):
        for j in range(i, n):
            had = [T[r][i] * T[r][j] % p for r in range(n)]
            lhs = [sum(M[r][k] * had[k] for k in range(n)) % p for r in range(n)]
            if i == j:
                rhs = [sum(T[r][c] * M[c][i] for c in range(n)) % p for r in range(n)]
            else:
                rhs = [0] * n
            if lhs != rhs:
                return False
    work = [row[:] for row in T]
    rank = 0
    for col in range(n):
        piv = next((r for r in range(rank, n) if work[r][col] % p), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = pow(work[rank][col], -1, p)
        work[rank] = [x * inv % p for x in work[rank]]
        for r in range(n):
            if r != rank and work[r][col] % p:
                f = work[r][col]
                work[r] = [(x - f * y) % p for x, y in zip(work[r], work[rank])]
        rank += 1
    return rank == n
