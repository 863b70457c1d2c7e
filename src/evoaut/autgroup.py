"""Automorphism groups of evolution algebras with a fixed natural basis.

The diagonal automorphisms solve the homogeneous system x_u**2 == x_v over
the edges of the associated graph (weights do not enter).  A symmetry sigma
of the unweighted graph lifts to algebra automorphisms e_i -> x_i e_sigma(i)
exactly when the twisted system x_u**2 / x_v == w(u,v) / w(sigma u, sigma v)
is solvable; the union of all lifted cosets is a group, a semidirect product
of the diagonal subgroup by the lifted graph symmetries.  The systems are
read off the algebra's edge list and share one exponent decomposition per
algebra; closure is checked by generators, on the permutation tuples.  Over
F_p the per-symmetry work runs in integer coordinates: the edge weights are
taken as discrete logs once per algebra, each sigma's right-hand sides are
differences of logs mod p - 1, and ``ExponentDecomposition.particular``
solves in logs, building scalars only for its answer.  Each lift is checked
once, by the ``MonomialAutomorphism`` built from it, on residues mod p: that
check is the twisted system itself, so ``assemble_aut`` builds no
``SolutionCoset`` to repeat it.

``bruteforce_aut`` is the independent oracle: it finds every invertible
algebra homomorphism over F_p from the definition alone, assigning the image
of one basis vector at a time and keeping only partial assignments whose
columns already satisfy the homomorphism relations among themselves.  The
work follows the number of partial solutions, not the p^(n^2) matrices; it
is vectorized with integer numpy arithmetic (exact; no floating point).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .algebra import EvolutionAlgebra, Vector, _eliminate
from .errors import (
    AlgebraMismatch,
    InvariantViolation,
    NotAGraphAutomorphism,
    NotAnAutomorphism,
    NotPrimeField,
    TooLarge,
)
from .monomial import (
    ExponentDecomposition,
    GroupDescription,
    MonomialSystem,
    SolutionCoset,
    solve_homogeneous,
    solve_inhomogeneous,
)
from .scalar import PrimeField, Scalar, dlog
from .wgraph import (
    DEFAULT_VERTEX_CAP,
    GraphAutomorphism,
    algebra_to_wgraph,
    enumerate_graph_automorphisms,
    is_unweighted_automorphism,
)

BRUTEFORCE_MATRIX_CAP = 10**8
BRUTEFORCE_OUTPUT_CAP = 2 * 10**6  # matrices bruteforce_aut returns, ~150 bytes each
ORACLE_CHUNK = 1 << 16  # candidate columns the matrix oracle examines per numpy step


class MonomialAutomorphism:
    """The linear map e_i -> x_i e_sigma(i), verified to be an automorphism.

    f(e_i)**2 == f(e_i**2) reads x_i**2 * w(sigma i -> sigma j) == w(i -> j) * x_j
    for all i, j, a missing edge weighing 0.  Construction checks this on every
    edge, where a missing image edge fails it; over F_p it compares the two
    sides as integers mod p, which is equality in F_p.  As sigma permutes the
    ordered pairs, a map of the edges into the edges also maps non-edges to
    non-edges: no graph symmetry is assumed, and an instance is an
    automorphism by fiat.
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
        sigma, x, matrix = self.sigma, self.scales, self.algebra.matrix
        field = self.algebra.field
        if isinstance(field, PrimeField):
            p, r = field.p, [v.residue for v in x]
            failed = [(i, j) for i, j, w in self.algebra.edges
                      if (r[i] * r[i] * matrix[sigma[j]][sigma[i]].residue - w.residue * r[j]) % p]
        else:
            failed = [(i, j) for i, j, w in self.algebra.edges
                      if x[i] * x[i] * matrix[sigma[j]][sigma[i]] != w * x[j]]
        if failed:
            raise NotAnAutomorphism(
                f"sigma={self.sigma}, scales fail the square relation on edge "
                f"{failed[0][0]}->{failed[0][1]}")

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
    return _edge_system(algebra, [algebra.field.one] * len(algebra.edges))


def twisted_system(algebra: EvolutionAlgebra, sigma) -> MonomialSystem:
    """Relations that make e_i -> x_i e_sigma(i) an algebra homomorphism.

    Each edge u -> v of weight w contributes x_u**2 / x_v == w / w', where w'
    is the weight of the image edge sigma(u) -> sigma(v); a loop contributes
    the linear relation x_u == w / w'.  Rows follow the algebra's edge list.
    """
    field = algebra.field
    rhs = _twisted_rhs(algebra, _edge_weights(algebra), tuple(sigma))
    if isinstance(field, PrimeField):
        rhs = [pow(field.generator, c, field.p) for c in rhs]
    return _edge_system(algebra, rhs)


def _edge_system(algebra: EvolutionAlgebra, rhs) -> MonomialSystem:
    """One row x_u**2 / x_v == c per edge u -> v, in edge-list order."""
    rows = []
    for (u, v, _), c in zip(algebra.edges, rhs):
        exps = [0] * algebra.dim
        exps[u] += 2
        exps[v] -= 1
        rows.append((tuple(exps), c))
    return MonomialSystem(algebra.field, algebra.dim, tuple(rows))


def _edge_weights(algebra: EvolutionAlgebra) -> dict:
    """{(u, v): w(u -> v)} in edge-list order, each weight as
    ``ExponentDecomposition.particular`` reads a right-hand side: its
    discrete log over F_p, the scalar itself over Q."""
    if isinstance(algebra.field, PrimeField):
        return {(u, v): dlog(algebra.field, w) for u, v, w in algebra.edges}
    return {(u, v): w for u, v, w in algebra.edges}


def _twisted_rhs(algebra: EvolutionAlgebra, weights: dict, sigma) -> list:
    """w(e) / w(sigma e) for every edge e, in edge-list order, from the
    weights ``_edge_weights`` took once: over F_p the difference of their
    logs mod p - 1, over Q their quotient."""
    for u, v in weights:
        if (sigma[u], sigma[v]) not in weights:
            raise NotAGraphAutomorphism(f"edge {u}->{v} has no image under sigma={sigma}")
    if isinstance(algebra.field, PrimeField):
        m = algebra.field.p - 1
        return [(w - weights[sigma[u], sigma[v]]) % m for (u, v), w in weights.items()]
    return [w / weights[sigma[u], sigma[v]] for (u, v), w in weights.items()]


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


def coset_automorphisms(algebra: EvolutionAlgebra, sigma,
                        coset: SolutionCoset) -> list[MonomialAutomorphism]:
    """Materialize every automorphism in a feasible twisted coset (finite case)."""
    if isinstance(sigma, GraphAutomorphism):
        sigma = sigma.sigma
    return [MonomialAutomorphism(algebra, sigma, xs) for xs in coset.elements()]


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
        # breadth-first closure under greedily picked generators, on the sigma tuples;
        # each new generator at least doubles it, so this costs at most
        # 2 * |lifted| * |generators| compositions
        allowed = {ga.sigma for ga, _ in self.lifted}
        reached = {tuple(range(self.algebra.dim))}
        generators = []   # itemgetter(*s)(x) is x after s; n >= 2 here, so it is a tuple
        for g, _ in self.lifted:
            if g.sigma not in reached:
                generators.append(itemgetter(*g.sigma))
                queue = list(reached)
                for x in queue:
                    new = {after(x) for after in generators} - reached
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

    def monomial_elements(self) -> list[MonomialAutomorphism]:
        """All of U, element by element; requires a finite diagonal part.
        d . lift maps e_i to lift.scales[i] * d[sigma(i)] e_sigma(i)."""
        if self.diag.concrete_order() is None:
            raise TooLarge("diagonal subgroup is infinite; U cannot be enumerated")
        diag_vectors = self.diag.elements()
        out = [MonomialAutomorphism(self.algebra, lift.sigma,
                                    [x * d[s] for x, s in zip(lift.scales, lift.sigma)])
               for _, lift in self.lifted for d in diag_vectors]
        out.sort(key=lambda a: a.sort_key())
        return out


def assemble_aut(algebra: EvolutionAlgebra,
                 cap: int = DEFAULT_VERTEX_CAP) -> AutPresentation:
    """Enumerate graph symmetries, keep the liftable ones, verify closure."""
    graph = algebra_to_wgraph(algebra)
    autos = enumerate_graph_automorphisms(graph, cap)
    decomposition = ExponentDecomposition(diag_system(algebra))
    weights = _edge_weights(algebra)
    lifted = []
    not_lifted = []
    for ga in autos:
        scales = decomposition.particular(_twisted_rhs(algebra, weights, ga.sigma))
        if scales is not None:
            lifted.append((ga, MonomialAutomorphism(algebra, ga.sigma, scales)))
        else:
            not_lifted.append(ga)
    full = algebra.is_2li() or algebra.is_invertible()
    return AutPresentation(algebra=algebra, decomposition=decomposition, lifted=tuple(lifted),
                           not_lifted=tuple(not_lifted), full_automorphism_group=full)


# -- brute-force oracle over F_p ----------------------------------------

def _oracle_search(algebra: EvolutionAlgebra):
    """Yield, chunk by chunk, every invertible homomorphism e_i -> t_i as the
    base-p number whose digits are its matrix entries row by row, so that
    numeric order is the order of the residue matrices as tuples.  The
    columns t_0..t_{n-1} are assigned one at a time.

    Only the definition of a homomorphism is used: M(t_j o t_k) = 0 for
    j != k, and M(t_i o t_i) = sum_c M[c][i] t_c, where o is the entrywise
    product.  A vector of F_p^n travels as its base-p index.  Prefixes are
    extended depth first, at most ``ORACLE_CHUNK`` candidates at a time, so
    memory stays bounded while the work follows the number of partial
    solutions.  A column must also lie outside the span of the columns
    before it, which makes the assembled matrix invertible.
    """
    import numpy as np
    if not isinstance(algebra.field, PrimeField):
        raise NotPrimeField("the brute-force oracle needs a finite field")
    p = algebra.field.p
    n = algebra.dim
    if p ** (n * n) > BRUTEFORCE_MATRIX_CAP:
        raise TooLarge(f"p^(n^2) = {p ** (n * n)} exceeds the cap {BRUTEFORCE_MATRIX_CAP}")
    M = np.array([[algebra.matrix[j][i].residue for i in range(n)]
                  for j in range(n)], dtype=np.int64)
    size = p ** n
    powers = p ** np.arange(n, dtype=np.int64)
    # the square of e_i is checked once t_i and its whole support are
    # assigned, so columns are assigned in an order that completes squares early
    needs = [{i} | {c for c in range(n) if M[c, i]} for i in range(n)]
    order = []
    while len(order) < n:
        order += min((sorted(need - set(order)) for need in needs
                      if not need <= set(order)), key=len)
    ready = [max(order.index(c) for c in need) for need in needs]
    block = min(size, ORACLE_CHUNK)
    width = max(1, ORACLE_CHUNK // block)
    pair_table = {}  # vector index -> packed row: M(a o b) == 0 for every b
    # the place value of entry (r, c) sits at [k, r] for the column c = order[k]
    place = p ** (n * n - 1 - (np.array(order)[:, None] + n * np.arange(n)))

    def vectors(ids):
        return ids[..., None] // powers % p

    def pair_rows(ids):
        missing = [a for a in ids.tolist() if a not in pair_table]
        if missing:
            scaled = M * vectors(np.array(missing))[:, None, :]
            image = scaled.reshape(-1, n) @ vectors(np.arange(size)).T % p
            zero = ~image.reshape(len(missing), n, size).any(axis=1)
            pair_table.update(zip(missing, np.packbits(zero, axis=1)))
        packed = np.stack([pair_table[a] for a in ids.tolist()])
        return np.unpackbits(packed, axis=1, count=size).view(bool)

    def extend(prefix):
        k = prefix.shape[1]
        columns = vectors(prefix)
        span = (vectors(np.arange(p ** k))[:, :k] @ columns % p) @ powers
        assigned = []
        for j in range(k):
            seen, where = np.unique(prefix[:, j], return_inverse=True)
            assigned.append((pair_rows(seen), where))
        for lo in range(0, size, block):
            ids = np.arange(lo, min(size, lo + block), dtype=np.int64)
            keep = np.ones((len(prefix), len(ids)), dtype=bool)
            for rows, where in assigned:
                keep &= rows[where, lo:lo + len(ids)]
            inside = (span >= lo) & (span < lo + len(ids))
            keep[np.nonzero(inside)[0], span[inside] - lo] = False
            at, picks = np.nonzero(keep)
            full = np.concatenate([columns[at], vectors(ids[picks, None])], axis=1)
            good = np.ones(len(full), dtype=bool)
            for i in range(n):
                if ready[i] == k:
                    t = full[:, order.index(i)]
                    image = t * t % p @ M.T % p
                    good &= (image == M[order[:k + 1], i] @ full % p).all(axis=1)
            if k + 1 == n:
                yield full[good].reshape(-1, n * n) @ place.ravel()
                continue
            grown = np.concatenate([prefix[at], ids[picks, None]], axis=1)[good]
            for lo_prefix in range(0, len(grown), width):
                yield from extend(grown[lo_prefix:lo_prefix + width])

    yield from extend(np.zeros((1, 0), dtype=np.int64))


def bruteforce_aut(algebra: EvolutionAlgebra) -> list[tuple[tuple[int, ...], ...]]:
    """Oracle: every invertible matrix acting as an algebra homomorphism.

    Searches the images of the basis column by column, keeping the partial
    assignments that satisfy the homomorphism relations among their columns;
    returns residue matrices in sorted order.  Deliberately ignorant of the
    monomial structure theory it validates.  ``BRUTEFORCE_MATRIX_CAP`` bounds p^(n^2), and
    past ``BRUTEFORCE_OUTPUT_CAP`` matrices the search stops with TooLarge
    before any is built; ``bruteforce_aut_count`` counts without that cap.
    """
    import numpy as np
    chunks, total = [np.zeros(0, dtype=np.int64)], 0
    for codes in _oracle_search(algebra):
        total += len(codes)
        if total > BRUTEFORCE_OUTPUT_CAP:
            raise TooLarge(f"more than {BRUTEFORCE_OUTPUT_CAP} automorphisms to list; "
                           "bruteforce_aut_count counts them")
        chunks.append(codes)
    codes = np.sort(np.concatenate(chunks))
    p, n = algebra.field.p, algebra.dim
    # rows are shared tuples built once per distinct row, and zip builds each
    # matrix without an intermediate list: millions of matrices stay cheap
    rows = codes[:, None] // p ** (n * (n - 1 - np.arange(n))) % p ** n
    distinct = np.unique(rows)
    entries = distinct[:, None] // p ** (n - 1 - np.arange(n)) % p
    row_of = dict(zip(distinct.tolist(), map(tuple, entries.tolist()))).__getitem__
    return list(zip(*(map(row_of, rows[:, r].tolist()) for r in range(n))))


def bruteforce_aut_count(algebra: EvolutionAlgebra) -> int:
    """The number of matrices ``bruteforce_aut`` returns, without building them."""
    return sum(len(codes) for codes in _oracle_search(algebra))


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
    return _eliminate([[field.scalar(x) for x in row] for row in T])[0] == n
