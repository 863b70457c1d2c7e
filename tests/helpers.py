"""Shared builders for the test suite: named algebras, the random corpus,
dense views of an algebra's structure matrix, scalar references for the
solver's log arithmetic, the scalar-certified solve chain, references for
the structural predicates, the natural-basis and 2-power-tower oracles, the
Smith normal form's elimination, the graph-symmetry backtracking and the
solve-every-sigma assembly, composition and inversion of monomial
automorphisms for the group laws, monkeypatch and profiling probes into the
solver and the listing, and an exact check of a raised error."""

import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from operator import index
from pathlib import Path

from evoaut import EvolutionAlgebra, autgroup, monomial, wgraph
from evoaut.autgroup import AutPresentation
from evoaut.errors import InvariantViolation, NotAGraphAutomorphism
from evoaut.monomial import ExponentDecomposition, MonomialSystem
from evoaut.scalar import PrimeField, QQ, mu_order, nth_roots
from evoaut.snf import ADD, NEGATE, SWAP, SmithDecomposition, _sparse_rows
from evoaut.limits import tate_stationary_index
from evoaut.wgraph import GraphAutomorphism

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)

CORPUS_SEED = 20260810


def ear_algebra(field):
    """5-vertex cycle with an ear (1->2->3->4->1, 1->5->1), weights 1."""
    sq = [[0] * 5 for _ in range(5)]
    sq[0][1] = sq[0][4] = 1
    sq[1][2] = 1
    sq[2][3] = 1
    sq[3][0] = 1
    sq[4][0] = 1
    return EvolutionAlgebra.from_squares(field, sq)


def two_loop_algebra(field):
    """u1^2 = u1 + u2, u2^2 = 2u1 + u2 (swap symmetry does not lift)."""
    return EvolutionAlgebra.from_squares(field, [[1, 1], [2, 1]])


def three_cycle_algebra(field=QQ):
    """u1^2 = u1 + 2u2, u2^2 = -u2 - u3, u3^2 = 2u3 - 8u1."""
    return EvolutionAlgebra.from_squares(field, [[1, 2, 0], [0, -1, -1], [-8, 0, 2]])


def chain_2li_algebra(field, n):
    """u_i^2 = u_i + u_{i+1} truncated with u_n^2 = u_n; satisfies 2LI."""
    squares = []
    for i in range(n):
        col = [0] * n
        col[i] = 1
        if i + 1 < n:
            col[i + 1] = 1
        squares.append(col)
    return EvolutionAlgebra.from_squares(field, squares)


def star_algebra(field, spokes=3, weights=None):
    """spokes vertices squaring to a common sink w with w^2 = 0: spoke i to
    weights[i] * w, or to w itself."""
    n = spokes + 1
    squares = []
    for i in range(spokes):
        col = [0] * n
        col[n - 1] = 1 if weights is None else weights[i]
        squares.append(col)
    squares.append([0] * n)
    return EvolutionAlgebra.from_squares(field, squares)


def split_star_algebra(field, minority, majority):
    """The star whose first ``minority`` spokes weigh a non-square of the
    field and the other ``majority`` weigh 1: only the sigmas that keep the
    two classes, or swap them when they are equal in size, lift."""
    non_square = next(x for x in range(2, field.p) if pow(x, (field.p - 1) // 2, field.p) != 1)
    return star_algebra(field, minority + majority, [non_square] * minority + [1] * majority)


def two_cycles_algebra(field, k, weights=(1, 1)):
    """k disjoint 2-cycles u^2 = a v, v^2 = b u, with (a, b) = ``weights``."""
    squares = [[0] * (2 * k) for _ in range(2 * k)]
    for b in range(k):
        squares[2 * b][2 * b + 1], squares[2 * b + 1][2 * b] = weights
    return EvolutionAlgebra.from_squares(field, squares)


def block_union_algebra(field, blocks, perm=None):
    """The direct sum of algebras given by their square rows, with basis
    element i of the sum relabelled perm[i]."""
    n = sum(map(len, blocks))
    perm = perm or list(range(n))
    squares = [[0] * n for _ in range(n)]
    at = 0
    for block in blocks:
        for i, row in enumerate(block):
            for j, w in enumerate(row):
                squares[perm[at + i]][perm[at + j]] = w
        at += len(block)
    return EvolutionAlgebra.from_squares(field, squares)


def zero_square_algebra(field):
    """e1^2 = e1, e2^2 = 0: second natural-basis orbit exists."""
    return EvolutionAlgebra.from_squares(field, [[1, 0], [0, 0]])


def zero_algebra(field, n):
    return EvolutionAlgebra.from_squares(field, [[0] * n for _ in range(n)])


def random_algebra(rng, field, n, density=0.5):
    p = field.p
    squares = [[rng.randrange(1, p) if rng.random() < density else 0
                for _ in range(n)] for _ in range(n)]
    return EvolutionAlgebra.from_squares(field, squares)


def random_rational_algebra(rng, n, density=0.5):
    from fractions import Fraction

    squares = []
    for _ in range(n):
        col = []
        for _ in range(n):
            if rng.random() < density:
                num = rng.choice([-3, -2, -1, 1, 2, 3, 4])
                den = rng.choice([1, 1, 2, 3])
                col.append(Fraction(num, den))
            else:
                col.append(0)
        squares.append(col)
    return EvolutionAlgebra.from_squares(QQ, squares)


def build_corpus(seed=CORPUS_SEED, f5_count=300, f7_count=200):
    """The deterministic random corpus: F_5 at n <= 4, F_7 at n <= 3."""
    rng = random.Random(seed)
    corpus = []
    for _ in range(f5_count):
        corpus.append(random_algebra(rng, F5, rng.randint(1, 4)))
    for _ in range(f7_count):
        corpus.append(random_algebra(rng, F7, rng.randint(1, 3)))
    return corpus


def structure_matrix(algebra):
    """The dense structure matrix of scalars, M[j][i] the e_j coordinate of
    e_i**2, filled from the edge list: the references read it."""
    zero = algebra.field.zero
    rows = [[zero] * algebra.dim for _ in range(algebra.dim)]
    for i, j, w in algebra.edges:
        rows[j][i] = w
    return tuple(map(tuple, rows))


def square_of(algebra, i):
    """e_i**2 as a dense coordinate vector: column i of the structure matrix."""
    square = list(algebra.zero_vector())
    for u, j, w in algebra.edges:
        if u == i:
            square[j] = w
    return tuple(square)


def square_relations_hold(algebra, sigma, scales) -> bool:
    """Reference lift check, dense: e_i -> x_i e_sigma(i) sends each basis
    square e_i**2 onto (x_i e_sigma(i))**2, compared coordinate by coordinate."""
    n = algebra.dim
    for i in range(n):
        image = [algebra.field.zero] * n
        for j, w in enumerate(square_of(algebra, i)):
            image[sigma[j]] = w * scales[j]
        x2 = scales[i] * scales[i]
        if image != [x2 * w for w in square_of(algebra, sigma[i])]:
            return False
    return True


def scalar_particular(decomposition, rhs):
    """Reference for ``ExponentDecomposition.particular`` on scalar right-hand
    sides, in field arithmetic: transform by U multiplicatively, take per
    diagonal equation the root 1 when it is one and the smallest root
    otherwise, and map back through V."""
    field = decomposition.field
    one = field.one
    ys = [one] * decomposition.n_vars
    for k, u_row in enumerate(decomposition.U):
        c = one
        for j, e in u_row:
            c = c * rhs[j] ** e
        if k < decomposition.rank:
            roots = nth_roots(field, decomposition.diagonal[k], c)
            if not roots:
                return None
            ys[k] = one if one in roots else roots[0]
        elif c != one:
            return None
    v_rows = [[] for _ in range(decomposition.n_vars)]   # V's rows as (k, e) pairs
    for k, column in enumerate(decomposition.V):
        for i, e in column:
            v_rows[i].append((k, e))
    return tuple(power_product(field, ys, row) for row in v_rows)


def scalar_generators(decomposition):
    """Reference generators of the homogeneous group, built as scalars: a
    generator of each factor of the transformed group, pushed through V."""
    field, n, V = decomposition.field, decomposition.n_vars, decomposition.V
    rank, diag = decomposition.rank, decomposition.diagonal

    def push(k, value):
        column = dict(V[k])
        return tuple(value ** column.get(i, 0) for i in range(n))

    if isinstance(field, PrimeField):
        if field.p == 2:
            return ()
        g = field.scalar(field.generator)
        return tuple([push(k, g ** ((field.p - 1) // math.gcd(diag[k], field.p - 1)))
                      for k in range(rank) if math.gcd(diag[k], field.p - 1) > 1]
                     + [push(k, g) for k in range(rank, n)])
    return tuple(push(k, -field.one) for k in range(rank) if mu_order(field, diag[k]) == 2)


def scalar_generators_hold(decomposition) -> bool:
    """Reference generator check: every generator, as scalars, satisfies
    every exponent row with right-hand side 1."""
    field = decomposition.field
    return all(power_product(field, gen, exps) == field.one
               for gen in decomposition.homogeneous.generators
               for exps in decomposition.exponents)


# -- the scalar-certified solve chain, kept as a reference ---------------------

def power_product(field, xs, exps):
    """prod xs[v] ** e over the (v, e) pairs of ``exps``, in scalars;
    negative exponents invert."""
    acc = field.one
    for v, e in exps:
        acc = acc * xs[v]**e
    return acc


def planted_rational_systems(seed=83, count=200):
    """(system, planted) pairs over Q: 1-4 variables, 1-4 rows of exponents in
    [-3, 3], each right-hand side the planted solution's value on its row."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 4)
        planted = [QQ.scalar(Fraction(rng.choice([-3, -2, -1, 1, 2, 3]),
                                      rng.choice([1, 2, 3]))) for _ in range(n)]
        rows = []
        for _ in range(rng.randint(1, 4)):
            exps = tuple(rng.randint(-3, 3) for _ in range(n))
            rows.append((exps, power_product(QQ, planted, enumerate(exps))))
        yield MonomialSystem(QQ, n, tuple(rows)), planted


def satisfied_by(system, xs) -> bool:
    """Reference check of a solution vector against every row of ``system``,
    in scalar arithmetic: the independent oracle for the raw-value check in
    ``SolutionCoset``."""
    xs = [system.field.scalar(x) for x in xs]
    return all(power_product(system.field, xs, exps) == rhs for exps, rhs in system.rows)


def solve(decomposition, system):
    """The solution coset of a system with ``decomposition``'s exponent rows,
    as ``ExponentDecomposition.solve`` once gave it: other rows, another field
    or width are InvariantViolation, and a particular solution must also
    pass the scalar ``satisfied_by``."""
    if (system.field, system.n_vars) != (decomposition.field, decomposition.n_vars) \
            or tuple(exps for exps, _ in system.rows) != decomposition.exponents:
        raise InvariantViolation("system's exponent rows differ from the decomposition's")
    particular = decomposition.particular([system.field.raw(c) for _, c in system.rows])
    coset = monomial.SolutionCoset(system, particular, decomposition.homogeneous)
    assert particular is None or satisfied_by(system, particular)
    return coset


def diag_coset(algebra):
    """The diagonal group as the coset of the identity lift."""
    system = autgroup.diag_system(algebra)
    return solve(ExponentDecomposition(system), system)


def is_unweighted_automorphism(algebra, sigma) -> bool:
    """Does sigma preserve adjacency of the graph (both directions)?"""
    return wgraph.is_graph_isomorphism(algebra, algebra, sigma)


def twisted_limit(algebra, sigma):
    """Solution coset of the lifting system for a graph automorphism sigma
    (a tuple or a ``GraphAutomorphism``), which must preserve the graph."""
    if isinstance(sigma, GraphAutomorphism):
        sigma = sigma.sigma
    sigma = tuple(sigma)
    if not is_unweighted_automorphism(algebra, sigma):
        raise NotAGraphAutomorphism(f"{sigma} does not preserve the graph")
    system = autgroup.twisted_system(algebra, sigma)
    return solve(ExponentDecomposition(system), system)


def coset_automorphisms(algebra, sigma, coset):
    """Every automorphism of a feasible twisted coset (finite case)."""
    if isinstance(sigma, GraphAutomorphism):
        sigma = sigma.sigma
    return [autgroup.MonomialAutomorphism(algebra, sigma, xs) for xs in coset.elements()]


def inverse_permutation(sigma) -> tuple[int, ...]:
    inverse = [0] * len(sigma)
    for i, img in enumerate(sigma):
        inverse[img] = i
    return tuple(inverse)


def compose(f, g):
    """f after g, for monomial automorphisms of one algebra: e_i goes to
    g.scales[i] * f.scales[g(i)] e_f(g(i)), the product of their matrices."""
    sigma = tuple(f.sigma[j] for j in g.sigma)
    scales = tuple(x * f.scales[j] for x, j in zip(g.scales, g.sigma))
    return autgroup.MonomialAutomorphism(f.algebra, sigma, scales)


def invert(f):
    sigma = inverse_permutation(f.sigma)
    return autgroup.MonomialAutomorphism(f.algebra, sigma, [f.scales[j].inv() for j in sigma])


def to_matrix(f):
    """The scalar matrix of f, column i holding the image of e_i."""
    return tuple(map(tuple, f.matrix_rows(f.algebra.field.zero, f.scales)))


def is_diagonal(f) -> bool:
    return f.sigma == tuple(range(len(f.sigma)))


def is_identity(f) -> bool:
    return is_diagonal(f) and all(x == f.algebra.field.one for x in f.scales)


def composition_table(presentation):
    """The lifted sigmas' multiplication table, indexed like ``lifted``."""
    index = {ga.sigma: k for k, (ga, _) in enumerate(presentation.lifted)}
    return tuple(tuple(index[a.compose(b).sigma] for b, _ in presentation.lifted)
                 for a, _ in presentation.lifted)


def dense_exponent_rows(algebra):
    """The diagonal system's exponent matrix written densely, as the solver
    once did: one row 2 e_u - e_v per edge u -> v, in edge-list order, n wide."""
    rows = []
    for u, v, _ in algebra.edges:
        exps = [0] * algebra.dim
        exps[u] += 2
        exps[v] -= 1
        rows.append(exps)
    return rows


def reference_rank(rows) -> int:
    """Rank by Gauss-Jordan elimination, each pivot row normalized to 1."""
    rank = 0
    rows = [list(r) for r in rows]
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if not rows[r][col].is_zero()), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][col].inv()
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and not rows[r][col].is_zero():
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def reference_det(field, rows):
    """Determinant of a square matrix by forward elimination, stopping at the
    first column without a pivot."""
    n = len(rows)
    rows = [list(r) for r in rows]
    det = field.one
    for col in range(n):
        pivot = next((r for r in range(col, n) if not rows[r][col].is_zero()), None)
        if pivot is None:
            return field.zero
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det = det * rows[col][col]
        inv = rows[col][col].inv()
        for r in range(col + 1, n):
            if not rows[r][col].is_zero():
                factor = rows[r][col] * inv
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return det


def reference_two_li_witness(algebra):
    """First pair (i, j) of dependent squares: column j is compared entry by
    entry with its ratio to column i at column i's first nonzero entry."""
    matrix = structure_matrix(algebra)

    def independent(i, j):
        pivot = next((r for r in range(algebra.dim) if not matrix[r][i].is_zero()), None)
        if pivot is None:
            return False
        ratio = matrix[pivot][j] / matrix[pivot][i]
        return any(matrix[r][j] != ratio * matrix[r][i] for r in range(algebra.dim))

    return next(((i, j) for i in range(algebra.dim) for j in range(i + 1, algebra.dim)
                 if not independent(i, j)), None)


def reference_scalar_multiple(w, b):
    """The scalar k with w == k * b, or None, read at b's first nonzero entry."""
    pivot = next((i for i, x in enumerate(b) if not x.is_zero()), None)
    if pivot is None:
        return None
    k = w[pivot] / b[pivot]
    if k.is_zero() or any(x != k * y for x, y in zip(w, b)):
        return None
    return k


def _products_vanish(algebra, vectors) -> bool:
    return all(all(x.is_zero() for x in algebra.multiply(a, b))
               for a, b in itertools.combinations(vectors, 2))


def reference_f2_basis_search(algebra, u) -> bool:
    """Is u in some natural basis of an F_2 algebra?  Tries u with every set
    of n - 1 other nonzero vectors."""
    n = algebra.dim
    vectors = [v for v in map(algebra.vector, itertools.product((0, 1), repeat=n))
               if any(not x.is_zero() for x in v) and v != u]
    return any(_products_vanish(algebra, (u,) + rest) and reference_rank((u,) + rest) == n
               for rest in itertools.combinations(vectors, n - 1))


def reference_unique_basis(algebra) -> bool:
    """Every natural basis of an F_p algebra, in residue arithmetic, one
    projective representative per vector, consists of basis vectors."""
    p, n = algebra.field.p, algebra.dim
    m = [[x.residue for x in row] for row in structure_matrix(algebra)]
    reps = [c for c in itertools.product(range(p), repeat=n)
            if next((x for x in c if x), None) == 1]

    def product_is_zero(a, b):
        had = [x * y % p for x, y in zip(a, b)]
        return all(sum(m[j][i] * had[i] for i in range(n)) % p == 0 for j in range(n))

    units = {tuple(int(j == i) for j in range(n)) for i in range(n)}
    for combo in itertools.combinations(reps, n):
        if all(product_is_zero(a, b) for a, b in itertools.combinations(combo, 2)) \
                and reference_rank([[algebra.field.scalar(x) for x in v] for v in combo]) == n \
                and not set(combo) <= units:
            return False
    return True


def reference_stationary_collapse(field, depth) -> bool:
    """Every squaring chain x_{i+1}**2 == x_i with each x_i in mu_{2^i},
    found by scanning the deepest coordinate over F_p^x, is 1 at the indices
    i <= depth - s, s the stationary index."""
    s = tate_stationary_index(field)
    one = field.one
    chains = []
    for deep in field.nonzero_elements():
        chain = [deep] * depth
        for i in range(depth - 2, -1, -1):
            chain[i] = chain[i + 1] ** 2
        if all(chain[i] ** (2 ** (i + 1)) == one for i in range(depth)):
            chains.append(chain)
    return bool(chains) and all(x == one for chain in chains for x in chain[:depth - s])


def _reference_pivot(d: list[dict[int, int]], t: int):
    """Smallest-|value| nonzero entry of the trailing submatrix, row-major ties.
    Rows from ``t`` on are zero left of column ``t``, so all their entries count."""
    best = None
    for i in range(t, len(d)):
        if d[i]:
            x, j = min(zip(map(abs, d[i].values()), d[i]))
            if x == 1:
                return i, j
            if best is None or x < best[0]:
                best = (x, i, j)
    return None if best is None else best[1:]


def reference_smith_normal_form(matrix, width) -> SmithDecomposition:
    """The elimination that ``smith_normal_form`` replaced, kept as it was:
    it moves the entries of the rows and columns it swaps.  Both follow one
    pivot rule, so their U, V and D agree entry for entry; only the order of
    the adds that commute within one clearing step may differ between their
    logs."""
    n = index(width)
    a = _sparse_rows(matrix, n)
    m = len(a)
    d = [dict(row) for row in a]
    cols = [set() for _ in range(n)]   # column -> the rows nonzero in it
    for i, row in enumerate(d):
        for j in row:
            cols[j].add(i)
    # U and V are the logs of their row and column operations
    row_ops, col_ops = [], []

    def swap_rows(a, b):
        for i in (a, b):
            for j in d[i]:
                cols[j].remove(i)
        d[a], d[b] = d[b], d[a]
        row_ops.append((SWAP, a, b))
        for i in (a, b):
            for j in d[i]:
                cols[j].add(i)

    def swap_cols(a, b):
        for i in cols[a] | cols[b]:
            row = d[i]
            x, y = row.pop(a, 0), row.pop(b, 0)
            if y:
                row[a] = y
            if x:
                row[b] = x
        cols[a], cols[b] = cols[b], cols[a]
        col_ops.append((SWAP, a, b))

    def add_row(dst, src, factor):
        target = d[dst]
        for j, y in d[src].items():
            x = target.get(j, 0) + factor * y
            if x:
                target[j] = x
                cols[j].add(dst)
            else:
                del target[j]
                cols[j].remove(dst)
        row_ops.append((ADD, dst, src, factor))

    def add_col(dst, src, factor):
        holders = cols[dst]
        for i in cols[src]:
            row = d[i]
            x = row.get(dst, 0) + factor * row[src]
            if x:
                row[dst] = x
                holders.add(i)
            else:
                del row[dst]
                holders.remove(i)
        col_ops.append((ADD, dst, src, factor))

    # at step t the rows above t are zero off the diagonal and the rest are
    # zero left of column t: the operations of step t touch rows and columns
    # from t on
    t = 0
    while t < min(m, n):
        pos = _reference_pivot(d, t)
        if pos is None:
            break
        while True:
            pi, pj = pos
            if pi != t:
                swap_rows(t, pi)
            if pj != t:
                swap_cols(t, pj)
            if d[t][t] < 0:
                d[t] = {j: -x for j, x in d[t].items()}
                row_ops.append((NEGATE, t))
            pivot = d[t][t]
            # clear the pivot column and row; a nonzero remainder becomes the
            # new, strictly smaller pivot on the next pass
            for i in cols[t] - {t}:
                if q := d[i][t] // pivot:
                    add_row(i, t, -q)
            for j, x in list(d[t].items()):
                if j != t and (q := x // pivot):
                    add_col(j, t, -q)
            if len(cols[t]) > 1 or len(d[t]) > 1:
                pos = _reference_pivot(d, t)
                continue
            if pivot == 1:
                break
            # force the divisibility chain: drag a non-divisible entry into
            # the pivot row and keep reducing
            culprit = next((i for i in range(t + 1, m)
                            if any(x % pivot for x in d[i].values())), None)
            if culprit is None:
                break
            add_row(t, culprit, 1)
            pos = (t, t)
        t += 1

    return SmithDecomposition(matrix=a, width=n, row_ops=row_ops, col_ops=col_ops,
                              diagonal=[d[k].get(k, 0) for k in range(min(m, n))])


def reference_graph_automorphisms(algebra, nodes=None) -> list[tuple[int, ...]]:
    """Reference listing of the graph symmetries, sorted: plain backtracking
    over the vertices ordered by (out-degree, in-degree, loop flag, label),
    each candidate pruned by that signature and by its adjacency to the
    vertices already assigned, collecting every leaf.  Given a list,
    ``nodes`` gets the number of consistent partial assignments visited,
    the empty one and the leaves included."""
    n = algebra.dim
    adjacent = [[False] * n for _ in range(n)]
    for u, v, _ in algebra.edges:
        adjacent[u][v] = True
    entering = list(zip(*adjacent))
    signature = [(sum(adjacent[v]), sum(entering[v]), adjacent[v][v]) for v in range(n)]
    order = sorted(range(n), key=lambda v: (signature[v], algebra.labels[v]))
    candidates = [[w for w in range(n) if signature[w] == signature[v]] for v in range(n)]
    assigned, image, used, found = [], [0] * n, [False] * n, []
    visited = 0

    def backtrack(k):
        nonlocal visited
        visited += 1
        if k == n:
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
    if nodes is not None:
        nodes.append(visited)
    return sorted(found)


def reference_assemble_aut(algebra) -> AutPresentation:
    """``assemble_aut`` as it was before coset skipping: one solve for every
    sigma of the reference listing."""
    decomposition = ExponentDecomposition(autgroup.diag_system(algebra))
    quotients = autgroup.edge_quotients(algebra)
    lifted, not_lifted = [], []
    for sigma in reference_graph_automorphisms(algebra):
        scales = decomposition.particular(quotients(sigma))
        if scales is None:
            not_lifted.append(GraphAutomorphism(sigma))
        else:
            lifted.append((GraphAutomorphism(sigma),
                           autgroup.MonomialAutomorphism(algebra, sigma, scales)))
    return AutPresentation(algebra, decomposition, tuple(lifted), tuple(not_lifted),
                           algebra.is_2li() or algebra.is_invertible())


# the code of the listing's search from one node, which calls itself per child
FIRST_LEAF = next(c for c in wgraph.enumerate_graph_automorphisms.__code__.co_consts
                  if getattr(c, "co_name", None) == "first_leaf")


def count_search_nodes(call) -> tuple:
    """``call()``'s result and the number of nodes the stabilizer-chain
    listing visited meanwhile: its calls of ``first_leaf``, the search from one
    node of the backtracking tree."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is FIRST_LEAF:
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = call()
    finally:
        sys.setprofile(previous)
    return result, calls


def count_particular_calls(monkeypatch) -> list:
    """Record the right-hand sides of every ``particular`` solve."""
    calls = []
    real = monomial.ExponentDecomposition.particular

    def counting(self, rhs):
        calls.append(rhs)
        return real(self, rhs)

    monkeypatch.setattr(monomial.ExponentDecomposition, "particular", counting)
    return calls


def count_snf_calls(monkeypatch) -> list:
    """Record the row count of every Smith normal form the solver runs."""
    calls = []
    real = monomial.smith_normal_form

    def counting(matrix, width):
        calls.append(len(matrix))
        return real(matrix, width)

    monkeypatch.setattr(monomial, "smith_normal_form", counting)
    return calls


def drop_lift(monkeypatch, dropped):
    """Make the canonical solution of one sigma's twisted right-hand sides
    report infeasible."""
    marked = []
    real_quotients = autgroup.edge_quotients
    real_particular = monomial.ExponentDecomposition.particular

    def edge_quotients(algebra):
        quotients = real_quotients(algebra)

        def marking(sigma):
            rhs = quotients(sigma)
            if tuple(sigma) == dropped:
                marked.append(rhs)
            return rhs
        return marking

    def particular(self, rhs):
        if any(rhs is m for m in marked):
            return None
        return real_particular(self, rhs)

    monkeypatch.setattr(autgroup, "edge_quotients", edge_quotients)
    monkeypatch.setattr(monomial.ExponentDecomposition, "particular", particular)


def assert_raises_exactly(call, error, message):
    """``call()`` raises an instance of ``error`` itself, not of a subclass,
    whose text is ``message``."""
    try:
        call()
    except Exception as exc:   # the class itself is compared, not a base
        assert (type(exc), str(exc)) == (error, message)
    else:
        raise AssertionError(f"no {error.__name__} raised")


def run_python(args, timeout, cwd=None):
    """A fresh interpreter with this checkout's src on its path, killed after ``timeout`` s."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable] + args, env=env, capture_output=True, text=True,
                          timeout=timeout, cwd=cwd)


def reference_parser():
    """The argparse parser the command line had before its own command table:
    the reference that ``evoaut.cli.parse_args`` must agree with."""
    import argparse

    from evoaut import cli

    parser = argparse.ArgumentParser(
        prog="evoaut",
        description="automorphism groups of finite-dimensional evolution algebras")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, needs_file, help_text):
        p = sub.add_parser(name, help=help_text)
        if needs_file:
            p.add_argument("file", help="algebra or graph input file")
        p.add_argument("--field", help="field tag (F<p> or Q; graph-file default "
                                       "or tate/chain field)")
        p.set_defaults(handler=handler)
        return p

    diag = add("diag", cli.cmd_diag, True, "diagonal automorphism group")
    aut = add("aut", cli.cmd_aut, True, "full monomial automorphism presentation")
    check = add("check", cli.cmd_check, True, "structural predicate report")
    check.add_argument("--vector", action="append",
                       help="comma-separated coordinates to test for naturality")
    add("oracle", cli.cmd_oracle, True, "brute-force cross-check report")
    tate = add("tate", cli.cmd_tate, False, "2-power inverse limit of roots of unity")
    chain = add("chain", cli.cmd_chain, False, "truncated power-map chain census")
    chain.add_argument("--exp", help="comma-separated exponent sequence")
    chain.add_argument("--depth", type=int, help="chain depth (with a single --exp)")
    chain.add_argument("--anchor", help="anchor value for x_1**n_1")
    add("convert", cli.cmd_convert, True, "algebra <-> graph conversion")
    for p in (diag, aut, check, tate, chain):  # the commands with a structured report
        p.add_argument("--structured", action="store_true",
                       help=f"emit the {cli.STRUCTURED_FORMAT} key-value format")
    return parser


# The command lines on which the parser and the reference must agree: up to
# two units before the command, the command (an unknown one, or none), then
# units in any order.  A unit is one option with its value, or one token.
# "-hx" is left out: argparse reads it as -h from Python 3.13 on and refused
# it before.
PARITY_HEADS = ("diag", "aut", "check", "oracle", "tate", "chain", "convert", "frob", None)
PARITY_UNITS = (("samples/star_spokes.alg",), ("extra",), ("--field", "F7"), ("--field=F7",),
                ("--fi", "F7"), ("--field",), ("--structured",), ("--struct",),
                ("--vector", "1,1,1"), ("--exp", "2,3"), ("--depth", "3"), ("--depth", "x"),
                ("--depth",), ("--anchor", "-1"), ("--cap", "1"), ("--",), ("-h",))
PARITY_ATTRIBUTES = ("command", "file", "field", "structured", "vector", "exp", "depth",
                     "anchor", "handler")


def parity_argv(prefix, head, units) -> list[str]:
    return [t for unit in prefix for t in unit] + ([head] if head else []) + \
        [t for unit in units for t in unit]


def parse_outcome(parse_args, argv) -> tuple:
    """(("exit", code) or the parsed attributes, stdout, stderr) of ``parse_args(argv)``."""
    import contextlib
    import io

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = parse_args(argv)
            outcome = tuple(getattr(args, name, None) for name in PARITY_ATTRIBUTES)
        except SystemExit as exc:
            outcome = ("exit", exc.code)
    return outcome, out.getvalue(), err.getvalue()


def parity_corpus(seed=CORPUS_SEED, count=4000):
    """Every head with up to two units, then ``count`` seeded lines with a prefix."""
    rng = random.Random(seed)
    for size in range(3):
        for head in PARITY_HEADS:
            for units in itertools.product(PARITY_UNITS, repeat=size):
                yield parity_argv((), head, units)
    for _ in range(count):
        yield parity_argv(rng.choices(PARITY_UNITS, k=rng.randint(0, 2)),
                          rng.choice(PARITY_HEADS),
                          rng.choices(PARITY_UNITS, k=rng.randint(0, 6)))


def parity_differences(corpus) -> list[str]:
    """The command lines of ``corpus`` on which the two parsers disagree, or on
    which a refusal writes to stdout or lacks its error line."""
    from evoaut.cli import parse_args

    reference = reference_parser().parse_args
    differences = []
    for argv in corpus:
        expected = parse_outcome(reference, argv)[0]
        outcome, out, err = parse_outcome(parse_args, argv)
        if outcome != expected or outcome == ("exit", 2) and (out or "\nerror: " not in err) \
                or outcome == ("exit", 0) and not out:
            differences.append(f"{' '.join(argv)!r}: {outcome} against {expected}")
    return differences
