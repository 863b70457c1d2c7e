"""Automorphism groups of evolution algebras with a fixed natural basis.

The diagonal automorphisms solve the homogeneous system x_u**2 == x_v over
the edges of the associated graph (weights do not enter).  A symmetry sigma
of the unweighted graph lifts to algebra automorphisms e_i -> x_i e_sigma(i)
exactly when the twisted system x_u**2 / x_v == w(u,v) / w(sigma u, sigma v)
is solvable; the union of all lifted cosets is a group, a semidirect product
of the diagonal subgroup by the lifted graph symmetries.  The systems are
read off the algebra's edge list and share one exponent decomposition per
algebra; closure is checked by generators, on the permutation tuples.  The
sigmas that do not lift come in whole cosets of the lifted group L, so
``assemble_aut`` solves once per coset it meets and skips the rest of it,
then solves each failed sigma once more, moved by a lift, to confirm that it
fails.  Every sigma's right-hand sides come from ``edge_quotients``, over F_p as residues
w(e) * w(sigma e)**-1 mod p; ``ExponentDecomposition.particular`` takes
their discrete logs, each once per algebra, solves in logs and builds scalars
only for its answer.  Each lift is checked once, by the
``MonomialAutomorphism`` built from it, on residues mod p: that check is the
twisted system itself, so ``assemble_aut`` does not also certify the
solution as ``solve_inhomogeneous`` does.

``bruteforce_aut`` is the independent oracle: it finds every invertible
algebra homomorphism over F_p from the definition alone, assigning the image
of one basis vector at a time and keeping only partial assignments whose
columns already satisfy the homomorphism relations among themselves.  The
work follows the number of partial solutions, not the p^(n^2) matrices.  The
candidates for a column are a bitset over F_p^n (a Python int), the AND of
masks cached per assigned column, per span and per relation, so the last
column is counted by popcount and never listed unless asked for.
"""

from __future__ import annotations

from itertools import compress, product
from operator import add, index, itemgetter, mul, not_

from .algebra import EvolutionAlgebra, _eliminate
from .errors import (
    DimensionMismatch,
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
    solve_homogeneous,
)
from .scalar import PrimeField
from .value import Value
from .wgraph import GraphAutomorphism, enumerate_graph_automorphisms

BRUTEFORCE_MATRIX_CAP = 10**8


class MonomialAutomorphism:
    """The linear map e_i -> x_i e_sigma(i), verified to be an automorphism.

    f(e_i)**2 == f(e_i**2) reads x_i**2 * w(sigma i -> sigma j) == w(i -> j) * x_j
    for all i, j, a missing edge weighing 0.  Construction checks this on every
    edge, where a missing image edge fails it, comparing the two sides in raw
    values: as integers mod p over F_p, and as Fractions over Q.  As sigma
    permutes the ordered pairs, a map of the edges into the edges also maps
    non-edges to non-edges: no graph symmetry is assumed, and an instance is
    an automorphism by fiat.
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
        sigma, x, weights = self.sigma, self.scales, self.algebra.weights
        field = self.algebra.field
        zero = field.zero   # the weight of a missing image edge
        if isinstance(field, PrimeField):
            p, r = field.p, [v.residue for v in x]
            failed = [(i, j) for i, j, w in self.algebra.edges
                      if (r[i] * r[i] * weights.get((sigma[i], sigma[j]), zero).residue
                          - w.residue * r[j]) % p]
        else:
            f = [v.fraction for v in x]
            failed = [(i, j) for i, j, w in self.algebra.edges
                      if f[i] * f[i] * weights.get((sigma[i], sigma[j]), zero).fraction
                      != w.fraction * f[j]]
        if failed:
            raise NotAnAutomorphism(
                f"sigma={self.sigma}, scales fail the square relation on edge "
                f"{failed[0][0]}->{failed[0][1]}")

    def matrix_rows(self, zero, entries) -> list[list]:
        """The rows of the matrix with column i holding the image of e_i: ``zero``
        everywhere but the i-th of ``entries`` (one per scale) at row sigma(i)."""
        n = len(self.sigma)
        rows = [[zero] * n for _ in range(n)]
        for i, (row, x) in enumerate(zip(self.sigma, entries)):
            rows[row][i] = x
        return rows

    def residue_matrix(self) -> tuple[tuple[int, ...], ...]:
        if not isinstance(self.algebra.field, PrimeField):
            raise NotPrimeField("residue matrices exist over F_p only")
        rows = self.matrix_rows(0, (x.residue for x in self.scales))
        return tuple(map(tuple, rows))

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


def diag_system(algebra: EvolutionAlgebra) -> MonomialSystem:
    """Homogeneous system x_u**2 == x_v over the edges of the graph."""
    return _edge_system(algebra, [algebra.field.one] * len(algebra.edges))


def twisted_system(algebra: EvolutionAlgebra, sigma) -> MonomialSystem:
    """Relations that make e_i -> x_i e_sigma(i) an algebra homomorphism.

    Each edge u -> v of weight w contributes x_u**2 / x_v == w / w', where w'
    is the weight of the image edge sigma(u) -> sigma(v); a loop contributes
    the linear relation x_u == w / w'.  Rows follow the algebra's edge list.
    A sigma that is not a permutation of the basis, or that maps an edge to a
    non-edge, is NotAGraphAutomorphism; a permutation that maps every edge to
    an edge maps the edge set onto itself, so that is a full adjacency check.
    """
    sigma = tuple(sigma)
    if sorted(sigma) != list(range(algebra.dim)):
        raise NotAGraphAutomorphism(f"{sigma} is not a permutation of the basis")
    quotients = edge_quotients(algebra)(sigma)
    return _edge_system(algebra, map(algebra.field.scalar, quotients))


def edge_quotients(algebra: EvolutionAlgebra):
    """The map sigma -> [w(e) / w(sigma e) for every edge e, in edge-list
    order], the right-hand sides of sigma's twisted system for the solver,
    ``twisted_system`` and the oracle alike, as raw values (residues over
    F_p, Fractions over Q) from the edges' raw weights and their inverses,
    with no discrete log.  It is built once per algebra, which keeps it."""
    if algebra._quotients is None:
        algebra._quotients = _quotient_map(algebra)
    return algebra._quotients


def _quotient_map(algebra: EvolutionAlgebra):
    weights, raw, p = algebra.weights, algebra.field.raw, algebra.field.characteristic
    edges = [(u, v, raw(w)) for u, v, w in algebra.edges]
    inverses = {e: raw(w.inv()) for e, w in weights.items()}

    def quotients(sigma) -> list:
        try:
            products = [w * inverses[sigma[u], sigma[v]] for u, v, w in edges]
        except KeyError:   # an edge has no image: name the first
            u, v = next((u, v) for u, v, _ in edges if (sigma[u], sigma[v]) not in weights)
            raise NotAGraphAutomorphism(
                f"edge {u}->{v} has no image under sigma={sigma}") from None
        return [x % p for x in products] if p else products
    return quotients


def _edge_system(algebra: EvolutionAlgebra, rhs) -> MonomialSystem:
    """One row x_u**2 / x_v == c per edge u -> v, in edge-list order, for the
    nonzero scalars c of ``rhs``.  Each row is built as ``MonomialSystem``
    holds it, by its nonzeros in variable order: ((u, 2), (v, -1)), or
    ((u, 1),) for a loop, so the system takes the rows unread."""
    rows = []
    for (u, v, _), c in zip(algebra.edges, rhs):
        exps = ((u, 1),) if u == v else ((u, 2), (v, -1)) if u < v else ((v, -1), (u, 2))
        rows.append((exps, c))
    return MonomialSystem._of_normal_rows(algebra.field, algebra.dim, rows)


def diag_group(algebra: EvolutionAlgebra) -> GroupDescription:
    """Structure of the diagonal automorphism group of (A, B)."""
    return solve_homogeneous(diag_system(algebra))


class AutPresentation(Value):
    """Assembled description of the basis-monomial automorphism group U.

    ``decomposition`` solves the diagonal and every twisted system; ``diag`` is
    its homogeneous group.  ``lifted`` pairs each liftable graph automorphism
    with its canonical particular lift (the section of the quotient map), and
    ``not_lifted`` holds the others, each solved or in the coset of a failed
    one under the lifted group; the lifted sigmas are checked by generators
    to form a group.
    ``full_automorphism_group`` is True when the algebra is 2LI or its structure
    matrix is invertible, so that U is all of Aut(A); otherwise U may be proper.
    """

    __slots__ = ("algebra", "decomposition", "lifted", "not_lifted", "full_automorphism_group")

    def __init__(self, algebra: EvolutionAlgebra, decomposition: ExponentDecomposition,
                 lifted: tuple[tuple[GraphAutomorphism, MonomialAutomorphism], ...],
                 not_lifted: tuple[GraphAutomorphism, ...], full_automorphism_group: bool):
        for ga, particular in lifted:
            if ga.sigma != particular.sigma:
                raise InvariantViolation("lift does not project back onto its sigma")
        # breadth-first closure under greedily picked generators, on the sigma tuples;
        # each new generator at least doubles it, so this costs at most
        # 2 * |lifted| * |generators| compositions
        allowed = {ga.sigma for ga, _ in lifted}
        reached = {tuple(range(algebra.dim))}
        generators = []   # itemgetter(*s)(x) is x after s; n >= 2 here, so it is a tuple
        for g, _ in lifted:
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
        self.algebra, self.decomposition = algebra, decomposition
        self.lifted, self.not_lifted = lifted, not_lifted
        self.full_automorphism_group = full_automorphism_group

    @property
    def diag(self) -> GroupDescription:
        return self.decomposition.homogeneous

    @property
    def quotient_order(self) -> int:
        return len(self.lifted)

    def group_order(self):
        """|U| = |Diag| * number of lifted sigmas; None when infinite."""
        d = self.diag.concrete_order()
        return None if d is None else d * len(self.lifted)

    def monomial_elements(self) -> list[MonomialAutomorphism]:
        """All of U, element by element; an infinite or too large diagonal part is TooLarge.
        d . lift maps e_i to lift.scales[i] * d[sigma(i)] e_sigma(i), and d -> d o sigma
        permutes Diag, as every graph symmetry preserves it: so the scales of a lift's
        elements are its coset lift.scales * Diag."""
        return sorted((MonomialAutomorphism(self.algebra, lift.sigma, xs)
                       for _, lift in self.lifted for xs in self.diag.coset(lift.scales)),
                      key=MonomialAutomorphism.sort_key)


def assemble_aut(algebra: EvolutionAlgebra) -> AutPresentation:
    """Enumerate graph symmetries, keep the liftable ones, verify closure.

    The lifted sigmas form a group L, so a sigma that does not lift takes its
    whole coset with it: once tau has failed its solve and h is a verified
    lift, tau . h cannot lift, and its solve is skipped.  A wrong "no
    solution" could hide behind such skips, so after the closure check each
    failed tau is solved once more as tau . h for one non-identity lift h,
    which must fail too.
    """
    autos = enumerate_graph_automorphisms(algebra)
    decomposition = ExponentDecomposition(diag_system(algebra))
    quotients = edge_quotients(algebra)
    lifted = []
    not_lifted = []
    # barred holds each tau . h, for a failed tau and a verified lift h, that
    # the walk has yet to reach: the sigmas come in sorted order, so a product
    # behind sigma is never looked up.  itemgetter(*h)(tau) is tau . h; a
    # failed tau and a lift h are two sigmas, so n >= 2 and it is a tuple
    failed = []     # the sigmas whose solve failed
    barred = set()
    for ga in autos:
        sigma = ga.sigma
        if sigma in barred:
            barred.remove(sigma)
            not_lifted.append(ga)
            continue
        scales = decomposition.particular(quotients(sigma))
        if scales is not None:
            lifted.append((ga, MonomialAutomorphism(algebra, sigma, scales)))
            if failed:
                barred.update([x for x in map(itemgetter(*sigma), failed) if x > sigma])
        else:
            not_lifted.append(ga)
            failed.append(sigma)
            products = (tuple(map(sigma.__getitem__, h.sigma)) for h, _ in lifted)
            barred.update([x for x in products if x > sigma])
    full = algebra.is_2li() or algebra.is_invertible()
    presentation = AutPresentation(algebra=algebra, decomposition=decomposition,
                                   lifted=tuple(lifted), not_lifted=tuple(not_lifted),
                                   full_automorphism_group=full)
    h = next((itemgetter(*ga.sigma) for ga, _ in lifted if not ga.is_identity()), None)
    if h and any(decomposition.particular(quotients(h(tau))) is not None for tau in failed):
        raise InvariantViolation("lifted sigmas are not closed under composition")
    return presentation


# -- brute-force oracle over F_p ----------------------------------------

_BYTE_BITS = [()]  # _BYTE_BITS[x]: the positions of the set bits of the byte x
for _bit in range(8):
    _BYTE_BITS += [bits + (_bit,) for bits in _BYTE_BITS]


def _members(mask: int) -> list[int]:
    """The positions of the set bits of ``mask``, in ascending order."""
    data = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    return [8 * at + b for at, byte in enumerate(data) if byte for b in _BYTE_BITS[byte]]


def _structure_residues(algebra: EvolutionAlgebra) -> list[list[int]]:
    """The structure matrix of an F_p algebra as residues, M[j][i] the e_j
    coordinate of e_i**2, read from the weight map."""
    n, weights = algebra.dim, algebra.weights
    return [[weights[i, j].residue if (i, j) in weights else 0 for i in range(n)]
            for j in range(n)]


def _oracle_search(algebra: EvolutionAlgebra):
    """Yield every invertible homomorphism e_i -> t_i, in groups that share
    all columns but one.  Each item is ``(t, last, mask)``: ``t`` holds the
    columns as vector indices, ``t[last]`` is 0, and the set bits of ``mask``
    are the vectors that complete t as column ``last``.  The index of a vector
    of F_p^n is its base-p number with component r at place p^r.

    Only the definition of a homomorphism is used: M(t_j o t_k) = 0 for
    j != k, and M(t_i o t_i) = sum_c M[c][i] t_c, where o is the entrywise
    product.  The columns are assigned one at a time, depth first, and the
    candidates for the next one are an AND of bitsets over F_p^n, cached per
    assigned column, per span or per relation:
      - for each assigned column a, the pair mask {b : M(a o b) = 0};
      - the complement of the span of the assigned columns, which makes the
        assembled matrix invertible;
      - each square relation whose columns are then all assigned: the vectors
        t with M(t o t) - M[i][i] t equal to the assigned part when the new
        column is t_i, else the one vector the relation solves for.
    So the work follows the number of partial solutions, not p^(n^2).
    """
    if not isinstance(algebra.field, PrimeField):
        raise NotPrimeField("the brute-force oracle needs a finite field")
    p = algebra.field.p
    n = algebra.dim
    if p ** (n * n) > BRUTEFORCE_MATRIX_CAP:
        raise TooLarge(f"autgroup: matrix oracle exceeds the cap {BRUTEFORCE_MATRIX_CAP} "
                       f"(p^(n^2) = {p}^{n * n} = {p ** (n * n)})")
    M = _structure_residues(algebra)
    size = p ** n
    full = (1 << size) - 1
    powers = [p ** r for r in range(n)]
    # p^(n^2) <= 10^8 keeps p^n <= 10^4 for n >= 2; for n = 1 no table is
    # built, as a vector is its own residue
    digits = [x[::-1] for x in product(range(p), repeat=n)] if n > 1 else None

    def index(vector):
        return sum(map(mul, map(p.__rmod__, vector), powers))

    def tabulate(term):
        """The index of the vector with component j = sum over r of
        term(j, r, t_r), for every vector t in index order (n >= 2)."""
        columns = []
        for j, q in enumerate(powers):
            values = [0]
            for r in range(n):
                values = [u + s for s in [term(j, r, x) for x in range(p)] for u in values]
            columns.append([u % p * q for u in values])
        return list(map(sum, zip(*columns)))

    # the square of e_i is checked once t_i and its whole support are
    # assigned, so columns are assigned in an order that completes squares
    # early, the most of them first on a tie; with M = 0 every relation reads 0 = 0
    needs = [{i} | {c for c in range(n) if M[c][i]} for i in range(n)]
    order = []
    while len(order) < n:
        done = set(order)
        order += sorted(min((need - done for need in needs if not need <= done),
                            key=lambda new: (len(new), -sum(need <= done | new
                                                            for need in needs))))

    def key_table(d):
        """key_d(t) = M(t o t) - d t per vector t, and the bitset of the
        vectors of each key.  In dimension 1 the one relation has the target
        0, so F_p is scanned once for it and no table is kept: there d != 0,
        and key_d(x) = d (x^2 - x) is 0 exactly when x^2 = x."""
        if n == 1:
            return None, {0: sum(1 << x for x in range(p) if x * x % p == x)}
        values = tabulate(lambda j, r, x: (M[j][r] * x - (d if j == r else 0)) * x)
        groups = {}
        for t, key in enumerate(values):
            groups[key] = groups.get(key, 0) | 1 << t
        return values, groups

    # relation i reads key_d(t_i) = sum of M[c][i] t_c over c != i, with
    # d = M[i][i].  At the level of its last column it becomes (i, the table
    # of key_d, terms, inverse), where inverse = 1 / M[new][i] solves it for
    # the new column, or is None when the new column is t_i, and terms are
    # the columns c assigned before with their coefficients: M[c][i] in the
    # assigned part, -M[c][i] / M[new][i] in the new column
    rules = [[] for _ in range(n)]
    keys = {}
    for i, need in enumerate(needs if any(map(any, M)) else ()):
        k = max(map(order.index, need))
        new = order[k]
        inverse = None if new == i else pow(M[new][i], -1, p)
        if M[i][i] not in keys:
            keys[M[i][i]] = key_table(M[i][i])
        rules[k].append((i, keys[M[i][i]],
                         [(c, M[c][i] if inverse is None else -inverse * M[c][i] % p)
                          for c in need - {new, i}], inverse))
    # a level's relation mask is cached by the columns its relations read
    reads = [sorted({c for i, _, terms, inverse in level for c, _ in terms}
                    | {i for i, _, _, inverse in level if inverse is not None})
             for level in rules]
    relation_masks = [{} for _ in range(n)]

    scales = {}  # c -> the index of c v per vector v

    def combine(items):
        """The index of the sum of the vectors c v over the (v, c) in items."""
        if len(items) != 1:
            return index([sum(c * digits[v][r] for v, c in items) for r in range(n)])
        (v, c), = items
        if c not in scales:
            scales[c] = tabulate(lambda j, r, x: c * x if j == r else 0)
        return scales[c][v]

    def relations(k):
        mask = full
        for i, (values, groups), terms, inverse in rules[k]:
            assigned = [(t[c], m) for c, m in terms]
            if inverse is None:  # key_d(t_i) = the assigned part
                mask &= groups.get(combine(assigned), 0)
            else:  # t_new = (key_d(t_i) - the assigned part) / M[new][i]
                mask &= 1 << combine([(values[t[i]], inverse), *assigned])
        return mask

    kernel = []
    # the zeros of a -> (the bitset of the vectors supported on them, the
    # nonzero k in ker M that vanish on them)
    supported = {}
    pairs = {}

    def pair(a):
        if a not in pairs:
            if not kernel:
                images = tabulate(lambda j, r, x: M[j][r] * x)
                kernel.extend(x for x, image in zip(digits, images) if not image)
            if len(kernel) == size:
                pairs[a] = full
                return full
            # a o b lies in ker M: b is k / a on the support of a, for a k in
            # ker M that vanishes off it, and free elsewhere; the two parts
            # have disjoint supports, so their indices add without carries
            x = digits[a]
            zeros = tuple(map(not_, x))
            if zeros not in supported:
                free_mask = 1
                for r in compress(range(n), zeros):
                    free_mask = sum(free_mask << y * powers[r] for y in range(p))
                supported[zeros] = free_mask, [k for k in kernel if any(k) and
                                               not any(compress(k, zeros))]
            free_mask, inside = supported[zeros]
            mask = pairs[a] = free_mask
            if inside:
                inverse = [pow(y, -1, p) if y else 0 for y in x]
                for k in inside:
                    mask |= free_mask << index(list(map(mul, k, inverse)))
                # M(ca o b) = c M(a o b): every multiple of a pairs with the same b
                for c in range(1, p):
                    pairs[index([c * y for y in x])] = mask
        return pairs[a]

    spans = {}  # span -> {v: the span grown by v, as its list, bitset and complement}
    t = [0] * n

    def narrow(k, candidates):
        """The candidates for column order[k] that also meet its relations."""
        if candidates and rules[k]:
            key = tuple(map(t.__getitem__, reads[k]))
            if key not in relation_masks[k]:
                relation_masks[k][key] = relations(k)
            candidates &= relation_masks[k][key]
        return candidates

    def extend(k, span, span_mask, allowed, candidates):
        """Every group below the columns assigned before level k < n - 1,
        given the candidates for column order[k]."""
        column, grows = order[k], spans.setdefault(span_mask, {})
        for v in _members(candidates):
            if v not in grows:
                # every vector the span gains grows it the same way
                multiples = [[c * y for y in digits[v]] for c in range(1, p)]
                gained = [index(list(map(add, digits[s], m))) for m in multiples for s in span]
                mask = span_mask | sum(1 << w for w in gained)
                grows.update(dict.fromkeys(gained, (span + gained, mask, full ^ mask)))
            t[column] = v
            grown, mask, outside = grows[v]
            # the relations often leave nothing, so v's pair mask is read last
            if not (below := narrow(k + 1, outside & allowed)):
                continue
            paired = allowed & pair(v)
            if not (below := below & paired):
                continue
            if k + 2 == n:
                yield tuple(t), order[k + 1], below
            else:
                yield from extend(k + 1, grown, mask, paired, below)

    if first := narrow(0, full ^ 1):
        if n == 1:
            yield (0,), 0, first
        else:
            yield from extend(0, [0], 1, full, first)


def bruteforce_aut(algebra: EvolutionAlgebra) -> list[tuple[tuple[int, ...], ...]]:
    """Oracle: every invertible matrix acting as an algebra homomorphism.

    Searches the images of the basis column by column, keeping the partial
    assignments that satisfy the homomorphism relations among their columns;
    returns residue matrices in sorted order.  Deliberately ignorant of the
    monomial structure theory it validates.  ``BRUTEFORCE_MATRIX_CAP`` bounds
    p^(n^2).  The search yields the matrices that share all columns but one
    as one bitset, counted by popcount, so past ``ENUMERATION_CAP``
    matrices, the listing cap of every group, it stops with TooLarge before
    any is built; ``bruteforce_aut_count`` counts without that cap.
    """
    groups, total = [], 0
    for group in _oracle_search(algebra):
        total += group[2].bit_count()
        if total > ENUMERATION_CAP:
            raise TooLarge(f"autgroup: more than {ENUMERATION_CAP} automorphisms to list; "
                           f"bruteforce_aut_count counts them ({algebra.field}, "
                           f"dimension {algebra.dim})")
        groups.append(group)
    p, n = algebra.field.p, algebra.dim
    size = p ** n

    def code(c, v):
        """The matrix with column c the vector v and 0 elsewhere, as the
        base-p number whose digits are its entries row by row, so that
        numeric order is the order of residue matrices as tuples."""
        return sum(v // p ** r % p * p ** (n * (n - r) - 1 - c) for r in range(n))

    codes = []
    if groups:  # every group completes the same column, so its codes are tabulated once
        last = groups[0][1]
        last_codes = range(size) if n == 1 else [code(last, v) for v in range(size)]
    for t, _, mask in groups:
        base = sum(code(c, v) for c, v in enumerate(t))
        codes += map(base.__add__, map(last_codes.__getitem__, _members(mask)))
    codes.sort()
    # rows are shared tuples built once per distinct row, and zip builds each
    # matrix without an intermediate list: millions of matrices stay cheap
    rows = [[c // q % size for c in codes] for q in [p ** (n * (n - 1 - r)) for r in range(n)]]
    del codes
    row_of = {x: tuple(x // p ** (n - 1 - c) % p for c in range(n))
              for x in set().union(*rows)}.__getitem__
    return list(zip(*(map(row_of, column) for column in rows)))


def bruteforce_aut_count(algebra: EvolutionAlgebra) -> int:
    """The number of matrices ``bruteforce_aut`` returns, without building them."""
    return sum(mask.bit_count() for _, _, mask in _oracle_search(algebra))


def is_automorphism_matrix(algebra: EvolutionAlgebra, rows) -> bool:
    """Pure-python membership test matching the brute-force criteria.  ``rows``
    must be an n x n matrix of ints (anything ``operator.index`` takes):
    another shape raises DimensionMismatch, a float or a string ValueError."""
    field = algebra.field
    if not isinstance(field, PrimeField):
        raise NotPrimeField("residue matrices exist over F_p only")
    p = field.p
    n = algebra.dim
    M = _structure_residues(algebra)
    try:
        T = [list(map(index, r)) for r in rows]
    except TypeError:
        raise ValueError(f"matrix {rows!r} holds a non-integer") from None
    if len(T) != n or any(len(r) != n for r in T):
        raise DimensionMismatch(f"a matrix on a {n}-dimensional algebra must be {n} x {n}")
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
    return _eliminate(field, map(enumerate, T), n)[0] == n
