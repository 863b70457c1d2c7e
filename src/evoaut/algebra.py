"""Finite-dimensional evolution algebras with a distinguished natural basis.

An algebra is held by its edge list alone: ``edges`` lists the nonzero
structure constants once, as the edges (i, j, M[j][i]) of the associated
graph in (i, j) order, where M is the structure matrix with the column
convention M[j][i] = coefficient of e_j in e_i**2, and ``weights`` maps each
(i, j) to its weight; distinct basis elements multiply to zero.  No dense
matrix is built: one sparse elimination on raw values (residues over F_p,
Fractions over Q) gives every rank and determinant, and 2LI hashes the
squares' directions.  Vectors are plain tuples of scalars in basis
coordinates.  All objects are immutable, apart from an algebra's idempotent
caches of its rank and determinant and of its edge quotient map, and the
predicates are pure.
"""

from __future__ import annotations

import enum
import itertools
from operator import index

from .errors import (
    DimensionMismatch,
    NotANaturalBasis,
    TooLarge,
    ZeroVector,
)
from .scalar import Field, PrimeField, Scalar
from .value import Value

DEFAULT_DIMENSION_CAP = 64
UNIQUE_BASIS_MAX_P = 5     # the unique-basis oracle lists every natural basis:
UNIQUE_BASIS_MAX_DIM = 3   # at most 31 projective classes of F_5^3

Vector = tuple[Scalar, ...]


class EvolutionAlgebra:
    """Built from its edge list: ``edges`` holds triples (i, j, w), w the
    nonzero coefficient of e_j in e_i**2, at most one per pair (i, j) and in
    any order; only the weights are coerced into the field."""

    def __init__(self, field: Field, dim: int, edges, labels=None):
        n = index(dim)
        if n < 1:
            raise DimensionMismatch("an evolution algebra needs at least one basis element")
        if n > DEFAULT_DIMENSION_CAP:
            raise TooLarge(f"algebra: dimension exceeds the cap {DEFAULT_DIMENSION_CAP} "
                           f"(dimension {n})")
        weights = {}
        for i, j, w in edges:
            if not (type(i) is type(j) is int and 0 <= i < n and 0 <= j < n):
                raise DimensionMismatch(f"edge {i!r} -> {j!r} is not between basis elements "
                                        f"0 to {n - 1}")
            if (i, j) in weights:
                raise DimensionMismatch(f"edge {i} -> {j} is listed twice")
            w = weights[i, j] = field.scalar(w)
            if w.is_zero():
                raise ZeroVector(f"edge {i} -> {j} has weight zero")
        self.field = field
        self.dim = n
        self.weights = weights
        self.edges = tuple((i, j, weights[i, j]) for i, j in sorted(weights))
        if labels is None:
            labels = tuple(f"e{i + 1}" for i in range(n))
        else:
            labels = tuple(labels)
            if len(labels) != n or len(set(labels)) != n:
                raise DimensionMismatch("labels must be distinct and match the dimension")
        self.labels = labels
        self._reduced: tuple[int, Scalar] | None = None
        self._quotients = None   # autgroup.edge_quotients' map, built once

    @classmethod
    def from_squares(cls, field: Field, squares, labels=None):
        """Build from the list of basis squares: squares[i] = coords of e_i**2."""
        n = len(squares)
        edges = []
        for i, square in enumerate(squares):
            coords = [field.scalar(x) for x in square]
            if len(coords) != n:
                raise DimensionMismatch("each square must have one coordinate per basis element")
            edges += [(i, j, w) for j, w in enumerate(coords) if not w.is_zero()]
        return cls(field, n, edges, labels=labels)

    def basis_vector(self, i: int) -> Vector:
        one, zero = self.field.one, self.field.zero
        return tuple(one if j == i else zero for j in range(self.dim))

    def zero_vector(self) -> Vector:
        zero = self.field.zero
        return tuple(zero for _ in range(self.dim))

    def vector(self, coords) -> Vector:
        """Coerce a coordinate sequence into a vector over this algebra."""
        v = tuple(self.field.scalar(x) for x in coords)
        if len(v) != self.dim:
            raise DimensionMismatch(f"expected {self.dim} coordinates, got {len(v)}")
        return v

    def multiply(self, u, v) -> Vector:
        """Product of two vectors: sum_i u_i v_i e_i**2."""
        u = self.vector(u)
        v = self.vector(v)
        out = list(self.zero_vector())
        for i, j, w in self.edges:
            out[j] = out[j] + u[i] * v[i] * w
        return tuple(out)

    # -- structural predicates ------------------------------------------

    def _squares(self) -> list[dict]:
        """Each square e_i**2 as {j: raw value} in j order, from the edges."""
        raw = self.field.raw
        squares = [{} for _ in range(self.dim)]
        for i, j, w in self.edges:
            squares[i][j] = raw(w)
        return squares

    def two_li_witness(self):
        """First pair (i, j), i < j, whose squares are linearly dependent,
        else None: a zero square, or two squares with the same direction.
        A zero e_j**2 gives (0, j), or (0, 1) for j = 0, and a direction met
        before gives (its first square, j); the least pair is the answer."""
        p = self.field.characteristic
        first, pairs = {}, []
        for j, square in enumerate(self._squares()):
            if not square:
                if self.dim > 1:
                    pairs.append((0, max(j, 1)))
                continue
            i = first.setdefault(tuple(_monic(square, p).items()), j)
            if i < j:
                pairs.append((i, j))
        return min(pairs, default=None)

    def is_2li(self) -> bool:
        """Squares of any two distinct basis elements are independent."""
        return self.two_li_witness() is None

    def is_nondegenerate(self) -> bool:
        """No basis element squares to zero."""
        return len({i for i, _, _ in self.edges}) == self.dim

    def _elimination(self) -> tuple[int, Scalar]:
        """Rank and determinant of the structure matrix, found once: the
        algebra is immutable."""
        if self._reduced is None:
            squares = (square.items() for square in self._squares())
            self._reduced = _eliminate(self.field, squares, self.dim)
        return self._reduced

    def rank(self) -> int:
        return self._elimination()[0]

    def det(self) -> Scalar:
        return self._elimination()[1]

    def is_invertible(self) -> bool:
        return self.rank() == self.dim

    def is_perfect(self) -> bool:
        """A**2 = A; in finite dimension the squares must span."""
        return self.rank() == self.dim

    def __eq__(self, other):
        return (isinstance(other, EvolutionAlgebra)
                and self.field == other.field
                and self.labels == other.labels
                and self.edges == other.edges)

    def __hash__(self):
        return hash((self.field, self.labels, self.edges))

    def __repr__(self):
        return f"EvolutionAlgebra(dim={self.dim}, field={self.field})"


def _monic(row: dict, p: int) -> dict:
    """A nonzero sparse row of raw values scaled so that its entry in the
    least column is 1: mod p when p, over Q when p is 0."""
    lead = row[min(row)]
    if p:
        inv = pow(lead, -1, p)
        return {j: x * inv % p for j, x in row.items()}
    return {j: x / lead for j, x in row.items()}


def _eliminate(field: Field, rows, width: int) -> tuple[int, Scalar]:
    """Forward elimination over ``field`` on sparse rows of raw values, each
    an iterable of (column, value) pairs: ints read mod the characteristic p
    over F_p, ints or Fractions over Q.  The rank and, for a square matrix,
    its determinant (zero for any other shape).  Each row is reduced by the
    monic rows kept so far, keyed by their least column, until its least
    column has none; what is left, unless zero, is kept.  Sorted by least
    column the kept rows are triangular, with the determinant up to the sign
    of that sort."""
    p = field.characteristic
    pivots, det, m = {}, 1, 0   # pivots: least column -> monic row, in row order
    for m, pairs in enumerate(rows, 1):
        row = {j: x % p if p else x for j, x in pairs}
        row = {j: x for j, x in row.items() if x}
        while row and (lead := min(row)) in pivots:
            f = row[lead]
            for j, y in pivots[lead].items():
                x = row.get(j, 0) - f * y
                if p:
                    x %= p
                if x:
                    row[j] = x
                else:
                    del row[j]
        if row:
            pivots[lead] = _monic(row, p)
            det *= row[lead]
    if not len(pivots) == m == width:
        return len(pivots), field.zero
    odd = sum(a > b for a, b in itertools.combinations(pivots, 2)) % 2
    return m, field.scalar(-det if odd else det)


def _rank(field: Field, vectors) -> int:
    """The rank of a nonempty list of vectors of scalars, all of one length."""
    return _eliminate(field, (enumerate(map(field.raw, v)) for v in vectors), len(vectors[0]))[0]


def vec_is_zero(v: Vector) -> bool:
    return all(x.is_zero() for x in v)


def vec_scale(k: Scalar, v: Vector) -> Vector:
    return tuple(k * x for x in v)


class Naturality(enum.Enum):
    NATURAL = "natural"
    NOT_NATURAL = "not natural"
    INDETERMINATE = "indeterminate"


def is_natural_vector(algebra: EvolutionAlgebra, u) -> Naturality:
    """Decide whether u belongs to some natural basis of the algebra.

    With S the support of u: if u**2 == 0, u is natural iff every e_i**2
    vanishes on S.  If u**2 != 0, a span{e_i**2 : i in S} of dimension >= 2
    rules naturality out, dimension 1 in characteristic != 2 confirms it, and
    in characteristic 2 the question is settled by exhaustive basis search
    when that is affordable (F_2, dim <= 4) and left INDETERMINATE otherwise.
    """
    u = algebra.vector(u)
    if vec_is_zero(u):
        raise ZeroVector("the zero vector is never natural")
    support = [i for i in range(algebra.dim) if not u[i].is_zero()]
    if len(support) == 1:
        return Naturality.NATURAL
    square = algebra.multiply(u, u)
    squares = algebra._squares()
    if vec_is_zero(square):
        ok = not any(squares[i] for i in support)
        return Naturality.NATURAL if ok else Naturality.NOT_NATURAL
    span_dim = _eliminate(algebra.field, (squares[i].items() for i in support), algebra.dim)[0]
    if span_dim >= 2:
        return Naturality.NOT_NATURAL
    if algebra.field.characteristic != 2:
        return Naturality.NATURAL
    if algebra.dim <= 4:   # characteristic 2 is F_2's
        found = any(u in basis for basis in _natural_bases(algebra))
        return Naturality.NATURAL if found else Naturality.NOT_NATURAL
    return Naturality.INDETERMINATE


def _natural_bases(algebra: EvolutionAlgebra):
    """Every natural basis of a small F_p algebra, one per projective class:
    each vector leads with 1, and the vectors come in residue order.  Scaling
    keeps both products zero and independence, so this loses nothing."""
    n = algebra.dim
    reps = [algebra.vector(c) for c in itertools.product(range(algebra.field.p), repeat=n)
            if next(filter(None, c), 0) == 1]

    def extend(basis, rest):   # rest: the later representatives orthogonal to all of basis
        if len(basis) == n:
            if _rank(algebra.field, basis) == n:
                yield basis
            return
        for k, v in enumerate(rest):
            yield from extend(basis + (v,), [w for w in rest[k + 1:]
                                             if vec_is_zero(algebra.multiply(v, w))])

    yield from extend((), reps)


class BasisChange(Value):
    """Permuted scaling: result_i = scales[i] * basis[perm[i]]."""

    __slots__ = ("perm", "scales")

    def __init__(self, perm: tuple[int, ...], scales: tuple[Scalar, ...]):
        if sorted(perm) != list(range(len(perm))):
            raise DimensionMismatch("perm is not a permutation")
        if any(k.is_zero() for k in scales):
            raise ZeroVector("basis-change scales must be nonzero")
        self.perm, self.scales = perm, scales

    def apply(self, basis) -> tuple[Vector, ...]:
        return tuple(vec_scale(self.scales[i], basis[self.perm[i]])
                     for i in range(len(self.perm)))


def check_natural_basis(algebra: EvolutionAlgebra, basis):
    """Raise NotANaturalBasis unless basis is a natural basis of the algebra."""
    basis = [algebra.vector(v) for v in basis]
    if len(basis) != algebra.dim:
        raise NotANaturalBasis(f"expected {algebra.dim} vectors, got {len(basis)}",
                               witness="dependent")
    for a, b in itertools.combinations(basis, 2):
        if not vec_is_zero(algebra.multiply(a, b)):
            raise NotANaturalBasis("two basis vectors have nonzero product",
                                   witness=(a, b))
    if _rank(algebra.field, basis) != algebra.dim:
        raise NotANaturalBasis("vectors are linearly dependent", witness="dependent")
    return basis


def same_orbit(algebra: EvolutionAlgebra, basis1, basis2):
    """BasisChange with basis2[i] = k_i * basis1[perm[i]], or None.

    Both arguments must be natural bases of the algebra; this is verified and
    a NotANaturalBasis error carries a concrete witness otherwise.
    """
    basis1 = check_natural_basis(algebra, basis1)
    basis2 = check_natural_basis(algebra, basis2)
    perm = []
    scales = []
    used = set()
    for w in basis2:
        match = None
        for idx, b in enumerate(basis1):
            if idx in used:
                continue
            k = _scalar_multiple(w, b)
            if k is not None:
                match = (idx, k)
                break
        if match is None:
            return None
        used.add(match[0])
        perm.append(match[0])
        scales.append(match[1])
    return BasisChange(perm=tuple(perm), scales=tuple(scales))


def _scalar_multiple(w: Vector, b: Vector):
    """The scalar k with w == k * b, or None."""
    pivot = next((i for i, x in enumerate(b) if not x.is_zero()), None)
    k = None if pivot is None else w[pivot] / b[pivot]
    return None if k is None or k.is_zero() or vec_scale(k, b) != w else k


def verify_unique_basis_up_to_scaling(algebra: EvolutionAlgebra) -> bool:
    """Oracle: every natural basis is a permuted scaling of the given one.

    Lists the natural bases over F_p one projective representative per vector
    and checks that each consists of distinguished basis vectors.
    Deliberately brute force.
    """
    field = algebra.field
    if not isinstance(field, PrimeField) or field.p > UNIQUE_BASIS_MAX_P \
            or algebra.dim > UNIQUE_BASIS_MAX_DIM:
        raise TooLarge(f"algebra: unique-basis oracle limited to p <= {UNIQUE_BASIS_MAX_P} and "
                       f"dim <= {UNIQUE_BASIS_MAX_DIM} ({field}, dimension {algebra.dim})")
    units = {algebra.basis_vector(i) for i in range(algebra.dim)}
    return all(set(basis) <= units for basis in _natural_bases(algebra))
