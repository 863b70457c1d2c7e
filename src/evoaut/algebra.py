"""Finite-dimensional evolution algebras with a distinguished natural basis.

An algebra is stored as its structure matrix M with the column convention
M[j][i] = coefficient of e_j in e_i**2; distinct basis elements multiply to
zero.  ``edges`` lists the nonzero entries once, as the edges (i, j, M[j][i])
of the associated graph in (i, j) order; whatever needs only them reads that
list.  Vectors are plain tuples of scalars in basis coordinates.  All objects
are immutable, apart from an algebra's idempotent cache of its rank and
determinant, and the predicates are pure.
"""

from __future__ import annotations

import enum
import itertools

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
    def __init__(self, field: Field, rows, labels=None):
        n = len(rows)
        if n < 1:
            raise DimensionMismatch("an evolution algebra needs at least one basis element")
        if n > DEFAULT_DIMENSION_CAP:
            raise TooLarge(f"algebra: dimension exceeds the cap {DEFAULT_DIMENSION_CAP} "
                           f"(dimension {n})")
        matrix = []
        for row in rows:
            if len(row) != n:
                raise DimensionMismatch("structure matrix must be square")
            matrix.append(tuple(field.scalar(x) for x in row))
        self.field = field
        self.matrix = tuple(matrix)
        self.edges = tuple((i, j, matrix[j][i]) for i in range(n) for j in range(n)
                           if not matrix[j][i].is_zero())
        if labels is None:
            labels = tuple(f"e{i + 1}" for i in range(n))
        else:
            labels = tuple(labels)
            if len(labels) != n or len(set(labels)) != n:
                raise DimensionMismatch("labels must be distinct and match the dimension")
        self.labels = labels
        self._reduced: tuple[int, Scalar] | None = None

    @classmethod
    def from_squares(cls, field: Field, squares, labels=None):
        """Build from the list of basis squares: squares[i] = coords of e_i**2."""
        n = len(squares)
        cols = [[field.scalar(x) for x in col] for col in squares]
        if any(len(c) != n for c in cols):
            raise DimensionMismatch("each square must have one coordinate per basis element")
        rows = [[cols[i][j] for i in range(n)] for j in range(n)]
        return cls(field, rows, labels=labels)

    @property
    def dim(self) -> int:
        return len(self.matrix)

    def entry(self, j: int, i: int) -> Scalar:
        """omega_{ji}: the e_j coordinate of e_i**2."""
        return self.matrix[j][i]

    def square_of(self, i: int) -> Vector:
        """e_i**2 as a coordinate vector (column i of the structure matrix)."""
        return tuple(self.matrix[j][i] for j in range(self.dim))

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

    def two_li_witness(self):
        """First pair (i, j) whose squares are linearly dependent, else None:
        a zero square, or two squares with the same direction."""
        directions = [_direction(self.square_of(i)) for i in range(self.dim)]
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                if directions[i] is None or directions[j] in (None, directions[i]):
                    return (i, j)
        return None

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
            self._reduced = _eliminate(self.matrix)
        return self._reduced

    def rank(self) -> int:
        return self._elimination()[0]

    def det(self) -> Scalar:
        return self._elimination()[1]

    def is_invertible(self) -> bool:
        return not self.det().is_zero()

    def is_perfect(self) -> bool:
        """A**2 = A; in finite dimension the squares must span."""
        return self.rank() == self.dim

    def __eq__(self, other):
        return (isinstance(other, EvolutionAlgebra)
                and self.field == other.field
                and self.labels == other.labels
                and self.matrix == other.matrix)

    def __hash__(self):
        return hash((self.field, self.labels, self.matrix))

    def __repr__(self):
        return f"EvolutionAlgebra(dim={self.dim}, field={self.field})"


def _eliminate(rows) -> tuple[int, Scalar]:
    """Forward elimination over K: the rank of a nonempty matrix and, for a
    square one, its determinant (zero for any other shape)."""
    rows = [list(r) for r in rows]
    det = rows[0][0].field.one
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((r for r in range(rank, len(rows)) if not rows[r][col].is_zero()), None)
        if pivot is None:
            continue
        if pivot != rank:
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            det = -det
        head = rows[rank]
        det = det * head[col]
        inv = head[col].inv()
        for r in range(rank + 1, len(rows)):
            if not rows[r][col].is_zero():
                factor = rows[r][col] * inv
                rows[r] = [x - factor * y for x, y in zip(rows[r], head)]
        rank += 1
    return rank, det if rank == len(rows) == len(rows[0]) else det.field.zero


def _direction(v: Vector):
    """v scaled so that its first nonzero entry is 1; None for the zero vector."""
    lead = next((x for x in v if not x.is_zero()), None)
    if lead is None:
        return None
    inv = lead.inv()
    return tuple(x * inv for x in v)


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
    if vec_is_zero(square):
        ok = all(vec_is_zero(algebra.square_of(i)) for i in support)
        return Naturality.NATURAL if ok else Naturality.NOT_NATURAL
    span_dim = _eliminate([algebra.square_of(i) for i in support])[0]
    if span_dim >= 2:
        return Naturality.NOT_NATURAL
    if algebra.field.characteristic != 2:
        return Naturality.NATURAL
    if isinstance(algebra.field, PrimeField) and algebra.field.p == 2 and algebra.dim <= 4:
        found = any(u in basis for basis in _natural_bases(algebra))
        return Naturality.NATURAL if found else Naturality.NOT_NATURAL
    return Naturality.INDETERMINATE


def _natural_bases(algebra: EvolutionAlgebra):
    """Every natural basis of a small F_p algebra, one per projective class:
    each vector leads with 1, and the vectors come in residue order.  Scaling
    keeps both products zero and independence, so this loses nothing."""
    n = algebra.dim
    reps = [v for v in map(algebra.vector, itertools.product(range(algebra.field.p), repeat=n))
            if _direction(v) == v]

    def extend(basis, rest):   # rest: the later representatives orthogonal to all of basis
        if len(basis) == n:
            if _eliminate(basis)[0] == n:
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
    if _eliminate(basis)[0] != algebra.dim:
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
    direction = _direction(b)
    if direction is None or _direction(w) != direction:
        return None
    pivot = next(i for i, x in enumerate(b) if not x.is_zero())
    return w[pivot] / b[pivot]


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
