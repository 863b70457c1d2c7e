"""Smith normal form of integer matrices with unimodular transforms.

Pure big-integer arithmetic; the pivot rule (smallest absolute value, ties
broken row-major) makes the output deterministic.  Each elementary operation
on a transform is undone on a tracked inverse, so every decomposition is
certified by exact products: U @ A @ V == D and U @ U^-1 == I == V @ V^-1,
which proves U and V unimodular without an O(m^3) determinant.

The row transform U is m x m for an m-row matrix, but on the exponent
matrices of monomial systems (one row 2 e_u - e_v per edge) its rows hold a
handful of nonzeros.  U and its inverse are therefore kept as sparse rows
(dicts {column: value} during elimination, ``SparseMatrix`` once stored): a
row operation costs the nonzeros it touches, not m, and the certificate is
checked over the nonzeros alone.  The column transform V is n x n for n
unknowns and stays dense.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import InitVar, dataclass, field

from .errors import InvariantViolation

Matrix = list[list[int]]


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


class SparseMatrix(Sequence):
    """A square integer matrix held as rows of (column, value) pairs: the
    nonzero entries in column order.  Indexing and iteration give dense row
    tuples, as the nested tuples it stands for would; ``rows`` gives the pairs.
    """

    __slots__ = ("rows",)

    def __init__(self, rows):
        """``rows``: one dense row, or one dict {column: value}, per row."""
        size = len(rows)
        self.rows = tuple(
            tuple(sorted((j, x) for j, x in (r.items() if isinstance(r, dict) else enumerate(r)) if x))
            for r in rows)
        if any(len(r) != size for r in rows if not isinstance(r, dict)) \
                or any(r and not (r[0][0] >= 0 and r[-1][0] < size) for r in self.rows):
            raise InvariantViolation(f"a {size}-row transform is not square")

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i: int) -> tuple[int, ...]:
        dense = [0] * len(self.rows)
        for j, x in self.rows[i]:
            dense[j] = x
        return tuple(dense)

    def __eq__(self, other) -> bool:
        return isinstance(other, SparseMatrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"SparseMatrix({self.rows!r})"


def is_inverse(t: SparseMatrix, t_inv_t: SparseMatrix) -> bool:
    """t @ t_inv == I, given t_inv transposed; compared with the identity one
    row at a time, over the nonzeros of both."""
    size = len(t)
    if len(t_inv_t) != size:
        return False
    inv_rows = [[] for _ in range(size)]
    for j, column in enumerate(t_inv_t.rows):
        for k, y in column:
            inv_rows[k].append((j, y))
    for i, row in enumerate(t.rows):
        acc = {i: -1}
        for k, c in row:
            for j, y in inv_rows[k]:
                acc[j] = acc.get(j, 0) + c * y
        if any(acc.values()):
            return False
    return True


@dataclass(frozen=True)
class SmithDecomposition:
    """U @ matrix @ V == D with U, V unimodular and D = diag(d_1 | d_2 | ...).

    ``U`` is a ``SparseMatrix`` (dense rows given to the constructor are
    converted); ``V`` and ``D`` are dense.  ``U_inv_t`` and ``V_inv_t`` are
    the transposed integer inverses of the transforms, dense or as sparse
    rows: the certificate that U and V are unimodular.  Construction checks
    them with the other invariants and does not keep them.
    """

    matrix: tuple[tuple[int, ...], ...]
    U: SparseMatrix
    D: tuple[tuple[int, ...], ...]
    V: tuple[tuple[int, ...], ...]
    U_inv_t: InitVar[Matrix]
    V_inv_t: InitVar[Matrix]
    rank: int = field(init=False)

    def __post_init__(self, U_inv_t, V_inv_t):
        if not isinstance(self.U, SparseMatrix):
            object.__setattr__(self, "U", SparseMatrix(self.U))
        object.__setattr__(self, "rank", sum(1 for d in self.diagonal() if d != 0))
        self._verify(U_inv_t, V_inv_t)

    def diagonal(self) -> list[int]:
        return [self.D[k][k] for k in range(min(len(self.D), len(self.D[0]) if self.D else 0))]

    def invariant_factors(self) -> list[int]:
        return [d for d in self.diagonal() if d != 0]

    def _verify(self, u_inv_t, v_inv_t):
        m, n = len(self.matrix), len(self.matrix[0]) if self.matrix else 0
        if (len(self.U), len(self.V)) != (m, n):
            raise InvariantViolation(
                f"transforms of a {m} x {n} matrix must be {m} x {m} and {n} x {n}")
        if len(self.D) != m:
            raise InvariantViolation("U @ A @ V != D")
        # row i of U @ A @ V, over the nonzeros of U, A, U @ A and V
        a_rows = [[(j, x) for j, x in enumerate(r) if x] for r in self.matrix]
        v = SparseMatrix(self.V)
        for row, d_row in zip(self.U.rows, self.D):
            ua = {}
            for k, c in row:
                for j, x in a_rows[k]:
                    ua[j] = ua.get(j, 0) + c * x
            product = [0] * n
            for k, c in ua.items():
                if c:
                    for j, y in v.rows[k]:
                        product[j] += c * y
            if list(d_row) != product:
                raise InvariantViolation("U @ A @ V != D")
        if not (is_inverse(self.U, SparseMatrix(u_inv_t))
                and is_inverse(v, SparseMatrix(v_inv_t))):
            raise InvariantViolation("transform matrices are not unimodular")
        diag = self.diagonal()
        if any(any(row[:i]) or any(row[i + 1:]) for i, row in enumerate(self.D)):
            raise InvariantViolation("D is not diagonal")
        for k in range(len(diag) - 1):
            if diag[k + 1] and (diag[k] == 0 or diag[k + 1] % diag[k]):
                raise InvariantViolation(f"divisibility chain broken: {diag}")


def _find_pivot(d: Matrix, t: int):
    """Smallest-|value| nonzero entry of the trailing submatrix, row-major ties."""
    best = None
    for i in range(t, len(d)):
        row = d[i]
        for j in range(t, len(row)):
            v = row[j]
            if v != 0 and (best is None or abs(v) < best[0]):
                best = (abs(v), i, j)
                if best[0] == 1:
                    return best[1], best[2]
    return None if best is None else (best[1], best[2])


def smith_normal_form(matrix) -> SmithDecomposition:
    """Diagonalize an integer matrix by unimodular row/column operations.

    Accepts any rectangular list-of-lists (including zero rows/columns or an
    empty matrix) and returns the full decomposition, re-verified.  U and its
    inverse are built as sparse rows, so a row operation costs their nonzeros.
    A unit pivot divides every entry, so the search for an entry that breaks
    the divisibility chain is skipped for it.
    """
    rows = [list(map(int, r)) for r in matrix]
    m = len(rows)
    n = len(rows[0]) if m else 0
    if any(len(r) != n for r in rows):
        raise ValueError("ragged matrix")
    d = [r[:] for r in rows]
    # the inverses are kept transposed, so U^-1 takes row operations like U
    # and V^-1 column operations like V
    u, u_inv_t = [{i: 1} for i in range(m)], [{i: 1} for i in range(m)]
    v, v_inv_t = identity(n), identity(n)

    def combine(sparse, dst, src, factor):
        target = sparse[dst]
        for j, y in sparse[src].items():
            x = target.get(j, 0) + factor * y
            if x:
                target[j] = x
            else:
                target.pop(j, None)

    def swap_rows(a, b):
        for mat in (d, u, u_inv_t):
            mat[a], mat[b] = mat[b], mat[a]

    # at step t the rows above t are zero off the diagonal and the rest are
    # zero left of column t, so operations on d touch only d[t:], from column t
    def swap_cols(a, b):
        for row in (*d[t:], *v, *v_inv_t):
            row[a], row[b] = row[b], row[a]

    def add_row(dst, src, factor):
        d[dst][t:] = [x + factor * y for x, y in zip(d[dst][t:], d[src][t:])]
        combine(u, dst, src, factor)
        combine(u_inv_t, src, dst, -factor)

    def add_col(dst, src, factor):
        for row in (*d[t:], *v):
            row[dst] += factor * row[src]
        for row in v_inv_t:
            row[src] -= factor * row[dst]

    t = 0
    while t < min(m, n):
        pos = _find_pivot(d, t)
        if pos is None:
            break
        while True:
            pi, pj = pos
            if pi != t:
                swap_rows(t, pi)
            if pj != t:
                swap_cols(t, pj)
            if d[t][t] < 0:
                d[t] = [-x for x in d[t]]
                for sparse in (u, u_inv_t):
                    sparse[t] = {j: -x for j, x in sparse[t].items()}
            pivot = d[t][t]
            # clear the pivot column and row; a nonzero remainder becomes the
            # new, strictly smaller pivot on the next pass
            for i in range(t + 1, m):
                if d[i][t]:
                    add_row(i, t, -(d[i][t] // pivot))
            for j in range(t + 1, n):
                if d[t][j]:
                    add_col(j, t, -(d[t][j] // pivot))
            if any(d[i][t] for i in range(t + 1, m)) or any(d[t][j] for j in range(t + 1, n)):
                pos = _find_pivot(d, t)
                continue
            if pivot == 1:
                break
            # force the divisibility chain: drag a non-divisible entry into
            # the pivot row and keep reducing
            culprit = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if d[i][j] % pivot:
                        culprit = i
                        break
                if culprit is not None:
                    break
            if culprit is None:
                break
            add_row(t, culprit, 1)
            pos = (t, t)
        t += 1

    return SmithDecomposition(matrix=tuple(map(tuple, rows)), U=SparseMatrix(u),
                              D=tuple(map(tuple, d)), V=tuple(map(tuple, v)),
                              U_inv_t=u_inv_t, V_inv_t=v_inv_t)
