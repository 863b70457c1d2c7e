"""Smith normal form of integer matrices with unimodular transforms.

Pure big-integer arithmetic; the pivot rule (smallest absolute value, ties
broken row-major) makes the output deterministic.  Each elementary operation
on a transform is undone on a tracked inverse, so every decomposition is
certified by exact products: U @ A @ V == D and U @ U^-1 == I == V @ V^-1,
which proves U and V unimodular without an O(m^3) determinant.

The exponent matrices of monomial systems (one row 2 e_u - e_v per edge)
hold a few nonzeros per row and keep that sparsity through elimination.  The
working matrix is therefore held as sparse rows (dicts {column: value}) with
an index from each column to the rows nonzero in it: clearing a column, and
the column operation that clears a row, visit only the rows nonzero in the
pivot column, and a column swap only the rows that hold either column.  The
row transform U is m x m for an m-row matrix but its rows hold a handful of
nonzeros, so U and its inverse are sparse rows too (``SparseMatrix`` once
stored), and the certificate is checked over the nonzeros alone.  The
column transform V (n x n for n unknowns) and its inverse are held by
columns, as dense lists: a column operation rewrites one list and a column
swap exchanges two.  Storage sets the cost of each operation, never its
result: the pivot rule alone fixes the operations and their order.
"""

from __future__ import annotations

from collections.abc import Sequence
from operator import itemgetter

from .errors import InvariantViolation
from .value import Value

Matrix = list[list[int]]
_value = itemgetter(1)   # of a (column, value) pair


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
        self.rows = tuple(tuple(sorted(filter(_value, r.items()))) if isinstance(r, dict)
                          else tuple((j, x) for j, x in enumerate(r) if x) for r in rows)
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


class SmithDecomposition(Value):
    """U @ matrix @ V == D with U, V unimodular and D = diag(d_1 | d_2 | ...).

    ``U`` is a ``SparseMatrix`` (dense rows given to the constructor are
    converted); ``V`` and ``D`` are dense.  ``U_inv_t`` and ``V_inv_t`` are
    the transposed integer inverses of the transforms, dense or as sparse
    rows: the certificate that U and V are unimodular.  ``__init__`` checks
    them with the other invariants and does not keep them.
    """

    __slots__ = ("matrix", "U", "D", "V", "rank")

    def __init__(self, matrix: tuple[tuple[int, ...], ...], U: SparseMatrix,
                 D: tuple[tuple[int, ...], ...], V: tuple[tuple[int, ...], ...],
                 U_inv_t: Matrix, V_inv_t: Matrix):
        self.matrix, self.D, self.V = matrix, D, V
        self.U = U if isinstance(U, SparseMatrix) else SparseMatrix(U)
        self._verify(U_inv_t, V_inv_t)
        self.rank = sum(1 for d in self.diagonal() if d != 0)

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


def _find_pivot(d: list[dict[int, int]], t: int):
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


def smith_normal_form(matrix) -> SmithDecomposition:
    """Diagonalize an integer matrix by unimodular row/column operations.

    Accepts any rectangular list-of-lists (including zero rows/columns or an
    empty matrix) and returns the full decomposition, re-verified.  The
    working matrix is held as sparse rows with an index of the rows nonzero
    in each column, so clearing a column or a row visits only its nonzeros.
    A unit pivot divides every entry, so the search for an entry that breaks
    the divisibility chain is skipped for it.
    """
    rows = tuple(tuple(map(int, r)) for r in matrix)
    m = len(rows)
    n = len(rows[0]) if m else 0
    if any(len(r) != n for r in rows):
        raise ValueError("ragged matrix")
    d = [{j: x for j, x in enumerate(r) if x} for r in rows]
    cols = [set() for _ in range(n)]   # column -> the rows nonzero in it
    for i, row in enumerate(d):
        for j in row:
            cols[j].add(i)
    # the inverses are kept transposed, so U^-1 takes row operations like U
    # and V^-1 column operations like V; V and V^-T are held by columns
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
        for i in (a, b):
            for j in d[i]:
                cols[j].remove(i)
        for mat in (d, u, u_inv_t):
            mat[a], mat[b] = mat[b], mat[a]
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
        for mat in (cols, v, v_inv_t):
            mat[a], mat[b] = mat[b], mat[a]

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
        combine(u, dst, src, factor)
        combine(u_inv_t, src, dst, -factor)

    def add_col(dst, src, factor):
        index = cols[dst]
        for i in cols[src]:
            row = d[i]
            x = row.get(dst, 0) + factor * row[src]
            if x:
                row[dst] = x
                index.add(i)
            else:
                del row[dst]
                index.remove(i)
        v[dst] = [x + factor * y for x, y in zip(v[dst], v[src])]
        v_inv_t[src] = [x - factor * y for x, y in zip(v_inv_t[src], v_inv_t[dst])]

    # at step t the rows above t are zero off the diagonal and the rest are
    # zero left of column t: the operations of step t touch rows and columns
    # from t on
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
                for sparse in (d, u, u_inv_t):
                    sparse[t] = {j: -x for j, x in sparse[t].items()}
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
                pos = _find_pivot(d, t)
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

    zero = (0,) * n
    D = tuple(tuple(map(row.get, range(n), zero)) if row else zero for row in d)
    return SmithDecomposition(matrix=rows, U=SparseMatrix(u), D=D, V=tuple(zip(*v)),
                              U_inv_t=u_inv_t, V_inv_t=tuple(zip(*v_inv_t)))
