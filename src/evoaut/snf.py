"""Smith normal form of integer matrices with unimodular transforms.

Pure big-integer arithmetic; the pivot rule (smallest absolute value, ties
broken row-major) makes the output deterministic.  Each elementary operation
on a transform is undone on a tracked inverse, so every decomposition is
certified by exact products: U @ A @ V == D and U @ U^-1 == I == V^-1 @ V,
which proves U and V unimodular without an O(m^3) determinant.

The exponent matrices of monomial systems (one row 2 e_u - e_v per edge)
hold a few nonzeros per row and keep that sparsity through elimination, so
every matrix here is held by its nonzeros, from the input to the consumer.
The input A is read once into dicts {column: value}, the working matrix's
rows, with an index from each column to the rows nonzero in it: clearing a
column, and the column operation that clears a row, visit only the rows
nonzero in the pivot column, and a column swap only the rows that hold
either column.  Row operations act on rows and column operations on
columns, so U and U^-T are held by rows, V and V^-T by columns, and D by
its diagonal.  The decomposition keeps that orientation, as (index, value)
pairs: a row of U transforms a right-hand side, and a column of V maps a
transformed solution back.  The certificate is checked over the nonzeros
alone.  Storage sets the cost of each operation, never its result: the
pivot rule alone fixes the operations and their order.
"""

from __future__ import annotations

from .errors import InvariantViolation
from .value import Value


def _sparse_lines(lines, size: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Each line (a row or a column), dense or a dict {index: value}, as its
    nonzero (index, value) pairs in index order.  A dense line must hold
    ``size`` entries and a dict only indices in range(size)."""
    out = tuple(tuple(sorted((j, x) for j, x in line.items() if x)) if isinstance(line, dict)
                else tuple((j, x) for j, x in enumerate(line) if x) for line in lines)
    if any(len(line) != size for line in lines if not isinstance(line, dict)) \
            or any(line and not (line[0][0] >= 0 and line[-1][0] < size) for line in out):
        raise InvariantViolation(f"a line does not fit {size} entries")
    return out


def _times(row, rows) -> dict[int, int]:
    """A sparse row times a matrix given by its sparse rows, as a dict."""
    acc = {}
    for k, c in row:
        for j, y in rows[k]:
            acc[j] = acc.get(j, 0) + c * y
    return acc


def _is_diagonal_product(rows, columns, diagonal) -> bool:
    """R @ C == diag(diagonal), zero past the diagonal's end, for R given by
    its sparse rows and a square C by its sparse columns; compared one row
    at a time, over the nonzeros of both."""
    c_rows = [[] for _ in columns]
    for j, column in enumerate(columns):
        for k, x in column:
            c_rows[k].append((j, x))
    for i, row in enumerate(rows):
        acc = _times(row, c_rows)
        if acc.pop(i, 0) != (diagonal[i] if i < len(diagonal) else 0) or any(acc.values()):
            return False
    return True


def is_inverse(rows, columns) -> bool:
    """R @ C == I, for a square R by its sparse rows and C by its columns."""
    return len(columns) == len(rows) and _is_diagonal_product(rows, columns, (1,) * len(rows))


class SmithDecomposition(Value):
    """U @ matrix @ V == D with U, V unimodular and D = diag(d_1 | d_2 | ...).

    ``matrix`` and ``U`` are held by sparse rows, ``V`` by sparse columns:
    tuples of (index, value) pairs in index order.  ``diagonal`` holds the
    min(m, n) diagonal entries of D, which is zero elsewhere.  ``U_inv_t``
    and ``V_inv_t`` are the transposed integer inverses of the transforms,
    U^-T by rows and V^-T by columns (so the lines of V^-T are the rows of
    V^-1): the certificate that U and V are unimodular.  The constructor
    takes each matrix as lines in that orientation, dense or dicts
    {index: value}; the width n is that of a dense row of ``matrix``, or
    else the number of columns of ``V``.  ``__init__`` checks the inverses
    with the other invariants and does not keep them.
    """

    __slots__ = ("matrix", "U", "diagonal", "V", "rank")

    def __init__(self, matrix, U, diagonal, V, U_inv_t, V_inv_t):
        m = len(matrix)
        n = len(V) if not m or isinstance(matrix[0], dict) else len(matrix[0])
        if (len(U), len(V)) != (m, n):
            raise InvariantViolation(
                f"transforms of a {m} x {n} matrix must be {m} x {m} and {n} x {n}")
        self.matrix, self.U = _sparse_lines(matrix, n), _sparse_lines(U, m)
        self.V, self.diagonal = _sparse_lines(V, n), tuple(diagonal)
        self._verify(_sparse_lines(U_inv_t, m), _sparse_lines(V_inv_t, n))
        self.rank = sum(1 for d in self.diagonal if d != 0)

    def invariant_factors(self) -> list[int]:
        return [d for d in self.diagonal if d != 0]

    def _verify(self, u_inv_t, v_inv_t):
        diag = self.diagonal
        # row i of U @ A @ V, over the nonzeros of U, A, U @ A and V
        if len(diag) != min(len(self.U), len(self.V)) or not _is_diagonal_product(
                (_times(row, self.matrix).items() for row in self.U), self.V, diag):
            raise InvariantViolation("U @ A @ V != D")
        if not (is_inverse(self.U, u_inv_t) and is_inverse(v_inv_t, self.V)):
            raise InvariantViolation("transform matrices are not unimodular")
        for k in range(len(diag) - 1):
            if diag[k + 1] and (diag[k] == 0 or diag[k + 1] % diag[k]):
                raise InvariantViolation(f"divisibility chain broken: {list(diag)}")


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
    input is read once, into sparse rows of its nonzeros as ints; the
    working matrix keeps them with an index of the rows nonzero in each
    column, so clearing a column or a row visits only its nonzeros.  A unit
    pivot divides every entry, so the search for an entry that breaks the
    divisibility chain is skipped for it.
    """
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    if any(len(r) != n for r in matrix):
        raise ValueError("ragged matrix")
    a = [{j: y for j, x in enumerate(r) if x and (y := int(x))} for r in matrix]
    d = [row.copy() for row in a]
    cols = [set() for _ in range(n)]   # column -> the rows nonzero in it
    for i, row in enumerate(d):
        for j in row:
            cols[j].add(i)
    # the inverses are kept transposed, so U^-T takes row operations like U
    # and V^-T column operations like V; V and V^-T are held by columns
    u, u_inv_t = [{i: 1} for i in range(m)], [{i: 1} for i in range(m)]
    v, v_inv_t = [{j: 1} for j in range(n)], [{j: 1} for j in range(n)]

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
        combine(v, dst, src, factor)
        combine(v_inv_t, src, dst, -factor)

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

    return SmithDecomposition(matrix=a, U=u, diagonal=[d[k].get(k, 0) for k in range(min(m, n))],
                              V=v, U_inv_t=u_inv_t, V_inv_t=v_inv_t)
