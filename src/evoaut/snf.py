"""Smith normal form of integer matrices with unimodular transforms.

Pure big-integer arithmetic; the pivot rule (smallest absolute value, ties
broken row-major) makes the output deterministic.  U is kept as the log of
its row operations, each a swap, a negation or "add f times row src to row
dst" (dst != src, f a nonzero int): a product of elementary matrices, so U
is unimodular by construction.  Each column operation on V is undone on a
tracked inverse.  Every decomposition is certified by exact products:
replaying the log on A and multiplying by V gives D, and V^-1 @ V == I,
which proves V unimodular without an O(n^3) determinant.

The exponent matrices of monomial systems (one row 2 e_u - e_v per edge)
hold a few nonzeros per row and keep that sparsity through elimination, so
every matrix here is held by its nonzeros, from the input to the consumer.
The input A is read once into dicts {column: value}, the working matrix's
rows, with an index from each column to the rows nonzero in it: clearing a
column, and the column operation that clears a row, visit only the rows
nonzero in the pivot column, and a column swap only the rows that hold
either column.  Column operations act on columns, so V and V^-T are held by
columns, and D by its diagonal.  U's rows, which transform a right-hand
side, are rebuilt from the log on the identity only when a caller reads
them; a column of V maps a transformed solution back.  Storage sets the
cost of each operation, never its result: the pivot rule alone fixes the
operations and their order.
"""

from __future__ import annotations

from operator import index

from .errors import InvariantViolation
from .value import Value

# the codes of U's logged row operations (see ``replay``)
SWAP, NEGATE, ADD = "swap", "negate", "add"


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


def _combine(lines, dst, src, factor):
    """Add ``factor`` (nonzero) times the dict line ``src`` to the dict line ``dst``."""
    target = lines[dst]
    for j, y in lines[src].items():
        x = target.get(j, 0) + factor * y
        if x:
            target[j] = x
        else:
            del target[j]


def replay(row_ops, rows: list[dict[int, int]]) -> list[dict[int, int]]:
    """Apply logged row operations in order to dict rows {column: value}, in
    place, and return the rows: on A's rows this gives U @ A, on the
    identity's rows U itself.  Each operation must be elementary and index
    rows of ``rows``: ("swap", a, b) with a != b, ("negate", i), or
    ("add", dst, src, f), which adds f times row src to row dst, with
    dst != src and f a nonzero int.  Anything else raises InvariantViolation."""
    m = len(rows)
    for op in row_ops:
        code = op[0] if op else None
        if code == ADD and len(op) == 4:
            _, dst, src, f = op
            if type(dst) is type(src) is type(f) is int and f and dst != src \
                    and 0 <= dst < m and 0 <= src < m:
                _combine(rows, dst, src, f)
                continue
        elif code == SWAP and len(op) == 3:
            _, a, b = op
            if type(a) is type(b) is int and a != b and 0 <= a < m and 0 <= b < m:
                rows[a], rows[b] = rows[b], rows[a]
                continue
        elif code == NEGATE and len(op) == 2:
            i = op[1]
            if type(i) is int and 0 <= i < m:
                rows[i] = {j: -x for j, x in rows[i].items()}
                continue
        raise InvariantViolation(f"row operation {op!r} is not elementary on {m} rows")
    return rows


class SmithDecomposition(Value):
    """U @ matrix @ V == D with U, V unimodular and D = diag(d_1 | d_2 | ...).

    ``matrix`` is held by sparse rows and ``V`` by sparse columns: tuples of
    (index, value) pairs in index order.  U is held as ``row_ops``, the log
    of the elementary row operations that make it from the identity (see
    ``replay``), so it is unimodular by construction; the ``U`` property
    rebuilds its sparse rows.  ``diagonal`` holds the min(m, n) diagonal
    entries of D, which is zero elsewhere.  ``V_inv_t`` is the transposed
    integer inverse of V, by columns (so its lines are the rows of V^-1):
    the certificate that V is unimodular.  The constructor takes ``matrix``,
    ``V`` and ``V_inv_t`` as lines in that orientation, dense or dicts
    {index: value}; the width n is that of a dense row of ``matrix``, or
    else the number of columns of ``V``.  ``__init__`` checks every logged
    operation, U @ A @ V == D by replaying the log on A's rows, V^-1 @ V ==
    I and the divisibility chain, and does not keep V^-T.
    """

    __slots__ = ("matrix", "row_ops", "diagonal", "V", "rank")

    def __init__(self, matrix, row_ops, diagonal, V, V_inv_t):
        m = len(matrix)
        n = len(V) if not m or isinstance(matrix[0], dict) else len(matrix[0])
        if len(V) != n:
            raise InvariantViolation(f"V of a {m} x {n} matrix must be {n} x {n}")
        self.matrix, self.row_ops = _sparse_lines(matrix, n), tuple(map(tuple, row_ops))
        self.V, self.diagonal = _sparse_lines(V, n), tuple(diagonal)
        self._verify(_sparse_lines(V_inv_t, n))
        self.rank = sum(1 for d in self.diagonal if d != 0)

    @property
    def U(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """U by sparse rows, rebuilt from the log on the identity."""
        rows = replay(self.row_ops, [{i: 1} for i in range(len(self.matrix))])
        return tuple(tuple(sorted(row.items())) for row in rows)

    def invariant_factors(self) -> list[int]:
        return [d for d in self.diagonal if d != 0]

    def _verify(self, v_inv_t):
        diag = self.diagonal
        # row i of U @ A @ V, over the nonzeros of U @ A and V
        u_a = replay(self.row_ops, [dict(row) for row in self.matrix])
        if len(diag) != min(len(self.matrix), len(self.V)) or not _is_diagonal_product(
                (row.items() for row in u_a), self.V, diag):
            raise InvariantViolation("U @ A @ V != D")
        n = len(self.V)
        if len(v_inv_t) != n or not _is_diagonal_product(v_inv_t, self.V, (1,) * n):
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
    empty matrix) of ints (anything ``operator.index`` takes; a float or a
    string raises ValueError) and returns the full decomposition,
    re-verified.  The input is read once, into sparse rows of its nonzeros;
    the working matrix keeps them with an index of the rows nonzero in each
    column, so clearing a column or a row visits only its nonzeros.  Row
    operations are logged, not applied to U.  A unit pivot divides every
    entry, so the search for an entry that breaks the divisibility chain is
    skipped for it.
    """
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    if any(len(r) != n for r in matrix):
        raise ValueError("ragged matrix")
    a = []
    for i, r in enumerate(matrix):
        try:
            a.append({j: y for j, x in enumerate(r) if (y := index(x))})
        except TypeError:
            raise ValueError(f"row {i} of the matrix, {r!r}, holds a non-integer") from None
    d = [row.copy() for row in a]
    cols = [set() for _ in range(n)]   # column -> the rows nonzero in it
    for i, row in enumerate(d):
        for j in row:
            cols[j].add(i)
    # U is its log of row operations; V^-1 is kept transposed, so V^-T takes
    # column operations like V, and both are held by columns
    row_ops = []
    v, v_inv_t = [{j: 1} for j in range(n)], [{j: 1} for j in range(n)]

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
        _combine(v, dst, src, factor)
        _combine(v_inv_t, src, dst, -factor)

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

    return SmithDecomposition(matrix=a, row_ops=row_ops,
                              diagonal=[d[k].get(k, 0) for k in range(min(m, n))],
                              V=v, V_inv_t=v_inv_t)
