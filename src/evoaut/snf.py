"""Smith normal form of integer matrices with unimodular transforms.

Pure big-integer arithmetic; the pivot rule (smallest absolute value, ties
broken row-major) makes the output deterministic.  U and V are kept as the
logs of the elimination's row and column operations, each a swap, a
negation or "add f times line src to line dst" (dst != src, f a nonzero
int): products of elementary matrices, so both are unimodular by
construction.  Every decomposition is certified by one exact replay:
the row log on A's rows, then the column log on the resulting columns,
must leave exactly D.

The exponent matrices of monomial systems (one row 2 e_u - e_v per edge)
hold a few nonzeros per row and keep that sparsity through elimination, so
every matrix here is held by its nonzeros, from the input to the consumer.
The input A is read once, where it enters, by ``_sparse_rows``, into
(column, value) pairs; the result remembers its width, so neither
``smith_normal_form`` nor ``SmithDecomposition`` reads it again, and a
caller whose rows are already in that form (``ExponentDecomposition``)
hands them over unread.  The working matrix holds the rows as dicts, with
an index from each column to the rows nonzero in it: clearing a column,
and the column operation that clears a row, visit only the rows nonzero in
the pivot column.  A unit pivot clears its column outright, and the pivot
search skips the rows it has found to hold no unit until an operation
changes them.  No row or column of the working matrix moves during
elimination: a swap exchanges two entries of a map between logical
positions and physical lines.  D is held by its diagonal.  U's rows, which transform a right-hand side, and V's
columns, which map a transformed solution back, are rebuilt from their logs
on the identity only when a caller reads them.
Storage sets the cost of each operation, never its result: the pivot rule
alone fixes U, V and D.
"""

from __future__ import annotations

from operator import index

from .errors import InvariantViolation
from .value import Value

# the codes of the logged operations (see ``replay``)
SWAP, NEGATE, ADD = "swap", "negate", "add"


class _Rows(tuple):
    """A matrix as ``_sparse_rows`` gives it, with the ``width`` it fits:
    immutable, so ``_sparse_rows`` lets it through unread at that width."""

    def __new__(cls, rows, width: int):
        self = super().__new__(cls, rows)
        self.width = width
        return self


def _sparse_rows(rows, width: int) -> _Rows:
    """Each row as its nonzero (column, value) pairs in column order: the one
    reader of a matrix, for ``smith_normal_form``, ``SmithDecomposition``
    and the exponent rows of ``MonomialSystem`` alike.  A row is a dict
    {column: value}, a sequence of (column, value) pairs in strictly
    increasing column order, or a sequence of ``width`` values; an empty row
    is the zero row.  Every column must lie in
    range(width) and every value be an int (``type(x) is int``: not a bool,
    a float or a Fraction).  A row that breaks this, or a negative width,
    raises ValueError.  A matrix read before, at the same width, is returned
    as it is: each matrix is read once, where it enters."""
    if width < 0:
        raise ValueError(f"the width of a matrix cannot be negative ({width})")
    if type(rows) is _Rows and rows.width == width:
        return rows
    out = []
    for i, row in enumerate(rows):
        try:
            if isinstance(row, dict):
                pairs = sorted(row.items())
            elif not row or type(row[0]) is tuple:
                pairs = row
            elif len(row) == width:
                pairs = enumerate(row)
            else:
                raise ValueError
            last, nonzero = -1, []
            for j, x in pairs:
                if type(x) is not int:
                    raise TypeError
                if not (type(j) is int and last < j < width):
                    raise ValueError
                last = j
                if x:
                    nonzero.append((j, x))
        except TypeError:
            raise ValueError(f"row {i} of the matrix, {row!r}, holds a non-integer") from None
        except ValueError:
            raise ValueError(f"row {i} of the matrix, {row!r}, does not fit {width} "
                             f"entries: {width} values, or columns of range({width}) "
                             "in increasing order") from None
        out.append(tuple(nonzero))
    return _Rows(out, width)


def replay(ops, lines: list[dict[int, int]]) -> list[dict[int, int]]:
    """Apply logged operations in order to dict lines {index: value}, in
    place, and return the lines.  The row log on A's rows gives U @ A, on
    the identity's rows U itself; the column log on a matrix's columns
    gives that matrix times V, on the identity's columns V itself.  Each
    operation must be elementary and index lines of ``lines``:
    ("swap", a, b) with a != b, ("negate", i), or ("add", dst, src, f),
    which adds f times line src to line dst, with dst != src and f a
    nonzero int.  Anything else raises InvariantViolation."""
    m = len(lines)
    for op in ops:
        code = op[0] if op else None
        if code == ADD and len(op) == 4:
            _, dst, src, f = op
            if type(dst) is type(src) is type(f) is int and f and dst != src \
                    and 0 <= dst < m and 0 <= src < m:
                target = lines[dst]
                for j, y in lines[src].items():
                    x = target.get(j, 0) + f * y
                    if x:
                        target[j] = x
                    else:
                        del target[j]
                continue
        elif code == SWAP and len(op) == 3:
            _, a, b = op
            if type(a) is type(b) is int and a != b and 0 <= a < m and 0 <= b < m:
                lines[a], lines[b] = lines[b], lines[a]
                continue
        elif code == NEGATE and len(op) == 2:
            i = op[1]
            if type(i) is int and 0 <= i < m:
                lines[i] = {j: -x for j, x in lines[i].items()}
                continue
        raise InvariantViolation(f"operation {op!r} is not elementary on {m} lines")
    return lines


class SmithDecomposition(Value):
    """U @ matrix @ V == D with U, V unimodular and D = diag(d_1 | d_2 | ...).

    ``matrix`` is held by sparse rows: tuples of (column, value) pairs in
    column order, ``width`` columns wide, every value an int.  U is held as
    ``row_ops`` and V as ``col_ops``, the logs of the elementary operations
    that make them from the identity (see ``replay``), so both are
    unimodular by construction; the ``U`` property rebuilds U's sparse rows
    and the ``V`` property V's sparse columns.  ``diagonal`` holds the
    min(m, width) diagonal entries of D, which is zero elsewhere.  The
    constructor reads ``matrix`` with ``_sparse_rows``, as
    ``smith_normal_form`` reads its input, so the matrix that
    ``smith_normal_form`` read is taken unread.  ``__init__`` certifies the
    decomposition: every matrix entry is an int, every logged operation is
    elementary, replaying the row log on A's rows and then the column log on
    the resulting columns leaves exactly D, and the diagonal is a
    divisibility chain of ints >= 0.
    """

    __slots__ = ("matrix", "width", "row_ops", "col_ops", "diagonal", "rank")

    def __init__(self, matrix, width, row_ops, col_ops, diagonal):
        self.width = index(width)
        try:
            self.matrix = _sparse_rows(matrix, self.width)
        except ValueError as exc:
            raise InvariantViolation(str(exc)) from None
        self.row_ops, self.col_ops = tuple(map(tuple, row_ops)), tuple(map(tuple, col_ops))
        self.diagonal = tuple(diagonal)
        self._verify()
        self.rank = sum(1 for d in self.diagonal if d != 0)

    @property
    def U(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """U by sparse rows, rebuilt from the row log on the identity."""
        rows = replay(self.row_ops, [{i: 1} for i in range(len(self.matrix))])
        return tuple(tuple(sorted(row.items())) for row in rows)

    @property
    def V(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """V by sparse columns, rebuilt from the column log on the identity."""
        columns = replay(self.col_ops, [{j: 1} for j in range(self.width)])
        return tuple(tuple(sorted(column.items())) for column in columns)

    def invariant_factors(self) -> list[int]:
        return [d for d in self.diagonal if d != 0]

    def _verify(self):
        diag = self.diagonal
        if len(diag) != min(len(self.matrix), self.width):
            raise InvariantViolation("U @ A @ V != D")
        if any(type(d) is not int or d < 0 for d in diag):
            raise InvariantViolation(f"the diagonal {list(diag)} holds an entry that is not "
                                     "an int >= 0")
        # U @ A by rows, turned into columns, then U @ A @ V by columns
        columns = [{} for _ in range(self.width)]
        for i, row in enumerate(replay(self.row_ops, [dict(row) for row in self.matrix])):
            for j, x in row.items():
                columns[j][i] = x
        for j, column in enumerate(replay(self.col_ops, columns)):
            if column != ({j: diag[j]} if j < len(diag) and diag[j] else {}):
                raise InvariantViolation("U @ A @ V != D")
        for k in range(len(diag) - 1):
            if diag[k + 1] and (diag[k] == 0 or diag[k + 1] % diag[k]):
                raise InvariantViolation(f"divisibility chain broken: {list(diag)}")


def smith_normal_form(matrix, width) -> SmithDecomposition:
    """Diagonalize an integer matrix by unimodular row/column operations.

    ``matrix`` is a sequence of rows ``width`` columns wide (any number of
    them, zero rows and columns included), each dense, a dict {column:
    value} or (column, value) pairs, with int values; ``_sparse_rows``
    reads it, as ``SmithDecomposition`` does, unless it has read it before
    at this width, and a row that does not fit or holds anything but ints
    (a float, a bool, a string) raises ValueError.  Returns the full
    decomposition, re-verified.

    The pivot of each pass is the entry of smallest absolute value, ties
    broken row-major in logical positions.  A unit is the smallest there
    is, so the search takes the first row that holds one, found by a
    membership test, and takes a min over entries only when no row does.
    Row and column operations are logged in logical positions, not applied
    to U and V.  No line of the working matrix moves: a swap exchanges two
    entries of the maps between logical positions and physical lines, so it
    costs O(1), and clearing a column or a row visits only its nonzeros,
    through an index of the rows nonzero in each column.  The search keeps
    the physical rows it has found to hold no unit and skips them until an
    operation changes them; every row a step changes is nonzero in its pivot
    column, so each step drops that column's rows from the set.  A unit
    pivot (1 after negation) divides every entry: each row it clears drops
    its pivot-column entry and takes the rest of the pivot row, the
    column's index becomes the pivot row alone, one column operation per
    entry clears the pivot row, and the search for an entry that breaks the
    divisibility chain is skipped.
    """
    n = index(width)
    a = _sparse_rows(matrix, n)
    m = len(a)
    d = [dict(row) for row in a]       # physical rows, keyed by physical column
    cols = [set() for _ in range(n)]   # physical column -> the physical rows nonzero in it
    for i, row in enumerate(d):
        for j in row:
            cols[j].add(i)
    # logical position -> physical line and back, for rows and for columns
    row_at, row_pos = list(range(m)), list(range(m))
    col_at, col_pos = list(range(n)), list(range(n))
    # U and V are the logs of their row and column operations, in logical positions
    row_ops, col_ops = [], []

    # at step t the logical rows above t are zero off the diagonal and the
    # rest are zero left of logical column t: the operations of step t touch
    # rows and columns from t on
    t, at = 0, None
    plain = set()   # physical rows found to hold no unit, and changed by no operation since
    while t < min(m, n):
        if at is None:
            # every entry of the rows from t on lies in a column from t on
            for i in range(t, m):
                if (r := row_at[i]) in plain:
                    continue
                row = d[r]
                if 1 in (values := row.values()) or -1 in values:
                    at = i, min(col_pos[j] for j, x in row.items() if x == 1 or x == -1)
                    break
                plain.add(r)
            else:
                best = None
                for i in range(t, m):
                    if row := d[row_at[i]]:
                        x, j = min(zip(map(abs, row.values()), map(col_pos.__getitem__, row)))
                        if best is None or x < best[0]:
                            best = x, i, j
                if best is None:
                    break
                at = best[1:]
        pi, pj = at
        if pi != t:
            r, s = row_at[pi], row_at[t]
            row_at[t], row_at[pi], row_pos[r], row_pos[s] = r, s, t, pi
            row_ops.append((SWAP, t, pi))
        if pj != t:
            c, s = col_at[pj], col_at[t]
            col_at[t], col_at[pj], col_pos[c], col_pos[s] = c, s, t, pj
            col_ops.append((SWAP, t, pj))
        r, c = row_at[t], col_at[t]
        prow = d[r]
        if prow[c] < 0:
            prow = d[r] = {j: -x for j, x in prow.items()}
            row_ops.append((NEGATE, t))
        pivot = prow[c]
        # every row that this step changes is nonzero in the pivot column
        plain -= cols[c]
        if pivot == 1:
            # each add clears its row's pivot-column entry outright, and then
            # one column operation per entry clears the pivot row
            rest = [(j, y) for j, y in prow.items() if j != c]
            for i in cols[c]:
                if i != r:
                    target = d[i]
                    q = target.pop(c)
                    for j, y in rest:
                        if x := target.get(j, 0) - q * y:
                            target[j] = x
                            cols[j].add(i)
                        else:
                            del target[j]
                            cols[j].remove(i)
                    row_ops.append((ADD, row_pos[i], t, -q))
            cols[c] = {r}
            for j, y in rest:
                cols[j].remove(r)
                col_ops.append((ADD, col_pos[j], t, -y))
            d[r] = {c: 1}
            t, at = t + 1, None
            continue
        # clear the pivot column and row; a nonzero remainder becomes the
        # new, strictly smaller pivot on the next pass
        for i in cols[c] - {r}:
            target = d[i]
            if q := target[c] // pivot:
                for j, y in prow.items():
                    if x := target.get(j, 0) - q * y:
                        target[j] = x
                        cols[j].add(i)
                    else:
                        del target[j]
                        cols[j].remove(i)
                row_ops.append((ADD, row_pos[i], t, -q))
        for j, x in list(prow.items()):
            if j != c and (q := x // pivot):
                holders = cols[j]
                for i in cols[c]:
                    row = d[i]
                    if y := row.get(j, 0) - q * row[c]:
                        row[j] = y
                        holders.add(i)
                    else:
                        del row[j]
                        holders.remove(i)
                col_ops.append((ADD, col_pos[j], t, -q))
        at = None
        if len(cols[c]) > 1 or len(prow) > 1:
            continue
        # force the divisibility chain: drag a non-divisible entry into the
        # pivot row and keep reducing.  The pivot row is {c: pivot} and column
        # c holds nothing else, so adding the culprit row copies its entries
        culprit = next((i for i in range(t + 1, m)
                        if any(x % pivot for x in d[row_at[i]].values())), None)
        if culprit is not None:
            for j, y in d[row_at[culprit]].items():
                prow[j] = y
                cols[j].add(r)
            row_ops.append((ADD, t, culprit, 1))
            at = t, t
            continue
        t += 1

    return SmithDecomposition(matrix=a, width=n, row_ops=row_ops, col_ops=col_ops,
                              diagonal=[d[row_at[k]].get(col_at[k], 0)
                                        for k in range(min(m, n))])
