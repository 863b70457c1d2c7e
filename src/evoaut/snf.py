"""Smith normal form of integer matrices with unimodular transforms.

Pure big-integer arithmetic; the pivot rule (smallest absolute value, ties
broken row-major) makes the output deterministic.  Entry growth during
elimination is accepted: the relation matrices in this library are tiny.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InvariantViolation

Matrix = list[list[int]]


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            aik = ai[k]
            if aik:
                bk = b[k]
                for j in range(cols):
                    oi[j] += aik * bk[j]
    return out


def int_det(m: Matrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(m)
    if n == 0:
        return 1
    work = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if work[k][k] == 0:
            for i in range(k + 1, n):
                if work[i][k] != 0:
                    work[k], work[i] = work[i], work[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                work[i][j] = (work[i][j] * work[k][k] - work[i][k] * work[k][j]) // prev
            work[i][k] = 0
        prev = work[k][k]
    return sign * work[n - 1][n - 1]


@dataclass(frozen=True)
class SmithDecomposition:
    """U @ matrix @ V == D with U, V unimodular and D = diag(d_1 | d_2 | ...)."""

    matrix: tuple[tuple[int, ...], ...]
    U: tuple[tuple[int, ...], ...]
    D: tuple[tuple[int, ...], ...]
    V: tuple[tuple[int, ...], ...]
    rank: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "rank", sum(1 for d in self.diagonal() if d != 0))
        self._verify()

    def diagonal(self) -> list[int]:
        return [self.D[k][k] for k in range(min(len(self.D), len(self.D[0]) if self.D else 0))]

    def invariant_factors(self) -> list[int]:
        return [d for d in self.diagonal() if d != 0]

    def _verify(self):
        a = [list(r) for r in self.matrix]
        u = [list(r) for r in self.U]
        v = [list(r) for r in self.V]
        if [list(r) for r in self.D] != mat_mul(mat_mul(u, a), v):
            raise InvariantViolation("U @ A @ V != D")
        if int_det(u) not in (1, -1) or int_det(v) not in (1, -1):
            raise InvariantViolation("transform matrices are not unimodular")
        diag = self.diagonal()
        m, n = len(self.D), len(self.D[0]) if self.D else 0
        for i in range(m):
            for j in range(n):
                if i != j and self.D[i][j] != 0:
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
    empty matrix) and returns the full decomposition, re-verified.
    """
    rows = [list(map(int, r)) for r in matrix]
    m = len(rows)
    n = len(rows[0]) if m else 0
    if any(len(r) != n for r in rows):
        raise ValueError("ragged matrix")
    d = [r[:] for r in rows]
    u = identity(m)
    v = identity(n)

    def swap_rows(a, b):
        d[a], d[b] = d[b], d[a]
        u[a], u[b] = u[b], u[a]

    def swap_cols(a, b):
        for row in d:
            row[a], row[b] = row[b], row[a]
        for row in v:
            row[a], row[b] = row[b], row[a]

    def add_row(dst, src, factor):
        d[dst] = [x + factor * y for x, y in zip(d[dst], d[src])]
        u[dst] = [x + factor * y for x, y in zip(u[dst], u[src])]

    def add_col(dst, src, factor):
        for row in d:
            row[dst] += factor * row[src]
        for row in v:
            row[dst] += factor * row[src]

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
                u[t] = [-x for x in u[t]]
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

    freeze = lambda mat: tuple(tuple(r) for r in mat)
    return SmithDecomposition(matrix=freeze(rows), U=freeze(u), D=freeze(d), V=freeze(v))
