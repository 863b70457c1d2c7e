"""Smith normal form of integer matrices with unimodular transforms.

Pure big-integer arithmetic; the pivot rule (smallest absolute value, ties
broken row-major) makes the output deterministic.  Each elementary operation
on a transform is undone on a tracked inverse, so every decomposition is
certified by exact products: U @ A @ V == D and U @ U^-1 == I == V @ V^-1,
which proves U and V unimodular without an O(m^3) determinant.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

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


def is_inverse(t: Matrix, t_inv_t: Matrix) -> bool:
    """t @ t_inv == I for square t, given t_inv transposed; compared with the
    identity one row at a time, over the sparse rows of t_inv."""
    size = len(t)
    if len(t_inv_t) != size or any(len(r) != size for r in (*t, *t_inv_t)):
        return False
    inv_rows = [[] for _ in range(size)]
    for j, column in enumerate(t_inv_t):
        for k, y in enumerate(column):
            if y:
                inv_rows[k].append((j, y))
    for i, row in enumerate(t):
        acc = {i: -1}
        for k, c in enumerate(row):
            if c:
                for j, y in inv_rows[k]:
                    acc[j] = acc.get(j, 0) + c * y
        if any(acc.values()):
            return False
    return True


@dataclass(frozen=True)
class SmithDecomposition:
    """U @ matrix @ V == D with U, V unimodular and D = diag(d_1 | d_2 | ...).

    ``U_inv_t`` and ``V_inv_t`` are the transposed integer inverses of the
    transforms: the certificate that U and V are unimodular.  Construction
    checks them with the other invariants and does not keep them.
    """

    matrix: tuple[tuple[int, ...], ...]
    U: tuple[tuple[int, ...], ...]
    D: tuple[tuple[int, ...], ...]
    V: tuple[tuple[int, ...], ...]
    U_inv_t: InitVar[Matrix]
    V_inv_t: InitVar[Matrix]
    rank: int = field(init=False)

    def __post_init__(self, U_inv_t, V_inv_t):
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
        if [list(r) for r in self.D] != mat_mul(mat_mul(self.U, self.matrix), self.V):
            raise InvariantViolation("U @ A @ V != D")
        if not (is_inverse(self.U, u_inv_t) and is_inverse(self.V, v_inv_t)):
            raise InvariantViolation("transform matrices are not unimodular")
        diag = self.diagonal()
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
    # the inverses are kept transposed, so U^-1 takes row operations like U
    # and V^-1 column operations like V
    u, u_inv_t = identity(m), identity(m)
    v, v_inv_t = identity(n), identity(n)

    def combine(mat, dst, src, factor):
        mat[dst] = [x + factor * y for x, y in zip(mat[dst], mat[src])]

    def swap_rows(a, b):
        for mat in (d, u, u_inv_t):
            mat[a], mat[b] = mat[b], mat[a]

    def swap_cols(a, b):
        for row in (*d, *v, *v_inv_t):
            row[a], row[b] = row[b], row[a]

    def add_row(dst, src, factor):
        combine(d, dst, src, factor)
        combine(u, dst, src, factor)
        combine(u_inv_t, src, dst, -factor)

    def add_col(dst, src, factor):
        for row in (*d, *v):
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
                for mat in (d, u, u_inv_t):
                    mat[t] = [-x for x in mat[t]]
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
    return SmithDecomposition(matrix=freeze(rows), U=freeze(u), D=freeze(d), V=freeze(v),
                              U_inv_t=u_inv_t, V_inv_t=v_inv_t)
