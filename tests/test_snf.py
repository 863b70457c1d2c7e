import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest

from evoaut.errors import InvariantViolation
from evoaut.snf import SmithDecomposition, smith_normal_form

from helpers import reference_smith_normal_form


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        for k in range(inner):
            if a[i][k]:
                for j in range(cols):
                    out[i][j] += a[i][k] * b[k][j]
    return out


def int_det(m):
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


def freeze(mat):
    return tuple(tuple(r) for r in mat)


def width(mat):
    """The width of a dense matrix: its first row's length, 0 without rows."""
    return len(mat[0]) if mat else 0


def transpose(mat):
    return [list(col) for col in zip(*mat)]


def dense(lines, size):
    """Sparse lines of (index, value) pairs as dense lists of ``size`` entries."""
    out = [[0] * size for _ in lines]
    for line, sparse in zip(out, lines):
        for j, x in sparse:
            line[j] = x
    return out


def dense_parts(snf):
    """U, D and V of a decomposition as dense rows."""
    m, n = len(snf.U), len(snf.V)
    D = [[0] * n for _ in range(m)]
    for k, d in enumerate(snf.diagonal):
        D[k][k] = d
    return dense(snf.U, m), D, transpose(dense(snf.V, n))


def diagonal_of(D):
    return [D[k][k] for k in range(min(len(D), len(D[0]) if D else 0))]


def minor_gcd_factors(mat):
    """Independent invariant-factor oracle: d_1 ... d_k = gcd of k x k minors."""
    m, n = len(mat), len(mat[0]) if mat else 0
    prev = 1
    factors = []
    for k in range(1, min(m, n) + 1):
        g = 0
        for rows in itertools.combinations(range(m), k):
            for cols in itertools.combinations(range(n), k):
                sub = [[mat[r][c] for c in cols] for r in rows]
                g = math.gcd(g, int_det(sub))
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return factors


def test_snf_identity_case():
    snf = smith_normal_form([[1]], 1)
    assert snf.diagonal == (1,)
    assert (snf.matrix, snf.U, snf.V) == ((((0, 1),),), (((0, 1),),), (((0, 1),),))
    assert snf.invariant_factors() == [1]


def test_snf_star_rows():
    # three relations 2e_i - e_w on four unknowns: cokernel Z x (Z/2)^2
    rows = [[2, 0, 0, -1], [0, 2, 0, -1], [0, 0, 2, -1]]
    snf = smith_normal_form(rows, 4)
    assert snf.rank == 3
    assert snf.invariant_factors() == [1, 2, 2]


def test_snf_ear_relation_matrix():
    # edges 1->2, 2->3, 3->4, 4->1, 1->5, 5->1 as rows 2e_src - e_dst
    rows = [
        [2, -1, 0, 0, 0],
        [0, 2, -1, 0, 0],
        [0, 0, 2, -1, 0],
        [-1, 0, 0, 2, 0],
        [2, 0, 0, 0, -1],
        [-1, 0, 0, 0, 2],
    ]
    snf = smith_normal_form(rows, 5)
    assert snf.rank == 5
    assert snf.invariant_factors() == [1, 1, 1, 1, 3]


def test_snf_zero_and_rectangular():
    snf = smith_normal_form([[0, 0], [0, 0]], 2)
    assert snf.rank == 0
    assert snf.invariant_factors() == []
    snf = smith_normal_form([[6, 10, 15]], 3)
    assert snf.invariant_factors() == [1]
    snf = smith_normal_form([[4], [6]], 1)
    assert snf.invariant_factors() == [2]


def test_snf_negative_entries():
    snf = smith_normal_form([[-2, 4], [4, -8]], 2)
    assert snf.invariant_factors() == [2]
    assert all(d >= 0 for d in snf.diagonal)


def test_snf_matches_minor_gcd_oracle():
    rng = random.Random(23)
    for _ in range(200):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        mat = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        snf = smith_normal_form(mat, n)
        assert snf.invariant_factors() == minor_gcd_factors(mat)


def test_invariant_factors_independent_of_row_order():
    rng = random.Random(29)
    base = [[2, -1, 0, 0], [0, 2, -1, 0], [0, 0, 2, -1], [2, 0, 0, -1]]
    reference = smith_normal_form(base, 4).invariant_factors()
    for _ in range(10):
        shuffled = base[:]
        rng.shuffle(shuffled)
        assert smith_normal_form(shuffled, 4).invariant_factors() == reference


def test_transforms_reverify():
    # the constructor re-checks U @ A @ V == D; sanity-check one case by hand
    snf = smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]], 3)
    u, d, v = dense_parts(snf)
    a = dense(snf.matrix, 3)
    assert a == [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    prod = [[sum(u[i][k] * a[k][j] for k in range(3)) for j in range(3)] for i in range(3)]
    prod = [[sum(prod[i][k] * v[k][j] for k in range(3)) for j in range(3)] for i in range(3)]
    assert prod == d
    assert int_det(u) in (1, -1)
    assert int_det(v) in (1, -1)
    chain = snf.invariant_factors()
    for a_, b_ in zip(chain, chain[1:]):
        assert b_ % a_ == 0


def test_int_det():
    assert int_det([[3]]) == 3
    assert int_det([[1, 2], [3, 4]]) == -2
    assert int_det([[0, 1], [1, 0]]) == -1
    assert int_det([[2, 0, 0], [0, 3, 0], [0, 0, 4]]) == 24
    assert int_det([[1, 1], [1, 1]]) == 0


def test_transforms_unimodular_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def matrices(draw):
        m, n = draw(st.integers(0, 7)), draw(st.integers(0, 7))
        entry = st.one_of(st.just(0), st.integers(-40, 40))
        mat = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
        zero_rows = draw(st.sets(st.integers(0, max(m - 1, 0))))
        zero_cols = draw(st.sets(st.integers(0, max(n - 1, 0))))
        return [[0 if i in zero_rows or j in zero_cols else x for j, x in enumerate(row)]
                for i, row in enumerate(mat)]

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(matrices())
    def check(mat):
        snf = smith_normal_form(mat, width(mat))
        u, d, v = dense_parts(snf)
        assert mat_mul(mat_mul(u, mat), v) == d
        assert int_det(u) in (1, -1)
        assert int_det(v) in (1, -1)

    check()


def test_decompositions_equal_the_reference_elimination():
    # smith_normal_form swaps entries of a position map where the reference
    # moves the entries themselves, so its pivot rule must break ties by the
    # logical column, not by the physical one
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def int_matrices(draw):   # up to 10 x 10, zero rows and columns, scaled to non-unit pivots
        m, n = draw(st.integers(0, 10)), draw(st.integers(0, 10))
        scale = draw(st.sampled_from([1, 1, 2, 3, 6]))
        entry = st.one_of(st.just(0), st.integers(-30, 30))
        mat = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
        zero_rows = draw(st.sets(st.integers(0, max(m - 1, 0))))
        zero_cols = draw(st.sets(st.integers(0, max(n - 1, 0))))
        return [[0 if i in zero_rows or j in zero_cols else scale * x
                 for j, x in enumerate(row)] for i, row in enumerate(mat)], n

    @st.composite
    def edge_matrices(draw):   # rows 2 e_u - e_v, one per edge u -> v: up to 40 x 12
        n = draw(st.integers(1, 12))
        vertex = st.integers(0, n - 1)
        edges = draw(st.lists(st.tuples(vertex, vertex), max_size=40, unique=True))
        rows = []
        for u, v in edges:
            row = [0] * n
            row[u] += 2
            row[v] -= 1
            rows.append(row)
        return rows, n

    @hypothesis.settings(max_examples=400, deadline=None, database=None)
    @hypothesis.given(st.one_of(int_matrices(), edge_matrices()))
    def check(case):
        mat, n = case
        ours, reference = smith_normal_form(mat, n), reference_smith_normal_form(mat, n)
        assert (ours.U, ours.diagonal, ours.V) == (reference.U, reference.diagonal, reference.V)

    check()


def test_invariant_factors_match_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf
    rng = random.Random(20261018)
    cases = []
    for _ in range(80):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        zero_rows = {r for r in range(m) if rng.random() < 0.2}
        zero_cols = {c for c in range(n) if rng.random() < 0.2}
        cases.append([[0 if r in zero_rows or c in zero_cols or rng.random() < 0.4
                       else rng.randint(-30, 30) for c in range(n)] for r in range(m)])
    for _ in range(80):  # exponent rows 2 e_u - e_v of random graphs
        n = rng.randint(1, 7)
        edges = [(u, v) for u in range(n) for v in range(n) if rng.random() < 0.35] or [(0, 0)]
        rows = []
        for u, v in edges:
            row = [0] * n
            row[u] += 2
            row[v] -= 1
            rows.append(row)
        cases.append(rows)
    for mat in cases:
        ours = sorted(abs(d) for d in smith_normal_form(mat, len(mat[0])).invariant_factors())
        theirs = sympy_snf(sympy.Matrix(mat), domain=sympy.ZZ)
        assert ours == sorted(abs(theirs[k, k]) for k in range(min(theirs.shape)) if theirs[k, k])


@pytest.mark.parametrize("matrix, op, diagonal", [
    # each operation, applied as written to the rows or to the columns of
    # its symmetric matrix, would make D: only the log check fails
    ([[1]], ("add", 0, 0, 1), (2,)),                  # dst == src: U = [[2]], determinant 2
    ([[1, 0], [0, 2]], ("add", 0, 0, 1), (2, 2)),     # U = diag(2, 1), determinant 2
    ([[1, 0], [0, 1]], ("add", 0, 1, 0), (1, 1)),     # f == 0
    ([[1, 0], [0, 0]], ("add", 0, 1, 1.5), (1, 0)),   # a non-int f, on a zero line
    ([[1, 0], [0, 0]], ("add", 0, 1, Fraction(2)), (1, 0)),
    ([[1, 0], [0, 1]], ("add", 0, 2, 1), (1, 1)),     # an index outside range(m)
    ([[1, 0], [0, 1]], ("negate", -1), (1, 1)),
    ([[2]], ("swap", 0, 1), (2,)),                    # line 1 of a one-line matrix
    ([[1, 0], [0, 1]], ("swap", 0, 0), (1, 1)),       # a swap of a line with itself
    ([[1]], ("scale", 0, 2), (2,)),                   # an unknown op code: U = [[2]]
    ([[1, 0], [0, 1]], ("add", 0, 1), (1, 1)),        # an add without its factor
    ([[1, 0], [0, 1]], ("add", 1, 1, 1), (1, 2)),     # V = diag(1, 2), determinant 2
    # index -1, which Python reads as the last line; each operation would
    # leave the matrix as it is, so only the index check can reject it
    ([[1, 0, 0], [0, 0, 0], [0, 0, 0]], ("add", -1, 1, 1), (1, 0, 0)),   # dst -1
    ([[1, 0], [0, 0]], ("add", 0, -1, 1), (1, 0)),                       # src -1
    ([[1, 0, 0], [0, 0, 0], [0, 0, 0]], ("swap", 1, -1), (1, 0, 0)),
    ([[1, 0], [0, 0]], ("negate", -1), (1, 0)),
])
def test_non_elementary_row_operation_is_rejected(matrix, op, diagonal):
    n = len(matrix[0])
    SmithDecomposition(matrix=freeze(matrix), width=n, row_ops=(), col_ops=(),
                       diagonal=diagonal_of(matrix))
    for log in ("row_ops", "col_ops"):
        logs = {"row_ops": (), "col_ops": (), log: [op]}
        with pytest.raises(InvariantViolation, match="not elementary"):
            SmithDecomposition(matrix=freeze(matrix), width=n, diagonal=diagonal, **logs)


def test_corrupted_transform_is_rejected():
    snf = smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]], 3)
    for log in ("row_ops", "col_ops"):
        logs = {"row_ops": list(snf.row_ops), "col_ops": list(snf.col_ops)}
        ops = logs[log]
        k = next(k for k, op in enumerate(ops) if op[0] == "add")
        ops[k] = ops[k][:3] + (ops[k][3] + 1,)
        with pytest.raises(InvariantViolation, match="U @ A @ V != D"):
            SmithDecomposition(matrix=[dict(row) for row in snf.matrix], width=3,
                               diagonal=snf.diagonal, **logs)


@pytest.mark.parametrize("matrix, U, D, V", [
    ([[2]], [("swap", 0, 1)], [[2], [0]], []),        # U, by its log, acts on 2 rows for one
    ([[2], [0]], [], [[2], [0]], [("negate", 1)]),    # V, by its log, on 2 columns for one
])
def test_transform_of_the_wrong_size_is_rejected(matrix, U, D, V):
    with pytest.raises(InvariantViolation, match="not elementary on 1 lines"):
        SmithDecomposition(matrix=freeze(matrix), width=1, row_ops=U, col_ops=V,
                           diagonal=diagonal_of(D))


@pytest.mark.parametrize("rows", [
    [[1, 0], [0, 1, 0]],          # a dense row of the wrong length
    [{0: 1}, {2: 1}],             # a sparse entry past the last column
    [{-1: 1}, {1: 1}],            # a sparse entry before the first column
    [((1, 1), (0, 1)), ()],       # (column, value) pairs out of column order
    [((0, 1), (0, 1)), ()],       # pairs naming one column twice
])
def test_matrix_rows_outside_the_width_are_rejected(rows):
    with pytest.raises(InvariantViolation, match="does not fit 2 entries"):
        SmithDecomposition(matrix=rows, width=2, row_ops=(), col_ops=(), diagonal=(1, 1))


@pytest.mark.parametrize("matrix, diagonal", [
    ([[2]], (2.0,)),       # a float on the diagonal: 2.0 == 2 passes the product
    ([[-2]], (-2,)),       # a negative invariant factor, which torsion would drop
    ([{0: 2.0}], (2,)),    # a float in the matrix
    ([[True]], (1,)),      # a bool in the matrix
])
def test_entries_other_than_ints_and_negative_factors_are_rejected(matrix, diagonal):
    with pytest.raises(InvariantViolation):
        SmithDecomposition(matrix, 1, (), (), diagonal)


@pytest.mark.parametrize("matrix", [[], [[]]])
def test_negative_width_is_rejected(matrix):
    with pytest.raises(ValueError, match="cannot be negative"):
        smith_normal_form(matrix, -1)
    with pytest.raises(InvariantViolation, match="cannot be negative"):
        SmithDecomposition(matrix, -1, (), (), ())


@pytest.mark.parametrize("part", ["matrix", "U", "V"])
def test_sparse_lines_outside_their_matrix_are_rejected(part):
    # a 2 x 1 matrix given by dicts; each part in turn gets an entry one past
    # its last index: for U and V, held by their logs, an operation on row 2
    # or on column 1
    parts = {"matrix": [{0: 1}, {}], "width": 1, "row_ops": [], "col_ops": [],
             "diagonal": (1,)}
    SmithDecomposition(**parts)
    if part == "matrix":
        parts["matrix"][0][1] = 1
    elif part == "U":
        parts["row_ops"].append(("negate", 2))
    else:
        parts["col_ops"].append(("negate", 1))
    with pytest.raises(InvariantViolation, match="does not fit|not elementary on [12] lines"):
        SmithDecomposition(**parts)


@pytest.mark.parametrize("matrix, D, message", [
    # D is held by its diagonal: an entry off it fails the product
    ([[1, 1]], [[1, 1]], "U @ A @ V != D"),
    ([[1], [1]], [[1], [1]], "U @ A @ V != D"),                # a row below the diagonal
    ([[2, 0], [0, 3]], [[2, 0], [0, 3]], "divisibility chain"),
    ([[0, 0], [0, 1]], [[0, 0], [0, 1]], "divisibility chain"),  # a zero before a nonzero
    ([[1, 0], [0, 0]], [[1, 0]], "U @ A @ V != D"),            # a diagonal short of a zero
])
def test_d_off_the_smith_form_is_rejected(matrix, D, message):
    # empty logs: U and V are the identity and A == U @ A @ V
    with pytest.raises(InvariantViolation, match=message):
        SmithDecomposition(matrix=freeze(matrix), width=len(matrix[0]), row_ops=(), col_ops=(),
                           diagonal=diagonal_of(D))


def edge_rows(rng, n, out_degree):
    """Exponent rows 2 e_u - e_v, one per edge u -> v, ordered as the diagonal
    system orders them, of an algebra whose basis squares have
    ``out_degree`` terms each: the shape of the benchmark's dense cases."""
    rows = []
    for u in range(n):
        for v in sorted(rng.sample(range(n), out_degree)):
            exps = [0] * n
            exps[u] += 2
            exps[v] -= 1
            rows.append(exps)
    return rows


def block_union_rows(rng):
    """Exponent rows of a randomly relabelled union of loop chains, cycles,
    cycles with an ear and stars, the benchmark's block cases: their
    elimination takes non-unit pivots, leaves remainders and drags
    non-divisible entries into the pivot row."""
    blocks = [[(0, 0)] + [(i, i - 1) for i in range(1, n)] for n in (2, 3, 4, 5)]   # loop chains
    blocks += [[(i, (i + 1) % n) for i in range(n)] for n in (2, 3, 4)]              # cycles
    blocks += [[(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 0)]] * 2                # ears
    blocks += [[(i, k) for i in range(k)] for k in (3, 4)]                          # stars
    rng.shuffle(blocks)
    edges, at = [], 0
    for block in blocks:
        edges += [(at + u, at + v) for u, v in block]
        at += 1 + max(max(edge) for edge in block)
    perm = list(range(at))
    rng.shuffle(perm)
    rows = []
    for u, v in sorted((perm[u], perm[v]) for u, v in edges):
        exps = [0] * at
        exps[u] += 2
        exps[v] -= 1
        rows.append(exps)
    return rows


def random_matrices():
    rng = random.Random(43)
    out = []
    for _ in range(400):
        m, n = rng.randint(0, 9), rng.randint(0, 9)
        density = rng.random()
        out.append([[rng.randint(-30, 30) if rng.random() < density else 0 for _ in range(n)]
                    for _ in range(m)])
    return out


def transforms_digest(matrices):
    digest = hashlib.sha256()
    for mat in matrices:
        snf = smith_normal_form(mat, width(mat))
        digest.update(repr(tuple(tuple(map(tuple, part)) for part in dense_parts(snf))).encode())
    return digest.hexdigest()[:24]


# U, D and V, densified, as the dense-transform elimination produced them:
# the sparse layout changes the cost of each operation, never its result
@pytest.mark.parametrize("matrices, pin", [
    (random_matrices, "dd400ff371860759d477457e"),
    (lambda: [edge_rows(random.Random(32), 32, 6)], "95d4200dce3735e44991c55f"),   # 192 x 32
    (lambda: [edge_rows(random.Random(64), 64, 5)], "865a1ce5faa62a9ec8bdfb2c"),   # 320 x 64
    (lambda: [edge_rows(random.Random(48), 48, 5)], "594dd9d21e5b235284f27610"),   # 240 x 48
    (lambda: [block_union_rows(random.Random(s)) for s in range(8)], "f2882f5aca4b809b9c479369"),  # 42 x 42
])
def test_decompositions_are_unchanged_entry_for_entry(matrices, pin):
    assert transforms_digest(matrices()) == pin


def test_certificate_reads_every_stored_entry():
    rows = edge_rows(random.Random(37), 10, 4)                  # 40 x 10
    snf = smith_normal_form(rows, 10)
    logs = {"row_ops": [list(op) for op in snf.row_ops],
            "col_ops": [list(op) for op in snf.col_ops]}
    diagonal = list(snf.diagonal)

    def build(logs=logs, diagonal=diagonal):
        return SmithDecomposition(matrix=rows, width=10, diagonal=diagonal,
                                  **{name: map(tuple, ops) for name, ops in logs.items()})

    assert build() == snf
    # every logged operation with its factor, destination or source one higher
    forged = {}
    for name, ops in logs.items():
        forged[name] = 0
        for op in ops:
            for k in range(1, len(op)):
                op[k] += 1
                with pytest.raises(InvariantViolation):
                    build()
                op[k] -= 1
                forged[name] += 1
    # row log: 85 adds, 9 negations and 6 swaps; column log: 3 adds and 4 swaps
    assert forged == {"row_ops": 276, "col_ops": 17}
    for j in range(len(diagonal)):
        diagonal[j] += 1
        with pytest.raises(InvariantViolation):
            build()
        diagonal[j] -= 1
    for wrong in (diagonal + [0], diagonal[:-1]):
        with pytest.raises(InvariantViolation):
            build(diagonal=wrong)
    # dropping any one operation of either log breaks the product
    for name, ops in logs.items():
        for k in range(len(ops)):
            with pytest.raises(InvariantViolation):
                build({**logs, name: ops[:k] + ops[k + 1:]})
