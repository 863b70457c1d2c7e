"""Answer checks computed apart from evoaut.

Nothing here imports evoaut.  Every expected value is derived from the raw
input (a structure matrix over F_p or Q) with plain integer and ``Fraction``
arithmetic: ranks by elimination, exhaustive scans at desk scale, and closed
formulas for the families the generators build.  Each ``check_*`` function
returns a list of problems; an empty list means the answer is accepted.

Matrices follow the program's column convention: ``M[j][i]`` is the
coefficient of e_j in e_i**2, and an edge u -> v exists when ``M[v][u] != 0``.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction

MATRIX_ORACLE_CAP = 10**8   # the CLI skips its matrix oracle above this size
SCAN_CAP = 20_000           # largest p^(n^2) this module scans itself
BIG_PRIME = (1 << 61) - 1


# -- arithmetic -------------------------------------------------------------

def reduce(x, p: int):
    """Canonical form of a number: residue in [0, p) over F_p, Fraction over Q."""
    if isinstance(x, int):
        return x % p if p else Fraction(x)
    x = Fraction(x)
    if p:
        return x.numerator * pow(x.denominator, -1, p) % p
    return x


def rank(rows, p: int) -> int:
    """Rank over F_p (p > 0) or over Q (p == 0) by Gaussian elimination."""
    if p == 0:
        r = rank(rows, BIG_PRIME)
        width = len(rows[0]) if rows else 0
        if r == min(len(rows), width):
            return r    # a full-rank minor mod a prime is nonzero over Z
        work = [[Fraction(x) for x in row] for row in rows]
        zero, inverse = Fraction(0), (lambda a: 1 / a)
    else:
        work = [[reduce(x, p) for x in row] for row in rows]
        zero, inverse = 0, (lambda a: pow(a, -1, p))
    r = 0
    width = len(work[0]) if work else 0
    for col in range(width):
        piv = next((i for i in range(r, len(work)) if work[i][col] != zero), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = inverse(work[r][col])
        prow = [x * inv for x in work[r]]
        if p:
            prow = [x % p for x in prow]
        work[r] = prow
        for i in range(r + 1, len(work)):
            f = work[i][col]
            if f != zero:
                row = [a - f * b for a, b in zip(work[i], prow)]
                work[i] = [a % p for a in row] if p else row
        r += 1
    return r


def edges(M) -> list[tuple[int, int]]:
    n = len(M)
    return [(u, v) for u in range(n) for v in range(n) if M[v][u] != 0]


def exponent_matrix(M) -> list[list[int]]:
    """One row 2*e_u - e_v per edge u -> v: the diagonal system x_u**2 == x_v."""
    n = len(M)
    rows = []
    for u, v in edges(M):
        row = [0] * n
        row[u] += 2
        row[v] -= 1
        rows.append(row)
    return rows


def diag_invariants(M) -> dict:
    """Free rank and per-prime torsion counts of the diagonal group.

    The group is Hom(Z^n / rowspace(A), K^x).  Its free rank is n - rank_Q(A),
    and the number of invariant factors divisible by l is
    rank_Q(A) - rank_F_l(A).
    """
    n = len(M)
    A = exponent_matrix(M)
    if not A:
        return {"free": n, "div2": 0, "div3": 0, "rank_q": 0, "rank2": 0, "rank3": 0}
    rq, r2, r3 = rank(A, 0), rank(A, 2), rank(A, 3)
    return {"free": n - rq, "div2": rq - r2, "div3": rq - r3,
            "rank_q": rq, "rank2": r2, "rank3": r3}


def parse_group(text: str):
    """'(K^x)^r x mu_d(K)^c x ...' into (free rank, torsion tuple)."""
    text = text.strip()
    if text == "1":
        return 0, ()
    free, torsion = 0, []
    for part in text.split(" x "):
        m = re.fullmatch(r"\(K\^x\)\^(\d+)", part)
        if m:
            free += int(m.group(1))
            continue
        m = re.fullmatch(r"mu_(\d+)\(K\)(?:\^(\d+))?", part)
        if not m:
            raise ValueError(f"unreadable group {text!r}")
        torsion += [int(m.group(1))] * int(m.group(2) or 1)
    return free, tuple(torsion)


def invariant_factors(elementary) -> tuple[int, ...]:
    """Invariant factors (divisibility order) of a direct sum of cyclic groups."""
    by_prime: dict[int, list[int]] = {}
    for d in elementary:
        for q, e in _factor_small(d).items():
            by_prime.setdefault(q, []).append(q ** e)
    length = max((len(v) for v in by_prime.values()), default=0)
    factors = [1] * length
    for powers in by_prime.values():
        powers.sort(reverse=True)
        for k, q_power in enumerate(powers):
            factors[length - 1 - k] *= q_power
    return tuple(d for d in factors if d > 1)


def _factor_small(d: int) -> dict[int, int]:
    out, q = {}, 2
    while q * q <= d:
        while d % q == 0:
            out[q] = out.get(q, 0) + 1
            d //= q
        q += 1
    if d > 1:
        out[d] = out.get(d, 0) + 1
    return out


def is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3 * 10^24."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for q in small:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def gl_order(n: int, p: int) -> int:
    """|GL_n(F_p)| = prod_{i<n} (p^n - p^i): the zero algebra's automorphism count."""
    return math.prod(p ** n - p ** i for i in range(n))


# -- algebra-level predicates and scans ---------------------------------------

def columns(M, p):
    n = len(M)
    return [[reduce(M[j][i], p) for j in range(n)] for i in range(n)]


def two_li_witness(M, p):
    """First pair (i, j), i < j, whose squares are linearly dependent."""
    cols = columns(M, p)
    for i, j in itertools.combinations(range(len(M)), 2):
        if rank([cols[i], cols[j]], p) < 2:
            return (i, j)
    return None


def structure_rank(M, p) -> int:
    return rank([[reduce(x, p) for x in row] for row in M], p)


def full_group_flag(M, p) -> bool:
    """The program's completeness rule: 2LI or invertible structure matrix."""
    return two_li_witness(M, p) is None or structure_rank(M, p) == len(M)


def graph_automorphisms(M) -> set[tuple[int, ...]]:
    """All vertex permutations preserving the unweighted edge set."""
    n = len(M)
    es = set(edges(M))
    return {s for s in itertools.permutations(range(n))
            if all((s[u], s[v]) in es for u, v in es)}


def monomial_relations_hold(M, p, sigma, scales) -> bool:
    """Does e_i -> x_i e_sigma(i) respect every square?

    Coefficientwise: x_i**2 * M[sigma j][sigma i] == M[j][i] * x_j.
    """
    n = len(M)
    xs = [reduce(x, p) for x in scales]
    if any(x == 0 for x in xs):
        return False
    for i in range(n):
        x2 = xs[i] * xs[i]
        for j in range(n):
            diff = x2 * reduce(M[sigma[j]][sigma[i]], p) - reduce(M[j][i], p) * xs[j]
            if (diff % p if p else diff) != 0:
                return False
    return True


def monomial_scan(M, p) -> dict[tuple[int, ...], int]:
    """Over F_p: number of scale vectors lifting each graph automorphism."""
    n = len(M)
    out = {}
    for sigma in sorted(graph_automorphisms(M)):
        out[sigma] = sum(1 for xs in itertools.product(range(1, p), repeat=n)
                         if monomial_relations_hold(M, p, sigma, xs))
    return out


def diag_solutions(M, p) -> list[tuple[int, ...]]:
    """Over F_p: every x in (F_p^x)^n with x_u**2 == x_v on each edge."""
    es = edges(M)
    return [xs for xs in itertools.product(range(1, p), repeat=len(M))
            if all(xs[u] * xs[u] % p == xs[v] for u, v in es)]


def is_automorphism_matrix(M, p, T) -> bool:
    """T (column i = image of e_i) is an invertible algebra homomorphism."""
    n = len(M)
    T = [[reduce(x, p) for x in row] for row in T]
    cols = columns(M, p)

    def product(a, b):
        out = [0] * n
        for k in range(n):
            c = a[k] * b[k]
            if c:
                for r in range(n):
                    out[r] += c * cols[k][r]
        return [x % p for x in out] if p else out

    images = [[T[r][i] for r in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i, n):
            lhs = product(images[i], images[j])
            if i == j:
                rhs = [sum(cols[i][k] * images[k][r] for k in range(n)) for r in range(n)]
                rhs = [x % p for x in rhs] if p else rhs
            else:
                rhs = [0] * n
            if lhs != rhs:
                return False
    return rank(T, p) == n


def automorphism_count(M, p):
    """Number of automorphism matrices over F_p, or None when out of reach."""
    n = len(M)
    if all(x == 0 for row in M for x in row):
        return gl_order(n, p)
    if p ** (n * n) > SCAN_CAP:
        return None
    return sum(1 for flat in itertools.product(range(p), repeat=n * n)
               if is_automorphism_matrix(M, p, [flat[r * n:(r + 1) * n] for r in range(n)]))


# -- text formats (the bench's own reader) -----------------------------------

def parse_input(text: str):
    """Algebra or graph file text into (p, labels, M); p == 0 means Q."""
    p, labels, entries, graph = None, None, {}, False
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tok = line.split()
        if tok[0] == "field":
            p = 0 if tok[1] == "Q" else int(tok[1][1:])
        elif tok[0] in ("basis", "vertices"):
            labels = tok[1:]
            graph = tok[0] == "vertices"
        elif tok[0] == "sq":
            target = labels.index(tok[1])
            for term in tok[3:]:
                if term != "+":
                    coeff, label = term.split("*")
                    entries[(labels.index(label), target)] = Fraction(coeff)
        elif tok[0] == "edge":
            src, dst = labels.index(tok[1]), labels.index(tok[3])
            entries[(dst, src)] = Fraction(tok[4][2:])
        else:
            raise ValueError(f"unknown line {line!r}")
    p = 0 if p is None else p
    n = len(labels)
    M = [[reduce(entries.get((j, i), 0), p) for i in range(n)] for j in range(n)]
    return p, labels, M, ("graph" if graph else "algebra")


def _sigma_from_text(labels, text: str) -> tuple[int, ...]:
    pairs = dict(item.split("->") for item in text.split())
    return tuple(labels.index(pairs[lab]) for lab in labels)


def _vector(text: str, p: int):
    return tuple(reduce(Fraction(x), p) for x in text.split(",") if x)


def _matrix(text: str, p: int):
    return [list(_vector(row.strip(), p)) for row in text.strip()[1:-1].split(";")]


def _field_tag(p: int) -> str:
    return f"F{p}" if p else "Q"


# -- diag group checks (shared by the dense algebras and the CLI) -----------

def check_group_shape(M, free: int, torsion, where: str) -> list[str]:
    inv = diag_invariants(M)
    problems = []
    if free != inv["free"]:
        problems.append(f"{where}: free rank {free}, expected n - rank_Q = {inv['free']}")
    if torsion != tuple(sorted(torsion)) or any(d < 2 for d in torsion):
        problems.append(f"{where}: torsion {torsion} is not an ordered factor list")
    for ell, key in ((2, "div2"), (3, "div3")):
        got = sum(1 for d in torsion if d % ell == 0)
        if got != inv[key]:
            problems.append(f"{where}: {got} factors divisible by {ell}, "
                            f"expected rank_Q - rank_F{ell} = {inv[key]}")
    return problems


def expected_diag_order(M, p):
    """|Diag| over F_7 from ranks, over Q from the shape; None when infinite."""
    inv = diag_invariants(M)
    n = len(M)
    if p == 0:
        if inv["free"]:
            return None
        return 2 ** inv["div2"]
    if p == 7:
        return 2 ** (n - inv["rank2"]) * 3 ** (n - inv["rank3"])
    raise ValueError("closed-form diagonal order is only used over Q and F_7")


# -- workload checks ------------------------------------------------------------

def check_star(case, ans) -> list[str]:
    """Stars: Legendre-class rule for lifts, |U| = |L| * |Diag|, closure."""
    p, M, w = case["p"], case["M"], case["weights"]
    spokes, sink = case["spokes"], case["sink"]
    k = len(spokes)
    problems = []
    chi = {s: pow(w[s], (p - 1) // 2, p) for s in spokes}
    all_sigmas = set()
    expected = set()
    for perm in itertools.permutations(spokes):
        sigma = [0] * len(M)
        sigma[sink] = sink
        for src, dst in zip(spokes, perm):
            sigma[src] = dst
        sigma = tuple(sigma)
        all_sigmas.add(sigma)
        # x_i^2 = x_w * w_i / w_sigma(i) is solvable for every spoke iff all
        # ratios lie in one square class
        if len({chi[s] * chi[sigma[s]] % p for s in spokes}) == 1:
            expected.add(sigma)
    lifted = {s for s, _ in ans["lifted"]}
    if len(lifted) != len(ans["lifted"]):
        problems.append("a sigma is listed twice")
    if lifted | set(ans["not_lifted"]) != all_sigmas:
        problems.append("lifted and not-lifted sigmas are not all spoke permutations")
    if lifted != expected:
        problems.append(f"lifted sigmas differ from the square-class rule "
                        f"({len(lifted)} vs {len(expected)})")
    diag = (p - 1) // 2 * 2 ** k
    if ans["diag_order"] != diag:
        problems.append(f"|Diag| = {ans['diag_order']}, expected {diag}")
    if ans["group_order"] != len(expected) * diag:
        problems.append(f"|U| = {ans['group_order']}, expected {len(expected) * diag}")
    if case["uniform"] and ans["group_order"] != math.factorial(k) * diag:
        problems.append("uniform star: |U| != k! * (p-1)/2 * 2^k")
    for sigma, scales in ans["lifted"]:
        if not monomial_relations_hold(M, p, sigma, scales):
            problems.append(f"lift {sigma} fails the square relations")
            break
    for a in lifted:
        if any(tuple(a[b[i]] for i in range(len(a))) not in lifted for b in lifted):
            problems.append("lifted sigmas are not closed under composition")
            break
    if ans["full"] != full_group_flag(M, p):
        problems.append("completeness flag disagrees with the 2LI/invertible rule")
    return problems


def check_dense(case, ans) -> list[str]:
    """Dense algebras: rank invariants, F_7 order, block unions against known groups."""
    p, M = case["p"], case["M"]
    problems = check_group_shape(M, ans["free"], ans["torsion"], case["name"])
    order = expected_diag_order(M, p)
    if ans["order"] != order:
        problems.append(f"{case['name']}: order {ans['order']}, expected {order}")
    blocks = case.get("blocks")
    if blocks is not None:
        free = sum(f for f, _ in blocks)
        torsion = invariant_factors([d for _, ds in blocks for d in ds])
        if (ans["free"], ans["torsion"]) != (free, torsion):
            problems.append(f"{case['name']}: got ({ans['free']}, {ans['torsion']}), "
                            f"product of blocks is ({free}, {torsion})")
        if p:
            block_order = (p - 1) ** free * math.prod(math.gcd(d, p - 1) for _, ds in blocks
                                                      for d in ds)
            if ans["order"] != block_order:
                problems.append(f"{case['name']}: order {ans['order']} != "
                                f"product of block orders {block_order}")
    return problems


def check_oracle(case, ans) -> list[str]:
    """Oracle corpus: monomial scan, matrix membership, scan count identities."""
    p, M, name = case["p"], case["M"], case["name"]
    problems = []
    scan = monomial_scan(M, p)
    expected_lifted = {s for s, c in scan.items() if c}
    if set(ans["lifted"]) != expected_lifted:
        problems.append(f"{name}: lifted sigmas differ from the monomial scan")
    if set(ans["lifted"]) | set(ans["not_lifted"]) != set(scan):
        problems.append(f"{name}: sigmas are not the graph automorphisms")
    if not all(ans["coset_agree"]) or len(ans["coset_agree"]) != len(scan):
        problems.append(f"{name}: a twisted coset disagrees with the exhaustive scan")
    monomial_total = sum(scan.values())
    if ans["group_order"] != monomial_total or len(ans["assembled"]) != monomial_total:
        problems.append(f"{name}: |U| = {ans['group_order']} with "
                        f"{len(ans['assembled'])} elements, monomial scan {monomial_total}")
    if len(set(ans["assembled"])) != len(ans["assembled"]):
        problems.append(f"{name}: an assembled element repeats")
    if not all(ans["membership"]) or len(ans["membership"]) != len(ans["assembled"]):
        problems.append(f"{name}: an assembled element failed the membership test")
    if not all(is_automorphism_matrix(M, p, T) for T in ans["assembled"]):
        problems.append(f"{name}: an assembled matrix is not an automorphism")
    if ans["full"] != full_group_flag(M, p):
        problems.append(f"{name}: completeness flag disagrees with the 2LI/invertible rule")
    count = ans["scan_count"]
    if count < len(ans["assembled"]):
        problems.append(f"{name}: scan found {count} < {len(ans['assembled'])} assembled")
    if ans["full"] and count != len(ans["assembled"]):
        problems.append(f"{name}: full group flagged but scan {count} != "
                        f"assembled {len(ans['assembled'])}")
    own = automorphism_count(M, p)
    if own is not None and own != count:
        problems.append(f"{name}: scan count {count}, independent count {own}")
    return problems


# -- cli-samples ----------------------------------------------------------------

# Results the sample files state in their own comments.
SAMPLE_CLAIMS = {
    ("diag", "cycle_with_ear.alg"): ["Diag(A;B) = mu_3(K)"],
    ("diag", "cycle_with_ear_f5.alg"): ["Diag(A;B) = mu_3(K)"],
    ("diag", "cycle_with_ear_f7.alg"): ["Diag(A;B) = mu_3(K)"],
    ("diag", "loop_chain_n3.alg"): ["Diag(A;B) = mu_4(K)"],
    ("diag", "star_spokes.alg"): ["Diag(A;B) = (K^x)^1 x mu_2(K)^2"],
    ("check", "loop_chain_n3.alg"): ["invertible: false", "2LI: false"],
    ("check", "chain_2li_n4.alg"): ["2LI: true"],
    ("aut", "three_cycle_loops.alg"): ["lift: u1->u2 u2->u3 u3->u1", "  scales: -1,-1/2,2",
                                       "lift: u1->u3 u2->u1 u3->u2"],
    ("aut", "two_loops_swap.alg"): ["not lifted: u1->u2 u2->u1 (system infeasible)"],
    ("aut", "two_loops_swap_f5.alg"): ["not lifted: u1->u2 u2->u1 (system infeasible)"],
    ("aut", "cubic_root_lift_f7.graph"): ["lift: u1->u2 u2->u1"],
    ("aut", "looped_star_lift.alg"): ["lift: u0->u0 u1->u2 u2->u1", "  scales: 1,1/2,2"],
    ("aut", "zero_algebra_n3.alg"): ["completeness: subgroup of Aut(A)"],
    ("oracle", "zero_algebra_n3.alg"): ["equality: FAIL as expected"],
    ("check-vector", "char2_equal_squares.alg"): ["natural(1,1,1): false"],
}


def _claims(command, sample, out) -> list[str]:
    lines = out.splitlines()
    return [f"{command} {sample}: stated result {claim!r} missing"
            for claim in SAMPLE_CLAIMS.get((command, sample), [])
            if not any(line.startswith(claim) for line in lines)]


def check_cli(case, ans) -> list[str]:
    """One CLI invocation: exit code, then the command-specific answer check."""
    if ans["code"] != 0:
        return [f"{case['name']}: exit {ans['code']}"]
    command, out = case["command"], ans["stdout"]
    try:
        if command in ("tate", "chain"):
            return CLI_CHECKS[command](case, out)
        with open(case["path"], encoding="utf-8") as handle:
            source = handle.read()
        problems = CLI_CHECKS[command](source, out)
    except (ValueError, IndexError, KeyError) as exc:
        return [f"{case['name']}: unreadable output ({exc!r})"]
    key = "check-vector" if case.get("vector") else command
    return [f"{case['name']}: {msg}" for msg in problems] + _claims(key, case["sample"], out)


def _diag_lines(M, p, desc: str, order_text: str) -> list[str]:
    free, torsion = parse_group(desc)
    problems = check_group_shape(M, free, torsion, "diag")
    if p:
        expected = len(diag_solutions(M, p))
    else:
        expected = expected_diag_order(M, 0)
    shown = None if order_text == "infinite" else int(order_text)
    if shown != expected:
        problems.append(f"diag order {order_text}, expected {expected}")
    return problems


def cli_diag(source: str, out: str) -> list[str]:
    p, _, M, _ = parse_input(source)
    lines = out.splitlines()
    problems = _diag_lines(M, p, lines[0].split(" = ", 1)[1], lines[1].split(" = ", 1)[1])
    if "elements:" in lines:
        listed = [_vector(x.strip(), p) for x in lines[lines.index("elements:") + 1:]]
        es = edges(M)
        if any(x[u] * x[u] % p != x[v] for x in listed for u, v in es):
            problems.append("a listed element breaks x_u^2 = x_v")
        if sorted(listed) != diag_solutions(M, p):
            problems.append("listed elements are not all diagonal solutions")
    elif p and len(diag_solutions(M, p)) <= 256:
        problems.append("elements missing over F_p")
    return problems


def cli_aut(source: str, out: str) -> list[str]:
    p, labels, M, _ = parse_input(source)
    lines = out.splitlines()
    problems = []
    if lines[0] != f"field: {_field_tag(p)}":
        problems.append(f"wrong field line {lines[0]!r}")
    problems += _diag_lines(M, p, lines[1].split(" = ", 1)[1], lines[2].split(" = ", 1)[1])
    lifted, not_lifted = [], []
    k = 3
    while lines[k].startswith("lift: "):
        sigma = _sigma_from_text(labels, lines[k][6:])
        scales = _vector(lines[k + 1].split(": ", 1)[1], p)
        T = _matrix(lines[k + 2].split(": ", 1)[1], p)
        expected_T = [[0] * len(M) for _ in M]
        for i, s in enumerate(sigma):
            expected_T[s][i] = scales[i]
        if T != expected_T:
            problems.append(f"matrix of lift {sigma} is not the monomial map of its scales")
        if not is_automorphism_matrix(M, p, T):
            problems.append(f"matrix of lift {sigma} fails the square relations")
        lifted.append(sigma)
        k += 3
    while lines[k].startswith("not lifted: "):
        not_lifted.append(_sigma_from_text(labels, lines[k][12:].split(" (")[0]))
        k += 1
    if set(lifted) | set(not_lifted) != graph_automorphisms(M) \
            or len(lifted) + len(not_lifted) != len(graph_automorphisms(M)):
        problems.append("listed sigmas are not the graph automorphisms")
    if lines[k] != f"quotient order = {len(lifted)}":
        problems.append(f"{lines[k]!r} but {len(lifted)} lifts listed")
    order_text = lines[k + 1].split(" = ", 1)[1]
    if p:
        scan = monomial_scan(M, p)
        if set(lifted) != {s for s, c in scan.items() if c}:
            problems.append("lifted sigmas differ from the monomial scan")
        expected = sum(scan.values())
    else:
        diag = expected_diag_order(M, 0)
        expected = None if diag is None else diag * len(lifted)
    if order_text != ("infinite" if expected is None else str(expected)):
        problems.append(f"group order {order_text}, expected {expected}")
    full = "= Aut(A)" if full_group_flag(M, p) else "subgroup of Aut(A)"
    if lines[k + 2] != f"completeness: {full}":
        problems.append(f"{lines[k + 2]!r}, expected completeness: {full}")
    return problems


def cli_check(source: str, out: str) -> list[str]:
    p, labels, M, _ = parse_input(source)
    n = len(M)
    witness = two_li_witness(M, p)
    full_rank = structure_rank(M, p) == n
    expected = {
        "Sing": "true",
        "2LI": "true" if witness is None else
               f"false (witness: sq({labels[witness[0]]}), sq({labels[witness[1]]}))",
        "nondegenerate": "true" if all(any(M[j][i] for j in range(n)) for i in range(n))
                         else "false",
        "perfect": "true" if full_rank else "false",
        "invertible": "true" if full_rank else "false",
    }
    got = dict(line.split(": ", 1) for line in out.splitlines())
    return [f"{key}: {got.get(key)!r}, expected {value!r}"
            for key, value in expected.items() if got.get(key) != value]


def cli_convert(source: str, out: str) -> list[str]:
    p, labels, M, kind = parse_input(source)
    p2, labels2, M2, kind2 = parse_input(out)
    problems = []
    if kind2 == kind:
        problems.append(f"convert kept the {kind} format")
    if (p2, labels2, M2) != (p, labels, M):
        problems.append("converted text describes a different algebra")
    return problems


def cli_oracle(source: str, out: str) -> list[str]:
    p, _, M, _ = parse_input(source)
    lines = out.splitlines()
    problems = []
    diag = len(diag_solutions(M, p))
    if lines[0] != f"diag solutions: PASS ({diag} = {diag})":
        problems.append(f"{lines[0]!r}, expected {diag} diagonal solutions")
    scan = monomial_scan(M, p)
    expected = [f"twisted coset sigma={','.join(map(str, s))}: PASS ({c} = {c})"
                for s, c in scan.items() if c]
    expected += [f"twisted coset sigma={','.join(map(str, s))}: PASS (infeasible = 0 solutions)"
                 for s, c in scan.items() if not c]
    cosets = [line for line in lines if line.startswith("twisted coset")]
    if sorted(cosets) != sorted(expected):
        problems.append("twisted coset lines disagree with the monomial scan")
    rest = lines[1 + len(cosets):]
    n = len(M)
    if p ** (n * n) > MATRIX_ORACLE_CAP:
        if not rest or not rest[0].startswith("full group oracle: skipped"):
            problems.append("matrix oracle should be skipped above the cap")
        return problems
    assembled = sum(scan.values())
    m = re.fullmatch(r"containment: PASS \((\d+) <= (\d+)\)", rest[0])
    if not m or int(m.group(1)) != assembled:
        return problems + [f"{rest[0]!r}, expected {assembled} assembled"]
    count = int(m.group(2))
    own = automorphism_count(M, p)
    if own is not None and count != own:
        problems.append(f"matrix scan count {count}, independent count {own}")
    if full_group_flag(M, p) or assembled == count:
        ok = rest[1].startswith("equality: PASS") and assembled == count
    else:
        ok = rest[1] == (f"equality: FAIL as expected (subgroup only; "
                         f"{assembled} < {count})")
    if not ok:
        problems.append(f"{rest[1]!r} does not match {assembled} vs {count}")
    return problems


def cli_tate(case, out: str) -> list[str]:
    field = case["field"]
    if field in ("acl-not2", "Q-zeta2inf"):
        expected = "T_2(K^x) = Z_2"
    else:
        p = 0 if field == "Q" else int(field[1:])
        index = 1 if p == 0 else (0 if p == 2 else _two_adic(p - 1))
        expected = f"T_2(K^x) = 1 (stationary index {index})"
    return [] if out == expected + "\n" else [f"{case['name']}: {out!r}, expected {expected!r}"]


def _two_adic(m: int) -> int:
    return (m & -m).bit_length() - 1


def cli_chain(case, out: str) -> list[str]:
    p, exps, anchor = case["p"], case["exps"], case["anchor"]
    n = len(exps)
    chains = []
    for deep in range(1, p):
        chain = [deep] * n
        for i in range(n - 2, -1, -1):
            chain[i] = pow(chain[i + 1], exps[i + 1], p)
        if anchor is None or pow(chain[0], exps[0], p) == anchor % p:
            chains.append(tuple(chain))
    chains.sort()
    sets = [{c[i] for c in chains} for i in range(n)]
    stab = n
    while stab > 1 and sets[stab - 2] == sets[stab - 1]:
        stab -= 1
    lines = [f"field: F{p}", f"exponents: {','.join(map(str, exps))}"]
    if anchor is not None:
        lines.append(f"anchor: {anchor % p}")
    lines.append(f"tuples = {len(chains)}")
    lines += ["  " + ",".join(map(str, c)) for c in chains]
    lines.append(f"stabilization depth = {stab}")
    expected = "\n".join(lines) + "\n"
    return [] if out == expected else [f"{case['name']}: chain census differs"]


CLI_CHECKS = {"diag": cli_diag, "aut": cli_aut, "check": cli_check,
              "convert": cli_convert, "oracle": cli_oracle,
              "tate": cli_tate, "chain": cli_chain}

LIBRARY_CHECKS = {"star": check_star, "dense": check_dense, "oracle": check_oracle}


def check_library(case, ans) -> list[str]:
    return LIBRARY_CHECKS[case["kind"]](case, ans)

