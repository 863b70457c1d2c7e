"""The two workloads: seeded input generators and the operations they time.

``cli-samples`` runs every evoaut command on ``samples/`` in fresh processes.
``library-mix`` calls the library in process on three families of seeded
inputs: stars through ``assemble_aut``, dense algebras through
``diag_group``, and a small criterion-7 corpus through the brute-force
oracles.  Generators build file text (the format ``evoaut`` reads) together
with the raw structure matrix and whatever the answer checks need, using only
``random``.  Each workload has a fixed list of cases whose sizes do not depend
on the seed; the seed picks weights, edge positions, vertex order and
arguments, so the cost stays level across seeds while the inputs change.

Operations start from the file text, as the CLI does, so parsing and scalar
construction count.  They call evoaut through module attributes looked up at
call time (``files.parse_algebra``), which is where the traced run installs
its wrappers.  ``summarize`` turns a program result into plain data for the
checks, outside the timed region.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from typing import Callable, NamedTuple

import checks
from checks import is_probable_prime

F7 = 7
CLI_DEADLINE_S = 60.0       # generous cap for an ordinary CLI call
FAILING_DEADLINE_S = 1.0    # the large-prime diag: over 10 s today; other diags take 0.15 s
LARGE_PRIME = 1000000000000000003
# The largest CLI case takes about as long as process start, so its fastest
# time over a few rounds is noisy; five extra timings spread through each
# round steady it.
LARGEST_REPEATS_CLI = 5


# -- text builders --------------------------------------------------------------

def algebra_text(p: int, labels, M) -> str:
    """Algebra-file text for structure matrix M (M[j][i]: e_j in e_i**2)."""
    n = len(M)
    lines = [f"field {'F%d' % p if p else 'Q'}", "basis " + " ".join(labels)]
    for i in range(n):
        terms = [f"{M[j][i]}*{labels[j]}" for j in range(n) if M[j][i] != 0]
        if terms:
            lines.append(f"sq {labels[i]} = " + " + ".join(terms))
    return "\n".join(lines) + "\n"


def _case(name: str, p: int, M, rng, kind: str, largest=False, **extra) -> dict:
    labels = [f"b{k}" for k in range(len(M))]
    rng.shuffle(labels)
    return dict(name=name, kind=kind, p=p, M=M, labels=labels,
                text=algebra_text(p, labels, M), largest=largest, **extra)


def _permuted(M, perm):
    """Relabel basis element i as perm[i]."""
    n = len(M)
    out = [[0] * n for _ in range(n)]
    for j in range(n):
        for i in range(n):
            out[perm[j]][perm[i]] = M[j][i]
    return out


# -- stars: assemble_aut -----------------------------------------------------

def _star_matrix(weights, sink):
    n = len(weights) + 1
    spokes = [v for v in range(n) if v != sink]
    M = [[0] * n for _ in range(n)]
    for s, w in zip(spokes, weights):
        M[sink][s] = w
    return M, spokes


def star_cases(seed) -> list[dict]:
    """Uniform stars with k = 3..5 spokes and stars whose spoke weights split
    into square classes of sizes 2+3 and 3+3, so only class-respecting sigma
    lift."""
    rng = random.Random(seed)
    squares = sorted({x * x % F7 for x in range(1, F7)})
    non_squares = [x for x in range(1, F7) if x not in squares]
    shapes = [(3, 0), (4, 0), (5, 0), (5, 2), (6, 3)]
    cases = []
    for k, minority in shapes:
        uniform = minority == 0
        if uniform:
            weights = [rng.randrange(1, F7)] * k
        else:
            weights = ([rng.choice(non_squares) for _ in range(minority)]
                       + [rng.choice(squares) for _ in range(k - minority)])
            rng.shuffle(weights)
        sink = rng.randrange(k + 1)
        M, spokes = _star_matrix(weights, sink)
        w = {s: M[sink][s] for s in spokes}
        name = f"star-k{k}-" + ("uniform" if uniform else f"split{minority}")
        cases.append(_case(name, F7, M, rng, kind="star", weights=w, spokes=spokes,
                           sink=sink, uniform=uniform))
    return cases


def run_star(case):
    from evoaut import autgroup, files
    return autgroup.assemble_aut(files.parse_algebra(case["text"]))


def summarize_star(case, pres) -> dict:
    return {"lifted": [(ga.sigma, tuple(x.residue for x in lift.scales))
                       for ga, lift in pres.lifted],
            "not_lifted": [ga.sigma for ga in pres.not_lifted],
            "diag_order": pres.diag.concrete_order(),
            "group_order": pres.group_order(),
            "full": pres.full_automorphism_group}


# -- dense algebras: diag_group ----------------------------------------------

def _next_prime(n: int) -> int:
    while not is_probable_prime(n):
        n += 1
    return n


def _dense_matrix(rng, n, out_degree, weight):
    """Every basis square has exactly ``out_degree`` terms at seeded positions.

    A fixed out-degree keeps the exponent matrix at n * out_degree rows and
    holds the SNF cost level from seed to seed."""
    M = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in rng.sample(range(n), out_degree):
            M[j][i] = weight()
    return M


# Blocks with known diagonal groups: (free rank, elementary divisors).
def _loop_chain(n):        # u1^2 = u1, u_{i+1}^2 = u_i: mu_{2^(n-1)}
    M = [[0] * n for _ in range(n)]
    M[0][0] = 1
    for i in range(1, n):
        M[i - 1][i] = 1
    return M, (0, (2 ** (n - 1),))


def _cycle(n):             # u_i^2 = u_{i+1} around an n-cycle: mu_{2^n - 1}
    M = [[0] * n for _ in range(n)]
    for i in range(n):
        M[(i + 1) % n][i] = 1
    return M, (0, (2 ** n - 1,))


def _cycle_with_ear():     # 1->2->3->4->1 plus 1->5->1: mu_3
    M = [[0] * 5 for _ in range(5)]
    for u, v in ((0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 0)):
        M[v][u] = 1
    return M, (0, (3,))


def _star(k):              # k spokes into a sink: (K^x)^1 x mu_2^(k-1)
    M, _ = _star_matrix([1] * k, k)
    return M, (1, (2,) * (k - 1))


BLOCKS = [_loop_chain(2), _loop_chain(3), _loop_chain(4), _loop_chain(5),
          _cycle(2), _cycle(3), _cycle(4), _cycle_with_ear(), _cycle_with_ear(),
          _star(3), _star(4)]


def _block_union(rng, p):
    order = list(range(len(BLOCKS)))
    rng.shuffle(order)
    n = sum(len(BLOCKS[b][0]) for b in order)
    M = [[0] * n for _ in range(n)]
    at = 0
    for b in order:
        block, _ = BLOCKS[b]
        size = len(block)
        for j in range(size):
            for i in range(size):
                if block[j][i]:
                    M[at + j][at + i] = rng.randrange(1, p) if p else rng.choice([-2, -1, 1, 3])
        at += size
    perm = list(range(n))
    rng.shuffle(perm)
    return _permuted(M, perm), [BLOCKS[b][1] for b in order]


def dense_cases(seed) -> list[dict]:
    """Dense random algebras (F_7 and Q, dimension 32-64, a few hundred edges)
    and block unions whose diagonal groups are known and nontrivial."""
    rng = random.Random(seed)
    f7 = lambda: rng.randrange(1, F7)
    small_q = lambda: rng.choice([-3, -2, -1, 1, 2, 3, 5])
    cases = [_case("dense-F7-n32-e192", F7, _dense_matrix(rng, 32, 6, f7), rng, kind="dense"),
             _case("dense-F7-n64-e320", F7, _dense_matrix(rng, 64, 5, f7), rng, kind="dense",
                   largest=True)]
    M = _dense_matrix(rng, 48, 5, small_q)
    # 10-, 12- and 14-digit primes: diag never needs them factored, but the
    # scalar layer factors every coefficient when it parses the file
    nonzero = [(j, i) for j in range(48) for i in range(48) if M[j][i]]
    for (j, i), base in zip(rng.sample(nonzero, 3), (10**9, 10**11, 10**13)):
        M[j][i] = _next_prime(base + rng.randrange(10**6)) * rng.choice([-1, 1])
    cases.append(_case("dense-Q-n48-e240-primes", 0, M, rng, kind="dense"))
    for p in (F7, 0):
        M, blocks = _block_union(rng, p)
        cases.append(_case(f"blocks-{'F7' if p else 'Q'}-n{len(M)}", p, M, rng,
                           kind="dense", blocks=blocks))
    return cases


def run_dense(case):
    from evoaut import autgroup, files
    return autgroup.diag_group(files.parse_algebra(case["text"]))


def summarize_dense(case, group) -> dict:
    return {"free": group.free_rank, "torsion": tuple(group.torsion),
            "order": group.concrete_order()}


# -- oracle corpus: the brute-force oracles ----------------------------------

def oracle_cases(seed) -> list[dict]:
    """Criterion-7 shapes (density 0.5) with p^(n^2) <= 5^9, and the zero
    algebra of dimension 3 over F_3, whose count is |GL_3(F_3)|."""
    rng = random.Random(seed)
    shapes = [(5, 3)] * 2 + [(7, 2)] * 2 + [(3, 3)] * 2 + [(2, 4)]
    cases = [_case("zero-F3-n3", 3, [[0] * 3 for _ in range(3)], rng, kind="oracle")]
    for k, (p, n) in enumerate(shapes):
        M = [[rng.randrange(1, p) if rng.random() < 0.5 else 0 for _ in range(n)]
             for _ in range(n)]
        cases.append(_case(f"random-F{p}-n{n}-{k}", p, M, rng, kind="oracle"))
    return cases


def run_oracle(case):
    """assemble_aut, every twisted coset against the exhaustive scan, the
    matrix scan count, and membership of every assembled element."""
    from evoaut import autgroup, files, monomial
    algebra = files.parse_algebra(case["text"])
    pres = autgroup.assemble_aut(algebra)
    agree = []
    for ga in [ga for ga, _ in pres.lifted] + list(pres.not_lifted):
        system = autgroup.twisted_system(algebra, ga.sigma)
        coset = monomial.solve_inhomogeneous(system)
        agree.append(coset.elements() == monomial.enumerate_solutions_bruteforce(system))
    count = autgroup.bruteforce_aut_count(algebra)
    matrices = [f.residue_matrix() for f in pres.monomial_elements()]
    membership = [autgroup.is_automorphism_matrix(algebra, T) for T in matrices]
    return pres, agree, count, matrices, membership


def summarize_oracle(case, result) -> dict:
    pres, agree, count, matrices, membership = result
    return {"lifted": [ga.sigma for ga, _ in pres.lifted],
            "not_lifted": [ga.sigma for ga in pres.not_lifted],
            "coset_agree": agree, "scan_count": count,
            "assembled": [tuple(map(tuple, T)) for T in matrices],
            "membership": membership, "group_order": pres.group_order(),
            "full": pres.full_automorphism_group}


# -- library-mix ------------------------------------------------------------------

def library_cases(seed: int, root: str, tmp: str) -> list[dict]:
    """Stars, dense algebras and the oracle corpus, each from its own stream."""
    return (star_cases(f"star-{seed}") + dense_cases(f"dense-{seed}")
            + oracle_cases(f"oracle-{seed}"))


RUNNERS = {"star": (run_star, summarize_star), "dense": (run_dense, summarize_dense),
           "oracle": (run_oracle, summarize_oracle)}


def run_library(case):
    return RUNNERS[case["kind"]][0](case)


def summarize_library(case, result) -> dict:
    return RUNNERS[case["kind"]][1](case, result)


# -- cli-samples ----------------------------------------------------------------

def cli_cases(seed: int, root: str, tmp: str) -> list[dict]:
    """Every command on every sample, oracle on the F_p samples, a few tate
    and chain calls, and one diag that fails today (large-prime Q weight)."""
    rng = random.Random(seed)
    sample_dir = os.path.join(root, "samples")
    samples = sorted(os.listdir(sample_dir))
    cases = []
    for sample in samples:
        path = os.path.join("samples", sample)
        with open(os.path.join(sample_dir, sample), encoding="utf-8") as handle:
            prime_field = "field F" in handle.read()
        commands = ["diag", "aut", "check", "convert"] + (["oracle"] if prime_field else [])
        for command in commands:
            cases.append(dict(name=f"{command} {sample}", command=command, sample=sample,
                              path=path, argv=[command, path],
                              largest=(command, sample) == ("oracle", "zero_algebra_n3.alg")))
    path = os.path.join("samples", "char2_equal_squares.alg")
    cases.append(dict(name="check --vector 1,1,1 char2_equal_squares.alg", command="check",
                      sample="char2_equal_squares.alg", path=path, vector=True,
                      argv=["check", path, "--vector", "1,1,1"]))
    for field in rng.sample(["F3", "F5", "F13", "F17", "F41", "F97"], 2) + \
            [rng.choice(["Q", "acl-not2", "Q-zeta2inf"])]:
        cases.append(dict(name=f"tate {field}", command="tate", field=field,
                          argv=["tate", "--field", field]))
    for _ in range(3):
        p = rng.choice([7, 11, 13, 17, 19, 23])
        exps = [rng.choice([2, 3]) for _ in range(rng.randint(2, 4))]
        anchor = rng.choice([None, 1, rng.randrange(1, p)])
        argv = ["chain", "--field", f"F{p}", "--exp", ",".join(map(str, exps))]
        if anchor is not None:
            argv += ["--anchor", str(anchor)]
        cases.append(dict(name="chain " + " ".join(argv[1:]), command="chain", p=p,
                          exps=exps, anchor=anchor, argv=argv))
    cases.append(large_prime_case(tmp))
    rng.shuffle(cases)
    return cases


def large_prime_case(tmp: str, weight: int = LARGE_PRIME) -> dict:
    """diag on a 2-dimensional Q algebra with one large prime weight.

    QScalar factors every coefficient by trial division on construction,
    which diag never needs, so today this call runs past its deadline on
    every seed (the input is fixed) and counts as failed.  Once it finishes,
    its output is checked like any other diag."""
    sample = "large_prime_q.alg" if weight == LARGE_PRIME else f"weight_{weight}_q.alg"
    path = os.path.join(tmp, sample)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(algebra_text(0, ["u1", "u2"], [[1, 0], [weight, 1]]))
    return dict(name=f"diag {sample}", command="diag", sample=sample, path=path,
                argv=["diag", path], deadline_s=FAILING_DEADLINE_S,
                fault="eager trial-division factorize in QScalar.__init__ "
                      "(src/evoaut/scalar.py) runs on every Q coefficient; "
                      "diag never needs the factorization")


class Deadline(Exception):
    """An operation ran past its deadline."""


def run_cli_subprocess(case):
    """One evoaut command in a fresh interpreter: process start included.

    The child inherits this process's environment, whose PYTHONPATH names
    the checkout's src."""
    deadline = case.get("deadline_s", CLI_DEADLINE_S)
    try:
        done = subprocess.run([sys.executable, "-m", "evoaut.cli"] + case["argv"],
                              capture_output=True, text=True, timeout=deadline)
    except subprocess.TimeoutExpired:
        raise Deadline(f"ran past its {deadline:g} s deadline") from None
    return done.returncode, done.stdout


def run_cli_inprocess(case):
    """The same command through evoaut.cli.main in this process (traced run)."""
    import contextlib
    import io
    import signal

    from evoaut import cli

    deadline = case.get("deadline_s", CLI_DEADLINE_S)

    def expire(signum, frame):
        raise Deadline(f"ran past its {deadline:g} s deadline")

    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, deadline)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(case["argv"])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue()


def summarize_cli(case, result) -> dict:
    code, stdout = result
    return {"code": code, "stdout": stdout}


class Workload(NamedTuple):
    """How a workload makes its cases, runs one, and checks the answer.

    ``run`` is what the timed rounds call.  ``run_in_process``, when set,
    replaces it in the traced run, which must see every call; it also marks
    ``run`` as starting child processes, whose peak memory is reported.
    ``largest_repeats`` more timings of the largest case are spread through
    each round, untraced and left out of the pass that ``wall_s`` and
    ``op_p50_ms`` are taken from."""
    generate: Callable      # (seed, root, tmp) -> list of cases
    run: Callable           # case -> raw result
    run_in_process: Callable | None
    summarize: Callable     # (case, raw result) -> plain data, untimed
    check: Callable         # (case, plain data) -> list of problems
    largest_repeats: int    # extra timings of the largest case per round


WORKLOADS = {
    "cli-samples": Workload(cli_cases, run_cli_subprocess, run_cli_inprocess,
                            summarize_cli, checks.check_cli, LARGEST_REPEATS_CLI),
    "library-mix": Workload(library_cases, run_library, None,
                            summarize_library, checks.check_library, 0),
}
