"""Self-test of the answer checks: each must reject a corrupted answer.

    PYTHONPATH=src python3 bench/selftest.py

Runs the program once on small seeded inputs of every workload, confirms that
the checks accept the true answers, then corrupts one answer at a time (a
wrong order, a dropped sigma, a perturbed matrix entry, a flipped verdict...)
and confirms that the check reports the problem it is meant to catch.  Exits
non-zero if any corruption slips through.
"""

from __future__ import annotations

import copy
import os
import shutil
import sys

import checks
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 7


def _first(cases, prefix):
    return next(c for c in cases if c["name"].startswith(prefix))


def _set(key, fn):
    def mutate(ans):
        ans[key] = fn(ans[key])
    return mutate


def _text(old, new):
    def mutate(ans):
        if old not in ans["stdout"]:
            raise AssertionError(f"corruption target {old!r} not in output")
        ans["stdout"] = ans["stdout"].replace(old, new, 1)
    return mutate


def _zero_an_entry(ans):
    """Zero the nonzero entry of column 0: the matrix becomes singular."""
    T = [list(row) for row in ans["assembled"][0]]
    row = next(r for r in range(len(T)) if T[r][0])
    T[row][0] = 0
    ans["assembled"][0] = tuple(map(tuple, T))


def _bump_scale(ans):
    sigma, scales = ans["lifted"][-1]
    ans["lifted"][-1] = (sigma, (scales[0] % 6 + 1,) + scales[1:])


def _swap_star_sigma(ans):
    sigma, _ = ans["lifted"].pop()
    ans["not_lifted"].append(sigma)


def _trade_sigma(ans):
    """Exchange a lifted sigma for a not-lifted one: the set stops being closed."""
    sigma, scales = ans["lifted"].pop()
    ans["lifted"].append((ans["not_lifted"][0], scales))
    ans["not_lifted"][0] = sigma


def _last_factor(fn):
    return _set("torsion", lambda t: t[:-1] + (fn(t[-1]),))


STAR = [
    ("star-k4-uniform", "wrong |U|", _set("group_order", lambda v: v + 1), "|U| ="),
    ("star-k4-uniform", "wrong |Diag|", _set("diag_order", lambda v: v * 2), "|Diag|"),
    ("star-k5-split2", "dropped sigma", lambda a: a["lifted"].pop(), "not all spoke"),
    ("star-k5-split2", "sigma moved to not lifted", _swap_star_sigma, "square-class rule"),
    ("star-k5-split2", "perturbed scale", _bump_scale, "square relations"),
    ("star-k5-split2", "non-closed lifted set", _trade_sigma, "closed under composition"),
    ("star-k4-uniform", "flipped completeness", _set("full", lambda v: not v), "completeness"),
]

DENSE = [
    ("dense-F7-n32", "free rank +1", _set("free", lambda v: v + 1), "free rank"),
    ("blocks-F7", "extra mu_2", _set("torsion", lambda t: (2,) + t), "divisible by 2"),
    ("blocks-Q", "3-part dropped", _last_factor(lambda d: d // 3), "divisible by 3"),
    ("blocks-Q", "extra 5-part", _last_factor(lambda d: d * 5), "product of blocks"),
    ("blocks-F7", "unordered torsion", _set("torsion", lambda t: t[::-1]), "ordered"),
    ("dense-F7-n64", "wrong order", _set("order", lambda v: v * 2 + 1), "order"),
]

ORACLE = [
    ("zero-F3-n3", "scan count +1", _set("scan_count", lambda v: v + 1), "independent count"),
    ("zero-F3-n3", "wrong |U|", _set("group_order", lambda v: v - 1), "|U| ="),
    ("zero-F3-n3", "dropped element", lambda a: a["assembled"].pop(), "|U| ="),
    ("zero-F3-n3", "zeroed matrix entry", _zero_an_entry, "not an automorphism"),
    ("zero-F3-n3", "coset disagreement", _set("coset_agree", lambda v: [False] + v[1:]),
     "twisted coset"),
    ("zero-F3-n3", "membership failure", _set("membership", lambda v: v[:-1] + [False]),
     "membership"),
    ("zero-F3-n3", "dropped sigma", lambda a: a["lifted"].pop(), "monomial scan"),
    ("zero-F3-n3", "flipped completeness", _set("full", lambda v: not v), "completeness"),
]

CLI = [
    ("diag cycle_with_ear_f7.alg", "wrong order", _text("order = 3", "order = 6"), "diag order"),
    ("diag cycle_with_ear_f7.alg", "perturbed element", _text("2,4,2,4,4", "2,4,2,4,3"),
     "x_u^2 = x_v"),
    ("diag star_spokes.alg", "wrong free rank", _text("(K^x)^1", "(K^x)^2"), "free rank"),
    ("aut three_cycle_loops.alg", "perturbed matrix entry",
     _text("[0,0,2; -1,0,0; 0,-1/2,0]", "[0,0,2; -1,0,0; 0,-1/3,0]"), "monomial map"),
    ("aut cubic_root_lift_f7.graph", "wrong scales and matrix",
     _text("scales: 2,4\n  matrix: [0,4; 2,0]", "scales: 2,3\n  matrix: [0,3; 2,0]"),
     "square relations"),
    ("aut star_spokes.alg", "dropped sigma",
     _text("lift: v1->v1 v2->v3 v3->v2 w->w\n  scales: 1,1,1,1\n"
           "  matrix: [1,0,0,0; 0,0,1,0; 0,1,0,0; 0,0,0,1]\n", ""), "graph automorphisms"),
    ("aut cycle_with_ear_f7.alg", "wrong group order", _text("group order = 3", "group order = 1"),
     "group order"),
    ("aut looped_star_lift.alg", "flipped completeness",
     _text("completeness: = Aut(A)", "completeness: subgroup of Aut(A)"), "completeness"),
    ("check chain_2li_n4.alg", "flipped verdict", _text("2LI: true", "2LI: false"),
     "stated result"),
    ("check cycle_with_ear.alg", "wrong witness", _text("sq(u4), sq(u5)", "sq(u3), sq(u5)"),
     "expected"),
    ("convert looped_star_lift.alg", "changed weight", _text("w=4", "w=3"), "different algebra"),
    ("oracle zero_algebra_n3.alg", "wrong scan count", _text("11232", "11233"),
     "independent count"),
    ("oracle two_loops_swap_f5.alg", "wrong coset count",
     _text("infeasible = 0 solutions", "infeasible = 1 solutions"), "twisted coset"),
    ("tate", "extra output line", lambda a: a.update(stdout=a["stdout"] + "x\n"), "expected"),
    ("chain", "wrong tuple count", _text("tuples = ", "tuples = 1"), "chain census"),
]


def answers_for(workload: str, cases) -> dict:
    """True answers, computed in process (as the traced run does)."""
    spec = workloads.WORKLOADS[workload]
    run = spec.run_in_process or spec.run
    return {case["name"]: spec.summarize(case, run(case)) for case in cases}


def check_large_prime(tmp: str) -> int:
    """The large-prime diag runs past its deadline today, but its output must
    be checked once it finishes.  diag does not depend on the weights, so the
    output for a weight of 3 on the same graph stands in for it."""
    case = workloads.large_prime_case(tmp)
    answer = answers_for("cli-samples", [workloads.large_prime_case(tmp, weight=3)])
    answer = next(iter(answer.values()))
    failures = 0
    problems = checks.check_cli(case, answer)
    if problems:
        failures += 1
        print(f"FAIL cli-samples {case['name']}: true answer rejected: {problems}")
    for label, mutate, expected in [
            ("wrong order", _text("order = 1", "order = 2"), "diag order"),
            ("wrong group", _text("Diag(A;B) = 1", "Diag(A;B) = mu_2(K)"), "divisible by 2"),
            ("nonzero exit", lambda a: a.update(code=1), "exit 1")]:
        bad = copy.deepcopy(answer)
        mutate(bad)
        problems = checks.check_cli(case, bad)
        caught = any(expected in p for p in problems)
        failures += not caught
        print(f"{'ok  ' if caught else 'FAIL'} cli-samples {case['name']}: {label} -> "
              f"{problems[0] if problems else 'accepted'}")
    return failures


def main() -> int:
    tmp = os.path.join(ROOT, ".bench_tmp", f"selftest-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    failures = 0
    try:
        plans = {"library-mix": STAR + DENSE + ORACLE, "cli-samples": CLI}
        for workload, corruptions in plans.items():
            cases = workloads.WORKLOADS[workload].generate(SEED, ROOT, tmp)
            check = workloads.WORKLOADS[workload].check
            needed = {_first(cases, prefix)["name"] for prefix, *_ in corruptions}
            chosen = [c for c in cases if c["name"] in needed]
            answers = answers_for(workload, chosen)
            for case in chosen:
                problems = check(case, answers[case["name"]])
                if problems:
                    failures += 1
                    print(f"FAIL {workload} {case['name']}: true answer rejected: {problems}")
            for prefix, label, mutate, expected in corruptions:
                case = _first(cases, prefix)
                bad = copy.deepcopy(answers[case["name"]])
                mutate(bad)
                problems = check(case, bad)
                caught = any(expected in p for p in problems)
                failures += not caught
                print(f"{'ok  ' if caught else 'FAIL'} {workload} {case['name']}: {label} -> "
                      f"{problems[0] if problems else 'accepted'}")
        failures += check_large_prime(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"{failures} check(s) failed to reject a corrupted answer" if failures
          else "every corrupted answer was rejected")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
