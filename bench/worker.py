"""Run one workload in this process: set up, time whole rounds, check answers.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``.
``--setup-only`` times the set-up (import plus input generation) and stops.
Otherwise the worker repeats the workload's fixed list of operations, in whole
rounds, until ``--seconds`` have passed and at least three rounds are done,
checks every answer, and prints one JSON line.  Between operations, every
``SETUP_PROBE_EVERY_S``, it times a fresh set-up in a new interpreter, so that
``setup_s`` samples the machine across the whole run.  With ``--trace 1`` it
runs the rounds in process, alternating untraced and traced rounds, and
reports the per-layer metrics with the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_ROUNDS = 3      # every operation gets at least three timings per run
SETUP_PROBE_EVERY_S = 1.5   # a fresh set-up this often in untraced runs


def setup(workload: str, seed: int, tmp: str):
    """Import evoaut and generate the inputs; returns (cases, setup s, import ms)."""
    t0 = time.perf_counter()
    import evoaut.cli
    t1 = time.perf_counter()
    expected = os.path.join(ROOT, "src", "evoaut")
    if os.path.dirname(os.path.abspath(evoaut.cli.__file__)) != expected:
        raise SystemExit(f"evoaut was imported from {evoaut.cli.__file__}, not {expected}")
    cases = workloads.WORKLOADS[workload].generate(seed, ROOT, tmp)
    return cases, time.perf_counter() - t0, (t1 - t0) * 1000


class SetupProbes:
    """Set-ups timed in fresh interpreters, one at most every SETUP_PROBE_EVERY_S.

    The host's speed drifts over seconds to minutes, so set-ups spread over
    the whole run, and the fastest of them, measure the set-up cost rather
    than the moment at which it was taken."""

    def __init__(self, argv: list[str], first_s: float):
        self.command = [sys.executable, os.path.abspath(__file__)] + argv + ["--setup-only"]
        self.times = [first_s]
        self.last = time.perf_counter()

    def maybe(self) -> None:
        if time.perf_counter() - self.last < SETUP_PROBE_EVERY_S:
            return
        done = subprocess.run(self.command, cwd=ROOT, capture_output=True, text=True,
                              timeout=60)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"a set-up probe exited {done.returncode}")
        self.times.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
        self.last = time.perf_counter()


class Rounds:
    """Whole rounds of the same operations, with times and answers kept.

    ``between`` runs after every operation, outside its timing."""

    def __init__(self, workload: workloads.Workload, cases, call, between=lambda: None):
        self.workload = workload
        self.cases = cases
        self.call = call
        self.between = between
        self.traced: list[bool] = []                            # per round
        self.times: list[list[float]] = [[] for _ in cases]     # per case, every round
        self.largest_k = next(k for k, case in enumerate(cases) if case.get("largest"))
        self.largest_times: list[float] = []                    # its repeats, untraced
        self.largest_answers: list = []
        self.failing: set[int] = set()
        self.attempted = 0
        self.failed = 0
        self.answers: list | None = None
        self.problems: list[str] = []
        self.notes: dict[str, str] = {}

    def run(self, seconds: float, tracer=None) -> None:
        """Whole rounds until ``seconds`` have passed and MIN_ROUNDS are done.

        With a tracer, rounds alternate untraced and traced, so that both
        kinds see the same machine conditions."""
        start = time.perf_counter()
        for done in itertools.count(1):
            traced = tracer is not None and done % 2 == 0
            if traced:
                tracer.install()
            try:
                self.one_round(tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            self.traced.append(traced)
            if done >= MIN_ROUNDS and time.perf_counter() - start >= seconds:
                return

    def attempt(self, case, tracer=None):
        """One timed operation: (seconds, plain answer, or None if it failed)."""
        # start each operation from a clean collector, as a fresh CLI
        # process would, so one operation's garbage is not timed in the next
        gc.collect()
        if tracer is not None:
            tracer.begin_op(self.attempted)
        t0 = time.perf_counter()
        try:
            raw = self.call(case)
            error = None
        except Exception as exc:   # an operation that fails is counted, not fatal
            raw, error = None, exc
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_op()
        self.between()
        self.attempted += 1
        if error is None:
            return elapsed, self.workload.summarize(case, raw)
        self.failed += 1
        fault = case.get("fault")
        self.notes[case["name"]] = f"{error}; fault: {fault}" if fault else repr(error)
        return elapsed, None

    def one_round(self, tracer) -> None:
        answers = []
        repeats = self.workload.largest_repeats
        spots = {len(self.cases) * (j + 1) // repeats - 1 for j in range(repeats)}
        for k, case in enumerate(self.cases):
            elapsed, answer = self.attempt(case, tracer)
            self.times[k].append(elapsed)
            if answer is None:
                self.failing.add(k)
            answers.append(answer)
            if k in spots:
                self.repeat_largest(tracer)
        if self.answers is None:
            self.answers = answers
        elif answers != self.answers:
            self.problems.append("answers differ between rounds")

    def repeat_largest(self, tracer) -> None:
        """Time the largest case once more, untraced, outside the pass that
        wall_s and op_p50_ms are taken from.  The repeats are spread through
        each round, so that largest_op_s rests on more timings, and on more
        moments of the machine's drift, than there are rounds."""
        if tracer is not None:
            tracer.uninstall()
        try:
            elapsed, answer = self.attempt(self.cases[self.largest_k])
        finally:
            if tracer is not None:
                tracer.install()
        if answer is not None:
            self.largest_times.append(elapsed)
            self.largest_answers.append(answer)

    def best(self, k: int, traced: bool = False) -> float:
        """Fastest time of operation k over the untraced (or traced) rounds.

        The operations are deterministic, and load from other tenants of a
        shared host only ever slows them, so the fastest repetition is the
        least disturbed measurement of their cost."""
        return min(t for t, on in zip(self.times[k], self.traced) if on == traced)

    def pass_time(self, traced: bool = False) -> float:
        """One pass over the operations, failed ones up to their deadline."""
        return sum(self.best(k, traced) for k in range(len(self.cases)))

    def op_median(self) -> float:
        return statistics.median(self.best(k) for k in range(len(self.cases))
                                 if k not in self.failing)

    def largest(self) -> float:
        return min([self.best(self.largest_k)] + self.largest_times)

    def check(self) -> None:
        """Check every answer; a failed operation has none, and counts in ``failed``."""
        for case, answer in zip(self.cases, self.answers):
            if answer is not None:
                self.problems += self.workload.check(case, answer)
        if any(answer != self.answers[self.largest_k] for answer in self.largest_answers):
            self.problems.append(f"{self.cases[self.largest_k]['name']}: "
                                 "a repeat answered differently")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    tmp = os.path.join(ROOT, ".bench_tmp", f"{args.workload}-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    try:
        cases, setup_s, import_ms = setup(args.workload, args.seed, tmp)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        result = run_traced(args, cases, import_ms) if args.trace \
            else run_untraced(args, cases, setup_s)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0


def _report(rounds: Rounds, metrics: dict) -> dict:
    rounds.check()
    for name, reason in sorted(rounds.notes.items()):
        print(f"failed: {name}: {reason}")
    for problem in rounds.problems:
        print(f"check failed: {problem}")
    return {"correct": not rounds.problems, "attempted": rounds.attempted,
            "failed": rounds.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def run_untraced(args, cases, setup_s: float) -> dict:
    workload = workloads.WORKLOADS[args.workload]
    probes = SetupProbes(["--workload", args.workload, "--seed", str(args.seed),
                          "--seconds", str(args.seconds)], setup_s)
    rounds = Rounds(workload, cases, workload.run, probes.maybe)
    rounds.run(args.seconds)
    # the probes are children too, but their peak is below that of the CLI calls
    who = resource.RUSAGE_CHILDREN if workload.run_in_process else resource.RUSAGE_SELF
    metrics = {
        "wall_s": (rounds.pass_time(), "s"),
        "op_p50_ms": (rounds.op_median() * 1000, "ms"),
        "largest_op_s": (rounds.largest(), "s"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
        "setup_s": (min(probes.times), "s"),
    }
    print(f"setup: fastest of {len(probes.times)} set-ups, "
          f"median {statistics.median(probes.times):.4f} s")
    return _report(rounds, metrics)


def run_traced(args, cases, import_ms: float) -> dict:
    from spans import PER_LAYER_METRICS, Tracer, unit_of

    workload = workloads.WORKLOADS[args.workload]
    rounds = Rounds(workload, cases, workload.run_in_process or workload.run)
    tracer = Tracer()
    rounds.run(args.seconds, tracer)
    untraced, traced = rounds.pass_time(), rounds.pass_time(traced=True)
    traced_rounds = sum(rounds.traced)
    values = tracer.layer_metrics(traced_rounds)
    values["cli.import_ms"] = import_ms
    values["trace.overhead_s"] = traced - untraced
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.write_spans(os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.tsv.gz"))
    print(f"trace: {traced_rounds} traced rounds, one pass {traced:.4f} s traced "
          f"against {untraced:.4f} s untraced in process")
    return _report(rounds, {name: (values[name], unit_of(name)) for name in PER_LAYER_METRICS})


if __name__ == "__main__":
    sys.exit(main())
