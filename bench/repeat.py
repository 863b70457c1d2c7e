"""Repeat one workload over several seeds and report each metric's spread.

    python3 bench/repeat.py --workload library-mix --runs 10 --seconds 45

Runs ``run.py`` untraced once per seed (1, 2, ... ``--runs``), one run at a
time, and prints for every end-to-end metric the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median, plus the share of failed operations in each run.  The
bounds in BENCHMARK.json were set from this output: each end-to-end bound is
at least the widest spread seen for that metric, with room for a second set
of runs whose median differs from the first.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=45)
    args = parser.parse_args(argv)

    values: dict[str, list[float]] = {}
    shares = set()
    for seed in range(1, args.runs + 1):
        done = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                               "--workload", args.workload, "--seed", str(seed),
                               "--seconds", str(args.seconds), "--trace", "0"],
                              capture_output=True, text=True, timeout=200)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return 1
        result = json.loads(done.stdout.splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: answers failed their checks", file=sys.stderr)
            return 1
        shares.add((result["failed"], result["attempted"]))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(f"{name}={metric['value']:.4g}"
                                          for name, metric in result["metrics"].items()),
              flush=True)
    print(f"failed/attempted per run: {sorted(shares)}")
    print(f"{'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}")
    for name, series in values.items():
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4) if len(series) > 1 else (median,) * 3
        spread = (q3 - q1) / median if median else 0.0
        print(f"{name:28s} {median:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
