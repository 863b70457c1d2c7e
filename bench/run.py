"""evoaut benchmark: one workload, one seed, one JSON line of metrics.

    python3 bench/run.py --workload library-mix --seed 1 --seconds 45 --trace 0

Run from the root of a checkout.  The program is imported from the
checkout's ``src``; nothing needs building.  The worker (``worker.py``)
repeats the workload in whole rounds for ``--seconds``, times set-up (import
plus input generation) in fresh interpreters spread across the run, and
checks every answer against computations made apart from evoaut.  With ``--trace 0`` the last line holds the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of a traced run.
Exits non-zero, printing no result, when the checkout has no program.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_LIMIT_S = 170


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in (os.path.join("src", "evoaut", "__init__.py"), "samples"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            print(f"error: {needed} is missing; run from an evoaut checkout", file=sys.stderr)
            return 2

    # bytecode caches on, as for an installed package, whatever the caller's
    # environment says: otherwise every CLI call recompiles evoaut
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    worker = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
              "--seed", str(args.seed), "--seconds", str(args.seconds),
              "--trace", str(args.trace)]
    done = _run(worker, env, RUN_LIMIT_S)
    if done is None:
        return 1
    print(json.dumps(done))
    return 0


def _run(command, env, timeout):
    """Run the worker, echo its notes, return its last JSON line (None on failure)."""
    # its own session, so that a timeout stops the worker's children too
    with subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, start_new_session=True) as worker:
        try:
            stdout, stderr = worker.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(worker.pid, signal.SIGKILL)
            worker.communicate()
            print(f"error: {' '.join(command[2:])} ran past the time limit", file=sys.stderr)
            return None
    lines = stdout.splitlines()
    if worker.returncode != 0 or not lines:
        sys.stderr.write(stderr)
        print(f"error: worker exited {worker.returncode}", file=sys.stderr)
        return None
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


if __name__ == "__main__":
    sys.exit(main())
