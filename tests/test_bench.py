"""The benchmark's library calls, run in the test suite.

``bench/workloads.py`` calls the library by name, and ``bench/checks.py``
checks its answers apart from evoaut.  Running one seed of the
``library-mix`` cases here makes a renamed or removed name, or a wrong
answer, fail the tests and not only a benchmark run.
"""

import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_library_mix_cases_pass_the_benchmark_checks(monkeypatch, tmp_path):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)   # leave bench/ as it is
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    workloads = importlib.import_module("workloads")
    checks = importlib.import_module("checks")
    cases = workloads.library_cases(1, str(ROOT), str(tmp_path))
    assert {case["kind"] for case in cases} == {"star", "dense", "oracle"}
    for case in cases:
        answer = workloads.summarize_library(case, workloads.run_library(case))
        assert checks.check_library(case, answer) == [], case["name"]


def test_traced_bindings_resolve(monkeypatch):
    # the tracer wraps methods by name: a removed one fails here, not only
    # in a traced benchmark run
    monkeypatch.setattr(sys, "dont_write_bytecode", True)   # leave bench/ as it is
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    tracer = importlib.import_module("spans").Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert {"wgraph.GraphAutomorphism.compose", "algebra.EvolutionAlgebra.det"} <= set(tracer.names)
