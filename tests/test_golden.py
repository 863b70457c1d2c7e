"""CLI output pinned byte for byte against a checked-in fixture.

``golden/cli_outputs.json`` holds the stdout and the exit code of ``diag``,
``aut``, ``check``, ``oracle`` and ``convert``, plain and ``--structured``,
for every file in ``samples/``.  Internal rewrites must leave every entry
unchanged; a deliberate change of output regenerates the fixture with

    PYTHONPATH=src python tests/test_golden.py --write
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from evoaut.cli import main

ROOT = Path(__file__).resolve().parent.parent
SAMPLES = ROOT / "samples"
FIXTURE = Path(__file__).resolve().parent / "golden" / "cli_outputs.json"
COMMANDS = ("diag", "aut", "check", "oracle", "convert")


def golden_cases() -> list[tuple[str, ...]]:
    return [(command, f"samples/{path.name}") + flags
            for path in sorted(SAMPLES.iterdir())
            for command in COMMANDS
            for flags in ((), ("--structured",))]


def run_case(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([str(ROOT / a) if a.startswith("samples/") else a for a in argv])
    return {"exit": code, "stdout": out.getvalue()}


def load_fixture() -> dict:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_fixture_covers_every_case():
    assert sorted(load_fixture()) == sorted(" ".join(c) for c in golden_cases())


@pytest.mark.parametrize("argv", golden_cases(), ids=" ".join)
def test_cli_output_matches_golden(argv):
    assert run_case(argv) == load_fixture()[" ".join(argv)]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    FIXTURE.parent.mkdir(exist_ok=True)
    table = {" ".join(argv): run_case(argv) for argv in golden_cases()}
    FIXTURE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
