"""CLI output pinned byte for byte against a checked-in fixture.

``golden/cli_outputs.json`` holds the stdout and the exit code of ``diag``,
``aut``, ``check``, ``oracle`` and ``convert`` for every file in
``samples/``, and of the first three with ``--structured`` as well.
``oracle`` and ``convert`` have no structured report, so the flag is a usage
error there (exit 2, nothing on stdout).  ``tate`` and ``chain`` read no
file; a fixed list of their command lines is pinned plain and with
``--structured``.  A few malformed command lines, a field tag in non-ASCII
digits, a list option with an empty item and a chain integer in other than
ASCII digits, are pinned as refusals (exit 2, nothing on stdout).  Internal rewrites must leave every entry unchanged; a
deliberate change of output regenerates the fixture with

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
STRUCTURED = ("diag", "aut", "check")
USAGE_ERROR = {"exit": 2, "stdout": ""}
# tate over each kind of field; chain unanchored, anchored with and without
# tuples, and one --exp repeated by --depth
FILELESS = (
    ("tate", "--field", "F2"),
    ("tate", "--field", "F13"),
    ("tate", "--field", "Q"),
    ("tate", "--field", "acl-not2"),
    ("tate", "--field", "Q-zeta2inf"),
    ("chain", "--field", "F7", "--exp", "2,3"),
    ("chain", "--field", "F13", "--exp", "2,2", "--anchor", "9"),
    ("chain", "--field", "F7", "--exp", "2,2", "--anchor", "3"),
    ("chain", "--field", "F5", "--exp", "2", "--depth", "3"),
)
REFUSED = (
    ("tate", "--field", "F\u00b2"),
    ("chain", "--field", "F\u0663", "--exp", "2"),
    ("diag", "samples/cycle_with_ear.alg", "--field", "F\u00b2"),
    ("chain", "--field", "F7", "--exp", "2,,3"),
    ("check", "samples/cycle_with_ear.alg", "--vector", "1,,0,0,0,0"),
    ("chain", "--field", "F7", "--exp", "\u0663"),
    ("chain", "--field", "F7", "--exp", "1_0"),
    ("chain", "--field", "F7", "--exp", "2", "--depth", "\u0663"),
)


def golden_cases() -> list[tuple[str, ...]]:
    return [(command, f"samples/{path.name}") + flags
            for path in sorted(SAMPLES.iterdir())
            for command in COMMANDS
            for flags in ((), ("--structured",))
            if not flags or command in STRUCTURED] + [
        argv + flags for argv in FILELESS for flags in ((), ("--structured",))] + list(REFUSED)


def refused_cases() -> list[tuple[str, ...]]:
    return [(command, f"samples/{path.name}", "--structured")
            for path in sorted(SAMPLES.iterdir())
            for command in COMMANDS if command not in STRUCTURED]


def run_case(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main([str(ROOT / a) if a.startswith("samples/") else a for a in argv])
        except SystemExit as exc:  # the parser refuses the command line
            code = exc.code
    return {"exit": code, "stdout": out.getvalue()}


def load_fixture() -> dict:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_fixture_covers_every_case():
    assert sorted(load_fixture()) == sorted(" ".join(c) for c in golden_cases())


@pytest.mark.parametrize("argv", golden_cases() + refused_cases(), ids=" ".join)
def test_cli_output_matches_golden(argv):
    expected = USAGE_ERROR if argv in refused_cases() else load_fixture()[" ".join(argv)]
    assert run_case(argv) == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    FIXTURE.parent.mkdir(exist_ok=True)
    table = {" ".join(argv): run_case(argv) for argv in golden_cases()}
    FIXTURE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
