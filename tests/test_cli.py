import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from evoaut.cli import main
from evoaut.files import group_from_structured, parse_algebra, parse_structured, serialize_algebra
from evoaut.scalar import PrimeField

from helpers import (PARITY_HEADS, PARITY_UNITS, count_snf_calls, drop_lift,
                     parity_argv, parity_differences, run_python, two_cycles_algebra)

SAMPLES = Path(__file__).resolve().parent.parent / "samples"
# runs the CLI on its arguments, then writes the process's peak RSS line to stderr
REPORT_PEAK = ("import sys\nfrom evoaut.cli import main\ncode = main(sys.argv[1:])\n"
               "sys.stderr.write(next(line for line in open('/proc/self/status')\n"
               "                      if line.startswith('VmHWM')))\nsys.exit(code)")
# sha256 of the stdout of `chain --field F3 --exp 1 --depth 500000`
CHAIN_AT_BUDGET_SHA256 = "6a56663a0ab7fe91e6d4e7fcdd3cf3af440ec1c86dfa84189eb213841b6bfd22"
# sha256 of the stdout of `aut` on six disjoint 2-cycles over F_7
CYCLES_AUT_SHA256 = "4f36d8b008aa7eaca87942a89703a6bc468b14364d1a922ee6663d7f5d1e7c07"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_diag_ear_over_q(capsys):
    code, out, _ = run(capsys, "diag", SAMPLES / "cycle_with_ear.alg")
    assert code == 0
    assert "Diag(A;B) = mu_3(K)" in out
    assert "order = 1" in out  # Q has no nontrivial cube roots


def test_diag_ear_over_f7_lists_elements(capsys):
    code, out, _ = run(capsys, "diag", SAMPLES / "cycle_with_ear_f7.alg")
    assert code == 0
    assert "order = 3" in out
    assert "2,4,2,4,4" in out
    assert "4,2,4,2,2" in out


def test_diag_accepts_graph_files(capsys):
    code, out, _ = run(capsys, "diag", SAMPLES / "cubic_root_lift_f7.graph")
    assert code == 0
    assert "Diag(A;B) = 1" in out


def test_diag_unconstrained_two_vertices(capsys, tmp_path):
    path = tmp_path / "free.alg"
    path.write_text("field F5\nbasis a b\n")
    code, out, _ = run(capsys, "diag", path)
    assert code == 0
    assert "Diag(A;B) = (K^x)^2" in out
    assert "order = 16" in out
    assert out.count("\n  ") == 16  # all sixteen scale vectors listed


def test_field_flag_supplies_graph_default(capsys, tmp_path):
    path = tmp_path / "bare.graph"
    path.write_text("vertices a\nedge a -> a w=3\n")
    code, out, _ = run(capsys, "diag", path, "--field", "F5")
    assert code == 0
    assert "order = 1" in out  # loop forces the scale to 1 over F_5


@pytest.mark.parametrize("command", ["diag", "aut", "check", "oracle", "convert"])
@pytest.mark.parametrize("name", ["cycle_with_ear_f7.alg", "cubic_root_lift_f7.graph"])
def test_field_flag_naming_the_file_field_changes_nothing(capsys, command, name):
    assert run(capsys, command, SAMPLES / name, "--field", "F7") == \
        run(capsys, command, SAMPLES / name)


def test_aut_three_cycle_matrices(capsys):
    code, out, _ = run(capsys, "aut", SAMPLES / "three_cycle_loops.alg")
    assert code == 0
    assert "matrix: [0,0,2; -1,0,0; 0,-1/2,0]" in out
    assert "matrix: [0,-1,0; 0,0,-2; 1/2,0,0]" in out
    assert "group order = 3" in out
    assert "completeness: = Aut(A)" in out


def test_aut_swap_not_lifted(capsys):
    code, out, _ = run(capsys, "aut", SAMPLES / "two_loops_swap.alg")
    assert code == 0
    assert "not lifted: u1->u2 u2->u1 (system infeasible)" in out
    assert "group order = 1" in out


def test_aut_zero_algebra_subgroup_flag(capsys):
    code, out, _ = run(capsys, "aut", SAMPLES / "zero_algebra_n3.alg")
    assert code == 0
    assert "Diag(A;B) = (K^x)^3" in out
    assert "quotient order = 6" in out
    assert "completeness: subgroup of Aut(A)" in out


def test_check_reports(capsys):
    code, out, _ = run(capsys, "check", SAMPLES / "loop_chain_n3.alg")
    assert code == 0
    assert "2LI: false (witness: sq(u1), sq(u2))" in out
    assert "invertible: false" in out

    code, out, _ = run(capsys, "check", SAMPLES / "chain_2li_n4.alg")
    assert code == 0
    assert "2LI: true" in out

    code, out, _ = run(capsys, "check", SAMPLES / "char2_equal_squares.alg",
                       "--vector", "1,1,1")
    assert code == 0
    assert "natural(1,1,1): false" in out


def test_oracle_pass_and_expected_fail(capsys, tmp_path):
    code, out, _ = run(capsys, "oracle", SAMPLES / "two_loops_swap_f5.alg")
    assert code == 0
    assert "diag solutions: PASS" in out
    assert "equality: PASS" in out

    code, out, _ = run(capsys, "oracle", SAMPLES / "zero_algebra_n3.alg")
    assert code == 0
    assert "containment: PASS" in out
    assert "equality: FAIL as expected (subgroup only; 48 < 11232)" in out

    two = tmp_path / "zero2.alg"
    two.write_text("field F3\nbasis e1 e2\n")
    code, out, _ = run(capsys, "oracle", two)
    assert code == 0
    assert "equality: FAIL as expected (subgroup only; 8 < 48)" in out


def test_internal_violation_exit_code(capsys, monkeypatch):
    import types

    import evoaut.cli as cli_mod
    from evoaut.errors import InvariantViolation

    def broken(args):
        raise InvariantViolation("forced for the exit-code test")

    monkeypatch.setattr(cli_mod, "parse_args", lambda argv: types.SimpleNamespace(handler=broken))
    assert cli_mod.main([]) == 4
    assert "forced" in capsys.readouterr().err


def star_file(path, p, spokes):
    """The uniform star over F_p: every spoke squares to the one sink w."""
    names = [f"s{i}" for i in range(1, spokes + 1)]
    path.write_text(f"field F{p}\nbasis " + " ".join(names) + " w\n"
                    + "".join(f"sq {s} = 1*w\n" for s in names))
    return path


@pytest.mark.parametrize("p, spokes, sigmas, diag",
                         [(7, 6, 720, 192), (5, 7, 5040, 256), (5, 8, 40320, 512)],
                         ids=["F7-6-spokes", "F5-7-spokes", "F5-8-spokes"])
def test_oracle_on_a_uniform_star_within_gate(capsys, tmp_path, p, spokes, sigmas, diag):
    # one scan of (F_p^x)^(spokes + 1) and one listing of Diag serve every
    # spoke permutation; p^(n^2) is past the matrix oracle's cap
    path = star_file(tmp_path / "star.alg", p, spokes)
    start = time.perf_counter()
    code, out, _ = run(capsys, "oracle", path)
    elapsed = time.perf_counter() - start
    assert code == 0
    assert out.startswith(f"diag solutions: PASS ({diag} = {diag})\n")
    assert out.count("twisted coset sigma=") == \
        out.count(f": PASS ({diag} = {diag})\n") - 1 == sigmas
    assert out.endswith("full group oracle: skipped "
                        f"(p^(n^2) = {p ** ((spokes + 1) ** 2)} exceeds cap)\n")
    assert elapsed < 30.0


def test_oracle_on_a_zero_algebra_within_gate(capsys, tmp_path):
    # every one of the 7! symmetries lifts with all-ones scales onto Diag =
    # (F_5^x)^7: one listing of 4^7 vectors and one comparison serve them all
    path = tmp_path / "zero7.alg"
    path.write_text("field F5\nbasis " + " ".join(f"e{i}" for i in range(1, 8)) + "\n")
    start = time.perf_counter()
    code, out, _ = run(capsys, "oracle", path)
    elapsed = time.perf_counter() - start
    assert code == 0
    assert out.startswith("diag solutions: PASS (16384 = 16384)\n")
    assert out.count("twisted coset sigma=") == out.count(": PASS (16384 = 16384)\n") - 1 == 5040
    assert elapsed < 30.0


def test_oracle_keeps_each_sigmas_own_verdict(capsys, monkeypatch, tmp_path):
    # on the uniform star every sigma shares one lift and one scan list; a scan
    # that loses a point for one sigma only must fail that sigma and no other
    import evoaut.cli as cli_mod

    path = star_file(tmp_path / "star.alg", 7, 6)
    code, out, _ = run(capsys, "oracle", path)
    assert code == 0
    victim = 5   # the sixth sigma; the identity is the first
    line = out.splitlines()[1 + victim]
    assert line.startswith("twisted coset sigma=") and not line.startswith(
        "twisted coset sigma=0,1,2,3,4,5,6:")
    real = cli_mod.bruteforce_solution_sets

    def lossy(*args):
        scans = real(*args)
        scans[victim] = scans[victim][1:]
        return scans

    monkeypatch.setattr(cli_mod, "bruteforce_solution_sets", lossy)
    code, out, err = run(capsys, "oracle", path)
    assert (code, out) == (4, "")
    assert [x for x in err.splitlines() if "FAIL" in x] == \
        [line.replace("PASS (192 = 192)", "FAIL (192 = 191)")]


def test_oracle_reports_a_divergence(capsys, monkeypatch):
    # a scan that loses one point of the diagonal solutions must fail the
    # identity's coset and the diagonal check, and exit 4
    import evoaut.cli as cli_mod

    real = cli_mod.bruteforce_solution_sets

    def lossy(*args):
        scans = real(*args)
        return [scans[0][1:]] + scans[1:]

    monkeypatch.setattr(cli_mod, "bruteforce_solution_sets", lossy)
    code, out, err = run(capsys, "oracle", SAMPLES / "cycle_with_ear_f7.alg")
    assert (code, out) == (4, "")
    assert "diag solutions: FAIL (first divergence 1,1,1,1,1)\n" in err
    assert "twisted coset sigma=0,1,2,3,4: FAIL (3 = 2)\n" in err


def test_oracle_skips_oversized_matrix_scan(capsys):
    code, out, _ = run(capsys, "oracle", SAMPLES / "cycle_with_ear_f7.alg")
    assert code == 0
    assert "diag solutions: PASS (3 = 3)" in out
    assert "full group oracle: skipped" in out


def test_oracle_rejects_rationals(capsys):
    code, _, err = run(capsys, "oracle", SAMPLES / "two_loops_swap.alg")
    assert code == 2
    assert "finite field" in err


def test_tate_reports(capsys):
    code, out, _ = run(capsys, "tate", "--field", "F13")
    assert code == 0
    assert out == "T_2(K^x) = 1 (stationary index 2)\n"

    code, out, _ = run(capsys, "tate", "--field", "Q")
    assert code == 0
    assert out == "T_2(K^x) = 1 (stationary index 1)\n"

    code, out, _ = run(capsys, "tate", "--field", "acl-not2")
    assert code == 0
    assert out == "T_2(K^x) = Z_2\n"

    code, out, _ = run(capsys, "tate", "--field", "Q-zeta2inf")
    assert code == 0
    assert out == "T_2(K^x) = Z_2\n"

    code, _, err = run(capsys, "tate", "--field", "F9")
    assert code == 2


def test_chain_census(capsys):
    code, out, _ = run(capsys, "chain", "--field", "F7", "--exp", "2,2,2",
                       "--anchor", "1")
    assert code == 0
    assert "tuples = 2" in out
    assert "  1,1,1" in out
    assert "  1,1,6" in out

    code, out, _ = run(capsys, "chain", "--field", "F5", "--exp", "2", "--depth", "2")
    assert code == 0
    assert "tuples = 4" in out

    code, _, err = run(capsys, "chain", "--field", "F5", "--exp", "x")
    assert code == 2


@pytest.mark.parametrize("depth", ["0", "-3"])
def test_chain_rejects_a_depth_below_one(capsys, depth):
    # the error names --depth, not the exponents, and comes before the
    # budget check, which would read a negative depth as a small census
    code, out, err = run(capsys, "chain", "--field", "F7", "--exp", "2", "--depth", depth)
    assert (code, out) == (2, "")
    assert err == f"error: --depth must be at least 1 (got {depth})\n"


def test_chain_refuses_an_oversized_census_before_it_builds(capsys):
    # a depth of 2*10^7 over F_3 is past the budget; the refusal comes before
    # the exponent list is expanded, so it costs no time or memory
    start = time.perf_counter()
    code, out, err = run(capsys, "chain", "--field", "F3", "--exp", "2", "--depth", "20000000")
    elapsed = time.perf_counter() - start
    assert (code, out) == (3, "")
    assert err == ("error: limits: chain census exceeds the budget 1000000 "
                   "((p-1)*depth = 2*20000000 = 40000000)\n")
    assert elapsed < 0.5


def test_convert_round_trip(capsys, tmp_path):
    code, graph_text, _ = run(capsys, "convert", SAMPLES / "cycle_with_ear.alg")
    assert code == 0
    graph_file = tmp_path / "ear.graph"
    graph_file.write_text(graph_text)
    code, algebra_text, _ = run(capsys, "convert", graph_file)
    assert code == 0
    assert parse_algebra(algebra_text) == parse_algebra(
        (SAMPLES / "cycle_with_ear.alg").read_text())


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.alg"
    bad.write_text("field F7\nbasis a\nsq a = 1*zz\n")
    code, _, err = run(capsys, "diag", bad)
    assert code == 2
    assert "line 3" in err

    code, _, err = run(capsys, "diag", tmp_path / "missing.alg")
    assert code == 2


def write_file(path, data: bytes):
    path.write_bytes(data)
    return path


NOT_UTF8 = "latin.alg: 'utf-8' codec can't decode byte 0xff in position 0"


@pytest.mark.parametrize("make_argv, exit_code, message", [
    pytest.param(lambda tmp: ("diag", write_file(tmp / "bad.alg",
                                                 b"field F7\nbasis a\nsq a = x*a\n")),
                 2, "bad scalar literal 'x'", id="diag-bad-literal"),
    pytest.param(lambda tmp: ("check", SAMPLES / "star_spokes.alg", "--vector", "1,2"),
                 2, "bad --vector '1,2'", id="check-short-vector"),
    pytest.param(lambda tmp: ("chain", "--field", "F7", "--exp", "2", "--anchor", "abc"),
                 2, "bad --anchor 'abc'", id="chain-bad-anchor"),
    pytest.param(lambda tmp: ("chain", "--field", "F7", "--exp", "2", "--anchor", "1/7"),
                 2, "bad --anchor '1/7'", id="chain-anchor-with-a-vanishing-denominator"),
    *(pytest.param(lambda tmp, command=command: (command, write_file(tmp / "latin.alg",
                                                                     b"\xff\xfe")),
                   2, NOT_UTF8, id=f"{command}-not-utf8")
      for command in ("diag", "aut", "check", "oracle", "convert")),
    pytest.param(lambda tmp: ("diag", SAMPLES / "cycle_with_ear_f7.alg", "--field", "F5"),
                 2, "--field F5 disagrees with the file's field F7",
                 id="diag-field-other-than-the-algebra-file's"),
    pytest.param(lambda tmp: ("aut", SAMPLES / "cubic_root_lift_f7.graph", "--field", "Q"),
                 2, "--field Q disagrees with the file's field F7",
                 id="aut-field-other-than-the-graph-file's"),
    pytest.param(lambda tmp: ("tate",), 2, "tate requires --field", id="tate-without-field"),
    pytest.param(lambda tmp: ("chain", "--exp", "2"), 2, "chain requires --field",
                 id="chain-without-field"),
    pytest.param(lambda tmp: ("chain", "--field", "F7"), 2, "chain requires --exp",
                 id="chain-without-exp"),
    pytest.param(lambda tmp: ("chain", "--field", "F7", "--exp", "2,3", "--depth", "3"),
                 2, "--depth disagrees with the --exp list length", id="chain-depth-disagrees"),
    pytest.param(lambda tmp: ("chain", "--field", "F7", "--exp", "0"), 2,
                 "exponents must be a nonempty sequence of positive integers",
                 id="chain-exp-0"),
    pytest.param(lambda tmp: ("aut", star_file(tmp / "star9.alg", 7, 9)),
                 3, "more than 100000 graph automorphisms", id="aut-nine-spokes"),
    pytest.param(lambda tmp: ("chain", "--field", "F3", "--exp", "1", "--depth", "500001"),
                 3, "chain census exceeds the budget", id="chain-past-the-budget"),
    pytest.param(lambda tmp: ("oracle", star_file(tmp / "star.alg", 5, 3)),
                 4, "lifted sigmas are not closed", id="oracle-dropped-lift"),
])
def test_a_refused_command_writes_nothing_to_stdout(capsys, monkeypatch, tmp_path,
                                                    make_argv, exit_code, message):
    # every command raises before its first report line
    if exit_code == 4:
        drop_lift(monkeypatch, (1, 2, 0, 3))
    code, out, err = run(capsys, *make_argv(tmp_path))
    assert (code, out) == (exit_code, "")
    assert err.startswith("error: ") and message in err


def test_bad_vector_is_a_validation_error(capsys):
    code, _, err = run(capsys, "check", SAMPLES / "char2_equal_squares.alg",
                       "--vector", "1,1")
    assert code == 2
    code, _, err = run(capsys, "check", SAMPLES / "char2_equal_squares.alg",
                       "--vector", "1,x,1")
    assert code == 2


def test_zero_vector_is_a_validation_error(capsys):
    code, out, err = run(capsys, "check", SAMPLES / "char2_equal_squares.alg",
                         "--vector", "0,0,0")
    assert code == 2
    assert out == ""
    assert err == "error: bad --vector '0,0,0': the zero vector is never natural\n"


EAR = SAMPLES / "cycle_with_ear.alg"   # a 5-dimensional algebra over Q


@pytest.mark.parametrize("argv, message", [
    # an empty item was once dropped: the first read as 1,0,0,0,0 and answered
    (("check", EAR, "--vector", "1,,0,0,0,0"), "bad --vector '1,,0,0,0,0': empty item"),
    (("check", EAR, "--vector", "1,,0,0,0"), "bad --vector '1,,0,0,0': empty item"),
    (("check", EAR, "--vector", "1,0,0,0,0,"), "bad --vector '1,0,0,0,0,': empty item"),
    (("check", EAR, "--vector", ""), "bad --vector '': empty item"),
    (("chain", "--field", "F7", "--exp", "2,,3"), "bad --exp '2,,3': empty item"),
    (("chain", "--field", "F7", "--exp", ",2"), "bad --exp ',2': empty item"),
    # str.isdigit accepts these digits, and int() raised or read F\u0663 as F3
    (("tate", "--field", "F\u00b2"), "bad field tag 'F\u00b2' (expected F<p> or Q)"),
    (("chain", "--field", "F\u00b2", "--exp", "2"), "bad field tag 'F\u00b2' (expected F<p> or Q)"),
    (("chain", "--field", "F\u0663", "--exp", "2"), "bad field tag 'F\u0663' (expected F<p> or Q)"),
    (("diag", EAR, "--field", "F\u00b2"), "bad field tag 'F\u00b2' (expected F<p> or Q)"),
], ids=["vector-inner", "vector-inner-short", "vector-trailing", "vector-empty", "exp-inner",
        "exp-leading", "tate-superscript", "chain-superscript", "chain-arabic-indic",
        "diag-superscript"])
def test_empty_list_items_and_non_ascii_field_digits_are_refused(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_a_field_line_in_non_ascii_digits_is_refused(capsys, tmp_path):
    path = tmp_path / "superscript.alg"
    path.write_text("field F\u00b2\nbasis a\nsq a = 1*a\n", encoding="utf-8")
    for command in ("diag", "aut", "check", "oracle", "convert"):
        code, out, err = run(capsys, command, path)
        assert (code, out, err) == (
            2, "", "error: bad field tag 'F\u00b2' (expected F<p> or Q) (line 1)\n")


@pytest.mark.parametrize("command", ["aut", "oracle"])
def test_vertex_cap_refuses_thirteen_vertices(capsys, tmp_path, command):
    path = tmp_path / "zero13.alg"
    path.write_text("field F2\nbasis " + " ".join(f"e{i}" for i in range(1, 14)) + "\n")
    code, out, err = run(capsys, command, path)
    assert (code, out) == (3, "")
    assert err == "error: wgraph: vertex count exceeds the enumeration cap 12 (13 vertices)\n"


def test_too_many_graph_automorphisms_name_the_layer_and_size(capsys, tmp_path):
    # 9! spoke permutations pass MAX_AUTOMORPHISMS well inside the vertex cap
    path = star_file(tmp_path / "star9.alg", 7, 9)
    start = time.perf_counter()
    code, out, err = run(capsys, "aut", path)
    elapsed = time.perf_counter() - start
    assert (code, out) == (3, "")
    assert err == "error: wgraph: more than 100000 graph automorphisms (10 vertices)\n"
    assert elapsed < 2.0


@pytest.mark.parametrize("argv", [  # (command, flag)
    (("diag", SAMPLES / "zero_algebra_n3.alg"), ("--cap", "1")),
    (("check", SAMPLES / "zero_algebra_n3.alg"), ("--cap", "1")),
    (("convert", SAMPLES / "zero_algebra_n3.alg"), ("--cap", "1")),
    (("tate", "--field", "F13"), ("--cap", "1")),
    (("chain", "--field", "F7", "--exp", "2,2", "--anchor", "1"), ("--cap", "1")),
    (("oracle", SAMPLES / "zero_algebra_n3.alg"), ("--structured",)),
    (("convert", SAMPLES / "zero_algebra_n3.alg"), ("--structured",)),
    (("aut", SAMPLES / "zero_algebra_n3.alg"), ("--cap", "1")),
    (("oracle", SAMPLES / "zero_algebra_n3.alg"), ("--cap", "1")),
])
def test_cap_is_a_usage_error_where_nothing_reads_it(capsys, argv):
    # no command takes --cap, and only diag, aut, check, tate and chain have
    # a structured report
    command, flag = argv
    with pytest.raises(SystemExit) as exc:
        main([str(a) for a in command + flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


CHAIN_USAGE = ("usage: evoaut chain [-h] [--field FIELD] [--exp EXP] [--depth DEPTH] "
               "[--anchor ANCHOR] [--structured]\n")


@pytest.mark.parametrize("exp", ["\u0663", "1_0", "\u0663,1_0", " 3", "+3", "3 ", "\u00b2"])
def test_chain_reads_exponents_in_ascii_digits_only(capsys, exp):
    # int() read these as 3, 10, "3,10", 3, 3, 3 and raised on the superscript
    code, out, err = run(capsys, "chain", "--field", "F7", "--exp", exp)
    assert (code, out, err) == (2, "", f"error: bad exponent list {exp!r}\n")


@pytest.mark.parametrize("depth", ["\u0663", " 3", "1_0", "+3", "x", ""])
def test_chain_depth_in_other_than_ascii_digits_is_a_usage_error(capsys, depth):
    with pytest.raises(SystemExit) as exc:
        main(["chain", "--field", "F7", "--exp", "2", "--depth", depth])
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", CHAIN_USAGE +
                                   f"error: argument --depth: invalid int value: {depth!r}\n")


def test_help_lists_every_command_and_option(capsys):
    from evoaut.cli import COMMANDS, OPTIONS

    for argv in (["-h"], ["--help"], ["chain", "--he"], ["diag", "x.alg", "-h", "--cap"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        out, err = capsys.readouterr()
        assert err == ""
        for command, (_, _, _, text) in COMMANDS.items():
            assert f"\n  evoaut {command} [-h]" in out and f"\n      {text}\n" in out
        for name, (_, text) in OPTIONS.items():
            assert f"\n  {name}" in out and f" {text}\n" in out


@pytest.mark.parametrize("argv", [
    ("diag", "--field", "F7", str(SAMPLES / "cycle_with_ear_f7.alg")),
    ("diag", "--fi=F7", "--", str(SAMPLES / "cycle_with_ear_f7.alg")),
    ("diag", str(SAMPLES / "cycle_with_ear_f7.alg"), "--fie", "F7"),
])
def test_options_go_before_or_after_the_file(capsys, argv):
    assert run(capsys, *argv) == run(capsys, "diag", SAMPLES / "cycle_with_ear_f7.alg")


def test_parser_agrees_with_the_argparse_reference_property():
    # the reference is the argparse parser the command line had; on every
    # drawn command line both exit with one code or give the same attributes
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    units = st.lists(st.sampled_from(PARITY_UNITS), max_size=6)

    @hypothesis.settings(max_examples=400, deadline=None, database=None)
    @hypothesis.given(st.lists(st.sampled_from(PARITY_UNITS), max_size=2),
                      st.sampled_from(PARITY_HEADS), units)
    def check(prefix, head, after):
        assert parity_differences([parity_argv(prefix, head, after)]) == []

    check()


def test_oracle_refuses_an_oversized_scan_before_it_assembles(capsys, tmp_path):
    # Aut(graph) of six disjoint 2-cycles has 46,080 symmetries, all inside
    # the vertex cap; (p-1)^n = 6^12 is past the scan cap, so oracle refuses
    # before it lists them
    path = tmp_path / "cycles.alg"
    path.write_text(serialize_algebra(two_cycles_algebra(PrimeField(7), 6)))
    start = time.perf_counter()
    code, out, err = run(capsys, "oracle", path)
    elapsed = time.perf_counter() - start
    assert (code, out) == (3, "")
    assert err == ("error: monomial: brute-force scan exceeds the cap 10000000 "
                   "((p-1)^n = 6^12 = 2176782336)\n")
    assert elapsed < 0.5


def test_structured_output_round_trips(capsys):
    code, out, _ = run(capsys, "diag", SAMPLES / "star_spokes.alg", "--structured")
    assert code == 0
    pairs = parse_structured(out)
    values = dict(pairs)
    assert values["diag"] == "(K^x)^1 x mu_2(K)^2"
    rebuilt = group_from_structured(pairs)
    assert rebuilt.describe() == values["diag"]
    assert rebuilt.free_rank == 1
    assert rebuilt.torsion == (2, 2)

    code, out, _ = run(capsys, "diag", SAMPLES / "cycle_with_ear_f7.alg",
                       "--structured")
    pairs = parse_structured(out)
    rebuilt = group_from_structured(pairs, field=PrimeField(7))
    assert rebuilt.describe() == "mu_3(K)"
    assert rebuilt.concrete_order() == 3
    assert dict(pairs)["order"] == "3"


def test_outputs_are_byte_deterministic(capsys):
    first = run(capsys, "aut", SAMPLES / "three_cycle_loops.alg")
    second = run(capsys, "aut", SAMPLES / "three_cycle_loops.alg")
    assert first == second
    first = run(capsys, "oracle", SAMPLES / "cubic_root_lift_f7.graph")
    second = run(capsys, "oracle", SAMPLES / "cubic_root_lift_f7.graph")
    assert first == second


@pytest.mark.parametrize("argv, snf_calls", [
    (("diag", "cycle_with_ear_f7.alg"), 1),      # lists its three elements
    (("diag", "star_spokes.alg"), 1),
    (("aut", "star_spokes.alg"), 1),
    (("oracle", "cubic_root_lift_f7.graph"), 1),  # two lifted sigmas
    (("oracle", "two_loops_swap_f5.alg"), 1),     # one sigma not lifted
    (("oracle", "zero_algebra_n3.alg"), 0),       # no edges, so no rows to factor
])
def test_one_snf_per_algebra(capsys, monkeypatch, argv, snf_calls):
    calls = count_snf_calls(monkeypatch)
    code, _, _ = run(capsys, argv[0], SAMPLES / argv[1])
    assert code == 0
    assert len(calls) == snf_calls


def test_dropped_lift_is_an_internal_violation(capsys, monkeypatch):
    drop_lift(monkeypatch, (1, 2, 0, 3))
    code, out, err = run(capsys, "aut", SAMPLES / "star_spokes.alg")
    assert code == 4
    assert out == ""
    assert "lifted sigmas are not closed under composition" in err


def test_cli_runs_without_numpy():
    # numpy is a test dependency only: every command, the matrix oracle
    # included, prints its golden output with the import blocked
    golden = json.loads((Path(__file__).resolve().parent / "golden" / "cli_outputs.json")
                        .read_text(encoding="utf-8"))
    script = ("import sys\n"
              "sys.modules['numpy'] = None\n"
              "from evoaut.cli import main\n"
              "sys.exit(main(sys.argv[1:]))\n")
    for command in ("diag", "aut", "check", "convert", "oracle"):
        done = run_python(["-c", script, command, str(SAMPLES / "zero_algebra_n3.alg")],
                          timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout == golden[f"{command} samples/zero_algebra_n3.alg"]["stdout"]


@pytest.mark.parametrize("code", [
    "import evoaut.cli",
    "runpy.run_module('evoaut.cli', run_name='__main__', alter_sys=True)",  # python -m evoaut.cli
], ids=["import", "run-module"])
def test_cli_loads_neither_dataclasses_nor_inspect(code):
    # the interpreter writes the names in sys.modules to stderr as it exits
    script = ("import atexit, runpy, sys\n"
              "atexit.register(lambda: sys.stderr.write(' '.join(sys.modules)))\n" + code)
    done = run_python(["-c", script, "diag", "samples/star_spokes.alg"], timeout=30,
                      cwd=SAMPLES.parent)
    assert done.returncode == 0, done.stderr
    loaded = set(done.stderr.split())
    assert "evoaut.autgroup" in loaded
    assert loaded.isdisjoint({"dataclasses", "inspect", "argparse", "gettext", "locale"})


LARGE_PRIME_Q = ("field Q\nbasis u1 u2\n"
                 "sq u1 = 1*u1 + 1000000000000000003*u2\nsq u2 = 1*u2\n")


def test_diag_never_factors_a_large_weight(tmp_path):
    (tmp_path / "large.alg").write_text(LARGE_PRIME_Q)
    done = run_python(["-m", "evoaut.cli", "diag", "large.alg"], timeout=5, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "Diag(A;B) = 1\norder = 1\n"


def test_aut_with_a_large_weight_finishes(tmp_path):
    (tmp_path / "large.alg").write_text(LARGE_PRIME_Q)
    done = run_python(["-m", "evoaut.cli", "aut", "large.alg"], timeout=10, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert "group order = 1\n" in done.stdout


def test_huge_field_prime_is_refused_at_the_cap(tmp_path):
    # 10^18 + 3 lies far past the 2^31 cap; trial division would run for hours
    (tmp_path / "huge.alg").write_text("field F1000000000000000003\nbasis u1\nsq u1 = 1*u1\n")
    done = run_python(["-m", "evoaut.cli", "diag", "huge.alg"], timeout=2, cwd=tmp_path)
    assert done.returncode == 2
    assert "1000000000000000003 exceeds the 2^31 cap" in done.stderr


@pytest.mark.parametrize("command", ["diag", "aut"])
def test_largest_field_prime_runs_in_little_time_and_memory(tmp_path, command):
    # 2^31 - 1 is the largest prime under the cap; a table of all p - 1
    # discrete logs would need tens of GB
    if not Path("/proc/self/status").exists():
        pytest.skip("peak memory is read from /proc/self/status")
    (tmp_path / "big.alg").write_text(
        "field F2147483647\nbasis u v\nsq u = 3*v\nsq v = 5*u\n")
    start = time.perf_counter()
    done = run_python(["-c", REPORT_PEAK, command, "big.alg"], timeout=60, cwd=tmp_path)
    elapsed = time.perf_counter() - start
    assert done.returncode == 0, done.stderr
    assert elapsed < 5
    peak_kb = int(done.stderr.split("VmHWM:")[1].split()[0])
    assert peak_kb < 100 * 1024


def test_a_reader_that_stops_early_ends_the_report_quietly():
    # as in `evoaut chain ... | head -1`: once the reader has gone, the command stops
    # writing and exits 0 with nothing on stderr, not with a BrokenPipeError traceback
    env = dict(os.environ, PYTHONPATH=str(SAMPLES.parent / "src"))
    argv = ["chain", "--field", "F3", "--exp", "1", "--depth", "100000"]   # two 200 KB lines
    with subprocess.Popen([sys.executable, "-m", "evoaut.cli"] + argv, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"field: F3\n"
        proc.stdout.close()
        assert (proc.wait(timeout=30), proc.stderr.read()) == (0, b"")


def test_chain_at_the_budget_runs_in_little_time_and_memory(tmp_path):
    # (p-1) * depth is exactly CHAIN_BUDGET; the census runs on residues and
    # the two chains share one scalar per residue
    if not Path("/proc/self/status").exists():
        pytest.skip("peak memory is read from /proc/self/status")
    start = time.perf_counter()
    done = run_python(["-c", REPORT_PEAK, "chain", "--field", "F3", "--exp", "1",
                       "--depth", "500000"], timeout=60, cwd=tmp_path)
    elapsed = time.perf_counter() - start
    assert done.returncode == 0, done.stderr
    assert hashlib.sha256(done.stdout.encode()).hexdigest() == CHAIN_AT_BUDGET_SHA256
    assert elapsed < 10
    peak_kb = int(done.stderr.split("VmHWM:")[1].split()[0])
    assert peak_kb < 128 * 1024


@pytest.mark.parametrize("exponent, lifted", [(1, False), (3, True)])
def test_aut_takes_roots_of_a_14_digit_prime_weight(tmp_path, exponent, lifted):
    # the swap lifts iff the weight is a cube; 10000000000037 is prime
    weight = 10000000000037**exponent
    (tmp_path / "cycle.alg").write_text(
        f"field Q\nbasis u1 u2\nsq u1 = {weight}*u2\nsq u2 = 1*u1\n")
    done = run_python(["-m", "evoaut.cli", "aut", "cycle.alg"], timeout=10, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert ("lift: u1->u2 u2->u1\n" in done.stdout) == lifted
    assert f"group order = {2 if lifted else 1}\n" in done.stdout


def test_diag_and_check_on_large_q_coefficients_property(tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    coefficient = st.one_of(st.just(0), st.integers(-10**40, 10**40))

    @hypothesis.settings(max_examples=30, deadline=None, database=None)
    @hypothesis.given(st.integers(1, 4).flatmap(
        lambda n: st.lists(st.lists(coefficient, min_size=n, max_size=n), min_size=n, max_size=n)))
    def check(squares):
        labels = [f"u{i + 1}" for i in range(len(squares))]
        lines = ["field Q", "basis " + " ".join(labels)]
        for label, column in zip(labels, squares):
            terms = [f"{c}*{v}" for c, v in zip(column, labels) if c]
            if terms:
                lines.append(f"sq {label} = " + " + ".join(terms))
        path = tmp_path / "large.alg"
        path.write_text("\n".join(lines) + "\n")
        for command in ("diag", "check"):
            start = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                code = main([command, str(path)])
            assert code == 0, err.getvalue()
            assert time.perf_counter() - start < 2.0

    check()


def test_aut_on_six_two_cycles_writes_as_it_goes(tmp_path):
    # 46,080 lifts print 20 MB; written line by line, the process peaks near
    # the size of the presentation itself, not of the report
    if not Path("/proc/self/status").exists():
        pytest.skip("peak memory is read from /proc/self/status")
    (tmp_path / "cycles.alg").write_text(serialize_algebra(two_cycles_algebra(PrimeField(7), 6)))
    done = run_python(["-c", REPORT_PEAK, "aut", "cycles.alg"], timeout=60, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert hashlib.sha256(done.stdout.encode()).hexdigest() == CYCLES_AUT_SHA256
    peak_kb = int(done.stderr.split("VmHWM:")[1].split()[0])
    assert peak_kb < 80 * 1024
