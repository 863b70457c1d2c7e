import contextlib
import io
import json
import time
from pathlib import Path

import pytest

from evoaut.cli import main
from evoaut.files import group_from_structured, parse_algebra, parse_structured
from evoaut.scalar import PrimeField

from helpers import count_snf_calls, drop_lift, run_python

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


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
    import argparse

    import evoaut.cli as cli_mod
    from evoaut.errors import InvariantViolation

    def broken(args):
        raise InvariantViolation("forced for the exit-code test")

    def fake_parser():
        parser = argparse.ArgumentParser()
        parser.set_defaults(handler=broken)
        return parser

    monkeypatch.setattr(cli_mod, "build_parser", fake_parser)
    assert cli_mod.main([]) == 4
    assert "forced" in capsys.readouterr().err


def star_file(path, p, spokes):
    """The uniform star over F_p: every spoke squares to the one sink w."""
    names = [f"s{i}" for i in range(1, spokes + 1)]
    path.write_text(f"field F{p}\nbasis " + " ".join(names) + " w\n"
                    + "".join(f"sq {s} = 1*w\n" for s in names))
    return path


@pytest.mark.parametrize("p, spokes, sigmas, diag", [(7, 6, 720, 192), (5, 7, 5040, 256)],
                         ids=["F7-6-spokes", "F5-7-spokes"])
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


@pytest.mark.parametrize("value", ["0", "-1"])
def test_cap_below_one_is_a_usage_error(capsys, monkeypatch, value):
    code, out, err = run(capsys, "aut", SAMPLES / "star_spokes.alg", "--cap", value)
    assert (code, out) == (2, "")
    assert err == f"error: --cap must be at least 1, got {value}\n"
    monkeypatch.setenv("EVOAUT_CAP", value)
    code, out, err = run(capsys, "oracle", SAMPLES / "zero_algebra_n3.alg")
    assert (code, out) == (2, "")
    assert err == f"error: EVOAUT_CAP must be at least 1, got {value}\n"


def test_cap_exit_code(capsys):
    code, _, err = run(capsys, "aut", SAMPLES / "zero_algebra_n3.alg", "--cap", "2")
    assert code == 3
    assert "cap" in err


def test_too_many_graph_automorphisms_name_the_layer_and_size(capsys, tmp_path):
    # 9! spoke permutations pass MAX_AUTOMORPHISMS well inside the vertex cap
    path = star_file(tmp_path / "star9.alg", 7, 9)
    start = time.perf_counter()
    code, out, err = run(capsys, "aut", path)
    elapsed = time.perf_counter() - start
    assert (code, out) == (3, "")
    assert err == "error: wgraph: more than 100000 graph automorphisms (10 vertices)\n"
    assert elapsed < 2.0


def test_env_cap(capsys, monkeypatch):
    monkeypatch.setenv("EVOAUT_CAP", "2")
    code, _, _ = run(capsys, "aut", SAMPLES / "zero_algebra_n3.alg")
    assert code == 3
    # the explicit flag overrides the environment
    code, _, _ = run(capsys, "aut", SAMPLES / "zero_algebra_n3.alg", "--cap", "12")
    assert code == 0


@pytest.mark.parametrize("argv", [
    ("diag", SAMPLES / "zero_algebra_n3.alg"),
    ("check", SAMPLES / "zero_algebra_n3.alg"),
    ("convert", SAMPLES / "zero_algebra_n3.alg"),
    ("tate", "--field", "F13"),
    ("chain", "--field", "F7", "--exp", "2,2", "--anchor", "1"),
])
def test_cap_is_a_usage_error_where_nothing_reads_it(capsys, argv):
    # only aut and oracle enumerate graph symmetries
    with pytest.raises(SystemExit) as exc:
        main([str(a) for a in argv] + ["--cap", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --cap 1" in capsys.readouterr().err


def test_oracle_reads_cap(capsys):
    code, _, err = run(capsys, "oracle", SAMPLES / "zero_algebra_n3.alg", "--cap", "2")
    assert code == 3
    assert "cap" in err


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
    script = ("import sys\nfrom evoaut.cli import main\ncode = main(sys.argv[1:])\n"
              "sys.stderr.write(next(line for line in open('/proc/self/status')\n"
              "                      if line.startswith('VmHWM')))\nsys.exit(code)")
    start = time.perf_counter()
    done = run_python(["-c", script, command, "big.alg"], timeout=60, cwd=tmp_path)
    elapsed = time.perf_counter() - start
    assert done.returncode == 0, done.stderr
    assert elapsed < 5
    peak_kb = int(done.stderr.split("VmHWM:")[1].split()[0])
    assert peak_kb < 100 * 1024


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
