import hashlib
import importlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from opilab import codes, leakage, verify
from opilab.cli import build_parser, main
from opilab.errors import IdentityViolationError
from opilab.quadext import QuadExt


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_thresholds_json(capsys):
    code, out = run_cli(["thresholds", "--rho", "0.5", "--bound", "best"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert abs(obj["two_mu0"] - 0.6225) < 5e-4
    assert abs(obj["two_mu1"] - 0.7496) < 5e-4
    assert obj["status"] == "ok"


def test_thresholds_green(capsys):
    code, out = run_cli(["thresholds", "--rho", "0.5", "--bound", "green"], capsys)
    obj = json.loads(out)
    assert abs(obj["two_mu1"] - 0.78) < 1e-3


def test_thresholds_no_finite(capsys):
    code, out = run_cli(["thresholds", "--rho", "0.7", "--bound", "biased"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["status"] == "no finite threshold"
    assert obj["two_mu0"] is None


@pytest.mark.parametrize("rho", [1 - 1e-7, 1 - 1e-12, 0.999999])
def test_thresholds_with_no_mu_to_scan_have_no_finite_threshold(rho, capsys):
    # 1 - rho < 2e-6 empties the mu scan [1e-6, 1 - rho - 1e-6]
    code, out = run_cli(["thresholds", "--rho", repr(rho), "--bound", "biased"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["status"] == "no finite threshold"
    assert obj["two_mu0"] is None and obj["two_mu1"] is None


def test_thresholds_domain_error(capsys):
    code, _ = run_cli(["thresholds", "--rho", "0.3", "--bound", "avg"], capsys)
    assert code == 2  # balanced bound at non-balanced density


def test_curve_deterministic(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out in (a, b):
        code, _ = run_cli(["curve", "--figure", "1", "--grid", "24", "--out", str(out)], capsys)
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == "two_mu,scl,green,avg,best"
    assert len(lines) == 25
    for line in lines[1:]:
        assert all(v not in ("nan", "inf", "-inf") for v in line.split(","))


def test_curve_figure4(tmp_path, capsys):
    out = tmp_path / "f4.csv"
    code, _ = run_cli(["curve", "--figure", "4", "--grid", "60", "--out", str(out)], capsys)
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    vals = [float(r[1]) for r in rows]
    assert abs(max(vals) - 0.9927) < 2e-3


def test_verify_suite_passes(capsys):
    code, out = run_cli(
        ["verify", "--suite", "discrepancy", "--p", "7", "--m", "6", "--n", "3",
         "--seed", "42"],
        capsys,
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["passed"] and obj["failures"] == []


def test_verify_moments_suite(capsys):
    code, out = run_cli(
        ["verify", "--suite", "moments", "--p", "7", "--m", "6", "--n", "3"], capsys
    )
    assert code == 0


def test_oracle_with_lists(tmp_path, capsys):
    lists = tmp_path / "lists.json"
    lists.write_text(json.dumps({"p": 5, "m": 4, "n": 2, "sets": [[0, 1]] * 4}))
    # schema: oracle reads only p/sets from the lists file
    lists.write_text(json.dumps({"p": 5, "sets": [[0, 1]] * 4}))
    code, out = run_cli(
        ["oracle", "--p", "5", "--m", "4", "--n", "2", "--points", "0,1,2,3",
         "--lists", str(lists)],
        capsys,
    )
    assert code == 0
    obj = json.loads(out)
    assert sum(obj["histogram"]) == 25
    assert obj["s_max"] >= obj["histogram"][4] / 25  # sanity


def test_oracle_constant_solution_saturates(tmp_path, capsys):
    lists = tmp_path / "lists.json"
    lists.write_text(json.dumps({"p": 7, "sets": [[0, 1, 2]] * 6}))
    code, out = run_cli(
        ["oracle", "--p", "7", "--m", "6", "--n", "3", "--lists", str(lists)], capsys
    )
    obj = json.loads(out)
    assert obj["s_max"] == 1.0  # the constant solution lands in every list
    assert obj["best_x"] == [0, 0, 0]


def test_oracle_search_mode(capsys):
    code, out = run_cli(
        ["oracle", "--p", "7", "--m", "6", "--n", "3", "--search", "20", "--size", "2",
         "--seed", "7"],
        capsys,
    )
    assert code == 0
    obj = json.loads(out)
    assert 2 / 7 <= obj["min_s_max"] <= 1.0
    assert "scl_benchmark" in obj


def test_oracle_search_rejects_lists(tmp_path, capsys):
    # --search draws its own lists, so a --lists file would go unused
    lists = tmp_path / "lists.json"
    lists.write_text(json.dumps({"p": 7, "sets": [[0, 1, 2]] * 6}))
    code = main(["oracle", "--p", "7", "--m", "6", "--n", "3", "--search", "2",
                 "--lists", str(lists)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--search draws its own lists" in captured.err


def test_oracle_malformed_lists(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"p": 5, "sets": [[0, 1], [2]]}))
    code, _ = run_cli(
        ["oracle", "--p", "5", "--m", "2", "--n", "1", "--lists", str(bad)], capsys
    )
    assert code == 2


def test_leakage_cmd(capsys):
    code, out = run_cli(
        ["leakage", "--p", "11", "--m", "8", "--n", "6", "--t", "7",
         "--buckets", "cyclic", "--seed", "3"],
        capsys,
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["ratio"] <= 1.0 + 1e-9
    assert obj["certified"] == "certified"


def test_leakage_below_dual_distance(capsys):
    code, out = run_cli(
        ["leakage", "--p", "11", "--m", "8", "--n", "6", "--t", "3"], capsys
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["lhs_abs"] < 1e-9 and obj["bound"] == 0.0


@pytest.mark.parametrize("t", ["0", "-1", "9", "20"])
def test_leakage_weight_outside_one_to_m_is_domain_error(capsys, t):
    code, out = run_cli(
        ["leakage", "--p", "11", "--m", "8", "--n", "6", "--t", t], capsys
    )
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("buckets", ["single", "cyclic"])
@pytest.mark.parametrize("flag", [["--lambda", "0.3"], ["--eps", "5"], ["--eps", "0.05"]])
def test_leakage_random_bucket_flags_with_other_buckets_are_domain_error(capsys, buckets, flag):
    code = main(["leakage", "--p", "11", "--m", "8", "--n", "6", "--t", "8",
                 "--buckets", buckets, *flag])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "random buckets only" in captured.err


def test_leakage_random_bucket_eps_defaults_to_five_hundredths(capsys):
    # at lambda 0.5 the entropy term sets J: eps 0.04, 0.05, 0.06 give 8, 9, 10
    argv = ["leakage", "--p", "11", "--m", "8", "--n", "6", "--t", "8",
            "--buckets", "random", "--lambda", "0.5"]
    code, out = run_cli(argv, capsys)
    assert code == 0 and json.loads(out)["J"] == 9
    assert run_cli(argv + ["--eps", "0.05"], capsys) == (0, out)
    assert json.loads(run_cli(argv + ["--eps", "0.06"], capsys)[1])["J"] == 10


@pytest.mark.parametrize("eps, message", [
    ("nan", "--eps must be a finite number"), ("inf", "--eps must be a finite number"),
    ("-inf", "--eps must be a finite number"), ("1000", "buckets exceed budget"),
])
def test_leakage_non_finite_or_huge_eps_exits_two_with_its_reason(capsys, eps, message):
    # a huge eps overruns the bucket budget before exp(m rate) can overflow
    code = main(["leakage", "--p", "11", "--m", "8", "--n", "6", "--t", "7",
                 "--buckets", "random", "--lambda", "0.3", f"--eps={eps}"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


@pytest.mark.parametrize("shape, lam", [(("11", "10", "7", "8"), "0.000001"),
                                        (("7", "6", "5", "6"), "0.3")])
def test_leakage_random_bucket_lambda_below_the_feasible_region_exits_two(capsys, shape, lam):
    # below 6 mu - 2 the entropy argument (2 mu - lambda) / (2 - 4 mu) passes 1
    p, m, n, t = shape
    code = main(["leakage", "--p", p, "--m", m, "--n", n, "--t", t,
                 "--buckets", "random", "--lambda", lam])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "lambda target outside the feasible region" in captured.err
    assert "Traceback" not in captured.err


def test_thresholds_rho_outside_unit_interval_is_domain_error(capsys):
    code, out = run_cli(["thresholds", "--rho", "1.5", "--bound", "biased"], capsys)
    assert code == 2
    assert out == ""


def test_curve_figure3_requires_rho(tmp_path, capsys):
    code, _ = run_cli(["curve", "--figure", "3", "--grid", "5"], capsys)
    assert code == 2
    out = tmp_path / "f3.csv"
    code, _ = run_cli(
        ["curve", "--figure", "3", "--grid", "8", "--rho", "0.6", "--out", str(out)],
        capsys,
    )
    assert code == 0
    header = out.read_text().splitlines()[0]
    assert header == "rho,two_mu,scl_rho,improved,delta_star,tau_star,gamma_star"


@pytest.mark.parametrize("rho", ["0", "1"])
def test_curve_rho_outside_unit_interval_is_domain_error(tmp_path, capsys, rho):
    out = tmp_path / "f4.csv"
    code, _ = run_cli(
        ["curve", "--figure", "4", "--grid", "5", "--rho", rho, "--out", str(out)], capsys
    )
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize("grid", ["0", "-3"])
def test_curve_empty_grid_is_domain_error(tmp_path, capsys, grid):
    out = tmp_path / "f1.csv"
    code, _ = run_cli(["curve", "--figure", "1", "--grid", grid, "--out", str(out)], capsys)
    assert code == 2
    assert not out.exists()


def test_verify_all_runs_quickly(capsys):
    import time

    t0 = time.perf_counter()
    code, out = run_cli(["verify", "--suite", "all", "--seed", "1"], capsys)
    elapsed = time.perf_counter() - t0
    assert code == 0
    assert json.loads(out)["passed"]
    assert elapsed < 600  # the full suite stays well inside ten minutes


def test_verify_deterministic(capsys):
    _, out1 = run_cli(
        ["verify", "--suite", "fourier", "--p", "7", "--m", "6", "--n", "3",
         "--seed", "11"],
        capsys,
    )
    _, out2 = run_cli(
        ["verify", "--suite", "fourier", "--p", "7", "--m", "6", "--n", "3",
         "--seed", "11"],
        capsys,
    )
    assert out1 == out2


def test_budget_env_override(tmp_path, capsys):
    env = dict(os.environ, OPILAB_BUDGET="10", PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, "-m", "opilab.cli", "oracle", "--p", "7", "--m", "6", "--n",
         "3", "--search", "1", "--size", "2"],
        capture_output=True, text=True, cwd=Path(__file__).resolve().parent.parent,
        env=env,
    )
    assert proc.returncode == 2  # p^n = 343 > 10


def test_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "opilab.cli", "thresholds", "--rho", "0.5",
         "--bound", "avg"],
        capture_output=True, text=True,
        cwd=Path(__file__).resolve().parent.parent,
        env=dict(os.environ, PYTHONPATH="src"),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["two_mu1"] == pytest.approx(0.7526, abs=5e-4)


def test_verify_discrepancy_never_imports_mpmath():
    # the canonical sampler's ratio runs in decimal; mpmath is a test extra
    script = ("import sys\n"
              "from opilab.cli import main\n"
              "code = main(['verify', '--suite', 'discrepancy'])\n"
              "print(code, 'mpmath' in sys.modules, file=sys.stderr)\n")
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        cwd=Path(__file__).resolve().parent.parent,
        env=dict(os.environ, PYTHONPATH="src"),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["passed"]
    assert proc.stderr.splitlines()[-1] == "0 False"


def test_thresholds_and_curves_never_import_numpy(tmp_path):
    # they read only the pure-Python rates; numpy comes in with the kernels,
    # which stay registered in sys.modules for tools that walk it
    script = ("import sys\n"
              "from opilab.cli import main\n"
              "codes = [main(argv) for argv in (\n"
              "    ['thresholds', '--rho', '0.5', '--bound', 'best'],\n"
              f"    ['curve', '--figure', '1', '--grid', '5', '--out', {str(tmp_path / '1.csv')!r}],\n"
              f"    ['curve', '--figure', '4', '--grid', '5', '--out', {str(tmp_path / '4.csv')!r}])]\n"
              "kernels = all(f'opilab.{m}' in sys.modules\n"
              "              for m in ('codes', 'discrepancy', 'leakage', 'verify'))\n"
              "print(codes, sorted({'numpy', 'mpmath'} & set(sys.modules)), kernels,\n"
              "      file=sys.stderr)\n")
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        cwd=Path(__file__).resolve().parent.parent,
        env=dict(os.environ, PYTHONPATH="src"),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == "[0, 0, 0] [] True"


def test_the_cached_parser_carries_no_state_between_calls(tmp_path, monkeypatch, capsys):
    assert build_parser() is build_parser()
    # argparse wraps its usage text to the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    out = tmp_path / "out"
    out.mkdir()

    def written(run):
        """run()'s result and the files it wrote under `out`."""
        for path in out.iterdir():
            path.unlink()
        return run(), {path.name: path.read_bytes() for path in out.iterdir()}

    def in_process(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def fresh(argv):
        proc = subprocess.run(
            [sys.executable, "-m", "opilab.cli", *argv], capture_output=True, text=True,
            cwd=Path(__file__).resolve().parent.parent,
            env=dict(os.environ, PYTHONPATH="src"),
        )
        return proc.returncode, proc.stdout, proc.stderr

    thresholds = ["thresholds", "--rho", "0.3", "--bound", "biased"]
    calls = [
        ["thresholds", "--rho", "0.3"],  # no --bound: a usage error, SystemExit 2
        [*thresholds, "--out", str(out / "t.json")],
        thresholds,
        ["verify", "--suite", "kravchuk"],
        ["curve", "--figure", "4", "--grid", "5", "--out", str(out / "f4.csv")],
    ]
    for argv in calls:
        assert written(lambda: in_process(argv)) == written(lambda: fresh(argv)), argv


def test_verify_budget_limit_is_usage_error(monkeypatch, capsys):
    # the split-bound checks enumerate p^(m-n) = 121 dual codewords
    monkeypatch.setenv("OPILAB_BUDGET", "120")
    code = main(["verify", "--suite", "leakage"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "exceeds budget" in captured.err


def test_non_integer_budget_variable_is_named_in_the_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("OPILAB_BUDGET", "abc")
    code = main(["verify", "--suite", "moments"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: OPILAB_BUDGET must be an integer, got 'abc'\n"


def test_verify_identity_violation_record_has_null_residual(monkeypatch):
    from opilab import leakage

    monkeypatch.setattr(leakage, "coverage_count", lambda m, n, lam: -1)
    records = verify.run_suite("leakage")
    failed = [r for r in records if r["status"] == "fail"]
    assert failed == [{"identity": "coverage_count_formula", "instance": {"m": 10, "n": 7},
                       "mode": "exact", "max_abs_residual": None, "status": "fail",
                       "error": "fails first at lambda=0.2"}]
    json.dumps(records, allow_nan=False)


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_leakage_budget_obeys_a_lower_cap_after_a_cached_pass(capsys):
    argv = ["leakage", "--p", "11", "--m", "8", "--n", "6", "--t", "7"]
    assert run_cli(argv, capsys)[0] == 0  # caches the instance's dual pass
    assert main([*argv, "--budget", "100"]) == 2  # p^(m-n) = 121
    captured = capsys.readouterr()
    assert captured.out == "" and "p^(m-n) = 121 exceeds budget" in captured.err


@pytest.mark.parametrize("argv", [
    ["oracle", "--p", "9223372036854775837", "--m", "2", "--n", "1", "--search", "1"],
    ["leakage", "--p", "9223372036854775837", "--m", "3", "--n", "2", "--t", "3"],
    ["verify", "--suite", "moments", "--p", "9223372036854775837", "--m", "2", "--n", "1"],
    ["verify", "--suite", "moments", "--p", "2305843009213693951", "--m", "2", "--n", "1"],
])
def test_a_field_past_the_budget_exits_two_naming_p_before_any_list_is_drawn(argv, capsys):
    # both are primes; each command enumerates at least p elements
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --p {argv[argv.index('--p') + 1]} exceeds the " \
                           f"enumeration budget {codes.DEFAULT_ENUM_BUDGET}\n"


def test_leakage_nonzero_dual_sum_below_dual_distance_is_violation(monkeypatch, capsys):
    from opilab import discrepancy

    half = QuadExt.of(Fraction(1, 2), 0, 1)
    monkeypatch.setattr(discrepancy, "expected_discrepancy_fourier",
                        lambda code, lists, budget=None: [half] * (code.m + 1))
    code, out = run_cli(["leakage", "--p", "11", "--m", "8", "--n", "6", "--t", "3"], capsys)
    assert code == 1
    obj = json.loads(out, parse_constant=_reject_constant)
    assert obj["status"] == "identity_violation"
    assert "below the dual distance" in obj["message"]
    assert obj["instance"]


@pytest.mark.parametrize("argv", [
    ["oracle", "--p", "7", "--m", "6", "--n", "3", "--search", "2", "--size", "0"],
    ["oracle", "--p", "7", "--m", "6", "--n", "3", "--search", "2", "--size", "9"],
    ["oracle", "--p", "7", "--m", "6", "--n", "3", "--search", "2", "--size", "-3"],
    ["oracle", "--p", "7", "--m", "4", "--n", "2", "--search", "-1"],
    ["leakage", "--p", "11", "--m", "8", "--n", "6", "--t", "8", "--size", "11"],
    ["leakage", "--p", "11", "--m", "8", "--n", "6", "--t", "8", "--lists", "FULL_LISTS"],
])
def test_size_search_and_density_outside_domain_is_usage_error(tmp_path, capsys, argv):
    full = tmp_path / "full.json"
    full.write_text(json.dumps({"p": 11, "sets": [list(range(11))] * 8}))  # density 1
    code = main([str(full) if a == "FULL_LISTS" else a for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


@pytest.mark.parametrize("suite", ["moments", "discrepancy", "fourier", "leakage"])
@pytest.mark.parametrize("flag", ["--p", "--m", "--n"])
def test_verify_zero_instance_flag_is_usage_error(capsys, suite, flag):
    # 0 used to fall back silently to the suite's default instance
    code = main(["verify", "--suite", suite, flag, "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_oracle_names_a_length_above_the_field_size(capsys):
    code = main(["oracle", "--p", "5", "--m", "7", "--n", "3", "--search", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: m=7 exceeds field size p=5\n"


@pytest.mark.parametrize("precision, want", [(0, 2), (8, 2), (10, 0), (12, 0), (14, 0)])
def test_verify_precision_below_ten_digits_is_usage_error(capsys, precision, want):
    code = main(["verify", "--suite", "discrepancy", "--precision", str(precision)])
    captured = capsys.readouterr()
    assert code == want
    if want == 2:
        assert captured.out == ""
        assert captured.err == f"error: precision must be at least 10 digits, got {precision}\n"
    else:
        assert json.loads(captured.out)["passed"]


@pytest.mark.parametrize("argv", [
    ["thresholds", "--rho", "0.5", "--bound", "best", "--seed", "1"],
    ["thresholds", "--rho", "0.5", "--bound", "best", "--budget", "10"],
    ["thresholds", "--rho", "0.5", "--bound", "best", "--precision", "30"],
    ["curve", "--figure", "1", "--grid", "5", "--seed", "1"],
    ["curve", "--figure", "1", "--grid", "5", "--budget", "10"],
    ["curve", "--figure", "1", "--grid", "5", "--precision", "30"],
    ["oracle", "--p", "7", "--m", "6", "--n", "3", "--search", "1", "--precision", "30"],
    ["leakage", "--p", "11", "--m", "8", "--n", "6", "--t", "7", "--precision", "30"],
    ["verify", "--suite", "moments", "--budget", "10"],
])
def test_flag_the_subcommand_never_reads_is_rejected(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err
    assert not (tmp_path / "out").exists()


def test_fourier_suite_makes_one_dual_pass_per_instance(monkeypatch):
    # the dual-route check, transcript_scaling's two routes and the split
    # bound all read the instance's one shared pass; plus dual_distance's
    # one pass per run
    leakage._character_sums.cache_clear()
    passes = []
    original = codes.dual_codewords

    def counting(code, budget=None):
        passes.append(code.m)
        return original(code, budget)

    monkeypatch.setattr(codes, "dual_codewords", counting)
    records = verify.run_suite("fourier", seed=3)
    assert [r["status"] for r in records] == ["pass"] * 7
    assert len(passes) == 3 * 1 + 1


def test_verify_all_yields_a_record_for_every_row(capsys):
    code, out = run_cli(["verify", "--suite", "all"], capsys)
    report = json.loads(out)
    assert code == 0 and report["passed"]
    assert report["checks"] == 60
    assert {r["identity"] for r in report["identities"]} == {row.identity for row in verify.ROWS}
    fourier = [(r["mode"], r["max_abs_residual"]) for r in report["identities"]
               if r["identity"] in ("dual_sum_vs_enumeration", "transcript_scaling",
                                    "projection_parseval_chain")]
    assert fourier == [("exact", 0.0)] * 7


# sha256 of the code-reading and kravchuk suites' records under `verify
# --suite all`, serialized as the command serializes its report, before the
# asymptotic suite was added
_RECORDS_BEFORE_ASYMPTOTIC = {
    0: "c13605a325a04228a4a2002e0a6a05095c71cd3b53163b3a58c184a544db03c9",
    1: "1e6fd68c6c5747612333dc414d8783973345d5b26d43712ef61cbd618eaab718",
    42: "631f7ea1370e80d69d27da6e9e86dc8c98758d613111811afe5ce4a3344de591",
}


@pytest.mark.parametrize("seed", sorted(_RECORDS_BEFORE_ASYMPTOTIC))
def test_verify_all_keeps_its_records_and_appends_the_asymptotic_suite(capsys, seed):
    code, out = run_cli(["verify", "--suite", "all", "--seed", str(seed)], capsys)
    report = json.loads(out)
    assert code == 0 and report["passed"]
    asymptotic = verify.run_suite("asymptotic", seed=seed)
    records = report["identities"]
    assert len(asymptotic) == 5 and records[-5:] == asymptotic
    text = json.dumps(records[:-5], sort_keys=True, indent=2, allow_nan=False)
    assert hashlib.sha256(text.encode()).hexdigest() == _RECORDS_BEFORE_ASYMPTOTIC[seed]


def _broken_orthogonality(fam):
    raise IdentityViolationError(f"orthogonality failed at m={fam.m}")


def test_orthogonality_row_checks_a_cached_family(monkeypatch):
    from opilab import kravchuk

    verify.run_suite("kravchuk")  # every family the suite reads is now cached
    monkeypatch.setattr(kravchuk, "_assert_orthogonality", _broken_orthogonality)
    records = [r for r in verify.run_suite("kravchuk") if r["identity"] == "orthogonality"]
    assert len(records) == 3
    assert all(r["status"] == "fail" and "orthogonality failed" in r["error"] for r in records)


def test_violation_while_building_an_instance_keeps_the_report(monkeypatch, capsys):
    from opilab import kravchuk

    monkeypatch.setattr(kravchuk, "_assert_orthogonality", _broken_orthogonality)
    kravchuk.build_family.cache_clear()
    code, out = run_cli(["verify", "--suite", "kravchuk"], capsys)
    report = json.loads(out)
    assert code == 1 and report["passed"] is False
    records = report["identities"]
    assert report["checks"] == len(records) == 17
    # the m rows fail at their instance's build, the rho rows inside their check
    assert all(r["status"] == "fail" and "orthogonality failed" in r["error"] for r in records)
    assert [r["instance"] for r in records[:5]] == [{"m": 6}] * 5


def _off_at(original, when):
    """original(*args), plus 1 where when(*args) holds."""
    return lambda *args: original(*args) + (1 if when(*args) else 0)


@pytest.mark.parametrize("suite, module, name, when, identity, index", [
    ("discrepancy", "discrepancy", "weighted_pair_count_brute",
     lambda k, kp, t, m, rho: (k, kp, t) == (1, 1, 2), "pair_count_enumeration", "k=1, k'=1, t=2"),
    ("discrepancy", "discrepancy", "count_sym_diff_zero_closed",
     lambda ks, m: ks == [1, 3], "sym_diff_zero_closed_form", "ks=[1, 3]"),
    ("discrepancy", "discrepancy", "discrepancy_from_count",
     lambda m, rho, sat, k: k == 2, "pointwise_collapse", ", k=2"),
    ("fourier", "codes", "min_dual_weight", lambda code: True, "dual_distance", "weight=5"),
    ("kravchuk", "discrepancy", "quadratic_form_satisfaction",
     lambda m, ell, u: True, "kkt_quadratic_form", "ell=2"),
])
def test_a_disagreeing_route_fails_its_row_at_the_first_index(monkeypatch, capsys, suite,
                                                               module, name, when, identity,
                                                               index):
    mod = importlib.import_module(f"opilab.{module}")
    monkeypatch.setattr(mod, name, _off_at(getattr(mod, name), when))
    code, out = run_cli(["verify", "--suite", suite], capsys)
    report = json.loads(out)
    assert code == 1 and not report["passed"]
    failed = [r for r in report["failures"] if r["identity"] == identity]
    assert failed and failed == report["failures"]
    assert failed[0]["error"].startswith("fails first at ") and failed[0]["error"].endswith(index)
    assert failed[0]["max_abs_residual"] is None


def test_verify_all_runs_leakage_at_the_given_shape():
    # leakage is the last code-reading suite; the asymptotic suite follows it
    records = verify.run_suite("all", p=5, m=4, n=3)
    leakage = verify.run_suite("leakage", p=5, m=4, n=3)
    asymptotic = verify.run_suite("asymptotic")
    assert records[-len(leakage) - len(asymptotic):] == leakage + asymptotic
    shaped = [r for r in leakage if "p" in r["instance"]]
    assert shaped and all(r["instance"]["p"] == 5 for r in shaped)


@pytest.mark.parametrize("shape, identity, skipped", [
    (["--suite", "leakage", "--p", "7", "--m", "6", "--n", "3"],
     "bucket_split_bound_dominates", 6),  # buckets need 2n > m
    (["--suite", "moments", "--p", "2", "--m", "1", "--n", "1"],
     "principal_interlacing", 3),  # a principal representation needs 2 ell <= m
])
def test_verify_lists_checks_the_shape_cannot_run_as_skipped(shape, identity, skipped, capsys):
    code, out = run_cli(["verify", *shape], capsys)
    assert code == 0
    report = json.loads(out)
    records = [r for r in report["identities"] if r["status"] == "skipped"]
    assert [r["identity"] for r in records] == [identity] * skipped
    assert all(r["reason"] and r["max_abs_residual"] is None for r in records)
    assert report["checks"] == len(report["identities"]) > skipped
    assert report["passed"] and report["failures"] == []


def _assert_usage_error(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


def test_lists_path_naming_a_directory_is_usage_error(tmp_path, capsys):
    _assert_usage_error(["oracle", "--p", "7", "--m", "6", "--n", "3",
                         "--lists", str(tmp_path)], capsys)


@pytest.mark.parametrize("content", ['{"p": 7}', '{"sets": [[0, 1]]}', "[[0, 1]]",
                                     '{"p": 7, "sets": 3}', '{"p": 7, "sets": []}'])
def test_lists_file_without_p_and_sets_is_usage_error(tmp_path, capsys, content):
    lists = tmp_path / "lists.json"
    lists.write_text(content)
    _assert_usage_error(["leakage", "--p", "7", "--m", "6", "--n", "3", "--t", "4",
                         "--lists", str(lists)], capsys)


@pytest.mark.parametrize("argv, message", [
    (["oracle", "--p", "7", "--m", "5", "--n", "3"], "lists file does not match --p/--m"),
    (["oracle", "--p", "11", "--m", "6", "--n", "3"], "lists file does not match --p/--m"),
    (["leakage", "--p", "7", "--m", "5", "--n", "3", "--t", "4"],
     "lists file does not match --p/--m"),
    # --size is checked before the lists file is read
    (["leakage", "--p", "7", "--m", "5", "--n", "3", "--t", "4", "--size", "9"],
     "--size must lie in [1, p-1] = [1, 6], got 9"),
])
def test_lists_file_of_another_shape_is_usage_error(tmp_path, capsys, argv, message):
    lists = tmp_path / "lists.json"
    lists.write_text(json.dumps({"p": 7, "sets": [[0, 1, 2]] * 6}))
    code = main([*argv, "--lists", str(lists)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"error: {message}\n"


def test_out_into_a_missing_directory_leaves_stdout_empty(tmp_path, capsys):
    _assert_usage_error(["thresholds", "--rho", "0.5", "--bound", "best",
                         "--out", str(tmp_path / "missing" / "x.json")], capsys)


@pytest.mark.parametrize("argv, flag", [
    (["oracle", "--p", "7", "--m", "6", "--n", "3", "--search", "2", "--points", ""], "--points"),
    (["leakage", "--p", "11", "--m", "8", "--n", "6", "--t", "7", "--points", ""], "--points"),
    (["leakage", "--p", "11", "--m", "8", "--n", "6", "--t", "7", "--lists", ""], "--lists"),
    (["oracle", "--p", "7", "--m", "6", "--n", "3", "--lists", ""], "--lists"),
    (["oracle", "--p", "7", "--m", "6", "--n", "3", "--search", "2", "--lists", ""], "--lists"),
    (["thresholds", "--rho", "0.5", "--bound", "best", "--out", ""], "--out"),
])
def test_empty_flag_value_is_usage_error_naming_the_flag(capsys, argv, flag):
    # an empty value used to read as "not given": default points, random lists
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {flag} is empty\n"


@pytest.mark.parametrize("points", ["1,2,x", "0,1,2,3,4,", "0,1.5,2,3,4,5"])
def test_non_integer_point_names_the_points_flag(capsys, points):
    code = main(["oracle", "--p", "7", "--m", "6", "--n", "3", "--search", "1",
                 "--points", points])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: --points must be comma-separated integers, got {points!r}\n"
