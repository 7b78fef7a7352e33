import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from opilab.cli import main


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
