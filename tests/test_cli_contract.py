"""Property test of the command-line contract on small flags, in range and
out of it: the exit code is 0, 1 or 2; stdout is strict JSON (or the
`wrote N rows` line of `curve`), or empty on exit 2; exit 1 comes only with
an identity-violation payload, or from `verify` with `"passed": false`.
Runs in process and starts no subprocess."""

import io
import json
import math
import os
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from opilab.cli import main
from opilab.rates import BOUND_KINDS


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _mostly(lo, hi, wide_lo, wide_hi):
    """Integers in [lo, hi] half of the time, else in the wider range."""
    return st.integers(lo, hi) | st.integers(wide_lo, wide_hi)


def _rho():
    """Densities inside (0, 1) half of the time, else on or past its ends."""
    return (st.floats(0.01, 0.99)
            | st.sampled_from([0.0, 1.0, -0.5, 1.5, 0.5])
            | st.floats(-1.0, 2.0))


def _run_and_check(argv, allow_argparse_exit=False):
    """Run `opilab <argv>` and assert the contract.  An argparse exit (e.g.
    on `--rho -1e-68`) passes only under `allow_argparse_exit`."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert allow_argparse_exit, (argv, exc.code, err.getvalue())
            assert exc.code == 2, (argv, exc.code)
            assert out.getvalue() == "" and "error: " in err.getvalue(), (argv, err.getvalue())
            return
    assert code in (0, 1, 2), (argv, code)
    text = out.getvalue()
    if code == 2:
        assert text == "", (argv, text)
        assert err.getvalue().startswith("error: "), (argv, err.getvalue())
        return
    if argv[0] == "curve" and code == 0:
        assert re.fullmatch(r"wrote \d+ rows to .+\n", text), (argv, text)
        return
    obj = json.loads(text, parse_constant=_reject_constant)
    if code == 1:
        if argv[0] == "verify":
            assert obj["passed"] is False, (argv, obj)
        else:
            assert obj["status"] == "identity_violation", (argv, obj)


_LISTS_TEXT = {
    "missing": None,  # the path is never written
    "no_sets": json.dumps({"p": 7}),
    "not_json": "p = 7, sets = [[0]]",
}


@st.composite
def oracle_or_leakage_argv(draw):
    """An oracle or leakage argv in which "{tmp}" stands for a fresh
    temporary directory, and the files (name -> text) to write there."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13]) | st.integers(-1, 13))
    m = draw(_mostly(2, 8, -1, 8))
    argv = [
        "--p", str(p),
        "--m", str(m),
        "--n", str(draw(_mostly(1, 7, -1, 9))),
        "--seed", str(draw(st.integers(0, 3))),
        "--budget", "5000",  # keeps every enumeration small
    ]
    size = draw(st.none() | _mostly(1, 12, -2, 14))
    if size is not None:
        argv += ["--size", str(size)]
    files = {}
    kind = draw(st.none() | st.sampled_from(["missing", "directory", "no_sets", "not_json",
                                             "valid"]))
    if kind == "directory":
        argv += ["--lists", "{tmp}"]
    elif kind is not None:
        argv += ["--lists", "{tmp}/lists.json"]
        text = (json.dumps({"p": p, "sets": [[0]] * m}) if kind == "valid"
                else _LISTS_TEXT[kind])
        if text is not None:
            files["lists.json"] = text
    if draw(st.booleans()):
        argv += ["--out", "{tmp}/missing/out.json"]
    if draw(st.booleans()):
        return ["oracle", *argv, "--search", str(draw(_mostly(1, 3, -2, 3)))], files
    argv += ["--t", str(draw(_mostly(1, 8, -1, 9))),
             "--buckets", draw(st.sampled_from(["single", "cyclic", "random"]))]
    lam = draw(st.none() | st.floats(-0.5, 1.5, allow_nan=False))
    if lam is not None:
        argv.append(f"--lambda={lam!r}")  # "=" keeps "-1e-05" a value
    eps = draw(st.none() | st.floats(-1.0, 5.0, allow_nan=False)
               | st.sampled_from([math.nan, math.inf, -math.inf, 1000.0]))
    if eps is not None:
        argv.append(f"--eps={eps!r}")
    return ["leakage", *argv], files


_RANDOM_BUCKETS = ["leakage", "--p", "11", "--m", "8", "--n", "6", "--t", "7",
                   "--buckets", "random", "--lambda", "0.3"]


@settings(max_examples=200, deadline=None)
@given(oracle_or_leakage_argv())
@example((_RANDOM_BUCKETS + ["--eps=inf"], {}))
@example((_RANDOM_BUCKETS + ["--eps=1000.0"], {}))
@example((_RANDOM_BUCKETS + ["--eps=nan"], {}))
def test_cli_exit_code_and_stdout_contract(case):
    argv, files = case
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            with open(os.path.join(tmp, name), "w") as fh:
                fh.write(text)
        _run_and_check([a.format(tmp=tmp) for a in argv])


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(BOUND_KINDS), _rho())
def test_thresholds_contract(bound, rho):
    _run_and_check(["thresholds", "--rho", repr(rho), "--bound", bound],
                   allow_argparse_exit=True)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 4), st.integers(-2, 4), st.none() | _rho())
@example(4, 1, 2.2250738585e-313)  # a subnormal density: f_rho's square overflowed a float
def test_curve_contract(figure, grid, rho):
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["curve", "--figure", str(figure), "--grid", str(grid),
                "--out", os.path.join(tmp, "figure.csv")]
        if rho is not None:
            argv += ["--rho", repr(rho)]
        _run_and_check(argv, allow_argparse_exit=True)


@st.composite
def verify_argv(draw):
    argv = ["verify",
            "--suite", draw(st.sampled_from(["moments", "discrepancy", "fourier", "leakage"])),
            "--seed", str(draw(st.integers(0, 3))),
            "--precision", str(draw(_mostly(10, 70, -1, 70)))]
    shape = {"--p": st.sampled_from([5, 7]) | st.integers(-1, 8),
             "--m": _mostly(4, 7, -1, 8),
             "--n": _mostly(1, 4, -1, 8)}
    for flag, values in shape.items():
        value = draw(st.none() | values)
        if value is not None:
            argv += [flag, str(value)]
    return argv


@settings(max_examples=40, deadline=None)
@given(verify_argv())
def test_verify_contract(argv):
    # verify reads its enumeration cap from the environment only
    with mock.patch.dict(os.environ, {"OPILAB_BUDGET": "5000"}):
        _run_and_check(argv)
