"""Property test of the command-line contract on small integer flags,
in range and out of it: the exit code is 0, 1 or 2; stdout is strict JSON,
or empty on exit 2; and exit 1 comes only with an identity-violation
payload.  Runs in process and starts no subprocess."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from opilab.cli import main


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _mostly(lo, hi, wide_lo, wide_hi):
    """Integers in [lo, hi] half of the time, else in the wider range."""
    return st.integers(lo, hi) | st.integers(wide_lo, wide_hi)


@st.composite
def oracle_or_leakage_argv(draw):
    argv = [
        "--p", str(draw(st.sampled_from([2, 3, 5, 7, 11, 13]) | st.integers(-1, 13))),
        "--m", str(draw(_mostly(2, 8, -1, 8))),
        "--n", str(draw(_mostly(1, 7, -1, 9))),
        "--seed", str(draw(st.integers(0, 3))),
        "--budget", "5000",  # keeps every enumeration small
    ]
    size = draw(st.none() | _mostly(1, 12, -2, 14))
    if size is not None:
        argv += ["--size", str(size)]
    if draw(st.booleans()):
        return ["oracle", *argv, "--search", str(draw(_mostly(1, 3, -2, 3)))]
    return ["leakage", *argv, "--t", str(draw(_mostly(1, 8, -1, 9))),
            "--buckets", draw(st.sampled_from(["single", "cyclic", "random"]))]


@settings(max_examples=200, deadline=None)
@given(oracle_or_leakage_argv())
def test_cli_exit_code_and_stdout_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, code)
    text = out.getvalue()
    if code == 2:
        assert text == "", (argv, text)
        assert err.getvalue().startswith("error: "), (argv, err.getvalue())
        return
    obj = json.loads(text, parse_constant=_reject_constant)
    if code == 1:
        assert obj["status"] == "identity_violation", (argv, obj)
