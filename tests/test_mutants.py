"""The mutation catalogue: one-line faults that `opilab verify` must see.

Each mutant replaces one text, which must occur exactly once, in a copy of
the package, and a fresh `python -m opilab.cli verify --suite <suite>
--seed 0` on that copy must exit 1.  The unmutated copy must exit 0, so a
mutant's exit 1 is the fault's and not the copy's.  When code moves and an
`old` text no longer matches, the test fails instead of skipping the mutant.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import opilab

SRC = Path(opilab.__file__).parent

# (file under the package, old text, new text, suite); the comment names the
# row that catches each mutant at seed 0
MUTANTS = (
    # tau_envelope_derivative: the biased dual-sum rate loses tau from its
    # log(rho/(1-rho)) term, which every row at tau = 0 reads unchanged
    ("rates.py", "+ (mu + tau) * math.log(rho / (1.0 - rho))",
     "+ mu * math.log(rho / (1.0 - rho))", "asymptotic"),
    # lambda_star_stationary: lambda_star reads 2/pi as a literal, the
    # random-bucket exponent reads LOG_2_OVER_PI
    ("rates.py", "return (a_coef - math.sqrt(disc)) / (2.0 * (1.0 - c))",
     "return 1.01 * (a_coef - math.sqrt(disc)) / (2.0 * (1.0 - c))", "asymptotic"),
    ("rates.py", "LOG_2_OVER_PI = math.log(2.0 / math.pi)",
     "LOG_2_OVER_PI = 1.001 * math.log(2.0 / math.pi)", "asymptotic"),
    # gamma_concave_scan: the binary search hands golden section the bracket
    # of the next scan point
    ("rates.py", "return _refined(f, xs, lo, at(lo), tol)",
     "return _refined(f, xs, lo + 1, at(lo + 1), tol)", "asymptotic"),
)


def _verify_exit(package: Path, suite: str) -> int:
    env = {k: v for k, v in os.environ.items() if k != "OPILAB_TRACE"}
    env["PYTHONPATH"] = str(package.parent)
    return subprocess.run(
        [sys.executable, "-m", "opilab.cli", "verify", "--suite", suite, "--seed", "0"],
        cwd=package.parent, env=env, capture_output=True, timeout=300,
    ).returncode


@pytest.fixture
def package(tmp_path):
    return Path(shutil.copytree(SRC, tmp_path / "opilab",
                                ignore=shutil.ignore_patterns("__pycache__")))


@pytest.mark.parametrize("suite", sorted({suite for *_, suite in MUTANTS}))
def test_the_unmutated_copy_passes(package, suite):
    assert _verify_exit(package, suite) == 0


@pytest.mark.parametrize("path, old, new, suite", MUTANTS,
                         ids=[f"{path}:{new}" for path, _, new, _ in MUTANTS])
def test_verify_fails_on_the_mutant(package, path, old, new, suite):
    target = package / path
    text = target.read_text()
    assert text.count(old) == 1, f"{old!r} occurs {text.count(old)} times in {path}"
    target.write_text(text.replace(old, new))
    assert _verify_exit(package, suite) == 1
