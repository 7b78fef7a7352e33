"""Committed reference outputs and the tolerances they are compared at.

No tolerance here is looser than the one tests/test_acceptance.py or the
unit tests pin for the same quantity:

* FLOAT_ABS_TOL covers threshold rates and witnesses (pinned at 5e-4),
  the llr threshold (0.01), and figure-curve cells, where the tightest
  pins are figure 1's saturation and benchmark spot values and figure 3's
  tau_star column (1e-9).
* SEMICIRCLE_ABS_TOL covers the semicircle-law columns `scl` and
  `scl_rho`; test_rates pins semicircle_law to its closed form at 1e-15.
* Roots are isolated to +-precision both in the reference and in the
  run, so two isolations of one root differ by at most 2 * precision.

Exact outputs (Fractions, exit codes, strings) are compared exactly.
"""

from __future__ import annotations

import functools
import json
import math
from pathlib import Path

FLOAT_ABS_TOL = 1e-9
SEMICIRCLE_ABS_TOL = 1e-15
SEMICIRCLE_COLUMNS = ("scl", "scl_rho")
ROOT_TOL_OVER_PRECISION = 2

DIR = Path(__file__).resolve().parent / "reference"


def path(workload: str, scale: str) -> Path:
    return DIR / f"{workload}.{scale}.json"


@functools.lru_cache(maxsize=None)
def load(workload: str, scale: str) -> dict:
    return json.loads(path(workload, scale).read_text())


def parse_csv(text: str) -> dict:
    lines = text.strip().split("\n")
    return {"header": lines[0].split(","),
            "rows": [[float(v) for v in line.split(",")] for line in lines[1:]]}


class CheckFailed(Exception):
    """An op's output differs from what the program must produce."""


def _close(got, want, tol) -> bool:
    if isinstance(want, bool) or not isinstance(want, (int, float)):
        return got == want
    if isinstance(got, bool) or not isinstance(got, (int, float)):
        return False
    return math.isfinite(got) and abs(got - want) <= tol


def compare(label: str, got, want, where: str = "") -> None:
    """Raise CheckFailed unless `got` matches `want` within the tolerances."""
    if isinstance(want, dict) and set(want) == {"header", "rows"}:
        compare(label, got.get("header"), want["header"], where + ".header")
        if len(got["rows"]) != len(want["rows"]):
            raise CheckFailed(f"{label}: {len(got['rows'])} rows, want {len(want['rows'])}")
        for i, (grow, wrow) in enumerate(zip(got["rows"], want["rows"])):
            for col, g, w in zip(want["header"], grow, wrow):
                tol = SEMICIRCLE_ABS_TOL if col in SEMICIRCLE_COLUMNS else FLOAT_ABS_TOL
                if not _close(g, w, tol):
                    raise CheckFailed(f"{label}: row {i} {col} = {g!r}, want {w!r}")
        return
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            raise CheckFailed(f"{label}{where}: keys {sorted(got) if isinstance(got, dict) else got}")
        for key in want:
            compare(label, got[key], want[key], f"{where}.{key}")
        return
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            raise CheckFailed(f"{label}{where}: {got!r}, want {want!r}")
        for i, (g, w) in enumerate(zip(got, want)):
            compare(label, g, w, f"{where}[{i}]")
        return
    if not _close(got, want, FLOAT_ABS_TOL):
        raise CheckFailed(f"{label}{where}: {got!r}, want {want!r}")
