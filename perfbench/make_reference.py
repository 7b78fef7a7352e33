"""Regenerate the committed reference outputs of the fixed-grid workloads.

    PYTHONPATH=src python3 perfbench/make_reference.py

Writes perfbench/reference/<workload>.<scale>.json for `asymptotic` and
`finite_m` at both sizes.  Run it only when the program's outputs are
meant to change; the benchmark compares every run against these files.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import reference
from workloads import Asymptotic, FiniteM


def outputs(workload) -> dict:
    out = {}
    for op in workload.ops():
        result = workload.run(op)
        if isinstance(workload, Asymptotic) and "argv" in op.args:
            code, stdout = result
            if code != 0:
                raise SystemExit(f"{op.label}: exit code {code}")
            if "csv" in op.args:
                result = reference.parse_csv(Path(op.args["csv"]).read_text())
            else:
                result = json.loads(stdout)
        out[op.label] = result
    return out


def main() -> int:
    reference.DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent.parent) as tmp:
        for cls in (Asymptotic, FiniteM):
            for scale in ("tiny", "full"):
                workload = cls(0, scale, Path(tmp))
                data = outputs(workload)
                reference.path(cls.name, scale).write_text(
                    json.dumps(data, indent=1, sort_keys=True) + "\n")
                print(f"wrote {reference.path(cls.name, scale)} ({len(data)} ops)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
