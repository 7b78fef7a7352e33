"""Fast self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks that every workload runs without a failed op, that traced and
untraced passes give identical outputs, that the tracer puts every
original attribute back, that `run.py` prints every metric named in
BENCHMARK.json with its unit, and that `run.py` fails without printing a
result when the program is absent.  Exits 0 when all checks pass.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "selftest"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def check(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {message}")


def attributes() -> dict:
    from opilab import quadext

    owners = [m for n, m in sys.modules.items() if n == "opilab" or n.startswith("opilab.")]
    owners.append(quadext.QuadExt)
    return {(id(o), attr): obj for o in owners for attr, obj in vars(o).items()}


def check_passes(spec: dict) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from one_pass import run_pass
    from workloads import WORKLOADS

    for name in (w["name"] for w in spec["workloads"]):
        before = attributes()
        results = []
        for trace in (False, True):
            workload = WORKLOADS[name](1, "tiny", WORK / name)
            (WORK / name).mkdir(parents=True, exist_ok=True)
            results.append(run_pass(workload, trace))
        plain, traced = results
        for result in results:
            check(result["failed"] == 0, f"{name}: failed ops {result['errors']}")
            check(len(result["reference_ms"]) == result["attempted"] + 1
                  and min(result["reference_ms"]) > 0,
                  f"{name}: reference samples {result['reference_ms']}")
        check(plain["output_digest"] == traced["output_digest"],
              f"{name}: traced and untraced outputs differ")
        check(traced["patched"] > 0, f"{name}: tracer patched nothing")
        shares = sum(v for k, v in traced["layer"].items() if k.endswith(".share"))
        check(0.0 < shares <= 1.0, f"{name}: layer self times sum to {shares} of the pass")
        after = attributes()
        check(set(after) == set(before) and all(after[k] is before[k] for k in before),
              f"{name}: tracer left a wrapper installed")
        print(f"ok  {name}: {plain['attempted']} ops, identical traced outputs, "
              f"{traced['patched']} wrappers removed")


def run_bench(workload: str, trace: int, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "2",
         "--seconds", "0.1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def check_command(spec: dict) -> None:
    for metric in spec["end_to_end"] + spec["per_layer"]:
        check(bool(NAME.match(metric["name"])), f"bad metric name {metric['name']}")
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = run_bench(workload, trace, ROOT)
            check(proc.returncode == 0, f"{workload} trace {trace}: {proc.stderr[-800:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{workload}: result keys {sorted(result)}")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{workload} trace {trace}: {result}")
            got = {n: (v["unit"], v["value"]) for n, v in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in wanted}
            check(set(got) == set(want), f"{workload} trace {trace}: metrics "
                  f"{sorted(set(got) ^ set(want))} missing or extra")
            for metric, (unit, value) in got.items():
                check(unit == want[metric], f"{workload}: {metric} has unit {unit}")
                check(isinstance(value, (int, float)) and math.isfinite(value),
                      f"{workload}: {metric} = {value!r}")
            print(f"ok  run.py {workload} --trace {trace}: {len(got)} metrics with units")


def check_without_program() -> None:
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "asymptotic", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, env=env, capture_output=True, text=True, timeout=170)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          f"run.py without the program exited {proc.returncode}: {proc.stdout[-400:]}")
    shutil.rmtree(bare)
    print(f"ok  run.py without the program exits {proc.returncode} with no result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_passes(spec)
    check_command(spec)
    check_without_program()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
