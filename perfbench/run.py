"""opilab benchmark: run one workload for a fixed time and report its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the program is imported from `src`.
Passes run one at a time, each in a fresh interpreter, as many as fit in
`--seconds`.  Times are reported at a reference speed of the host (see
`scaled_op_ms`).  With `--trace 0` the last line of stdout is the JSON result
with the end-to-end metrics of BENCHMARK.json; with `--trace 1` untraced
and traced passes alternate and the result carries the per-layer metrics.
The line before it records the run's provenance and extra statistics, and
the whole record is written under `.bench_build/results`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("asymptotic", "desk_exact", "large_instances", "finite_m")
RUN_LIMIT_S = 160.0  # no pass starts that would end a run after this
PASS_TIMEOUT_S = 170.0
P95_MIN_SAMPLES = 200
# The reference kernels' times (one_pass.reference_kernel_ms) on the
# 2-vCPU VM the baseline was taken on, when the host was quiet.  Times are
# reported at this reference speed.
REFERENCE_MS = {"fraction": 4.6, "float": 5.1, "array": 3.0}


class BenchError(Exception):
    """The benchmark could not measure: a pass process failed or the
    program is missing."""


def git_revision(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance() -> dict:
    src = sorted((ROOT / "src" / "opilab").glob("*.py"))
    digest = hashlib.sha256()
    for path in src:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_revision": git_revision(ROOT),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "mpmath": metadata.version("mpmath"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("OPILAB_BUDGET", None)  # measure at the default enumeration budget
    return env


def run_pass(workload: str, seed: int, scale: str, trace: bool, index: int) -> dict:
    """One pass in a fresh interpreter; waits for it to end."""
    tag = f"{workload}-s{seed}-{scale}"
    cmd = [sys.executable, str(ROOT / "perfbench" / "one_pass.py"),
           "--workload", workload, "--seed", str(seed), "--scale", scale,
           "--trace", str(int(trace)), "--workdir", str(BUILD / "work" / tag)]
    if trace:
        spans = BUILD / "spans" / f"{tag}-pass{index}.json"
        spans.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans)]
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass {index} of {workload} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"pass {index} of {workload} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["first_op_at"] - spawned_at
    result["traced"] = trace
    return result


def run_passes(workload: str, seed: int, seconds: float, scale: str, trace: bool) -> list:
    """Passes until the next one would end after `seconds`; with tracing,
    untraced and traced passes alternate so both have the same conditions."""
    started = time.monotonic()
    passes = []
    while True:
        for traced in ((False, True) if trace else (False,)):
            passes.append(run_pass(workload, seed, scale, traced, len(passes)))
        elapsed = time.monotonic() - started
        step = elapsed / (len(passes) / (2 if trace else 1))
        if elapsed + step > min(seconds, RUN_LIMIT_S):
            return passes


def scaled_op_ms(passes: list) -> list:
    """Each op's time at the reference speed, as the median over the passes.

    The host's speed drifts by up to half within minutes, and a slow phase
    slows an op and the reference kernel of its kind of work alike.  So
    each op's time is scaled by the kernel's quiet time, REFERENCE_MS,
    over the mean of the reference samples taken just before and just
    after it."""
    per_pass = []
    for p in passes:
        ref, quiet = p["reference_ms"], REFERENCE_MS[p["reference"]]
        per_pass.append([ms * 2 * quiet / (ref[i] + ref[i + 1])
                         for i, ms in enumerate(p["op_ms"])])
    return [statistics.median(times) for times in zip(*per_pass)]


def scaled_setup_s(p: dict) -> float:
    """The pass's set-up time at the reference speed of its own samples."""
    return p["setup_s"] * REFERENCE_MS[p["reference"]] / statistics.median(p["reference_ms"])


def end_to_end(passes: list) -> dict:
    ops = scaled_op_ms(passes)
    return {
        "setup_s": statistics.median(scaled_setup_s(p) for p in passes),
        "run_s": sum(ops) / 1000.0,
        "op_p50_ms": statistics.median(v for v, t in zip(ops, passes[0]["timed"]) if t),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def per_layer(untraced: list, traced: list) -> dict:
    out = {name: statistics.median(p["layer"][name] for p in traced)
           for name in traced[0]["layer"]}
    out["trace_overhead_ratio"] = sum(scaled_op_ms(traced)) / sum(scaled_op_ms(untraced))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny sizes are for the self-test")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "opilab" / "__init__.py").is_file() or not spec_path.is_file():
        sys.stderr.write(f"error: run from a checkout with src/opilab and BENCHMARK.json "
                         f"({ROOT})\n")
        return 2
    spec = json.loads(spec_path.read_text())
    try:
        passes = run_passes(args.workload, args.seed, args.seconds, args.scale,
                            bool(args.trace))
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    if args.trace:
        values, wanted = per_layer(untraced, traced), spec["per_layer"]
    else:
        values, wanted = end_to_end(untraced), spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    latencies = sorted(v for p in untraced for v, t in zip(p["op_ms"], p["timed"]) if t)
    digests = {p["output_digest"] for p in passes}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "passes": len(passes),
        "pass_wall_s_median": statistics.median(p["wall_s"] for p in untraced),
        "setup_wall_s_median": statistics.median(p["setup_s"] for p in untraced),
        "reference_ms_median": statistics.median(v for p in untraced for v in p["reference_ms"]),
        "op_samples": len(latencies),
        "op_p95_ms": (statistics.quantiles(latencies, n=20)[-1]
                      if len(latencies) >= P95_MIN_SAMPLES else None),
        "fail_ratio": failed / attempted,
        "outputs_identical_across_passes": len(digests) == 1,
        "errors": sorted({e for p in passes for e in p["errors"]})[:20],
        "provenance": provenance(),
        "metrics": metrics,
    }
    results = BUILD / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-s{args.seed}-t{args.trace}-{args.scale}.json").write_text(
        json.dumps({**record, "pass_records": passes}, indent=1))
    print(json.dumps({k: v for k, v in record.items() if k != "metrics"}))
    print(json.dumps({
        "correct": failed == 0 and len(digests) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
