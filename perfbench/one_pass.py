"""One benchmark pass in a fresh interpreter.

Started by run.py with `src` on PYTHONPATH, so that in-process caches
start cold as they do for a command-line user.  Builds the workload's
inputs, runs its ops (traced when asked), checks every output after the
timed part, and prints one JSON line with the pass's measurements.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np


REFERENCE_REPEATS = 3


def _entropy(x: float) -> float:
    return -x * math.log(x) - (1 - x) * math.log(1 - x)


def _fraction_kernel() -> None:
    table, total = {}, Fraction(0)
    for i in range(1, 1500):
        total += Fraction(i % 17, i)
        table[i * 7919 % 10007] = total


def _float_kernel() -> None:
    best = 0.0
    for i in range(1, 6000):
        x = i / 6000.0
        best = max(best, _entropy(x) + 0.3 * _entropy(0.5 * x + 0.25))


def _array_kernel() -> None:
    p, m, n, width = 23, 8, 5, 1 << 14
    idx = np.arange(width, dtype=np.int64)
    X = np.empty((n, width), dtype=np.int64)
    for row in range(n):
        X[row] = (idx // p ** (n - 1 - row)) % p
    B = np.arange(m * n, dtype=np.int64).reshape(m, n) % p
    member = np.arange(m * p).reshape(m, p) % 3 == 0
    vals = (B @ X) % p
    sat = member[np.arange(m)[:, None], vals].sum(axis=0)
    np.bincount(sat, minlength=m + 1)


# A slow host slows different kinds of work by different amounts, so each
# workload is timed against the kernel that does its kind of work:
# Fraction arithmetic on growing integers with dict stores, like the exact
# side; a scan of Python-level float functions, like the `rates`
# optimisers; or chunked integer array enumeration, like `codes`.
REFERENCE_KERNELS = {"fraction": _fraction_kernel, "float": _float_kernel,
                     "array": _array_kernel}


def reference_kernel_ms(kind: str) -> float:
    """Time of one run of a fixed reference kernel.  It never touches
    opilab, so its time moves only with the speed the host gives the
    process.  The collector is off so that the program's heap cannot
    lengthen it."""
    kernel = REFERENCE_KERNELS[kind]
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return (time.perf_counter() - start) * 1000.0
    finally:
        if enabled:
            gc.enable()


def reference_sample_ms(kind: str) -> float:
    """The median of a few reference-kernel timings, taken between ops."""
    return statistics.median(reference_kernel_ms(kind) for _ in range(REFERENCE_REPEATS))


def run_pass(workload, trace: bool, spans_path=None) -> dict:
    """Run and check every op of `workload`; the tracer, if any, is
    installed for the timed part only."""
    from tracer import Tracer

    ops = workload.ops()
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    outputs, errors, op_ms, reference_ms = {}, {}, [], []
    reference_s = 0.0  # time spent on reference samples, left out of wall_s

    def sample_reference():
        nonlocal reference_s
        start = time.monotonic()
        reference_ms.append(reference_sample_ms(workload.reference))
        reference_s += time.monotonic() - start

    first_op_at = time.monotonic()
    try:
        for index, op in enumerate(ops):
            sample_reference()
            if tracer is not None:
                tracer.op = index
            start = time.perf_counter()
            try:
                outputs[op.label] = workload.run(op)
            except (Exception, SystemExit) as exc:  # a failed op never aborts the pass
                errors[op.label] = f"{type(exc).__name__}: {exc}"
            op_ms.append((time.perf_counter() - start) * 1000.0)
        sample_reference()  # brackets the last op
        wall_s = time.monotonic() - first_op_at - reference_s
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for op in ops:
        if op.label in outputs:
            try:
                workload.check(op, outputs[op.label], outputs)
            except Exception as exc:  # any check error counts as a failed op
                errors[op.label] = f"{type(exc).__name__}: {exc}"
    digest = hashlib.sha256(
        json.dumps(outputs, sort_keys=True, default=repr).encode()).hexdigest()
    result = {
        "first_op_at": first_op_at,
        "wall_s": wall_s,
        "op_ms": op_ms,
        "reference": workload.reference,
        "reference_ms": reference_ms,
        "timed": [op.timed for op in ops],
        "attempted": len(ops),
        "failed": len(errors),
        "errors": [f"{label}: {msg}" for label, msg in errors.items()],
        "peak_rss_mb": peak_rss_mb,
        "output_digest": digest,
    }
    if tracer is not None:
        result["layer"] = tracer.layer_metrics(wall_s, len(ops))
        result["patched"] = tracer.patched
        if spans_path is not None:
            tracer.write_spans(spans_path)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=("full", "tiny"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args()

    import opilab

    src = Path(__file__).resolve().parent.parent / "src"
    if not Path(opilab.__file__).resolve().is_relative_to(src.resolve()):
        sys.stderr.write(f"opilab imported from {opilab.__file__}, not from {src}\n")
        return 2
    from workloads import WORKLOADS

    args.workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.scale, args.workdir)
    result = run_pass(workload, bool(args.trace), args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
