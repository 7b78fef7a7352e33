"""Command-line entry point.

Subcommands: thresholds (rate-threshold queries), curve (figure CSV data),
verify (identity suites), oracle (brute-force satisfaction), leakage (split
bound vs dual sum).  JSON goes to stdout for machines, CSV to files for
plots.  Exit codes: 0 pass, 1 identity violation, 2 usage or domain error.
Identical flags and seed produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import json
import sys

from pathlib import Path

from . import SUITES, rates
from .errors import BudgetExceededError, DomainError, IdentityViolationError


def _deferred(name: str):
    """`opilab.<name>`, put in `sys.modules` now and run on its first
    attribute read, so that `thresholds` and `curve`, which read only the
    pure-Python `rates`, never import numpy.  Tools that walk `sys.modules`
    (the benchmark's tracer) still find it, and a patch on it reaches the
    commands.  It is not set on the package, so a later
    `from opilab import <name>` runs it at once, as an eager import would."""
    full = f"{__package__}.{name}"
    if full in sys.modules:
        return sys.modules[full]
    spec = importlib.util.find_spec(full)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[full] = module
    spec.loader.exec_module(module)
    return module


codes, discrepancy, leakage, verify = map(_deferred, ("codes", "discrepancy", "leakage", "verify"))


def _emit_json(obj, out: str | None) -> None:
    text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if out:
        Path(out).write_text(text)
    sys.stdout.write(text)


def _write_csv(header, rows, out: str) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format(float(v), ".10g") for v in row))
    Path(out).write_text("\n".join(lines) + "\n")


def _load_lists(args) -> codes.InputLists | None:
    """The --lists file, which must match --p and --m, or None without one."""
    if not getattr(args, "lists", None):
        return None
    lists = codes.lists_from_json(Path(args.lists).read_text())
    if lists.p != args.p or lists.m != args.m:
        raise DomainError("lists file does not match --p/--m")
    return lists


def _list_size(args) -> int:
    """--size for random list draws, p // 2 (at least 1) when not given."""
    if args.size is None:
        return max(1, args.p // 2)
    if not 1 <= args.size <= args.p - 1:
        raise DomainError(f"--size must lie in [1, p-1] = [1, {args.p - 1}], got {args.size}")
    return args.size


def _build_code(args) -> codes.MdsCode:
    # oracle and leakage enumerate at least p elements
    budget = codes.enumeration_budget(args.budget)
    if args.p > budget:
        raise BudgetExceededError(f"--p {args.p} exceeds the enumeration budget {budget}")
    ctx = codes.FieldCtx(args.p)
    points = None
    if args.points is not None:
        try:
            points = [int(v) for v in args.points.split(",")]
        except ValueError:
            raise DomainError(f"--points must be comma-separated integers, "
                              f"got {args.points!r}") from None
    return codes.make_rs_code(ctx, args.m, args.n, points)


def cmd_thresholds(args) -> int:
    res = rates.thresholds(args.rho, args.bound)
    _emit_json(
        {
            "rho": args.rho,
            "bound": args.bound,
            "two_mu0": res.two_mu0,
            "two_mu1": res.two_mu1,
            "witness": res.witness,
            "status": res.status,
        },
        args.out,
    )
    return 0


def cmd_curve(args) -> int:
    header, rows = rates.curve_series(args.figure, args.grid, rho=args.rho)
    out = args.out or f"figure{args.figure}.csv"
    _write_csv(header, rows, out)
    sys.stdout.write(f"wrote {len(rows)} rows to {out}\n")
    return 0


def cmd_verify(args) -> int:
    records = verify.run_suite(args.suite, p=args.p, m=args.m, n=args.n,
                               seed=args.seed, precision=args.precision)
    failures = [r for r in records if r["status"] == "fail"]
    passed = not failures
    report = {
        "suite": args.suite,
        "seed": args.seed,
        "checks": len(records),
        "failures": failures,
        "identities": records,
        "passed": passed,
    }
    _emit_json(report, args.out)
    return 0 if passed else 1


def cmd_oracle(args) -> int:
    if args.search < 0:
        raise DomainError(f"--search must be at least 0, got {args.search}")
    if args.search and args.lists:
        raise DomainError("--search draws its own lists; drop --lists")
    code = _build_code(args)
    size = _list_size(args)
    if args.search:
        worst = None
        for trial in range(args.search):
            trial_lists = codes.random_lists(args.p, args.m, size,
                                             args.seed * 1_000_003 + trial)
            prof = codes.brute_force_opi(code, trial_lists, args.budget)
            if worst is None or prof.s_max < worst[0]:
                worst = (prof.s_max, trial, trial_lists)
        s_max, trial, trial_lists = worst
        _emit_json(
            {
                "mode": "worst_case_search",
                "trials": args.search,
                "min_s_max": float(s_max),
                "min_s_max_exact": str(s_max),
                "argmin_trial": trial,
                "argmin_sets": [list(s) for s in trial_lists.sets],
                "scl_benchmark": rates.semicircle_law(
                    float(trial_lists.rho), args.n / (2 * args.m)
                ),
            },
            args.out,
        )
        return 0
    lists = _load_lists(args)
    if lists is None:
        raise DomainError("oracle needs --lists (or --search N)")
    prof = codes.brute_force_opi(code, lists, args.budget)
    _emit_json(
        {
            "p": args.p,
            "m": args.m,
            "n": args.n,
            "s_max": float(prof.s_max),
            "s_max_exact": str(prof.s_max),
            "best_x": list(prof.best_x),
            "histogram": list(prof.histogram),
            "scl_benchmark": rates.semicircle_law(float(lists.rho), args.n / (2 * args.m)),
        },
        args.out,
    )
    return 0


def cmd_leakage(args) -> int:
    # Weight 0 is the zero codeword's constant 1, not a dual sum.
    if not 1 <= args.t <= args.m:
        raise DomainError(f"--t must lie in [1, m] = [1, {args.m}], got {args.t}")
    code = _build_code(args)
    size = _list_size(args)
    lists = _load_lists(args)
    if lists is None:
        lists = codes.random_lists(args.p, args.m, size, args.seed)
    if lists.rho == 1:
        raise DomainError("the split bound needs list density below 1")
    fam = leakage.make_buckets(args.buckets, args.m, args.n,
                               lambda_target=args.lambda_target, seed=args.seed,
                               eps=args.eps, budget=args.budget)
    eq = discrepancy.expected_discrepancy_fourier(code, lists, args.budget)
    t = args.t
    lhs = abs(eq[t])
    report = {
        "p": args.p, "m": args.m, "n": args.n, "t": t,
        "lhs_abs": lhs,
        "bucket_kind": args.buckets,
        "lambda": fam.lambda_target,
        "J": fam.J,
        "certified": fam.certification.get("mode", "analytic"),
    }
    if t < code.d_perp:
        if not eq[t].is_zero():
            raise IdentityViolationError(
                f"dual sum {lhs} at weight {t} is nonzero below the dual distance "
                f"{code.d_perp}",
                instance=codes.lists_to_json(lists),
            )
        report.update(bound=0.0, ratio=0.0,
                      note="below the dual distance the dual sum is exactly zero")
    else:
        bound = leakage.bucket_split_bound(code, lists, fam, t)
        report.update(bound=bound, ratio=lhs / bound)
    _emit_json(report, args.out)
    return 0


_SHARED_FLAGS = {
    "--seed": {"type": int, "default": 0},
    "--budget": {"type": int, "default": None,
                 "help": "enumeration cap (default 1e7; env OPILAB_BUDGET)"},
    "--precision": {"type": int, "default": 60,
                    "help": "digits for extended-precision paths"},
}


def _add_common(sp, *flags):
    """--out, plus those of the shared flags that the subcommand reads."""
    for flag in flags:
        sp.add_argument(flag, **_SHARED_FLAGS[flag])
    sp.add_argument("--out", type=str, default=None)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process.  parse_args leaves a parser as it
    found it and every default is immutable, so each call of `main` reuses
    it, and an in-process caller pays for its add_argument calls once."""
    parser = argparse.ArgumentParser(
        prog="opilab",
        description="satisfaction bounds for list-constrained linear systems "
                    "over prime fields: thresholds, figure data, exact identity "
                    "verification, brute-force oracles, leakage bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("thresholds", help="improvement/saturation rate thresholds")
    sp.add_argument("--rho", type=float, required=True)
    sp.add_argument("--bound", choices=rates.BOUND_KINDS, required=True)
    _add_common(sp)
    sp.set_defaults(func=cmd_thresholds)

    sp = sub.add_parser("curve", help="emit figure data as CSV")
    sp.add_argument("--figure", type=int, choices=(1, 2, 3, 4), required=True)
    sp.add_argument("--grid", type=int, default=200)
    sp.add_argument("--rho", type=float, default=None)
    _add_common(sp)
    sp.set_defaults(func=cmd_curve)

    sp = sub.add_parser("verify", help="run an identity suite")
    sp.add_argument("--suite", choices=SUITES, required=True)
    sp.add_argument("--p", type=int, default=None)
    sp.add_argument("--m", type=int, default=None)
    sp.add_argument("--n", type=int, default=None)
    _add_common(sp, "--seed", "--precision")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("oracle", help="brute-force satisfaction oracle")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--points", type=str, default=None, help="comma separated")
    sp.add_argument("--lists", type=str, default=None, help="JSON file of sets")
    sp.add_argument("--size", type=int, default=None, help="list size for random draws")
    sp.add_argument("--search", type=int, default=0,
                    help="sample N list families and report the worst")
    _add_common(sp, "--seed", "--budget")
    sp.set_defaults(func=cmd_oracle)

    sp = sub.add_parser("leakage", help="dual-sum split bound on an instance")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--t", type=int, required=True)
    sp.add_argument("--buckets", choices=("single", "cyclic", "random"),
                    default="cyclic")
    sp.add_argument("--lambda", dest="lambda_target", type=float, default=None)
    sp.add_argument("--eps", type=float, default=None)
    sp.add_argument("--points", type=str, default=None)
    sp.add_argument("--lists", type=str, default=None)
    sp.add_argument("--size", type=int, default=None)
    _add_common(sp, "--seed", "--budget")
    sp.set_defaults(func=cmd_leakage)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # an empty string would read as "not given" and fall back silently
        for name, value in vars(args).items():
            if value == "":
                raise DomainError(f"--{name} is empty")
        try:
            return args.func(args)
        except IdentityViolationError as exc:
            _emit_json(
                {
                    "status": "identity_violation",
                    "message": str(exc),
                    "instance": getattr(exc, "instance", None),
                },
                getattr(args, "out", None),
            )
            return 1
    except (DomainError, BudgetExceededError, OSError, ValueError) as exc:
        # an unwritable --out on the violation payload lands here too
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
