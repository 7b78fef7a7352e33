"""The four benchmark workloads.

A workload builds its inputs as plain data before the first timed op
(`ops`), runs one op through opilab's public API (`run`), and checks the
op's output after the timed part of the pass (`check`).  `asymptotic` and `finite_m` run fixed grids whose outputs are
compared with the committed references; the seed drives the instance draws
of `desk_exact` and `large_instances`, whose outputs are checked by the
program's own two-route identities and by the checks here.

Each workload has a `full` size, used by the benchmark, and a `tiny` size,
used by the self-test.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction

from opilab import cli, codes, discrepancy, kravchuk, leakage, rates

import reference
from reference import CheckFailed


@dataclass(frozen=True)
class Op:
    label: str
    timed: bool  # counts toward the op latency percentiles
    args: dict


def run_cli(argv) -> tuple[int, str]:
    """`opilab <argv>` in-process; returns (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


class Workload:
    name = ""
    reference = "fraction"  # the reference kernel of one_pass.py that does its kind of work

    def __init__(self, seed: int, scale: str, workdir):
        self.seed = seed
        self.scale = scale
        self.workdir = workdir

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def run(self, op: Op):
        raise NotImplementedError

    def check(self, op: Op, output, results: dict) -> None:
        """Raise CheckFailed unless `output` is right; `results` maps the
        label of every op that ran to its output."""
        raise NotImplementedError


# ---------- asymptotic: the rates layer through the command line ----------

class Asymptotic(Workload):
    """Threshold queries, figure curves and the llr threshold, fixed grids."""

    name = "asymptotic"
    reference = "float"
    SIZES = {
        "full": {"densities": 16, "fig1": 40, "fig3": 10, "fig4": 200, "llr": (512, 40)},
        "tiny": {"densities": 2, "fig1": 5, "fig3": 3, "fig4": 10, "llr": (256, 10)},
    }

    def ops(self):
        size = self.SIZES[self.scale]
        out = []
        count = size["densities"]
        for i in range(count):
            # figure 2's density grid
            rho = round(0.05 + (0.80 - 0.05) * i / (count - 1), 6)
            out.append(Op(f"thresholds biased rho={rho}", True,
                          {"argv": ["thresholds", "--rho", repr(rho), "--bound", "biased"]}))
        for kind in ("green", "avg", "best"):
            out.append(Op(f"thresholds {kind} rho=0.5", True,
                          {"argv": ["thresholds", "--rho", "0.5", "--bound", kind]}))
        for fig, extra in ((1, []), (3, ["--rho", "0.6"]), (4, [])):
            grid = size[f"fig{fig}"]
            path = str(self.workdir / f"figure{fig}.csv")
            out.append(Op(f"curve figure={fig} grid={grid}", False, {
                "argv": ["curve", "--figure", str(fig), "--grid", str(grid), *extra,
                         "--out", path],
                "csv": path,
            }))
        m, grid = size["llr"]
        out.append(Op(f"llr_rate_threshold m={m} grid={grid}", False, {"m": m, "grid": grid}))
        return out

    def run(self, op):
        if "argv" in op.args:
            return run_cli(op.args["argv"])
        return leakage.llr_rate_threshold(op.args["m"], op.args["grid"])

    def check(self, op, output, results):
        want = reference.load(self.name, self.scale)[op.label]
        if "argv" not in op.args:
            reference.compare(op.label, output, want)
            return
        code, stdout = output
        _expect(code == 0, f"{op.label}: exit code {code}")
        if "csv" in op.args:
            with open(op.args["csv"]) as fh:
                got = reference.parse_csv(fh.read())
        else:
            got = json.loads(stdout)
        reference.compare(op.label, got, want)


# ---------- desk_exact: the exact identity chain on criterion 7's grid ----------

def criterion7_grid():
    """Acceptance criterion 7's (p, m, n) shapes."""
    out = []
    for p in (5, 7, 11):
        for m in range(2, min(p, 8) + 1):
            for n in range(1, m):
                if p**n <= 20000 and p ** (m - n) <= 20000:
                    out.append((p, m, n))
    return out


def _draw_instance(rng, p, m, n, size):
    return {"p": p, "m": m, "n": n, "points": rng.sample(range(p), m),
            "sets": [rng.sample(range(p), size) for _ in range(m)]}


def _build(args):
    code = codes.make_rs_code(codes.FieldCtx(args["p"]), args["m"], args["n"], args["points"])
    return code, codes.make_lists(args["p"], args["sets"])


class DeskExact(Workload):
    """Every grid shape twice with one list size, so that half of the
    (m, rho, window) keys repeat within a pass; then one fixed verify
    request."""

    name = "desk_exact"
    # verify's own seed picks its suite's shapes, and its time doubles
    # between seeds; a fixed seed keeps the pass's work comparable across
    # benchmark seeds.
    VERIFY_SEED = 0

    def ops(self):
        rng = random.Random(self.seed)
        shapes = criterion7_grid()
        if self.scale == "tiny":
            shapes = shapes[:4]
        instances = []
        for p, m, n in shapes:
            size = rng.randint(1, p - 1)
            instances.extend(_draw_instance(rng, p, m, n, size) for _ in range(2))
        rng.shuffle(instances)
        out = [Op(f"instance {i} p={a['p']} m={a['m']} n={a['n']}", True, a)
               for i, a in enumerate(instances)]
        out.append(Op("verify all", False,
                      {"argv": ["verify", "--suite", "all", "--seed", str(self.VERIFY_SEED)]}))
        return out

    def run(self, op):
        if "argv" in op.args:
            return run_cli(op.args["argv"])
        code, lists = _build(op.args)
        m, n = code.m, code.n
        prof = codes.brute_force_opi(code, lists)
        moments = codes.moments_match_check(code, lists, n, prof)
        eq = discrepancy.expected_discrepancy_all(code, lists, prof)
        rational = discrepancy.expected_sampled_satisfaction(
            code, lists, discrepancy.make_sampler(min(m - 1, (n + 1) // 2 + 1),
                                                  weight_mode="rational_test"), prof)
        canonical = discrepancy.expected_sampled_satisfaction(
            code, lists, discrepancy.make_sampler(min(m - 1, (n + 1) // 2),
                                                  weight_mode="canonical"), prof)
        rep = kravchuk.principal_representation(m, lists.rho, (n + 1) // 2)
        interlacing = kravchuk.interlacing_check(rep, prof)
        return {
            "histogram": list(prof.histogram),
            "s_max": str(prof.s_max),
            "moments_match": moments,
            "expected_discrepancy": [repr(v) for v in eq],
            "rational": [repr(v) for v in rational["exact_pair"]],
            "canonical": canonical["value"],
            "canonical_residual": canonical["max_rel_residual"],
            "interlacing_ok": interlacing["ok"],
        }

    def check(self, op, output, results):
        if "argv" in op.args:
            code, stdout = output
            _expect(code == 0 and json.loads(stdout)["passed"] is True,
                    f"{op.label}: exit code {code}, suite not passed")
            return
        a = op.args
        _expect(sum(output["histogram"]) == a["p"] ** a["n"], f"{op.label}: histogram mass")
        _expect(output["moments_match"], f"{op.label}: binomial moments differ")
        _expect(output["canonical_residual"] <= discrepancy.TWO_ROUTE_TOL,
                f"{op.label}: canonical routes differ")
        _expect(output["interlacing_ok"], f"{op.label}: interlacing fails")


# ---------- large_instances: enumeration and dual passes ----------

class LargeInstances(Workload):
    """Seven instances with p^n up to 64 % of the enumeration budget, one
    per (p, m) shape, so that no (p, m, rho) key repeats within a pass."""

    name = "large_instances"
    reference = "array"
    SHAPES = {
        "full": ((23, 8, 5), (11, 10, 5), (17, 9, 5), (13, 8, 5), (31, 7, 4), (29, 6, 4),
                 (19, 7, 4)),
        "tiny": ((11, 6, 4), (7, 6, 3)),
    }

    def ops(self):
        rng = random.Random(self.seed)
        out = []
        for p, m, n in self.SHAPES[self.scale]:
            args = _draw_instance(rng, p, m, n, rng.randint(max(1, p // 3), p - 1))
            out.append(Op(f"instance p={p} m={m} n={n}", True, args))
        return out

    def run(self, op):
        code, lists = _build(op.args)
        m, n = code.m, code.n
        prof = codes.brute_force_opi(code, lists)
        eq = discrepancy.expected_discrepancy_all(code, lists, prof)
        transcripts = [leakage.per_transcript_sum(code, lists, t) for t in range(m + 1)]
        bounds = []
        if 2 * n > m:
            fam = leakage.make_buckets("cyclic", m, n)
            bounds = [leakage.bucket_split_bound(code, lists, fam, t)
                      for t in range(code.d_perp, m + 1)]
        master = discrepancy.expected_sampled_satisfaction(
            code, lists, discrepancy.make_sampler(min(m - 1, (n + 1) // 2 + 1),
                                                  weight_mode="rational_test"), prof)
        return {
            "histogram": list(prof.histogram),
            "s_max": str(prof.s_max),
            "expected_discrepancy": [v.to_float() for v in eq],
            "transcripts": [[z.real, z.imag] for z in transcripts],
            "split_bounds": bounds,
            "master": [repr(v) for v in master["exact_pair"]],
        }

    def check(self, op, output, results):
        a = op.args
        p, m, n = a["p"], a["m"], a["n"]
        _expect(sum(output["histogram"]) == p**n, f"{op.label}: histogram mass")
        rho_f = len(a["sets"][0]) / p
        eq = output["expected_discrepancy"]
        for t, (re, im) in enumerate(output["transcripts"]):
            # verify's transcript_scaling identity, against the exact route
            scale = rho_f ** (t / 2 - m) * (1 - rho_f) ** (-t / 2)
            err = abs(complex(re, im) * scale - eq[t]) / max(1.0, abs(eq[t]))
            _expect(err <= discrepancy.TWO_ROUTE_TOL, f"{op.label}: transcript scaling at t={t}")
        for t, bound in enumerate(output["split_bounds"], start=n + 1):
            _expect(abs(eq[t]) <= bound * (1 + discrepancy.TWO_ROUTE_TOL),
                    f"{op.label}: split bound fails at t={t}")


# ---------- finite_m: Kravchuk families and root convergence ----------

class FiniteM(Workload):
    """Extreme roots along two m ladders at ell = 0.3 m, fixed grids."""

    name = "finite_m"
    PRECISION = Fraction(1, 10**9)
    LADDERS = {
        "full": {"1/2": (10, 20, 40, 60, 80, 100), "1/3": (30, 60, 90)},
        "tiny": {"1/2": (10, 20), "1/3": (12, 18)},
    }
    ISOLATE = {"full": (("1/2", 40), ("1/3", 30), ("1/3", 60)),
               "tiny": (("1/2", 10), ("1/3", 12))}

    def ops(self):
        out = []
        for rho, ladder in self.LADDERS[self.scale].items():
            for m in ladder:
                out.append(Op(f"family rho={rho} m={m}", True, {
                    "rho": rho, "m": m, "ell": 3 * m // 10,
                    "isolate": (rho, m) in self.ISOLATE[self.scale],
                }))
        return out

    def run(self, op):
        a = op.args
        rho = Fraction(a["rho"])
        fam = kravchuk.build_family(a["m"], rho, a["ell"])
        out = {"largest": kravchuk.largest_root(fam, a["ell"], self.PRECISION)}
        if rho != kravchuk.HALF:
            out["smallest"] = kravchuk.smallest_root(fam, a["ell"], self.PRECISION)
        if a["isolate"]:
            out["roots"] = kravchuk.isolate_roots(fam, a["ell"], self.PRECISION)
        return {k: [str(z) for z in v] if isinstance(v, list) else str(v)
                for k, v in out.items()}

    def check(self, op, output, results):
        want = reference.load(self.name, self.scale)[op.label]
        _expect(set(output) == set(want), f"{op.label}: outputs {sorted(output)}")
        tol = reference.ROOT_TOL_OVER_PRECISION * self.PRECISION
        for key, value in output.items():
            got = value if isinstance(value, list) else [value]
            ref = want[key] if isinstance(want[key], list) else [want[key]]
            _expect(len(got) == len(ref), f"{op.label}: {len(got)} {key} roots")
            for g, r in zip(got, ref):
                _expect(abs(Fraction(g) - Fraction(r)) <= tol,
                        f"{op.label}: {key} root {g} vs reference {r}")

        ladder = self.LADDERS[self.scale][op.args["rho"]]
        if op.args["m"] == ladder[-1]:
            # root gaps to the semicircle law shrink along the ladder
            gaps = []
            for m in ladder:
                label = f"family rho={op.args['rho']} m={m}"
                _expect(label in results, f"{op.label}: {label} did not run")
                z = Fraction(results[label]["largest"])
                limit = rates.semicircle_law(float(Fraction(op.args["rho"])), (3 * m // 10) / m)
                gaps.append(abs(float(z) / m - limit))
            _expect(all(b < a for a, b in zip(gaps, gaps[1:])),
                    f"{op.label}: root gaps do not shrink: {gaps}")


WORKLOADS = {w.name: w for w in (Asymptotic, DeskExact, LargeInstances, FiniteM)}
