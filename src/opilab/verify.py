"""Named identity suites run by the command line.

Each check returns a record {identity, instance, mode, max_abs_residual,
status}; a suite passes when no record fails, and a check the shape cannot
run is a "skipped" record with a "reason".  Instances are small seeded
families, and failing records carry the instance JSON for replay.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations

from . import codes, discrepancy, kravchuk, leakage
from .errors import IdentityViolationError

SUITES = ("kravchuk", "moments", "discrepancy", "fourier", "leakage", "all")

_DEFAULT_INSTANCE = {"p": 7, "m": 6, "n": 3}
_LEAKAGE_INSTANCE = {"p": 11, "m": 8, "n": 6}


def _record(identity, instance, mode, residual, status, **note):
    """One check's record; `note` adds a failure's "error" or a skip's "reason"."""
    return {
        "identity": identity,
        "instance": instance,
        "mode": mode,
        "max_abs_residual": None if residual is None else float(residual),
        "status": status,
        **note,
    }


def _guard(records, identity, instance, mode, fn):
    """Run fn() -> (residual, ok); identity violations become failures with
    no residual.  Domain and budget errors propagate."""
    try:
        residual, ok = fn()
    except IdentityViolationError as exc:
        records.append(_record(identity, instance, mode, None, "fail", error=str(exc)))
        return
    records.append(_record(identity, instance, mode, residual, "pass" if ok else "fail"))


def _code(p, m, n, default):
    """The Reed-Solomon code of shape (p, m, n), each flag left as None
    taken from `default`; a given 0 or negative value is rejected."""
    given = {"p": p, "m": m, "n": n}
    p, m, n = (default[k] if v is None else v for k, v in given.items())
    return codes.make_rs_code(codes.FieldCtx(p), m, n)


def _instance(code, size, seed):
    p, m, n = code.p, code.m, code.n
    lists = codes.random_lists(p, m, size, seed)
    desc = {"p": p, "m": m, "n": n, "sets": [list(s) for s in lists.sets]}
    return lists, desc


def suite_kravchuk(seed: int = 0) -> list[dict]:
    records = []
    rng = random.Random(seed)
    ms = sorted({6, 9, rng.randint(4, 12)})
    for m in ms:
        inst = {"m": m}
        fam = kravchuk.build_family(m, kravchuk.HALF, min(m, 6))

        def genfunc(m=m, fam=fam):
            for x in range(m + 1):
                for ell in range(fam.degree_max + 1):
                    series = sum(
                        math.comb(m - x, ell - i) * math.comb(x, i) * (-1) ** i
                        for i in range(ell + 1)
                    )
                    if fam.values[ell][x] != series:
                        return 1.0, False
            return 0.0, True

        _guard(records, "generating_function_expansion", inst, "exact", genfunc)

        def orth(m=m):
            kravchuk.build_family(m, kravchuk.HALF, m)  # asserts orthogonality
            return 0.0, True

        _guard(records, "orthogonality", inst, "exact", orth)

        def charpoly(m=m):
            ok = all(kravchuk.char_poly_identity_check(m, ell) for ell in range(m))
            return 0.0, ok

        _guard(records, "tridiagonal_char_poly", inst, "exact", charpoly)

        def roots(m=m, fam=fam):
            prev = None
            for ell in range(1, fam.degree_max + 1):
                rts = kravchuk.isolate_roots(fam, ell)
                if len(rts) != ell or any(not 0 < z < m for z in rts):
                    return 1.0, False
                if prev is not None and not all(
                    rts[i] < prev[i] < rts[i + 1] for i in range(len(prev))
                ):
                    return 1.0, False
                prev = rts
            return 0.0, True

        _guard(records, "root_count_and_interlacing", inst, "exact", roots)

    for rho in (kravchuk.HALF, Fraction(1, 3)):
        inst = {"m": 12, "rho": str(rho)}

        def rep_moments(rho=rho):
            rep = kravchuk.principal_representation(12, rho, 3)
            worst = 0.0
            for j, want in enumerate(codes.binomial_moments(12, rho, rep.order)):
                got = rep.moment(j)
                worst = max(worst, abs(float(got - want)) / max(1.0, abs(float(want))))
            return worst, worst <= 1e-8

        _guard(records, "principal_representation_moments", inst, "high_precision",
               rep_moments)
    return records


def suite_moments(p=None, m=None, n=None, seed: int = 0) -> list[dict]:
    code = _code(p, m, n, _DEFAULT_INSTANCE)
    p, m, n = code.p, code.m, code.n
    records = []
    rng = random.Random(seed)
    for trial in range(3):
        size = rng.randint(1, p - 1)
        lists, desc = _instance(code, size, rng.randrange(2**32))
        prof = codes.brute_force_opi(code, lists)

        def match(code=code, lists=lists, prof=prof):
            return 0.0, codes.moments_match_check(code, lists, code.n, prof)

        _guard(records, "binomial_moment_match", desc, "exact", match)

        ell = (n + 1) // 2

        def interlace(code=code, lists=lists, prof=prof, ell=ell):
            rep = kravchuk.principal_representation(m, lists.rho, ell)
            report = kravchuk.interlacing_check(rep, prof)
            return 0.0, report["ok"]

        if 2 * ell > m:
            records.append(_record(
                "principal_interlacing", desc, "exact", None, "skipped",
                reason=f"a principal representation needs 1 <= ell <= m/2, got ell={ell} m={m}"))
        else:
            _guard(records, "principal_interlacing", desc, "exact", interlace)

        def averaging(lists=lists, prof=prof):
            return 0.0, prof.s_max >= lists.rho

        _guard(records, "max_at_least_density", desc, "exact", averaging)
    return records


def suite_discrepancy(p=None, m=None, n=None, seed: int = 0,
                      precision: int = 60) -> list[dict]:
    code = _code(p, m, n, _DEFAULT_INSTANCE)
    p, m, n = code.p, code.m, code.n
    records = []
    rng = random.Random(seed)
    for trial in range(2):
        size = rng.randint(1, p - 1)
        lists, desc = _instance(code, size, rng.randrange(2**32))
        prof = codes.brute_force_opi(code, lists)
        rho = lists.rho

        def pair_products(code=code, lists=lists, prof=prof, rho=rho):
            eq = discrepancy.expected_discrepancy_all(code, lists, prof)
            q = discrepancy.discrepancy_table(m, rho)
            scale = Fraction(1, prof.total)
            for k in range(min(m, 4)):
                for kp in range(k, min(m, 4)):
                    lhs = discrepancy.zero(rho)
                    for s, cnt in enumerate(prof.histogram):
                        if cnt:
                            lhs = lhs + q[k][s] * q[kp][s] * Fraction(cnt)
                    lhs = lhs * scale
                    rhs = discrepancy.zero(rho)
                    for t in range(m + 1):
                        rhs = rhs + discrepancy.weighted_pair_count(k, kp, t, m, rho) * eq[t]
                    if not lhs.real_equals(rhs):
                        return 1.0, False
            return 0.0, True

        _guard(records, "pair_product_expansion", desc, "exact", pair_products)

        def triple_rec(code=code, lists=lists, rho=rho):
            beta = discrepancy.beta_of(rho)
            for _ in range(6):
                x = tuple(rng.randrange(p) for _ in range(n))
                q = [discrepancy.discrepancy_by_subsets(code, lists, x, k) for k in range(m + 1)]
                for k in range(1, m):
                    lhs = q[1] * q[k]
                    rhs = (
                        q[k + 1] * Fraction(k + 1)
                        + q[k - 1] * Fraction(m - k + 1)
                        + beta * q[k] * Fraction(k)
                    )
                    if not lhs.real_equals(rhs):
                        return 1.0, False
            return 0.0, True

        _guard(records, "pointwise_triple_recursion", desc, "exact", triple_rec)

        def master_rational(code=code, lists=lists, prof=prof):
            spec = discrepancy.make_sampler(min(m - 1, (n + 1) // 2 + 1),
                                            weight_mode="rational_test")
            out = discrepancy.expected_sampled_satisfaction(code, lists, spec, prof)
            return out["max_rel_residual"], True

        _guard(records, "master_expansion_rational", desc, "exact", master_rational)

        def master_canonical(code=code, lists=lists, prof=prof):
            spec = discrepancy.make_sampler(min(m - 1, (n + 1) // 2), weight_mode="canonical")
            out = discrepancy.expected_sampled_satisfaction(
                code, lists, spec, prof, precision_digits=precision
            )
            return out["max_rel_residual"], out["max_rel_residual"] < 1e-9

        _guard(records, "master_expansion_canonical_weights", desc, "high_precision",
               master_canonical)
    return records


def suite_fourier(p=None, m=None, n=None, seed: int = 0) -> list[dict]:
    code = _code(p, m, n, _DEFAULT_INSTANCE)
    p, m, n = code.p, code.m, code.n
    records = []
    rng = random.Random(seed)
    for trial in range(3):
        size = rng.randint(1, p - 1)
        lists, desc = _instance(code, size, rng.randrange(2**32))
        prof = codes.brute_force_opi(code, lists)

        def two_routes(code=code, lists=lists, prof=prof):
            eq = discrepancy.expected_discrepancy_all(code, lists, prof)
            below = all(eq[t].real_is_zero() for t in range(1, code.d_perp))
            return 0.0, below and eq[0].real_equals(1)

        _guard(records, "dual_sum_vs_enumeration", desc, "exact+float", two_routes)

        def scaling(code=code, lists=lists):
            fq = discrepancy.expected_discrepancy_fourier(code, lists)
            ts = codes.dual_weight_sums(code, leakage.spectrum_table(lists.sets, p))
            rho = float(lists.rho)
            worst = 0.0
            for t in range(m + 1):
                scaled = rho ** (t / 2 - m) * (1 - rho) ** (-t / 2) * ts[t]
                worst = max(worst, abs(scaled - fq[t]) / max(1.0, abs(fq[t])))
            return worst, worst < 1e-9

        _guard(records, "transcript_scaling", desc, "float", scaling)
    return records


def suite_leakage(p=None, m=None, n=None, seed: int = 0) -> list[dict]:
    code = _code(p, m, n, _LEAKAGE_INSTANCE)
    p, m, n = code.p, code.m, code.n
    records = []
    rng = random.Random(seed)

    def arc(code=code):
        rep = leakage.arc_extremal_check(p, Fraction(max(1, p // 2), p), trials=200,
                                         seed=seed)
        return 0.0, rep["interval_attains_max"] and rep["within_exact_bound"]

    _guard(records, "interval_extremal_spectrum", {"p": p}, "float", arc)

    for kind in ("single", "cyclic"):
        fam = leakage.make_buckets(kind, m, n) if 2 * n > m else None
        for trial in range(3):
            size = rng.randint(max(1, p // 3), p - 1)
            lists = codes.random_lists(p, m, size, rng.randrange(2**32))
            desc = {"p": p, "m": m, "n": n, "sets": [list(s) for s in lists.sets],
                    "buckets": kind}

            def split(code=code, lists=lists, fam=fam):
                eq = discrepancy.expected_discrepancy_fourier(code, lists)
                worst = 0.0
                for t in range(code.d_perp, m + 1):
                    bound = leakage.bucket_split_bound(code, lists, fam, t)
                    worst = max(worst, abs(eq[t]) / bound)
                return worst, worst <= 1.0 + 1e-9

            if fam is None:
                records.append(_record("bucket_split_bound_dominates", desc, "float", None,
                                       "skipped", reason=f"buckets need 2n > m, got n={n} m={m}"))
            else:
                _guard(records, "bucket_split_bound_dominates", desc, "float", split)

    def parseval_chain():
        lists = codes.random_lists(p, m, max(1, p // 2), seed + 17)
        coords = tuple(range(m - n))
        lhs, rhs = leakage.parseval_split_identity(code, lists, coords)
        rel = abs(lhs - rhs) / max(1.0, rhs)
        return rel, rel < 1e-9

    _guard(records, "projection_parseval_chain", {"p": p, "m": m, "n": n}, "float",
           parseval_chain)

    def coverage():
        mm, nn = 10, 7
        bucket = set(range(2 * nn - mm))
        for lam in (0.2, 0.4):
            want = sum(
                1
                for D in combinations(range(mm), nn + 1)
                if len(bucket & set(D)) >= math.ceil(lam * mm - 1e-9)
            )
            if leakage.coverage_count(mm, nn, lam) != want:
                return 1.0, False
        return 0.0, True

    _guard(records, "coverage_count_formula", {"m": 10, "n": 7}, "exact", coverage)
    return records


def run_suite(name: str, p=None, m=None, n=None, seed: int = 0,
              precision: int = 60) -> list[dict]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    out = []
    if name in ("kravchuk", "all"):
        out.extend(suite_kravchuk(seed))
    if name in ("moments", "all"):
        out.extend(suite_moments(p, m, n, seed))
    if name in ("discrepancy", "all"):
        out.extend(suite_discrepancy(p, m, n, seed, precision))
    if name in ("fourier", "all"):
        out.extend(suite_fourier(p, m, n, seed))
    if name in ("leakage", "all"):
        out.extend(suite_leakage(p, m, n, seed))
    return out
