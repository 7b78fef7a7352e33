"""Fourier analysis of constraint-set indicators over F_p, the interval
extremal bound, bucket covers, and the Cauchy-Schwarz split bound on the
dual-code sum.

Complex arithmetic is double precision; sums that are real by the y/-y
pairing of the dual code are checked for small imaginary residue.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .codes import InputLists, MdsCode, dual_codewords, enumeration_budget
from .errors import BudgetExceededError, DomainError
from .rates import binary_entropy, scan_max

IMAG_RESIDUE_TOL = 1e-9


@dataclass(frozen=True)
class IndicatorSpectrum:
    """DFT of a subset indicator: coeffs[z] = (1/p) sum_{x in S} e(xz/p)."""

    subset: tuple[int, ...]
    p: int
    rho: Fraction
    coeffs: np.ndarray

    def magnitude(self, z: int) -> float:
        return abs(self.coeffs[z % self.p])


def indicator_spectrum(subset, p: int) -> IndicatorSpectrum:
    s = tuple(sorted(set(int(v) for v in subset)))
    if s and (s[0] < 0 or s[-1] >= p):
        raise DomainError("subset element outside [0, p)")
    xs = np.array(s, dtype=np.float64)
    z = np.arange(p, dtype=np.float64)
    coeffs = np.exp(2j * np.pi * np.outer(z, xs) / p).sum(axis=1) / p
    spec = IndicatorSpectrum(s, p, Fraction(len(s), p), coeffs)
    rho = len(s) / p
    if abs(spec.coeffs[0] - rho) > 1e-12:
        raise DomainError("zero coefficient must equal the density")
    if abs((np.abs(coeffs) ** 2).sum() - rho) > 1e-10:
        raise DomainError("Parseval mass mismatch")
    return spec


def arc_bound(rho: Fraction, p: int) -> float:
    """Exact maximum of |indicator DFT| off zero over all sets of density
    rho: attained by an interval, with value |sin(rho pi)| / (p sin(pi/p))."""
    rho = Fraction(rho)
    s = rho * p
    if s.denominator != 1:
        raise DomainError("rho * p must be an integer")
    return abs(math.sin(float(rho) * math.pi)) / (p * math.sin(math.pi / p))


def arc_extremal_check(p: int, rho: Fraction, trials: int = 1000, seed: int = 0) -> dict:
    """Every sampled set's off-zero spectrum peak stays below the interval
    value; records the constant in the 1/p^2 correction against the
    asymptotic form sin(rho pi)/pi."""
    rho = Fraction(rho)
    s = rho * p
    if s.denominator != 1:
        raise DomainError("rho * p must be an integer")
    size = int(s)
    starts = range(0, p, max(1, p // 16)) if p <= 512 else (0,)
    interval_peak = max(
        indicator_spectrum([(start + i) % p for i in range(size)], p).magnitude(z)
        for start in starts
        for z in range(1, p)
    )
    bound = arc_bound(rho, p)
    rng = random.Random(seed)
    random_peak = 0.0
    for _ in range(trials):
        subset = rng.sample(range(p), size)
        spec = indicator_spectrum(subset, p)
        mags = np.abs(spec.coeffs[1:])
        random_peak = max(random_peak, float(mags.max()))
    asym = abs(math.sin(float(rho) * math.pi)) / math.pi
    c = max(0.0, (max(interval_peak, random_peak) - asym)) * p * p
    return {
        "p": p,
        "rho": float(rho),
        "interval_peak": interval_peak,
        "random_peak": random_peak,
        "exact_bound": bound,
        "interval_attains_max": random_peak <= interval_peak + 1e-12,
        "within_exact_bound": max(interval_peak, random_peak) <= bound + 1e-12,
        "correction_constant": c,
    }


# ---------- buckets ----------

@dataclass(frozen=True)
class BucketFamily:
    """Cover of (2n-m)-element coordinate sets used to split the dual sum."""

    kind: str  # single | cyclic | random
    m: int
    n: int
    buckets: tuple[frozenset, ...]
    lambda_target: float  # guaranteed hit density at weight d_perp
    seed: int
    certification: dict

    @property
    def J(self) -> int:
        return len(self.buckets)

    @property
    def bucket_size(self) -> int:
        return 2 * self.n - self.m

    def guaranteed_hits(self, t: int) -> int:
        """Certified minimum of max_j |D cap B_j| over |D| = t >= d_perp."""
        b = self.bucket_size
        if self.kind == "single":
            lower = max(0, t + b - self.m)
        elif self.kind == "cyclic":
            lower = math.ceil(t * b / self.m)  # averaging over the J = m shifts
        else:
            lower = math.ceil(self.lambda_target * self.m)
        cert = self.certification
        # A sampled audit only estimates the minimum; it must not tighten
        # the guarantee.  Exhaustive certificates may (they grow with |D|).
        if cert.get("mode") == "certified" and t >= self.n + 1:
            lower = max(lower, cert.get("min_intersection", 0))
        return lower


def coverage_count(m: int, n: int, lam: float) -> int:
    """Number of dual-distance-size sets meeting a fixed bucket in at least
    lam*m coordinates: sum_{k >= lam m} C(2n-m, k) C(2(m-n), n+1-k)."""
    b = 2 * n - m
    lo = math.ceil(lam * m - 1e-9)
    return sum(
        math.comb(b, k) * (math.comb(2 * (m - n), n + 1 - k) if 0 <= n + 1 - k <= 2 * (m - n) else 0)
        for k in range(max(lo, 0), b + 1)
    )


def certify_buckets(buckets, m: int, t: int, target: int,
                    budget: int | None = None, samples: int = 100_000,
                    seed: int = 0) -> dict:
    """min over |D| = t of max_j |D cap B_j|, exhaustive when C(m,t) is
    affordable, otherwise a sampled audit (reported as such)."""
    from itertools import combinations

    n_sets = math.comb(m, t)
    masks = [sum(1 << i for i in b) for b in buckets]
    if n_sets <= min(enumeration_budget(budget), 10**6):
        worst = t
        for subset in combinations(range(m), t):
            d_mask = 0
            for i in subset:
                d_mask |= 1 << i
            best = max(bin(d_mask & bm).count("1") for bm in masks)
            worst = min(worst, best)
            if worst < target:
                break
        return {
            "mode": "certified",
            "weight": t,
            "min_intersection": worst,
            "meets_target": worst >= target,
        }
    rng = random.Random(seed)
    worst = t
    for _ in range(samples):
        d_mask = 0
        for i in rng.sample(range(m), t):
            d_mask |= 1 << i
        best = max(bin(d_mask & bm).count("1") for bm in masks)
        worst = min(worst, best)
    return {
        "mode": "audited",
        "weight": t,
        "samples": samples,
        "min_intersection": worst,
        "meets_target": worst >= target,
    }


def make_buckets(kind: str, m: int, n: int, lambda_target: float | None = None,
                 seed: int = 0, eps: float = 0.05,
                 budget: int | None = None) -> BucketFamily:
    b = 2 * n - m
    if b <= 0:
        raise DomainError("buckets need 2n > m")
    d_perp = n + 1
    if kind == "single":
        buckets = (frozenset(range(b)),)
        lam = max(0, d_perp + b - m) / m
        cert = certify_buckets(buckets, m, d_perp, max(0, d_perp + b - m), budget, seed=seed)
    elif kind == "cyclic":
        buckets = tuple(frozenset((j + i) % m for i in range(b)) for j in range(m))
        lam = math.ceil(d_perp * b / m) / m
        cert = certify_buckets(buckets, m, d_perp, math.ceil(d_perp * b / m), budget, seed=seed)
    elif kind == "random":
        if lambda_target is None:
            raise DomainError("random buckets need a lambda target")
        mu = n / (2 * m)
        a1 = 4 * mu - 1
        if not 0 < lambda_target <= min(a1, 2 * mu):
            raise DomainError("lambda target outside the feasible region")
        rate = (
            binary_entropy(2 * mu)
            - a1 * binary_entropy(lambda_target / a1)
            - (2 - 4 * mu) * binary_entropy((2 * mu - lambda_target) / (2 - 4 * mu))
            + eps
        )
        J = max(1, math.ceil(math.exp(m * rate)))
        # The entropy formula drops m^O(1) prefactors that dominate at desk
        # scale; the finite-m union bound over all dual-distance sets needs
        # J gamma > log C(m, d_perp) with the exact hit probability gamma.
        gamma = coverage_count(m, n, lambda_target) / math.comb(m, d_perp)
        if gamma <= 0:
            raise DomainError("lambda target is unreachable for this geometry")
        if gamma < 1:
            J = max(J, math.ceil(math.log(math.comb(m, d_perp)) / -math.log1p(-gamma)) + 1)
        if J > enumeration_budget(budget):
            raise BudgetExceededError(f"J = {J} buckets exceed budget")
        rng = random.Random(seed)
        target = math.ceil(lambda_target * m)
        cert = None
        for attempt in range(5):
            buckets = tuple(frozenset(rng.sample(range(m), b)) for _ in range(J))
            cert = certify_buckets(buckets, m, d_perp, target, budget, seed=seed + 1)
            if cert["meets_target"]:
                break
            J *= 2  # failures are possible at positive probability; escalate
            if J > enumeration_budget(budget):
                raise BudgetExceededError(f"J = {J} buckets exceed budget")
        if not cert["meets_target"]:
            raise DomainError(
                f"random buckets failed certification at lambda={lambda_target}: {cert}"
            )
        lam = lambda_target
    else:
        raise DomainError(f"unknown bucket kind {kind!r}")
    return BucketFamily(kind, m, n, buckets, lam, seed, cert)


# ---------- the split bound and transcript sums ----------

def bucket_split_bound(code: MdsCode, lists: InputLists, buckets: BucketFamily,
                       t: int) -> float:
    """J rho^(n-m) (rho/(1-rho))^(t/2) (arc/rho)^hits upper bound on the
    absolute expected discrepancy at weight t.

    Uses the exact interval value of the spectrum bound in place of its
    asymptotic form, so the inequality holds at finite p with no hidden
    constant."""
    if buckets.m != code.m or buckets.n != code.n:
        raise DomainError("bucket family does not match the code")
    if t < code.d_perp:
        raise DomainError("the split bound applies at and above the dual distance")
    if buckets.kind == "random" and buckets.certification.get("mode") not in (
        "certified", "audited",
    ):
        raise DomainError("uncertified bucket family")
    rho = float(lists.rho)
    hits = buckets.guaranteed_hits(t)
    arc = arc_bound(lists.rho, code.p)
    return (
        buckets.J
        * rho ** (code.n - code.m)
        * (rho / (1.0 - rho)) ** (t / 2.0)
        * (arc / rho) ** hits
    )


def per_transcript_sum(code: MdsCode, lists: InputLists, t: int,
                       budget: int | None = None) -> complex:
    """sum over weight-t dual codewords of prod_i spectrum_i(y_i), the
    quantity shared with the leakage-resilience literature."""
    p, m = code.p, code.m
    table = np.empty((m, p), dtype=np.complex128)
    for i, s in enumerate(lists.sets):
        table[i] = indicator_spectrum(s, p).coeffs
    acc = 0j
    for Y in dual_codewords(code, budget):
        w = (Y != 0).sum(axis=0)
        sel = Y[:, w == t]
        if sel.shape[1]:
            acc += np.prod(table[np.arange(m)[:, None], sel], axis=0).sum()
    return complex(acc)


def tv_proxy(code: MdsCode, plus_sets, minus_sets, budget: int | None = None) -> float:
    """(1/2) sum over sign transcripts of |sum over nonzero dual codewords
    of prod_i spectrum of the transcript-selected set|."""
    m, p = code.m, code.p
    if len(plus_sets) != m or len(minus_sets) != m:
        raise DomainError("need one set pair per coordinate")
    if 2**m > enumeration_budget(budget) or 2**m > 2**16:
        raise BudgetExceededError("transcript enumeration capped at m <= 16")
    plus = [indicator_spectrum(s, p).coeffs for s in plus_sets]
    minus = [indicator_spectrum(s, p).coeffs for s in minus_sets]
    acc = np.zeros(2**m, dtype=np.complex128)
    for Y in dual_codewords(code, budget):
        w = (Y != 0).sum(axis=0)
        sel = Y[:, w > 0]
        for j in range(sel.shape[1]):
            y = sel[:, j]
            contrib = np.array([1.0 + 0j])
            for i in range(m):
                contrib = np.kron(contrib, np.array([plus[i][y[i]], minus[i][y[i]]]))
            acc += contrib
    return 0.5 * float(np.abs(acc).sum())


def parseval_split_identity(code: MdsCode, lists: InputLists, coords,
                            budget: int | None = None) -> tuple[float, float]:
    """Both sides of the projection-bijection step: the dual-code sum of
    squared coefficient products over `coords` (|coords| = m - n) vs the
    product of the per-coordinate Parseval masses."""
    coords = sorted(coords)
    if len(coords) != code.dual_dim:
        raise DomainError("need exactly m - n coordinates")
    p, m = code.p, code.m
    table = np.empty((m, p), dtype=np.float64)
    for i, s in enumerate(lists.sets):
        table[i] = np.abs(indicator_spectrum(s, p).coeffs) ** 2
    lhs = 0.0
    for Y in dual_codewords(code, budget):
        lhs += np.prod(table[np.array(coords)[:, None], Y[coords, :]], axis=0).sum()
    rhs = float(lists.rho) ** len(coords)
    return lhs, rhs


def _log_comb(n: int, k: int) -> float:
    if k < 0 or k > n:
        return -math.inf
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def llr_rate_threshold(m: int = 4096, grid: int = 160) -> float:
    """Rate at which the balanced random-bucket split stops decaying,
    rebuilt from finite-m coverage counts (via log binomials) rather than
    the closed-form exponents."""
    def exponent(mu: float) -> float:
        n = round(2 * mu * m) // 2 * 2  # even n keeps b = 2n - m even
        b = 2 * n - m
        if b <= 0:
            return math.inf
        d_perp = n + 1

        def split_rate(lam: float) -> float:
            hits = math.ceil(lam * m)
            # log of the coverage count, by log-sum-exp over the tail
            terms = [
                _log_comb(b, k) + _log_comb(2 * (m - n), d_perp - k)
                for k in range(hits, b + 1)
            ]
            peak = max(terms, default=-math.inf)
            if peak == -math.inf:
                return math.inf
            log_cov = peak + math.log(sum(math.exp(t - peak) for t in terms))
            log_j = _log_comb(m, d_perp) - log_cov
            return (
                log_j / m
                + (1.0 - n / m) * math.log(2.0)
                + (hits / m) * math.log(2.0 / math.pi)
            )

        lam_hi = min(b / m, 2 * mu) - 2.0 / m
        lams = [lam_hi * (i + 1) / grid for i in range(grid)]
        _, neg = scan_max(lambda l: -split_rate(l), lams, tol=1e-6)
        return -neg

    lo, hi = 0.26, 0.49
    for _ in range(40):
        mid = (lo + hi) / 2.0
        if exponent(mid) < 0:
            hi = mid
        else:
            lo = mid
    return 2.0 * ((lo + hi) / 2.0)
