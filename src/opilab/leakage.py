"""Fourier analysis of constraint-set indicators over F_p, the interval
extremal bound, bucket covers, and the Cauchy-Schwarz split bound on the
dual-code sum.

The character sums F_i(y) = sum_{v in S_i} omega^(y v), omega = e(1/p), lie
in Z[omega]; summed over the dual code (closed under F_p^* scaling, which
permutes their conjugates) their products are integers, computed exactly by
CRT (`codes.dual_weight_sums`).  Only the interval extremal check is complex.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .codes import (InputLists, MdsCode, dual_weight_sums,
                    enumeration_budget)
from .errors import BudgetExceededError, DomainError
from .rates import binary_entropy, scan_max

_BLOCK = 1 << 16  # exponents gathered per block of a character table


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
    peak = max(interval_peak, random_peak)
    # 1e-12 for float rounding: the interval attains the exact bound
    excess = (random_peak - interval_peak - 1e-12, peak - bound - 1e-12)
    asym = abs(math.sin(float(rho) * math.pi)) / math.pi
    c = max(0.0, peak - asym) * p * p
    return {
        "p": p,
        "rho": float(rho),
        "interval_peak": interval_peak,
        "random_peak": random_peak,
        "exact_bound": bound,
        "interval_attains_max": excess[0] <= 0,
        "within_exact_bound": excess[1] <= 0,
        "violation": max(0.0, *excess),
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
    exhaustive = math.comb(m, t) <= min(enumeration_budget(budget), 10**6)
    if exhaustive:
        row_sets = combinations(range(m), t)
        head = {"mode": "certified", "weight": t}
    else:
        rng = random.Random(seed)
        row_sets = (rng.sample(range(m), t) for _ in range(samples))
        head = {"mode": "audited", "weight": t, "samples": samples}
    masks = [sum(1 << i for i in b) for b in buckets]
    worst = t
    for subset in row_sets:
        d_mask = 0
        for i in subset:
            d_mask |= 1 << i
        worst = min(worst, max(bin(d_mask & bm).count("1") for bm in masks))
        if exhaustive and worst < target:
            break
    return {**head, "min_intersection": worst, "meets_target": worst >= target}


def make_buckets(kind: str, m: int, n: int, lambda_target: float | None = None,
                 seed: int = 0, eps: float | None = None,
                 budget: int | None = None) -> BucketFamily:
    """Single, cyclic or random buckets; lambda_target and eps (default 0.05)
    are read by random buckets only, and given with another kind they raise."""
    if kind != "random" and (lambda_target is not None or eps is not None):
        raise DomainError(f"a lambda target and eps apply to random buckets only, not {kind!r}")
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
        if eps is None:
            eps = 0.05
        if not math.isfinite(eps):
            raise DomainError(f"--eps must be a finite number, got {eps}")
        if n >= m:
            raise DomainError("random buckets need n < m: their rate divides by 2 - 4 mu")
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
        # on the log scale: past the budget, exp(m rate) may overflow a float
        if m * rate > math.log(enumeration_budget(budget)):
            raise BudgetExceededError(f"J = exp({m * rate:.6g}) buckets exceed budget")
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


def character_tables(sets, p: int, primes) -> np.ndarray:
    """T[j, i, y] = F_i(y) = sum_{v in sets[i]} omega^(y v) mod P_j, y < p, for
    each (P_j, g_j) of `primes`, omega sent to g_j, except T[j, i, 0] = 1: a
    zero coordinate adds no factor.  Gathered in blocks of at most 2^16
    exponents y v mod p (one y when a set is larger): O(m p) memory."""
    mods = np.array([P for P, _ in primes], dtype=np.int64)[:, None]
    powers, g = np.ones_like(mods), np.array([g for _, g in primes], dtype=np.int64)[:, None]
    while powers.shape[1] < p:  # g^e for e < 2k from e < k, then g^(2k)
        powers, g = np.hstack([powers, powers * g % mods]), g * g % mods
    out = np.empty((len(primes), len(sets), p), dtype=np.int64)
    for i, s in enumerate(sets):
        rows = max(1, _BLOCK // len(s))
        for y in range(0, p, rows):
            exps = np.arange(y, min(y + rows, p))[:, None] * np.array(s) % p
            out[:, i, y:y + rows] = powers[:, exps].sum(axis=2) % mods
    out[:, :, 0] = 1
    return out


def per_transcript_sum(code: MdsCode, lists: InputLists, t: int) -> Fraction:
    """sum over weight-t dual codewords of prod_i spectrum_i(y_i), shared with
    the leakage-resilience literature: rho^(m-t) N_t / p^t, as the spectrum
    is rho at 0 and F_i / p elsewhere (0 for t outside [0, m]: no codeword)."""
    if not 0 <= t <= code.m:
        return Fraction(0)
    return lists.rho ** (code.m - t) * Fraction(dual_character_sums(code, lists)[t], code.p ** t)


def dual_character_sums(code: MdsCode, lists: InputLists, budget: int | None = None) -> tuple[int, ...]:
    """N_t = sum over weight-t dual codewords y of prod_{i: y_i != 0} F_i(y_i),
    t = 0..m: the integers behind E[q_t] and the transcript sums."""
    return _character_sums(code, lists, enumeration_budget(budget))


@functools.lru_cache(maxsize=4)
def _character_sums(code: MdsCode, lists: InputLists, budget: int) -> tuple[int, ...]:
    """`dual_character_sums`, cached because E[q_t], the transcript sums
    and verify read the same pass.  The budget is part of the key, so a
    lower cap still raises on a pair already summed.  Each product has at
    most m factors, each of size at most |S|."""
    return dual_weight_sums(code, lambda primes: character_tables(lists.sets, code.p, primes),
                            code.p ** code.dual_dim * len(lists.sets[0]) ** code.m, budget)


def parseval_split_identity(code: MdsCode, lists: InputLists, coords) -> tuple[int, int]:
    """Both sides of the projection-bijection step, as integers: the dual-code
    sum of prod_{i in coords} F_i(y_i) F_i(-y_i) = |F_i(y_i)|^2 (|coords| =
    m - n) vs the product of the Parseval masses sum_y |F_i(y)|^2 = p |S|."""
    if len(coords) != code.dual_dim:
        raise DomainError("need exactly m - n coordinates")
    p, k, size = code.p, len(coords), len(lists.sets[0])

    def tables_of(primes):
        F = character_tables(lists.sets, p, primes)
        F[:, :, 0] = size
        squares = F * F[:, :, -np.arange(p) % p] % np.array([P for P, _ in primes])[:, None, None]
        return np.where(np.isin(np.arange(code.m), coords)[:, None], squares, 1)

    return sum(dual_weight_sums(code, tables_of, p ** k * size ** (2 * k))), (p * size) ** k


def _log_comb(n: int, k: int) -> float:
    if k < 0 or k > n:
        return -math.inf
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def _coverage_log_tails(m: int, n: int) -> np.ndarray:
    """tails[k] = log sum_{k' >= k} C(b, k') C(2(m-n), d_perp - k') for
    k = 0..b, with b = 2n - m and d_perp = n + 1: the log coverage count at
    k guaranteed hits, for every k at once by one reversed cumulative
    log-sum-exp."""
    b, d_perp = 2 * n - m, n + 1
    terms = np.array([_log_comb(b, k) + _log_comb(2 * (m - n), d_perp - k)
                      for k in range(b + 1)])
    return np.logaddexp.accumulate(terms[::-1])[::-1]


def llr_rate_threshold(m: int = 4096, grid: int = 160) -> float:
    """Rate at which the balanced random-bucket split stops decaying,
    rebuilt from finite-m coverage counts (via log binomials) rather than
    the closed-form exponents.  Each mu reads every coverage tail from one
    _coverage_log_tails table."""
    def exponent(mu: float) -> float:
        n = round(2 * mu * m) // 2 * 2  # even n keeps b = 2n - m even
        b = 2 * n - m
        if b <= 0:
            return math.inf
        d_perp = n + 1
        tails = _coverage_log_tails(m, n).tolist()

        def split_rate(lam: float) -> float:
            hits = math.ceil(lam * m)
            if hits > b:  # no set meets the bucket that often
                return math.inf
            log_j = _log_comb(m, d_perp) - tails[hits]
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
