"""Exact small-instance engine for the discrepancy framework.

The k-wise discrepancy of a solution is the elementary symmetric sum of the
normalized indicator values across the m constraints; because all lists
share a common density, it collapses to a function of the satisfied count.
All identities come in two independently computed routes, and every checker
raises IdentityViolationError (with the instance attached) on disagreement.
Exact arithmetic lives in Q(r): both routes of E[q_t], the histogram and
the integer dual character sums, are Q(r) values compared with ==.  The
canonical square-root weights leave Q(r), so they enter in high-precision
floats, after the exact checks.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import mpmath

from .codes import (
    InputLists,
    MdsCode,
    SatisfactionProfile,
    brute_force_opi,
    enumeration_budget,
    lists_to_json,
)
from .errors import BudgetExceededError, DomainError, IdentityViolationError
from .kravchuk import HALF, build_family
from .leakage import dual_character_sums
from .quadext import QuadExt, beta_abs_of, beta_of, r_of, r_sq_of, zero
from .rates import pair_count_exponent

# Every route of this module is compared exactly.  The bound stays for
# float checks outside the package that read it (the benchmark's
# `desk_exact` and `large_instances` workloads).
TWO_ROUTE_TOL = 1e-9
# Floor on the mpmath digits of the canonical sampler's value.  Its routes
# are compared exactly, before any weight enters, so the floor guards only
# the working precision of the final ratio.
MIN_PRECISION_DIGITS = 10


def _comb0(n: int, k: int) -> int:
    return math.comb(n, k) if 0 <= k <= n else 0


# ---------- pointwise discrepancy ----------

def normalized_indicator_value(in_set: bool, rho: Fraction) -> QuadExt:
    """r for members, -1/r = -(rho/(1-rho)) r for non-members."""
    rho = Fraction(rho)
    r = r_of(rho)
    return r if in_set else QuadExt.of(0, -rho / (1 - rho), r.r_sq)


def indicator_values(code: MdsCode, lists: InputLists, x) -> list[QuadExt]:
    p = code.p
    res = [sum(code.B[i][j] * x[j] for j in range(code.n)) % p for i in range(code.m)]
    return [
        normalized_indicator_value(res[i] in lists.sets[i], lists.rho)
        for i in range(code.m)
    ]


def discrepancy_by_subsets(code: MdsCode, lists: InputLists, x, k: int) -> QuadExt:
    """q_k(x) as the literal sum over k-subsets of indicator products."""
    if math.comb(code.m, k) > enumeration_budget():
        raise BudgetExceededError(f"C({code.m},{k}) exceeds budget")
    g = indicator_values(code, lists, x)
    total = zero(lists.rho)
    for subset in combinations(range(code.m), k):
        prod = QuadExt.of(1, 0, total.r_sq)
        for i in subset:
            prod = prod * g[i]
        total = total + prod
    return total


@lru_cache(maxsize=256)
def discrepancy_table(m: int, rho: Fraction) -> tuple[tuple[QuadExt, ...], ...]:
    """q[k][s], k, s = 0..m: q_k of any solution satisfying exactly s
    constraints.

    With a common list density the multiset of indicator values depends on
    the solution only through its satisfied count, and
    sum_k q_k z^k = (1 + r z)^s (1 - z/r)^(m-s), so q_k = r^k K_k(m - s) in
    the Kravchuk family at the complementary density 1 - rho.
    """
    r = r_of(rho)
    values = build_family(m, 1 - rho, m).values
    # r^k = r_sq^(k // 2) r^(k mod 2)
    return tuple(tuple(_lift(r.r_sq ** (k // 2) * v, k % 2, r) for v in reversed(row))
                 for k, row in enumerate(values))


def discrepancy_from_count(m: int, rho: Fraction, sat: int, k: int) -> QuadExt:
    """q_k of any solution satisfying exactly `sat` constraints, read from
    `discrepancy_table`; zero for k outside 0..m, as no k-subset exists."""
    rho = Fraction(rho)
    if not 0 <= sat <= m:
        raise DomainError(f"satisfied count {sat} outside [0, {m}]")
    if not 0 <= k <= m:
        return zero(rho)
    return discrepancy_table(m, rho)[k][sat]


# ---------- expected discrepancy, two routes ----------

def expected_discrepancy_exact(code: MdsCode, lists: InputLists,
                               profile: SatisfactionProfile | None = None) -> list[QuadExt]:
    """E[q_t] over uniform solutions for every t, from the exact histogram."""
    if profile is None:
        profile = brute_force_opi(code, lists)
    r = r_of(lists.rho)
    bins = [(s, cnt) for s, cnt in enumerate(profile.histogram) if cnt]
    out = []
    for k, row in enumerate(discrepancy_table(code.m, lists.rho)):
        # r^k times rational values: all real for even k, all r-part for odd;
        # summed on integers over the lcm of their denominators
        vals = [(row[s].b if k % 2 else row[s].a, cnt) for s, cnt in bins]
        d = math.lcm(*(v.denominator for v, _ in vals))
        num = sum(v.numerator * (d // v.denominator) * cnt for v, cnt in vals)
        out.append(_lift(Fraction(num, d * profile.total), k % 2, r))
    return out


def expected_discrepancy_fourier(code: MdsCode, lists: InputLists,
                                 budget: int | None = None) -> list[QuadExt]:
    """E[q_t] for every t as the dual-code sum of products of normalized
    indicator Fourier coefficients, r F_i(y) / (p - |S|) off zero, exactly
    in Q(r): r^t N_t / (p - |S|)^t for `leakage.dual_character_sums`' N_t."""
    if lists.rho == 1:
        raise DomainError("E[q_t] needs list density below 1")
    r, co_size = r_of(lists.rho), code.p - len(lists.sets[0])
    return [_lift(Fraction(n, co_size ** t) * r.r_sq ** (t // 2), t % 2, r)
            for t, n in enumerate(dual_character_sums(code, lists, budget))]


def expected_discrepancy_all(code: MdsCode, lists: InputLists,
                             profile: SatisfactionProfile | None = None) -> list[QuadExt]:
    """E[q_t], t = 0..m, from the histogram, which must equal the dual
    character sums' route in Q(r) and, below the dual distance, where the
    dual code has no codewords to sum, be zero."""
    exact = expected_discrepancy_exact(code, lists, profile)
    for t, (ex, fo) in enumerate(zip(exact, expected_discrepancy_fourier(code, lists))):
        below = 0 < t < code.d_perp and not ex.is_zero()
        if ex != fo or below:
            raise IdentityViolationError(
                f"expected discrepancy nonzero below the dual distance (t={t})" if below else
                f"expected discrepancy routes disagree at weight {t}: exact {ex} vs dual sum {fo}",
                instance=lists_to_json(lists))
    return exact


# ---------- symmetric-difference counts ----------

def count_sym_diff(k_list, t: int, m: int) -> int:
    """Number of subset tuples (|T_i| = k_i) whose odd-multiplicity set is
    exactly {1..t}, by explicit enumeration over bitmasks.

    The largest factor is folded last through a hash count, so memory stays
    at the product of the remaining factors.
    """
    total = math.prod(math.comb(m, k) for k in k_list)
    if total > enumeration_budget():
        raise BudgetExceededError(f"{total} tuples exceed budget")
    target = (1 << t) - 1
    masks_per_k = []
    for k in k_list:
        masks = []
        for subset in combinations(range(m), k):
            mask = 0
            for i in subset:
                mask |= 1 << i
            masks.append(mask)
        masks_per_k.append(masks)

    masks_per_k.sort(key=len)
    tail = Counter(masks_per_k[-1])
    acc = [0]
    for masks in masks_per_k[:-1]:
        acc = [a ^ mk for a in acc for mk in masks]
    return sum(tail[a ^ target] for a in acc if (a ^ target) in tail)


def count_sym_diff_zero_closed(k_list, m: int) -> int:
    """Closed form for t = 0: 2^-m sum_t C(m,t) prod K_{k_i}(t); zero when
    the k_i sum is odd."""
    if sum(k_list) % 2 == 1:
        return 0
    values = build_family(m, HALF, m).values
    acc = Fraction(0)
    for t in range(m + 1):
        prod = Fraction(math.comb(m, t))
        for k in k_list:
            prod *= values[k][t] if 0 <= k <= m else 0
        acc += prod
    acc /= Fraction(2) ** m
    if acc.denominator != 1:
        raise IdentityViolationError("closed-form count is not an integer")
    return int(acc)


def weighted_pair_count(k: int, kp: int, t: int, m: int, rho: Fraction) -> QuadExt:
    """sum_j beta^j C(t,j) C(t-j, (t+k-k'-j)/2) C(m-t, (k+k'-t-j)/2), with
    binomials vanishing on negative or non-integer arguments."""
    return _weighted_pair_count(k, kp, t, m, beta_of(rho))


def weighted_pair_count_abs(k: int, kp: int, t: int, m: int, rho: Fraction) -> QuadExt:
    """Same sum with |beta|: the cancellation-free majorant."""
    return _weighted_pair_count(k, kp, t, m, beta_abs_of(rho))


def _weighted_pair_count(k: int, kp: int, t: int, m: int, beta: QuadExt) -> QuadExt:
    a, b = _beta_sq(beta)
    return _lift(Fraction(_pair_numerator(k, kp, t, m, a, b), b ** (t // 2)),
                 (t + k - kp) % 2, beta)


def _beta_sq(beta: QuadExt) -> tuple[int, int]:
    """(a, b) with beta^2 = a/b in lowest terms, beta = beta.b r; the same
    for beta and |beta|."""
    beta_sq = beta.b * beta.b * beta.r_sq
    return beta_sq.numerator, beta_sq.denominator


def _lift(v: Fraction, parity: int, x: QuadExt) -> QuadExt:
    """x^parity v in Q(r) for a pure r-part x = x.b r, such as beta or r:
    (v, 0), or (0, v x.b)."""
    if parity:
        return QuadExt(Fraction(0), v * x.b, x.r_sq)
    return QuadExt(v, Fraction(0), x.r_sq)


def _pair_numerator(k: int, kp: int, t: int, m: int, a: int, b: int) -> int:
    """The integer P with N(k,k';t) = beta^pi P / b^(t//2), pi = (t+k-k')
    mod 2, for beta^2 = a/b.

    Each term beta^j c_j of N, c_j the product of binomials, has j of parity
    pi; with j = pi + 2i <= t, P = sum_i c_{pi+2i} a^i b^(t//2-i)."""
    pi = (t + k - kp) % 2
    if k < 0 or kp < 0 or pi > t or t > m:
        return 0
    half = t // 2
    return sum(_comb0(t, j) * _comb0(t - j, (t + k - kp - j) // 2)
               * _comb0(m - t, (k + kp - t - j) // 2) * a**i * b ** (half - i)
               for i, j in enumerate(range(pi, t + 1, 2)))


def weighted_pair_count_brute(k: int, kp: int, t: int, m: int, rho: Fraction) -> QuadExt:
    """Enumeration oracle: sum beta^(t - |T xor T'|) over pairs with
    T xor T' inside {1..t} inside T union T'."""
    if math.comb(m, k) * math.comb(m, kp) > enumeration_budget():
        raise BudgetExceededError("pair enumeration exceeds budget")
    beta = beta_of(rho)
    target = (1 << t) - 1
    acc = QuadExt.of(0, 0, beta.r_sq)

    def mask_of(subset):
        out = 0
        for i in subset:
            out |= 1 << i
        return out

    masks_k = [mask_of(s) for s in combinations(range(m), k)]
    masks_kp = [mask_of(s) for s in combinations(range(m), kp)]
    for a in masks_k:
        for b in masks_kp:
            diff = a ^ b
            if diff & ~target:
                continue
            if target & ~(a | b):
                continue
            acc = acc + beta ** (t - bin(diff).count("1"))
    return acc


def weighted_triple_count(k: int, kp: int, s: int, m: int, rho: Fraction) -> QuadExt:
    """(k+1) N(k+1,k';s) + beta k N(k,k';s) + (m-k+1) N(k-1,k';s)."""
    if not 0 <= k < m:
        raise DomainError("need 0 <= k < m")
    beta = beta_of(rho)
    a, b = _beta_sq(beta)
    num = _triple_numerator(k, kp, s, m, a, b, lambda j: _pair_numerator(j, kp, s, m, a, b))
    return _lift(Fraction(num, b ** (s // 2 + 1)), (s + k + 1 - kp) % 2, beta)


def _triple_numerator(k: int, kp: int, s: int, m: int, a: int, b: int, pair) -> int:
    """The integer Q with the triple count = beta^parity Q / b^(s//2+1),
    parity = (s+k+1-k') mod 2, from pair(j), the `_pair_numerator` of
    N(j,k';s); pair(-1) is zero, so the k-1 term is vacuous at k = 0.
    N(k+-1) carry beta^parity and N(k) the other power, so the middle term
    beta N(k) is beta^2 P(k) = a P(k) / b when the parity is 0."""
    parity = (s + k + 1 - kp) % 2
    return (b * ((k + 1) * pair(k + 1) + (m - k + 1) * pair(k - 1))
            + (b if parity else a) * k * pair(k))


def _window_entries(m: int, a: int, b: int, window: range, t: int):
    """The numerators of the weight-t window counts as (parity, integer) in
    (k, k') order over the window: the pair counts over b^(t//2) and the
    triple counts over b^(t//2+1).  Each pair count, k in the window
    widened by one on each side, is computed once by `_pair_numerator`."""
    if window[0] < 0 or window[-1] >= m:
        raise DomainError("need 0 <= k < m")
    pair = {(k, kp): _pair_numerator(k, kp, t, m, a, b)
            for k in range(window[0] - 1, window[-1] + 2) for kp in window}
    pairs = tuple(((t + k - kp) % 2, pair[k, kp]) for k in window for kp in window)
    triples = tuple(((t + k + 1 - kp) % 2,
                     _triple_numerator(k, kp, t, m, a, b, lambda j: pair[j, kp]))
                    for k in window for kp in window)
    return pairs, triples


def _to_mp(qe: QuadExt, r_f):
    """a + b r as an mpmath float, given r as one."""
    return (
        mpmath.mpf(qe.a.numerator) / qe.a.denominator
        + (mpmath.mpf(qe.b.numerator) / qe.b.denominator) * r_f
    )


# ---------- the sampled-satisfaction expansion ----------

@dataclass(frozen=True)
class SamplerSpec:
    """Window weights for the squared-combination sampler.

    In "canonical" mode u_k = C(m,k)^(-1/2) on [ell-sigma, ell] (irrational, so
    the final ratio is taken in high-precision floats); "rational_test" mode
    takes explicit rational weights and keeps the ratio exact too.
    """

    ell: int
    sigma: int
    weight_mode: str = "canonical"
    rational_weights: tuple[Fraction, ...] | None = None  # indexed from ell-sigma

    def __post_init__(self):
        if self.sigma < 0 or self.sigma > self.ell:
            raise DomainError("need 0 <= sigma <= ell")
        if self.weight_mode not in ("canonical", "rational_test"):
            raise DomainError(f"unknown weight mode {self.weight_mode!r}")
        if self.rational_weights is not None:
            # a tuple of Fractions keeps the frozen spec hashable
            object.__setattr__(self, "rational_weights",
                               tuple(Fraction(v) for v in self.rational_weights))
        if self.weight_mode == "rational_test":
            if self.rational_weights is None:
                object.__setattr__(
                    self, "rational_weights",
                    tuple(Fraction(1) for _ in range(self.sigma + 1)),
                )
            elif len(self.rational_weights) != self.sigma + 1:
                raise DomainError("need sigma + 1 rational weights")

    @property
    def window(self) -> range:
        return range(self.ell - self.sigma, self.ell + 1)


def make_sampler(ell: int, sigma: int | None = None, weight_mode: str = "canonical",
                 rational_weights=None) -> SamplerSpec:
    # the asymptotic window width floor(log log ell) is 0 or 1 at desk scale
    if sigma is None:
        sigma = min(2, ell)
    return SamplerSpec(ell, sigma, weight_mode, rational_weights)


@lru_cache(maxsize=256)
def _pair_tables(m: int, rho: Fraction, window: range):
    """The integers of the per-pair check; they depend on no sampler weight.

    For the window pairs (k, k') in row order: the direct rows, with
    q_k(s) q_k'(s) = r^((k+k') mod 2) rows[i][s] / den for s = 0..m and
    one den for every pair, and for t <= min(m, 2 window[-1] + 1) the
    `_window_entries` of weight t.  Returned as tuples, so no caller can
    change what the next one reads."""
    q = discrepancy_table(m, rho)
    cols = [[v.b if k % 2 else v.a for v in q[k]] for k in window]
    d = math.lcm(*(v.denominator for col in cols for v in col))
    cols = [[v.numerator * (d // v.denominator) for v in col] for col in cols]
    r_sq = r_sq_of(rho)
    # q_k = r^(k mod 2) times a rational: two odd factors make r^2 = r_sq
    rows = tuple(tuple(x * y * (r_sq.numerator if k % 2 and kp % 2 else r_sq.denominator)
                       for x, y in zip(ck, ckp))
                 for k, ck in zip(window, cols) for kp, ckp in zip(window, cols))
    a, b = _beta_sq(beta_of(rho))
    entries = tuple(_window_entries(m, a, b, window, t)
                    for t in range(min(m, 2 * window[-1] + 1) + 1))
    return rows, d * d * r_sq.denominator, entries


def expected_sampled_satisfaction(code: MdsCode, lists: InputLists, spec: SamplerSpec,
                                  profile: SatisfactionProfile | None = None,
                                  precision_digits: int = 60) -> dict:
    """E[s] under the squared-window-combination sampler, its two routes
    checked exactly for every window pair before the weights enter.

    With h the histogram, E[s] = u^T M u / u^T D u over the window pairs,
    D(k,k') = sum_s h_s q_k(s) q_k'(s) and M(k,k') the same sum with a
    factor s/m.  Route one reads D and M from the histogram directly; route
    two expands them through the weighted counts and the uniform E[q_t] of
    `expected_discrepancy_exact` (no dual pass):
    D = p^n sum_t E[q_t] N(k,k';t) and
    M = p^n (rho sum_t E[q_t] N(k,k';t) + (rho r/m) sum_t E[q_t] Tri(k,k';t)).
    Each side of each pair is r^((k+k') mod 2) times a rational, so the two
    routes are compared as rationals; a disagreement raises
    IdentityViolationError naming the pair.  The weights enter once, in the
    final ratio: in Q(r) in rational_test mode, whose `exact_pair` is
    (u^T M u, u^T D u), and in mpmath at `precision_digits` with weights
    C(m,k)^(-1/2) in canonical mode.  The residual is 0 in both modes.  The
    counts are integers read from `_pair_tables`, keyed by (m, rho,
    window); the per-instance work is integer sums over the histogram and
    over t.  A sampler whose direct denominator is zero on the instance is
    a DomainError.
    """
    if profile is None:
        profile = brute_force_opi(code, lists)
    m, rho = code.m, lists.rho
    if spec.ell >= m:
        raise DomainError("window cutoff must stay below the code length")
    canonical = spec.weight_mode == "canonical"
    if canonical and precision_digits < MIN_PRECISION_DIGITS:
        raise DomainError(f"precision must be at least {MIN_PRECISION_DIGITS} digits, "
                          f"got {precision_digits}")
    window = spec.window
    rows, den, entries = _pair_tables(m, rho, window)
    bins = [(s, cnt) for s, cnt in enumerate(profile.histogram) if cnt]
    direct_d = [sum(cnt * row[s] for s, cnt in bins) for row in rows]
    direct_m = [sum(cnt * s * row[s] for s, cnt in bins) for row in rows]

    # p^n E[q_t] = e r^(t mod 2).  Each term of route two is e / b^(t//2)
    # times an integer count of `_window_entries` and a factor set by the
    # parity of t and the beta parity of the count: `pair` for D, rho times
    # it for M, and `triple` for the triple terms of M.  Every term is
    # r^((k+k') mod 2) times a rational: an integer over one denominator, lcd
    beta = beta_of(rho)
    a, b = _beta_sq(beta)
    r_sq, tri = beta.r_sq, rho / (m * b)
    factors = [((Fraction(1), beta.b * odd), (rho, rho * beta.b * odd),
                (tri * odd, tri * beta.b * r_sq)) for odd in (1, r_sq)]
    c = math.lcm(*(f.denominator for fs in factors for g in fs for f in g))
    live = [(t, (eq.b if t % 2 else eq.a) * profile.total / b ** (t // 2))
            for t, eq in zip(range(len(entries)), expected_discrepancy_exact(code, lists, profile))
            if not eq.is_zero()]
    e_den = math.lcm(*(e.denominator for _, e in live))
    lcd = c * e_den
    expanded_d, expanded_m = [0] * len(rows), [0] * len(rows)
    for t, e in live:
        e = e.numerator * (e_den // e.denominator)
        pair, rho_pair, triple = ([e * f.numerator * (c // f.denominator) for f in g]
                                  for g in factors[t % 2])
        for i, ((pp, pn), (tp, tn)) in enumerate(zip(*entries[t])):
            expanded_d[i] += pair[pp] * pn
            expanded_m[i] += rho_pair[pp] * pn + triple[tp] * tn
    keys = [(k, kp) for k in window for kp in window]
    for (k, kp), dd, dm, ed, em in zip(keys, direct_d, direct_m, expanded_d, expanded_m):
        if dd * lcd != ed * den or dm * lcd != em * m * den:
            raise IdentityViolationError(
                f"sampled-satisfaction routes disagree at window pair ({k}, {kp})",
                instance=lists_to_json(lists),
            )

    def form(u, values):
        # u^T V u as its rational part and its r part: k + k' even, odd
        sums = [0, 0]
        for (k, kp), v in zip(keys, values):
            sums[(k + kp) % 2] += u[k] * u[kp] * v
        return sums

    if canonical:
        with mpmath.workdps(precision_digits):
            u = {k: 1 / mpmath.sqrt(mpmath.binomial(m, k)) for k in window}
            r_f = mpmath.sqrt(mpmath.mpf(r_sq.numerator) / r_sq.denominator)
            (x, y), (xd, yd) = form(u, direct_m), form(u, direct_d)
            mass = xd + yd * r_f
            value = float((x + y * r_f) / (m * mass)) if mass else None
    else:
        # weights over one denominator c: both forms are integer sums
        c = math.lcm(*(v.denominator for v in spec.rational_weights))
        u = {k: v.numerator * (c // v.denominator) for k, v in zip(window, spec.rational_weights)}
        scale = c * c * den
        exact_pair = tuple(QuadExt(Fraction(x, s), Fraction(y, s), r_sq) for (x, y), s in (
            (form(u, direct_m), scale * m), (form(u, direct_d), scale)))
        value = (None if exact_pair[1].real_is_zero()
                 else exact_pair[0].to_float() / exact_pair[1].to_float())
    if value is None:
        raise DomainError("zero sampler mass: the window weights vanish at every "
                          "satisfied count the instance reaches")
    if canonical:
        return {"value": value, "mode": "canonical", "max_rel_residual": 0.0}
    return {"value": value, "mode": "rational_test", "exact_pair": exact_pair,
            "max_rel_residual": 0.0}


def quadratic_form_satisfaction(m: int, ell: int, u) -> Fraction:
    """1/2 + <w, A w> / (2m <w, w>) under w_k = C(m,k)^(1/2) u_k, evaluated
    exactly: the square roots cancel since C(m,k) k C(m,k-1)(m+1-k) is the
    square of k C(m,k)."""
    u = [Fraction(v) for v in u]
    if len(u) != ell + 1:
        raise DomainError("need ell + 1 weights")
    num = Fraction(0)
    den = Fraction(0)
    for k in range(ell + 1):
        den += u[k] ** 2 * math.comb(m, k)
        if k >= 1:
            num += 2 * u[k] * u[k - 1] * k * math.comb(m, k)
    if den == 0:
        raise DomainError("zero weight vector")
    return Fraction(1, 2) + num / (2 * m * den)


# ---------- window sums and rate checks ----------

def leading_term_sums(m: int, ell: int, sigma: int, rho: Fraction):
    """The weight-zero window sums of the expansion: the denominator sum is
    exactly sigma + 1; the numerator sum is returned as a 60-digit float
    (its terms carry sqrt binomial ratios)."""
    if not 0 <= sigma <= ell <= m:
        raise DomainError("need 0 <= sigma <= ell <= m")
    rho = Fraction(rho)
    window = range(ell - sigma, ell + 1)
    beta = beta_of(rho)
    a, b = _beta_sq(beta)
    pairs, triples = _window_entries(m, a, b, window, 0)
    keys = [(k, kp) for k in window for kp in window]
    den = Fraction(0)
    # at weight 0 the pair counts are integers and of parity 0 on the diagonal
    for (k, kp), (_, n0) in zip(keys, pairs):
        if k == kp:
            den += Fraction(n0, math.comb(m, k))
        elif n0:
            raise IdentityViolationError("off-diagonal weight-zero count nonzero")
    with mpmath.workdps(60):
        r_sq = (1 - rho) / rho
        r_f = mpmath.sqrt(mpmath.mpf(r_sq.numerator) / r_sq.denominator)
        num = mpmath.mpf(0)
        for (k, kp), (parity, n1) in zip(keys, triples):
            if n1:
                num += _to_mp(_lift(Fraction(n1, b), parity, beta), r_f) / mpmath.sqrt(
                    mpmath.binomial(m, k) * mpmath.binomial(m, kp))
        return den, num


def window_domination_report(m: int, ell: int, sigma: int, t: int, rho: Fraction) -> dict:
    """Compare every window pair count against the cancellation-free count
    at the window top; report the smallest admissible per-step constant."""
    if not 0 <= sigma <= ell <= m:
        raise DomainError("need 0 <= sigma <= ell <= m")
    rho = Fraction(rho)
    top = weighted_pair_count_abs(ell, ell - (t % 2), t, m, rho).to_float()
    base = top / math.comb(m, ell)
    if base <= 0:
        raise DomainError("cancellation-free majorant vanished")
    worst = 0.0
    worst_pair = None
    for k in range(ell - sigma, ell + 1):
        for kp in range(ell - sigma, ell + 1):
            lhs = abs(weighted_pair_count(k, kp, t, m, rho).to_float())
            lhs /= math.sqrt(math.comb(m, k) * math.comb(m, kp))
            ratio = lhs / base
            if ratio > worst:
                worst, worst_pair = ratio, (k, kp)
    c = worst ** (1.0 / max(sigma, 1)) if worst > 1.0 else 1.0
    return {
        "m": m, "ell": ell, "sigma": sigma, "t": t, "rho": float(rho),
        "max_ratio": worst,
        "worst_pair": worst_pair,
        "smallest_admissible_C": c,
        "all_bounded": math.isfinite(worst),
    }


def count_rate_report(m: int, mu: float, delta: float) -> dict:
    """Finite-m rate of the top-of-window pair count against its limit.

    Checks the partition identity N(l,l;t) C(m,t) = C(l,t/2) C(m-l,t/2) C(m,l)
    exactly on the grid, locates the maximizing even weight, and compares
    the rate with the limiting exponent within the slack 5 log(m)/m.
    """
    ell = math.floor((mu + delta) * m)
    slack = 5.0 * math.log(m) / m
    t_lo = math.ceil(2 * mu * m - 1e-9)
    if t_lo % 2:
        t_lo += 1
    rates = {}
    for t in range(t_lo, 2 * ell + 1, 2):
        half_t = t // 2
        n_val = math.comb(t, half_t) * _comb0(m - t, ell - half_t)
        lhs = n_val * math.comb(m, t)
        rhs = math.comb(ell, half_t) * _comb0(m - ell, half_t) * math.comb(m, ell)
        if lhs != rhs:
            raise IdentityViolationError(f"partition identity fails at t={t}")
        if n_val:
            rates[t] = (math.log(n_val) - math.log(math.comb(m, ell))) / m
    argmax_t = max(rates, key=rates.__getitem__)
    bound = pair_count_exponent(mu, delta)
    return {
        "m": m, "mu": mu, "delta": delta, "ell": ell,
        "max_rate": rates[argmax_t],
        "argmax_t": argmax_t,
        "limit_exponent": bound,
        "slack": slack,
        "within_slack": rates[argmax_t] <= bound + slack,
        "argmax_at_floor": argmax_t == t_lo,
    }
