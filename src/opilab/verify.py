"""The identity table run by `opilab verify`.

Each row of `ROWS` names an identity, its suite, the kind of instance it
reads, its mode and its check.  Each suite has one instance source: it
draws every instance from one `random.Random(seed)` in a fixed order and
yields (kind, description, build).  `run_suite` builds each instance once
and runs the suite's rows of that kind on it, in table order.

A check returns (residual, ok), or a string: the reason the shape cannot
run it, recorded as "skipped".  The residual is the number the check
compared against its bound.  An exact equality returns 0 when it holds and
otherwise raises IdentityViolationError naming the first failing index; a
float comparison returns its relative difference (the split bound and
the saturation quadratic their largest ratio to a bound); an inequality
returns its violation, clipped at 0.  An IdentityViolationError raised by
a build or a check is a "fail" record, with a null residual and the
message, of every row that needed the instance.  Domain and budget
errors propagate.

Records are {identity, instance, mode, max_abs_residual, status} plus an
"error" or a "reason"; a suite passes when no record fails.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple
from fractions import Fraction
from functools import cache, partial
from itertools import combinations
from types import SimpleNamespace

from . import SUITES, codes, discrepancy, kravchuk, leakage, quadext, rates
from .errors import BudgetExceededError, DomainError, IdentityViolationError

Row = namedtuple("Row", "identity suite kind mode check")


def _exact(names: str, cases):
    """(0.0, True) when every (index, holds) case holds; otherwise an
    IdentityViolationError naming the first index that fails."""
    for index, holds in cases:
        if not holds:
            at = ", ".join(f"{k}={v}" for k, v in zip(names.split(), index))
            raise IdentityViolationError(f"fails first at {at}")
    return 0.0, True


# ---------- instance sources ----------

def _draw(code, rng, low=1):
    """Lists of one size drawn from rng, seeded from rng, and their description."""
    size = rng.randint(low, code.p - 1)
    lists = codes.random_lists(code.p, code.m, size, rng.randrange(2**32))
    return lists, {"p": code.p, "m": code.m, "n": code.n,
                   "sets": [list(s) for s in lists.sets]}


def _profiled(code, lists, **extra):
    return SimpleNamespace(code=code, lists=lists, prof=codes.brute_force_opi(code, lists),
                           **extra)


def _balanced_family(m):
    return SimpleNamespace(m=m, fam=kravchuk.build_family(m, kravchuk.HALF, min(m, 6)))


def _kravchuk_instances(code, seed, precision):
    rng = random.Random(seed)
    for m in sorted({6, 9, rng.randint(4, 12)}):
        yield "m", {"m": m}, partial(_balanced_family, m)
    for rho in (kravchuk.HALF, Fraction(1, 3)):
        yield "rho", {"m": 12, "rho": str(rho)}, partial(SimpleNamespace, rho=rho)


def _moments_instances(code, seed, precision):
    rng = random.Random(seed)
    for _ in range(3):
        lists, desc = _draw(code, rng)
        yield "lists", desc, partial(_profiled, code, lists)


def _fourier_instances(code, seed, precision):
    yield from _moments_instances(code, seed, precision)
    yield "code", {"p": code.p, "m": code.m, "n": code.n}, partial(SimpleNamespace, code=code)


def _with_subset_sums(code, lists, xs, precision):
    """The profiled instance, with the satisfied count and q_0..q_m by subset sums at each x."""
    sums = []
    for x in xs:
        sat = sum(discrepancy._memberships(code, lists, x))
        sums.append((x, sat, [discrepancy.discrepancy_by_subsets(code, lists, x, k)
                              for k in range(code.m + 1)]))
    return _profiled(code, lists, subset_sums=sums, precision=precision)


def _discrepancy_instances(code, seed, precision):
    rng = random.Random(seed)
    rhos = []
    for _ in range(2):
        lists, desc = _draw(code, rng)
        xs = [tuple(rng.randrange(code.p) for _ in range(code.n)) for _ in range(6)]
        rhos.append(lists.rho)
        yield "lists", desc, partial(_with_subset_sums, code, lists, xs, precision)
    yield "pair_counts", {"m": 6, "rho": str(rhos[0])}, partial(SimpleNamespace, rho=rhos[0])
    yield "sym_diff", {"m": 8}, SimpleNamespace
    m = 11
    sets = [[rng.randrange(2)] for _ in range(m)]
    yield "parity", {"p": 2, "m": m, "n": m - 1, "sets": sets}, partial(
        _parity_instance, sets, precision)


def _parity_instance(sets, precision):
    """The even-weight code over F_2 (generator rows e_1..e_(m-1) and the
    all-ones row) with singleton lists: balanced, with dual distance m."""
    m = len(sets)
    B = [[int(i == j or i == m - 1) for j in range(m - 1)] for i in range(m)]
    return SimpleNamespace(code=codes.make_code(codes.FieldCtx(2), B),
                           lists=codes.make_lists(2, sets), precision=precision)


def _leakage_instances(code, seed, precision):
    p, m, n = code.p, code.m, code.n
    rng = random.Random(seed)
    yield "arc", {"p": p}, partial(SimpleNamespace, p=p, seed=seed)
    for kind in ("single", "cyclic"):
        for _ in range(3):
            lists, desc = _draw(code, rng, low=max(1, p // 3))
            yield "buckets", {**desc, "buckets": kind}, partial(
                SimpleNamespace, code=code, lists=lists, kind=kind)
    yield "code", {"p": p, "m": m, "n": n}, lambda: SimpleNamespace(
        code=code, lists=codes.random_lists(p, m, max(1, p // 2), seed + 17))
    yield "coverage", {"m": 10, "n": 7}, SimpleNamespace


def _asymptotic_instances(code, seed, precision):
    # a balanced rate, whose one pair-count row serves all three balanced
    # bounds, and a biased rate below density 1/2, where the cap 1 - rho - mu
    # passes 1/2 - mu; each drawn from about the improvement thresholds up
    # (2mu0 = 0.6224 for "best", 0.6264 for "avg", 0.609-0.619 for "biased"
    # at these densities), where delta_max is 0 or small and interior
    rng = random.Random(seed)
    points = ((rng.uniform(0.31, 0.35), 0.5, ("green", "avg", "best")),
              (rng.uniform(0.30, 0.32), rng.uniform(0.30, 0.45), ("biased",)))
    for mu, rho, kinds in points:
        yield "rate", {"mu": mu, "rho": rho, "kinds": list(kinds)}, partial(
            SimpleNamespace, mu=mu, rho=rho, kinds=kinds)
    # a biased rate at the cap below density 1/2, kept off rho, mu -> 1/2,
    # where the Newton root drifts up to 61 ulp from 2mu(1-2rho), and with
    # filled = rho(1-2mu) >= 0.02: the rounding of the cap and of gamma reach
    # the stationarity residual scaled by 1/filled (1.5e-14 at filled = 0.005)
    rho, mu = rng.uniform(0.1, 0.45), rng.uniform(0.01, 0.4)
    yield "saturation", {"mu": mu, "rho": rho}, partial(SimpleNamespace, mu=mu, rho=rho)


# suite -> (default (p, m, n) of its code, or None when it reads none; source),
# in the order of SUITES, whose last name is "all"
_SOURCES = dict(zip(SUITES[:-1], (
    (None, _kravchuk_instances),
    ((7, 6, 3), _moments_instances),
    ((7, 6, 3), _discrepancy_instances),
    ((7, 6, 3), _fourier_instances),
    ((11, 8, 6), _leakage_instances),
    (None, _asymptotic_instances),
), strict=True))


# ---------- kravchuk ----------

def _generating_function(inst):
    m, fam = inst.m, inst.fam
    return _exact("x ell", (
        ((x, ell), fam.values[ell][x] == kravchuk.closed_form_value(m, kravchuk.HALF, ell, x))
        for x in range(m + 1) for ell in range(fam.degree_max + 1)))


def _orthogonality(inst):
    # on the family itself: build_family is cached, so construction may not rerun it
    kravchuk._assert_orthogonality(kravchuk.build_family(inst.m, kravchuk.HALF, inst.m))
    return 0.0, True


def _char_poly(inst):
    return _exact("ell", (((ell,), kravchuk.char_poly_identity_check(inst.m, ell))
                          for ell in range(inst.m)))


def _root_interlacing(inst):
    m, fam = inst.m, inst.fam

    def cases():
        prev = None
        for ell in range(1, fam.degree_max + 1):
            rts = kravchuk.isolate_roots(fam, ell)
            yield (ell,), (len(rts) == ell and all(0 < z < m for z in rts) and (
                prev is None or all(a < b < c for b, a, c in zip(prev, rts, rts[1:]))))
            prev = rts

    return _exact("ell", cases())


def _kkt_quadratic_form(inst):
    m, ell = inst.m, inst.m // 2 - 1
    u, tilted = kravchuk.kkt_optimum(m, ell)
    return _exact("ell", [((ell,), discrepancy.quadratic_form_satisfaction(m, ell, u)
                           == 1 - tilted / m)])


def _representation_moments(inst):
    rep = kravchuk.principal_representation(12, inst.rho, 3)
    worst = max(abs(float(rep.moment(j) - want)) / max(1.0, abs(float(want)))
                for j, want in enumerate(codes.binomial_moments(12, inst.rho, rep.order)))
    return worst, worst <= 1e-8


# ---------- moments ----------

def _moment_match(inst):
    n, prof = inst.code.n, inst.prof
    pairs = zip(codes.profile_moments(prof, n), codes.binomial_moments(prof.m, inst.lists.rho, n))
    return _exact("j", (((j,), a == b) for j, (a, b) in enumerate(pairs)))


def _principal_interlacing(inst):
    m, ell = inst.code.m, (inst.code.n + 1) // 2
    if 2 * ell > m:
        return f"a principal representation needs 1 <= ell <= m/2, got ell={ell} m={m}"
    rep = kravchuk.principal_representation(m, inst.lists.rho, ell)
    report = kravchuk.interlacing_check(rep, inst.prof)
    return report["violation"], report["ok"]


def _max_at_least_density(inst):
    shortfall = inst.lists.rho - inst.prof.s_max
    return float(max(shortfall, 0)), shortfall <= 0


# ---------- discrepancy ----------

def _pair_products(inst):
    # E[q_k q_k'] and E[(s/m) q_k q_k'] against their expansion through
    # E[q_t], for every ordered pair k, k' < min(m, 4)
    code, lists, prof = inst.code, inst.lists, inst.prof
    discrepancy.expected_discrepancy_all(code, lists, prof)
    discrepancy._checked_pair_sums(code, lists, range(min(code.m, 4)), prof)
    return 0.0, True


def _triple_recursion(inst):
    m, beta = inst.code.m, discrepancy.beta_of(inst.lists.rho)
    return _exact("x k", (
        ((x, k), (q[1] * q[k]).real_equals(
            q[k + 1] * Fraction(k + 1) + q[k - 1] * Fraction(m - k + 1) + beta * q[k] * k))
        for x, _, q in inst.subset_sums for k in range(1, m)))


def _pointwise_collapse(inst):
    m, rho = inst.code.m, inst.lists.rho
    return _exact("x k", (
        ((x, k), q[k].real_equals(discrepancy.discrepancy_from_count(m, rho, sat, k)))
        for x, sat, q in inst.subset_sums for k in range(m + 1)))


def _master_expansion(inst, mode):
    # both modes compare their routes exactly and raise on any disagreement
    m, n = inst.code.m, inst.code.n
    ell = min(m - 1, (n + 1) // 2 + (mode == "rational_test"))
    # weights 1/2, 1/3, ...: the rational route must clear their denominators
    weights = None
    if mode == "rational_test":
        weights = [Fraction(1, j + 2) for j in range(min(2, ell) + 1)]
    spec = discrepancy.make_sampler(ell, weight_mode=mode, rational_weights=weights)
    discrepancy.expected_sampled_satisfaction(inst.code, inst.lists, spec, inst.prof,
                                              precision_digits=inst.precision)
    return 0.0, True


def _pair_count_enumeration(inst):
    # a fixed shape: the enumeration raises BudgetExceededError at large m
    return _exact("k k' t", (
        ((k, kp, t), discrepancy.weighted_pair_count(k, kp, t, 6, inst.rho).real_equals(
            discrepancy.weighted_pair_count_brute(k, kp, t, 6, inst.rho)))
        for k in range(3) for kp in range(3) for t in range(7)))


def _canonical_closed_form(inst):
    # below half the dual distance on balanced lists, E[s] is
    # 1/2 + <w, A w> / (2m <w, w>) with the canonical weights' w_k = 1
    m, ell, sigma = inst.code.m, 4, 2
    spec = discrepancy.make_sampler(ell, sigma, weight_mode="canonical")
    value = discrepancy.expected_sampled_satisfaction(
        inst.code, inst.lists, spec, precision_digits=inst.precision)["value"]
    want = 0.5 + sum(math.sqrt(k * (m + 1 - k))
                     for k in range(ell - sigma + 1, ell + 1)) / (m * (sigma + 1))
    # the value carries `precision` digits, a float at most 16
    return abs(value - want), abs(value - want) <= 10.0 ** (2 - min(inst.precision, 14))


def _sym_diff_closed_form(inst):
    return _exact("ks", (((ks,), discrepancy.count_sym_diff(ks, 0, 8)
                          == discrepancy.count_sym_diff_zero_closed(ks, 8))
                         for ks in ([2, 2], [1, 3], [2, 3, 3], [1, 1, 2], [2, 2, 2])))


# ---------- fourier ----------

def _dual_sum(inst):
    eq = discrepancy.expected_discrepancy_all(inst.code, inst.lists, inst.prof)
    return _exact("t", [((0,), eq[0].real_equals(1))])


def _transcript_scaling(inst):
    # the dual pass's transcript sums = rho^m r^t E[q_t] by the histogram route
    code, lists = inst.code, inst.lists
    eq = discrepancy.expected_discrepancy_exact(code, lists, inst.prof)
    r, rho_m = quadext.r_of(lists.rho), lists.rho ** code.m
    return _exact("t", (((t,), (eq[t] * r ** t * rho_m).real_equals(
        leakage.per_transcript_sum(code, lists, t))) for t in range(code.m + 1)))


def _dual_distance(inst):
    weight = codes.min_dual_weight(inst.code)
    return _exact("weight", [((weight,), weight == inst.code.d_perp)])


# ---------- leakage ----------

def _arc_extremal(inst):
    p = inst.p
    rep = leakage.arc_extremal_check(p, Fraction(max(1, p // 2), p), trials=200, seed=inst.seed)
    return rep["violation"], rep["interval_attains_max"] and rep["within_exact_bound"]


def _split_bound(inst):
    code, lists = inst.code, inst.lists
    m, n = code.m, code.n
    if 2 * n <= m:
        return f"buckets need 2n > m, got n={n} m={m}"
    fam = leakage.make_buckets(inst.kind, m, n)
    eq = discrepancy.expected_discrepancy_fourier(code, lists)
    worst = max((abs(eq[t]) / leakage.bucket_split_bound(code, lists, fam, t)
                 for t in range(code.d_perp, m + 1)), default=0.0)
    return worst, worst <= 1.0 + 1e-9


def _parseval_chain(inst):
    coords = tuple(range(inst.code.dual_dim))
    lhs, rhs = leakage.parseval_split_identity(inst.code, inst.lists, coords)
    return _exact("coords", [((coords,), lhs == rhs)])


def _coverage(inst):
    bucket = set(range(2 * 7 - 10))  # m = 10, n = 7
    return _exact("lambda", (((lam,), leakage.coverage_count(10, 7, lam) == sum(
        len(bucket & set(d)) >= math.ceil(lam * 10 - 1e-9) for d in combinations(range(10), 8)))
        for lam in (0.2, 0.4)))


# ---------- asymptotic ----------

# a central difference with step 1e-6 carries truncation and rounding error
# near 1e-9 of the slope on these points (at most 8.7e-10 over 3,000 draws)
_ENVELOPE_TOL = 1e-7


def _scanned_delta_maxes(mu, rho, kinds):
    """rates._delta_maxes by the whole 257-point scan: every flag of the
    shared pair-count row, then rates._first_true_bracket's flip-back check
    and the same bisection with each kind's own exponent."""
    cap = rates.delta_cap(mu, rho, kinds[0])
    if cap <= 0.0:
        return [0.0] * len(kinds)
    splits = [rates._exponent_in_delta(mu, rho, kind) for kind in kinds]
    xs = rates._grid(0.0, cap, 256)
    row_of = next((pc for pc, dual in splits if dual < math.inf), splits[0][0])
    row = [row_of(d) for d in xs]
    out = []
    for kind, (pair_count, dual) in zip(kinds, splits):
        try:
            bracket = rates._first_true_bracket(
                [not value + dual < -rates.FEAS_MARGIN for value in row], xs,
                lambda d: not pair_count(d) + dual < -rates.FEAS_MARGIN, 1e-6)
        except IdentityViolationError as exc:
            raise IdentityViolationError(
                f"feasibility is not an interval in delta at mu={mu} rho={rho} "
                f"kind={kind}: {exc}"
            ) from exc
        out.append(cap if bracket is None else bracket[0])
    return out


def _delta_monotone_scan(inst):
    # the binary search over the scan indices against the whole scan
    pairs = zip(inst.kinds, _scanned_delta_maxes(inst.mu, inst.rho, inst.kinds),
                rates._delta_maxes(inst.mu, inst.rho, inst.kinds))
    return _exact("kind", (((kind,), scanned == searched) for kind, scanned, searched in pairs))


def _envelope_derivative(mu, rho, kind, delta):
    """(dE/ddelta, the condition whose sign it has) at tau = 0, in closed
    form: the balanced pair-count rate's derivative, or the biased rate's
    by the envelope theorem at the solver's inner argmax gamma*."""
    s = mu + delta
    if kind != "biased":
        return math.log(s * (1.0 - mu - s) / (delta * (1.0 - s))), mu * (1.0 - 2.0 * s)
    gamma = rates.pair_count_exponent_biased(mu, delta, 0.0, rho)[1]
    free, filled = delta - gamma / 2.0, 1.0 - mu - s + gamma / 2.0
    return math.log(s / (1.0 - s)) + math.log(filled / free), mu * (1.0 - 2.0 * s) + gamma / 2.0


def _delta_envelope_derivative(inst):
    # at deltas (2j + 1) cap / 8: the closed form is positive with its
    # condition, and matches a central difference of the exponent sum
    mu, rho, kind = inst.mu, inst.rho, inst.kinds[0]
    cap, h = rates.delta_cap(mu, rho, kind), 1e-6
    worst = 0.0
    for j in range(4):
        delta = cap * (2 * j + 1) / 8
        slope, condition = _envelope_derivative(mu, rho, kind, delta)
        if not (slope > 0.0 and condition > 0.0):
            raise IdentityViolationError(
                f"dE/ddelta = {slope!r} and its condition {condition!r} are not both "
                f"positive at delta={delta!r}")
        central = (rates._exponent_at(mu, rho, kind, delta + h)
                   - rates._exponent_at(mu, rho, kind, delta - h)) / (2.0 * h)
        worst = max(worst, abs(central - slope) / slope)
    return worst, worst <= _ENVELOPE_TOL


# the Newton root's distance from 2mu(1-2rho) in ulp (at most 10 over
# 100,000 draws of the instance's range); the rate and the stationarity
# residual at 2mu(1-2rho) differ from their closed forms by rounding only
# (at most 5.6e-16 and 4.0e-15 there)
_GAMMA_ULPS = 16
_SATURATION_TOL = 1e-14


def _saturation_root(rho):
    """mu1: where the biased saturation exponent at rho < 1/2,
    8L mu^2 + (2K + 2 log rho + log(rho/(1-rho)) - 2L) mu - log rho with
    L = log|sinc(pi rho)|, equals -FEAS_MARGIN.  The leading coefficient is
    negative and the constant positive, so the one positive root is the
    smallest in (0, 1/2) when any lies there."""
    lsinc = math.log(abs(math.sin(math.pi * rho) / (math.pi * rho)))
    a = 8.0 * lsinc
    b = (2.0 * rates.biased_saturation_slope(rho) + 2.0 * math.log(rho)
         + math.log(rho / (1.0 - rho)) - 2.0 * lsinc)
    c = -math.log(rho) + rates.FEAS_MARGIN
    q = -(b + math.copysign(math.sqrt(b * b - 4.0 * a * c), b)) / 2.0
    return max(q / a, c / q)


def _biased_saturation_quadratic(inst):
    # at tau = 0 and delta at the cap 1 - rho - mu: the Newton gamma* against
    # 2mu(1-2rho), its pair-count rate against 2mu K(rho), the stationarity
    # residual at 2mu(1-2rho), and thresholds' saturation rate against the
    # quadratic's root; a check outside [0, bound] fails the row by name, and
    # the residual is the largest ratio of a check to its bound
    mu, rho = inst.mu, inst.rho
    cap, gamma = 1.0 - rho - mu, 2.0 * mu * (1.0 - 2.0 * rho)
    value, solved, _ = rates.pair_count_exponent_biased(mu, cap, 0.0, rho)
    two_mu1, root = rates.thresholds(rho, "biased").two_mu1, 2.0 * _saturation_root(rho)
    checks = (
        ("gamma* - 2mu(1-2rho) in ulp", abs(solved - gamma) / math.ulp(gamma), _GAMMA_ULPS),
        ("rate - 2mu K(rho)", abs(value - 2.0 * mu * rates.biased_saturation_slope(rho)),
         _SATURATION_TOL),
        ("stationarity residual at 2mu(1-2rho)",
         abs(rates.stationarity_residual(mu, cap, 0.0, rho, gamma)), _SATURATION_TOL),
        ("thresholds' two_mu1 - 2mu1", math.inf if two_mu1 is None else two_mu1 - root, 1e-4),
    )
    for name, got, bound in checks:
        if not 0.0 <= got <= bound:
            raise IdentityViolationError(
                f"{name} is {got!r}, outside [0, {bound!r}], at mu={mu!r} rho={rho!r} "
                f"(two_mu1={two_mu1!r}, 2mu1={root!r})")
    return max(got / bound for _, got, bound in checks), True


ROWS = (
    Row("generating_function_expansion", "kravchuk", "m", "exact", _generating_function),
    Row("orthogonality", "kravchuk", "m", "exact", _orthogonality),
    Row("tridiagonal_char_poly", "kravchuk", "m", "exact", _char_poly),
    Row("root_count_and_interlacing", "kravchuk", "m", "exact", _root_interlacing),
    Row("kkt_quadratic_form", "kravchuk", "m", "exact", _kkt_quadratic_form),
    Row("principal_representation_moments", "kravchuk", "rho", "high_precision",
        _representation_moments),
    Row("binomial_moment_match", "moments", "lists", "exact", _moment_match),
    Row("principal_interlacing", "moments", "lists", "exact", _principal_interlacing),
    Row("max_at_least_density", "moments", "lists", "exact", _max_at_least_density),
    Row("pair_product_expansion", "discrepancy", "lists", "exact", _pair_products),
    Row("pointwise_triple_recursion", "discrepancy", "lists", "exact", _triple_recursion),
    Row("pointwise_collapse", "discrepancy", "lists", "exact", _pointwise_collapse),
    Row("master_expansion_rational", "discrepancy", "lists", "exact",
        partial(_master_expansion, mode="rational_test")),
    Row("master_expansion_canonical_weights", "discrepancy", "lists", "exact",
        partial(_master_expansion, mode="canonical")),
    Row("pair_count_enumeration", "discrepancy", "pair_counts", "exact",
        _pair_count_enumeration),
    Row("sym_diff_zero_closed_form", "discrepancy", "sym_diff", "exact", _sym_diff_closed_form),
    Row("canonical_weight_closed_form", "discrepancy", "parity", "float",
        _canonical_closed_form),
    Row("dual_sum_vs_enumeration", "fourier", "lists", "exact", _dual_sum),
    Row("transcript_scaling", "fourier", "lists", "exact", _transcript_scaling),
    Row("dual_distance", "fourier", "code", "exact", _dual_distance),
    Row("interval_extremal_spectrum", "leakage", "arc", "float", _arc_extremal),
    Row("bucket_split_bound_dominates", "leakage", "buckets", "float", _split_bound),
    Row("projection_parseval_chain", "leakage", "code", "exact", _parseval_chain),
    Row("coverage_count_formula", "leakage", "coverage", "exact", _coverage),
    Row("delta_monotone_scan", "asymptotic", "rate", "exact", _delta_monotone_scan),
    Row("delta_envelope_derivative", "asymptotic", "rate", "float", _delta_envelope_derivative),
    Row("biased_saturation_quadratic", "asymptotic", "saturation", "float",
        _biased_saturation_quadratic),
)


def _run(row, build, instance):
    """The row's record on the instance `build()` returns."""
    residual, status, note = None, "fail", {}
    try:
        out = row.check(build())
    except IdentityViolationError as exc:
        note = {"error": str(exc)}
    else:
        if isinstance(out, str):
            status, note = "skipped", {"reason": out}
        else:
            residual, status = float(out[0]), "pass" if out[1] else "fail"
    return {"identity": row.identity, "instance": instance, "mode": row.mode,
            "max_abs_residual": residual, "status": status, **note}


def run_suite(name: str, p=None, m=None, n=None, seed: int = 0,
              precision: int = 60) -> list[dict]:
    """The records of every row of suite `name` ("all": every suite, in
    table order), on instances of shape (p, m, n); a flag left as None
    takes the suite's default, and a 0 or negative one is a DomainError, as
    is any flag given to a suite that reads no code."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    if name != "all" and _SOURCES[name][0] is None:
        for flag, value in (("--p", p), ("--m", m), ("--n", n)):
            if value is not None:
                raise DomainError(f"suite {name!r} reads no code; drop {flag}")
    records = []
    for suite, (default, source) in _SOURCES.items():
        if name not in (suite, "all"):
            continue
        code = None
        if default is not None:
            fp, fm, fn = (d if v is None else v for v, d in zip((p, m, n), default))
            # every code-reading suite enumerates at least p elements
            budget = codes.enumeration_budget()
            if fp > budget:
                raise BudgetExceededError(f"--p {fp} exceeds the enumeration budget {budget}")
            code = codes.make_rs_code(codes.FieldCtx(fp), fm, fn)
        for kind, desc, build in source(code, seed, precision):
            # built once for all its rows; a build that raises is not
            # cached, so each row retries it and fails the same way
            build = cache(build)
            records.extend(_run(row, build, desc) for row in ROWS
                           if (row.suite, row.kind) == (suite, kind))
    return records
