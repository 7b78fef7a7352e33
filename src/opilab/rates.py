"""Asymptotic rate functions and the nested optimizations behind the
improvement and saturation thresholds.

Everything here is double precision.  Feasibility predicates are open
strict inequalities in the underlying analysis, so they are certified with
an explicit margin (FEAS_MARGIN) rather than at equality.  One builder,
_exponent_in_delta, splits every bound's exponent sum into a pair-count row
in delta and a delta-free dual constant, computed once per mu; every reader
forms pair_count(delta) + dual.  delta_max reads one pair-count row per
(mu, rho) for every requested bound.  The exponent sum increases in delta
(an envelope identity, stated at _delta_maxes), so each bound binary-searches
its feasibility flags on the row's 256-step scan; the whole scan and its
flip-back check run in `verify --suite asymptotic`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, IdentityViolationError

LOG2 = math.log(2.0)
LOG_2_OVER_PI = math.log(2.0 / math.pi)
FEAS_MARGIN = 1e-9
BOUND_KINDS = ("green", "avg", "best", "biased")
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_EDGE_EPS = 1e-12  # tolerated float spill at domain boundaries
_ULP = 2.0 ** -52


def binary_entropy(x: float) -> float:
    """-x log x - (1-x) log(1-x), natural log, H(0) = H(1) = 0."""
    if x < 0.0:
        if x < -_EDGE_EPS:
            raise DomainError(f"entropy argument {x} below 0")
        x = 0.0
    if x > 1.0:
        if x > 1.0 + _EDGE_EPS:
            raise DomainError(f"entropy argument {x} above 1")
        x = 1.0
    out = 0.0
    if x > 1e-300:
        out -= x * math.log(x)
    y = 1.0 - x
    if y > 1e-300:
        out -= y * math.log(y)
    return out


def semicircle_law(rho: float, mu_arg: float) -> float:
    """(sqrt(mu(1-rho)) + sqrt(rho(1-mu)))^2 for mu + rho <= 1, else 1."""
    if not 0.0 < rho < 1.0:
        raise DomainError(f"rho={rho} outside (0, 1)")
    if not -_EDGE_EPS <= mu_arg <= 1.0 + _EDGE_EPS:
        raise DomainError(f"mu={mu_arg} outside [0, 1]")
    mu_arg = min(max(mu_arg, 0.0), 1.0)
    if mu_arg + rho >= 1.0:
        return 1.0
    return (math.sqrt(mu_arg * (1.0 - rho)) + math.sqrt(rho * (1.0 - mu_arg))) ** 2


def pair_count_exponent(mu: float, delta: float) -> float:
    """Exponential rate of the weighted subset-pair count in the balanced
    master expansion: (mu+d)H(mu/(mu+d)) + (1-mu-d)H(mu/(1-mu-d)) - H(2mu)."""
    return _pair_count_in_delta(mu)(delta)


def _pair_count_in_delta(mu: float):
    """delta -> pair_count_exponent(mu, delta), with H(2mu) taken once per
    mu, formed as first + second - H(2mu)."""
    if mu < 0.0:
        raise DomainError("mu and delta must be nonnegative")
    if mu > 0.5 + _EDGE_EPS:
        raise DomainError("need mu + delta <= 1/2")
    h_two_mu = binary_entropy(2.0 * mu)

    def exponent(delta: float) -> float:
        if delta < -_EDGE_EPS:
            raise DomainError("mu and delta must be nonnegative")
        if mu + delta > 0.5 + _EDGE_EPS:
            raise DomainError("need mu + delta <= 1/2")
        delta = max(delta, 0.0)
        s = mu + delta
        first = s * binary_entropy(mu / s) if s > 0 else 0.0
        return first + (1.0 - s) * binary_entropy(mu / (1.0 - s)) - h_two_mu

    return exponent


def dual_sum_exponent_avg(mu: float) -> float:
    """Decay rate of the dual Fourier sum with linearly many cyclic buckets."""
    return (1.0 - 2.0 * mu) * LOG2 + 2.0 * mu * (4.0 * mu - 1.0) * LOG_2_OVER_PI


def dual_sum_exponent_green(mu: float) -> float:
    """Decay rate with a single bucket (the off-the-shelf split)."""
    return (1.0 - 2.0 * mu) * LOG2 + (6.0 * mu - 2.0) * LOG_2_OVER_PI


def _edge_ratio(num: float, den: float) -> float:
    """num/den clamped into [0, 1] only against absolute float noise."""
    if num < 0.0:
        if num < -_EDGE_EPS:
            raise DomainError(f"ratio numerator {num} below 0")
        return 0.0
    if num > den:
        if num > den + _EDGE_EPS:
            raise DomainError(f"ratio {num}/{den} above 1")
        return 1.0
    if den == 0.0:
        return 0.0  # num is 0 too at this point
    return num / den


def dual_sum_exponent_best(mu: float, lam: float) -> float:
    """Decay rate with exponentially many random buckets of hit density lam."""
    a1 = 4.0 * mu - 1.0
    if a1 <= 0.0:
        raise DomainError("need mu > 1/4 for the random-bucket trade-off")
    a2 = 2.0 - 4.0 * mu
    t1 = a1 * binary_entropy(_edge_ratio(lam, a1))
    t2 = a2 * binary_entropy(_edge_ratio(2.0 * mu - lam, a2)) if a2 > _EDGE_EPS else 0.0
    return (1.0 - 2.0 * mu) * LOG2 + binary_entropy(2.0 * mu) - t1 - t2 + lam * LOG_2_OVER_PI


def lambda_star(mu: float) -> float:
    """Closed-form minimizer of the random-bucket exponent in lam."""
    if not 0.25 < mu <= 0.5:
        raise DomainError("need 1/4 < mu <= 1/2")
    c = 2.0 / math.pi
    a_coef = c + (1.0 - c) * (6.0 * mu - 1.0)
    disc = a_coef * a_coef - 8.0 * (1.0 - c) * mu * (4.0 * mu - 1.0)
    if disc < 0.0:
        raise DomainError(f"negative discriminant at mu={mu}")
    return (a_coef - math.sqrt(disc)) / (2.0 * (1.0 - c))


def golden_section_max(f, lo: float, hi: float, tol: float = 1e-10):
    """Scalar maximizer of a unimodal f on [lo, hi]."""
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    x = (a + b) / 2.0
    return x, f(x)


def _grid(lo: float, hi: float, steps: int) -> list[float]:
    """steps + 1 evenly spaced points from lo to hi, lo + (hi - lo) * i / steps."""
    return [lo + (hi - lo) * i / steps for i in range(steps + 1)]


def _bisect(pred, a: float, b: float, tol: float) -> tuple[float, float]:
    """Halve [a, b], pred(a) False and pred(b) True, until b - a <= tol."""
    while b - a > tol:
        mid = (a + b) / 2.0
        if pred(mid):
            b = mid
        else:
            a = mid
    return a, b


def scan_max(f, xs, tol: float = 1e-10):
    """(x, f(x)) maximizing f: the best of the sorted scan points xs, refined
    by golden section between its neighbours; the scan point is kept when
    golden section ends below it.  Minimizers pass -f."""
    best_i, best_v = 0, f(xs[0])
    for i in range(1, len(xs)):
        v = f(xs[i])
        if v > best_v:
            best_i, best_v = i, v
    x, v = golden_section_max(f, xs[max(best_i - 1, 0)], xs[min(best_i + 1, len(xs) - 1)], tol)
    if v < best_v:
        return xs[best_i], best_v
    return x, v


def scan_first_true(pred, xs, tol: float):
    """Bracket (a, b), b - a <= tol, where pred turns True on the sorted scan
    points xs: pred(a) is False and pred(b) True.  (xs[0], xs[0]) when pred
    already holds at xs[0]; None when it holds nowhere.

    pred must be a single False -> True step on the scan; a later flip back
    to False raises IdentityViolationError.
    """
    return _first_true_bracket([pred(x) for x in xs], xs, pred, tol)


def _first_true_bracket(flags, xs, pred, tol: float):
    """scan_first_true on given flags, flags[i] = pred(xs[i]): the first
    True, the flip-back check, then the bisection of pred."""
    if not any(flags):
        return None
    first = flags.index(True)
    if not all(flags[first:]):
        k = flags.index(False, first)
        raise IdentityViolationError(
            f"predicate turns False again at scan index {k} (x={xs[k]!r}) "
            f"after turning True at index {first}"
        )
    if first == 0:
        return xs[0], xs[0]
    return _bisect(pred, xs[first - 1], xs[first], tol)


def pair_count_exponent_biased(mu: float, delta: float, tau: float, rho: float):
    """Exponential rate of the weighted pair count for general list density.

    Returns (value, gamma_star, at_endpoint).  The inner maximization over
    gamma is strictly concave, so gamma_star is the one root of its
    derivative log((A-g)/g) + (1/2) log(x/(1-x)) + log(|beta|/2), with
    A = 2(mu+tau) and x = (delta - tau - g/2)/(1 - 2mu - 2tau), found by
    Newton steps kept inside the gamma bracket (bisection when a step
    leaves it).  stationarity_residual checks the root.
    """
    return _biased_exponent(mu, delta, tau, rho, _stationary_gamma)


def _pair_count_exponent_biased_scan(mu: float, delta: float, tau: float, rho: float):
    """pair_count_exponent_biased with gamma_star from a 256-step scan refined
    by golden section: the independent second route of the inner solve, and
    the route of the printed argmaxes (thresholds' witness gamma, figure 3's
    gamma_star), whose committed values it reproduces bit for bit."""
    return _biased_exponent(mu, delta, tau, rho, _scanned_gamma)


def _biased_exponent(mu: float, delta: float, tau: float, rho: float, argmax):
    """(value, gamma_star, at_endpoint) with gamma_star = argmax(objective,
    slope, gamma_lo, gamma_hi) on a non-pinned bracket.

    At delta = tau the bracket is [0, 0] and the objective there is
    a H(0) + w H(0) = 0 exactly, so the value is the closed form
    2(mu+tau) log 2 - H(mu+delta), with gamma_star = 0 at the endpoint.
    """
    if not 0.0 < rho < 1.0:
        raise DomainError("rho outside (0, 1)")
    if tau < -_EDGE_EPS or tau > delta + _EDGE_EPS:
        raise DomainError("need 0 <= tau <= delta")
    tau = min(max(tau, 0.0), delta)
    w = 1.0 - 2.0 * mu - 2.0 * tau
    if w <= 0.0:
        raise DomainError("need mu + tau < 1/2")
    base = 2.0 * (mu + tau) * LOG2 - binary_entropy(mu + delta)
    if delta == tau:
        return base, 0.0, True
    beta_abs = _beta_abs(rho)
    log_half_beta = math.log(beta_abs / 2.0) if beta_abs > 0.0 else -math.inf
    a, d = 2.0 * (mu + tau), delta - tau
    # Both entropy arguments must land in [0, 1], which confines gamma to
    # [2(delta - tau - w), 2(delta - tau)] intersected with [0, 2(mu + tau)];
    # the interval is never empty since delta + mu <= 1.
    gamma_lo = max(0.0, 2.0 * (d - w))
    gamma_hi = min(a, 2.0 * d)

    def objective(g: float) -> float:
        v = a * binary_entropy(_edge_ratio(g, a))
        v += w * binary_entropy(_edge_ratio(d - g / 2.0, w))
        if g > 0.0:
            if beta_abs == 0.0:
                return -math.inf
            v += g * log_half_beta
        return v

    def slope(g: float) -> tuple[float, float]:
        """(objective'(g), objective''(g)) for g strictly inside the bracket,
        where d - g/2 = w x and w - d + g/2 = w (1 - x) are both positive."""
        free, filled = d - g / 2.0, w - d + g / 2.0
        first = math.log((a - g) / g) + 0.5 * math.log(free / filled) + log_half_beta
        return first, -a / (g * (a - g)) - w / (4.0 * free * filled)

    if gamma_hi <= gamma_lo + _EDGE_EPS or (beta_abs == 0.0 and gamma_lo <= 0.0):
        # gamma pinned: empty interior, or zero bias weight kills any g > 0.
        return base + objective(gamma_lo), gamma_lo, True
    g_star = argmax(objective, slope, gamma_lo, gamma_hi)
    at_end = abs(g_star - gamma_lo) < 1e-9 or abs(g_star - gamma_hi) < 1e-9
    return base + objective(g_star), g_star, at_end


def _stationary_gamma(objective, slope, lo: float, hi: float) -> float:
    """Root of the strictly decreasing slope on (lo, hi), where it runs from
    +inf to -inf: Newton steps, bisecting whenever a step leaves the
    shrinking bracket, until the Newton step or the bisection step from the
    last point is at most 4 ulp."""
    g = (lo + hi) / 2.0
    for _ in range(200):
        first, second = slope(g)
        if first > 0.0:
            lo = g
        elif first < 0.0:
            hi = g
        step = g - first / second
        nxt = step if lo < step < hi else (lo + hi) / 2.0
        tol = 4.0 * _ULP * g
        if abs(step - g) <= tol or abs(nxt - g) <= tol:
            break
        g = nxt
    return g


def _scanned_gamma(objective, slope, lo: float, hi: float) -> float:
    return scan_max(objective, _grid(lo, hi, 256))[0]


def _beta_abs(rho: float) -> float:
    """|beta| = |1 - 2rho| / sqrt(rho(1 - rho)), the bias weight at density rho."""
    return abs(1.0 - 2.0 * rho) / math.sqrt(rho * (1.0 - rho))


def stationarity_residual(mu: float, delta: float, tau: float, rho: float, gamma: float) -> float:
    """1 - (|beta|/2)((1-y)/y) sqrt(x/(1-x)) at the given gamma, with
    y = gamma/(2(mu+tau)) and x = (delta - tau - gamma/2)/(1 - 2mu - 2tau).

    The subtracted term is exp of the inner derivative that
    pair_count_exponent_biased drives to zero, so the residual vanishes at
    its interior gamma_star: the check on that solver's root.  x/(1-x) is
    read as free/filled, as that solver's slope reads it; forming 1 - x by
    subtraction loses digits when x is near 1."""
    w = 1.0 - 2.0 * mu - 2.0 * tau
    free, filled = delta - tau - gamma / 2.0, w - (delta - tau) + gamma / 2.0
    y = gamma / (2.0 * (mu + tau))
    return 1.0 - (_beta_abs(rho) / 2.0) * ((1.0 - y) / y) * math.sqrt(free / filled)


def dual_sum_exponent_biased(mu: float, tau: float, rho: float) -> float:
    """(2mu-1)log rho + (mu+tau)log(rho/(1-rho))
    + 2(mu+tau)(4mu-1)log(|sin(rho pi)|/(rho pi))."""
    if not 0.0 < rho < 1.0:
        raise DomainError("rho outside (0, 1)")
    sinc = math.sin(rho * math.pi) / (rho * math.pi)
    return (
        (2.0 * mu - 1.0) * math.log(rho)
        + (mu + tau) * math.log(rho / (1.0 - rho))
        + 2.0 * (mu + tau) * (4.0 * mu - 1.0) * math.log(abs(sinc))
    )


def _exponent_in_delta(mu: float, rho: float, bound_kind: str, tau: float = 0.0):
    """(pair_count, dual): the bound's exponent sum at (mu, rho) is
    pair_count(delta) + dual, the pair-count rate in delta plus the
    delta-free dual-sum rate, with every delta-free term (the dual-sum rate,
    lambda_star for "best", H(2mu)) computed once.  The balanced kinds share
    one pair-count rate; "best" at mu <= 1/4 is +inf, a dual of +inf over a
    pair_count that evaluates nothing.  The kind and rho are taken as
    checked (see _check_kind).  Only "biased" reads tau; its default 0 is
    tau_star throughout the regime where that bound is nonvacuous."""
    if bound_kind == "biased":
        return (lambda delta: pair_count_exponent_biased(mu, delta, tau, rho)[0],
                dual_sum_exponent_biased(mu, tau, rho))
    if bound_kind == "green":
        dual = dual_sum_exponent_green(mu)
    elif bound_kind == "avg":
        dual = dual_sum_exponent_avg(mu)
    elif mu <= 0.25:
        return lambda delta: 0.0, math.inf
    else:
        dual = dual_sum_exponent_best(mu, lambda_star(mu))
    return _pair_count_in_delta(mu), dual


def _exponent_at(mu: float, rho: float, bound_kind: str, delta: float, tau: float = 0.0) -> float:
    """The bound's exponent sum at one point, pair_count(delta) + dual."""
    pair_count, dual = _exponent_in_delta(mu, rho, bound_kind, tau)
    return pair_count(delta) + dual


def _check_kind(rho: float, bound_kind: str) -> None:
    if bound_kind not in BOUND_KINDS:
        raise DomainError(f"unknown bound kind {bound_kind!r}")
    if not 0.0 < rho < 1.0:
        raise DomainError(f"rho={rho} outside (0, 1)")
    if bound_kind != "biased" and abs(rho - 0.5) > 1e-12:
        raise DomainError(f"bound kind {bound_kind!r} is for rho = 1/2")


def feasible(mu: float, delta: float, rho: float, bound_kind: str) -> bool:
    """True iff the exponent sum for the given bound sits strictly below
    -FEAS_MARGIN, i.e. the correction terms decay exponentially."""
    _check_kind(rho, bound_kind)
    if delta < -_EDGE_EPS or delta > delta_cap(mu, rho, bound_kind) + _EDGE_EPS:
        raise DomainError(f"delta={delta} outside [0, cap]")
    return _exponent_at(mu, rho, bound_kind, max(delta, 0.0)) < -FEAS_MARGIN


def delta_cap(mu: float, rho: float, bound_kind: str) -> float:
    cap = 0.5 - mu if bound_kind != "biased" else 1.0 - rho - mu
    return max(cap, 0.0)


def delta_max(mu: float, rho: float, bound_kind: str) -> float:
    """Largest feasible delta in [0, cap], to 1e-6; 0 when no positive delta
    works.

    The exponent sum increases in delta on (0, cap) for every bound (the
    envelope identity in _delta_maxes), so feasibility is a prefix interval
    in delta and the first infeasible point of the 256-step scan is found
    by binary search; `verify --suite asymptotic` runs the whole scan and
    its flip-back check.  Every scan and bisection point lies in [0, cap],
    so feasible's range check is not repeated per point.
    """
    return _delta_maxes(mu, rho, (bound_kind,))[0]


def _delta_maxes(mu: float, rho: float, kinds) -> list[float]:
    """[delta_max(mu, rho, kind) for kind in kinds] from one pair-count row
    on the 256-step scan, read lazily by index and kept across the kinds:
    each kind's flag at index i is row[i] + dual, and only its bisection
    evaluates its own exponent.  The kinds must share the row: "biased"
    alone, or balanced kinds.  The row is read from a kind with a finite
    dual, since an infinite dual flags every point infeasible.

    Envelope identity (tau = 0): the balanced pair-count rate has
    d/ddelta = log((mu+delta)(1-2mu-delta) / (delta(1-mu-delta))), of the
    sign of mu(1-2mu-2delta); the biased rate, at its inner argmax gamma*,
    has d/ddelta = log((mu+delta)/(1-mu-delta)) + log(filled/free), of the
    sign of mu(1-2mu-2delta) + gamma*/2.  Both are positive on (0, cap), so
    each kind's flags are one feasible -> infeasible step: index 0
    infeasible gives 0, index 256 feasible gives the cap, and otherwise a
    binary search over the indices finds the step, which _bisect refines.
    """
    for kind in kinds:
        _check_kind(rho, kind)
    cap = delta_cap(mu, rho, kinds[0])
    if cap <= 0.0:
        return [0.0] * len(kinds)
    splits = [_exponent_in_delta(mu, rho, kind) for kind in kinds]
    xs = _grid(0.0, cap, 256)
    row_of = next((pc for pc, dual in splits if dual < math.inf), splits[0][0])
    row = {}

    def infeasible_at(i: int, dual: float) -> bool:
        if i not in row:
            row[i] = row_of(xs[i])
        return not row[i] + dual < -FEAS_MARGIN

    out = []
    for pair_count, dual in splits:
        if infeasible_at(0, dual):
            out.append(0.0)
            continue
        if not infeasible_at(256, dual):
            out.append(cap)
            continue
        lo, hi = 0, 256  # feasible at lo, infeasible at hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if infeasible_at(mid, dual):
                hi = mid
            else:
                lo = mid
        out.append(_bisect(lambda d: not pair_count(d) + dual < -FEAS_MARGIN,
                           xs[lo], xs[hi], 1e-6)[0])
    return out


@dataclass(frozen=True)
class ThresholdResult:
    bound_kind: str
    rho: float
    two_mu0: float | None
    two_mu1: float | None
    witness: dict
    status: str  # "ok" or "no finite threshold"


def _mu_cap(rho: float, bound_kind: str) -> float:
    if bound_kind == "biased":
        return min(0.5, 1.0 - rho)
    return 0.5


def thresholds(rho: float, bound_kind: str) -> ThresholdResult:
    """Improvement threshold (smallest rate with a feasible delta > 0) and
    saturation threshold (smallest rate feasible at delta = cap), as rates
    2*mu, each located to 1e-4 by bisection after a 128-step scan.  Every
    point's delta lies in [0, cap], so only the kind and rho are checked."""
    _check_kind(rho, bound_kind)
    lo = 1e-6
    hi = _mu_cap(rho, bound_kind) - 1e-6  # stay off the degenerate mu = cap endpoint
    mus = _grid(lo, hi, 128)

    def threshold(delta_at) -> float | None:
        bracket = scan_first_true(
            lambda mu: _exponent_at(mu, rho, bound_kind, delta_at(mu)) < -FEAS_MARGIN,
            mus, 5e-5)
        return None if bracket is None else bracket[1]

    mu0 = mu1 = None  # 1 - rho < 2e-6 leaves no mu to scan
    if lo <= hi:
        mu0, mu1 = threshold(lambda mu: 0.0), threshold(lambda mu: delta_cap(mu, rho, bound_kind))
    if mu0 is None and mu1 is None:
        return ThresholdResult(bound_kind, rho, None, None, {}, "no finite threshold")
    witness = {}
    if mu1 is not None:
        witness = {
            "delta": delta_cap(mu1, rho, bound_kind),
            "lambda": lambda_star(mu1) if bound_kind == "best" and mu1 > 0.25 else 0.0,
            "gamma": (
                _pair_count_exponent_biased_scan(mu1, delta_cap(mu1, rho, "biased"), 0.0, rho)[1]
                if bound_kind == "biased"
                else 0.0
            ),
        }
    return ThresholdResult(
        bound_kind, rho,
        2.0 * mu0 if mu0 is not None else None,
        2.0 * mu1 if mu1 is not None else None,
        witness, "ok",
    )


# ---------- tau monotonicity analysis ----------

def tau_derivative_factor(rho: float, x: float) -> float:
    """f_rho(x) = (|1-2rho|/sqrt(rho(1-rho)) sqrt(x/(1-x)) + 2)^2
    * (rho/(1-rho)) x(1-x)."""
    if not 0.0 < x < 1.0:
        raise DomainError("x outside (0, 1)")
    beta_abs = _beta_abs(rho)
    try:
        return (beta_abs * math.sqrt(x / (1.0 - x)) + 2.0) ** 2 * (rho / (1.0 - rho)) * x * (1.0 - x)
    except OverflowError:  # the square overflows as rho -> 0, where rho / (1 - rho) cancels it
        return ((abs(1.0 - 2.0 * rho) / (1.0 - rho)) * math.sqrt(x / (1.0 - x))
                + 2.0 * math.sqrt(rho / (1.0 - rho))) ** 2 * x * (1.0 - x)


def biased_mu_floor(rho: float) -> float:
    """Smallest half-rate at which the biased bound is nonvacuous (numeric
    fit to the phase-diagram boundary): 0.31 + (rho - 0.5)/12."""
    return 0.31 + (rho - 0.5) / 12.0


def x_cap(rho: float, mu: float) -> float:
    """(1-rho-mu)/(1-2mu), the largest entropy argument reached along the
    optimal path when rho > 1/2."""
    return (1.0 - rho - mu) / (1.0 - 2.0 * mu)


def f_bar(rho: float) -> float:
    """|sin(rho pi)/(rho pi)|^(2(4 mu_bar - 1)) f_rho(x_cap(rho, mu_bar))."""
    mb = biased_mu_floor(rho)
    sinc = abs(math.sin(rho * math.pi) / (rho * math.pi))
    return sinc ** (2.0 * (4.0 * mb - 1.0)) * tau_derivative_factor(rho, x_cap(rho, mb))


def f_bar_max():
    """(rho_star, f_bar(rho_star)) over [0.5, 0.67]."""
    return scan_max(f_bar, _grid(0.5, 0.67, 512))


def improvement_possible(rho: float) -> bool:
    """Whether the biased bound admits any mu with a feasible delta > 0.

    At delta = 0 the inner maximization is pinned at gamma = 0, so the
    exponent sum collapses to 2 mu log 2 - H(mu) + the dual-sum rate.
    """
    mu_hi = _mu_cap(rho, "biased")
    scan = 400
    mus = [mu_hi * (i + 1) / (scan + 2) for i in range(scan + 1)]
    _, neg = scan_max(lambda mu: -_exponent_at(mu, rho, "biased", 0.0), mus)
    return -neg < -FEAS_MARGIN


def improvement_density_boundary() -> float:
    """Largest list density at which the biased bound still improves on the
    baseline curve, located to 5e-4 by bisection of improvement_possible."""
    lo, hi = 0.5, 0.9
    if not improvement_possible(lo):
        raise DomainError("no improvement even at rho = 1/2")
    while improvement_possible(hi):
        hi += 0.05
        if hi >= 0.99:
            raise DomainError("improvement persists to rho ~ 1")
    lo, hi = _bisect(lambda r: not improvement_possible(r), lo, hi, 5e-4)
    return (lo + hi) / 2.0


# ---------- figure data ----------

def curve_series(figure_id: int, grid_size: int, rho: float | None = None):
    """Columnar data behind the four figures; returns (header, rows)."""
    if grid_size < 1:
        raise DomainError(f"grid size must be at least 1, got {grid_size}")
    if rho is not None and not 0.0 < rho < 1.0:
        raise DomainError(f"rho must lie in (0, 1), got {rho}")
    if rho is not None and figure_id in (1, 2):
        raise DomainError(f"figure {figure_id} reads no density; drop --rho")

    def axis(lo: float, hi: float, single: float) -> list[float]:
        return _grid(lo, hi, grid_size - 1) if grid_size > 1 else [single]

    if figure_id == 1:
        header = ["two_mu", "scl", "green", "avg", "best"]
        rows = []
        for two_mu in axis(0.0, 1.0, 0.5):
            mu = two_mu / 2.0
            dms = _delta_maxes(mu, 0.5, ("green", "avg", "best"))
            rows.append([two_mu, semicircle_law(0.5, mu),
                         *(semicircle_law(0.5, mu + dm) for dm in dms)])
        return header, rows
    if figure_id == 2:
        header = ["rho", "two_mu0_biased", "two_mu1_biased_raw", "two_mu1_biased_repaired"]
        rows = []
        running_min = math.inf
        for r in axis(0.05, 0.80, 0.5):
            res = thresholds(r, "biased")
            if res.two_mu0 is None or res.two_mu1 is None:
                continue
            running_min = min(running_min, res.two_mu1)
            rows.append([r, res.two_mu0, res.two_mu1, running_min])
        return header, rows
    if figure_id == 3:
        if rho is None:
            raise DomainError("figure 3 needs a density rho")
        header = ["rho", "two_mu", "scl_rho", "improved", "delta_star", "tau_star", "gamma_star"]
        rows = []
        for two_mu in axis(0.0, 1.0, 0.5):
            mu = two_mu / 2.0
            dm = delta_max(mu, rho, "biased") if mu < _mu_cap(rho, "biased") else 0.0
            tau_s, gamma_s = 0.0, 0.0
            if dm > 0.0:
                tau_s = _tau_argmax(mu, dm, rho)
                _, gamma_s, _ = _pair_count_exponent_biased_scan(mu, dm, tau_s, rho)
            rows.append([
                rho, two_mu, semicircle_law(rho, mu),
                semicircle_law(rho, mu + dm), dm, tau_s, gamma_s,
            ])
        return header, rows
    if figure_id == 4:
        if rho is not None:
            header = ["x_or_rho", "f_rho_at_x"]
            rows = [
                [x, tau_derivative_factor(rho, x)]
                for x in ((i + 1) / (grid_size + 1) for i in range(grid_size))
            ]
            return header, rows
        header = ["x_or_rho", "f_bar"]
        return header, [[r, f_bar(r)] for r in axis(0.5, 0.67, 0.56)]
    raise DomainError(f"unknown figure id {figure_id}")


def _tau_argmax(mu: float, delta: float, rho: float) -> float:
    hi = min(delta, (1.0 - 2.0 * mu) / 2.0 - 1e-9)
    if hi <= 0.0:
        return 0.0
    t_star, _ = scan_max(lambda tau: _exponent_at(mu, rho, "biased", delta, tau),
                         _grid(0.0, hi, 64))
    return t_star
