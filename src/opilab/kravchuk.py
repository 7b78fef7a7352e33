"""Exact orthogonal-polynomial machinery for the binomial weight Bin(m, rho).

A family is its integer three-term recurrence; one integer evaluator runs
it at a rational point for values, the value table, the root counts and the
Christoffel-Darboux kernel at a root (principal masses, optimal window
weights).  Exact coefficients are built only when read, and nothing here
reads them.  Roots are isolated by bisection in the dyadic tree of [0, m]
on an exact root count: the recurrence run at a rational point is a Sturm
sequence, and its sign changes count the roots below that point.  A float
eigen-solve of the recurrence's Jacobi matrix picks the bracket each
bisection starts from, and two exact counts certify it, so every returned
root is the one bisection from [0, m] returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .codes import binomial_moments, binomial_numerators, profile_moments
from .errors import DomainError, IdentityViolationError

Poly = tuple[Fraction, ...]  # ascending powers

HALF = Fraction(1, 2)
DEFAULT_ROOT_PRECISION = Fraction(1, 10**12)
# Depth of the deepest start bracket a float root estimate picks: m / 2^48
# is at least 16 doubles wide anywhere in [0, m].
_GUESS_DEPTH = 48


# ---------- polynomial helpers ----------

def poly_eval(c: Poly, x) -> Fraction:
    acc = Fraction(0)
    for v in reversed(c):
        acc = acc * x + v
    return acc


# ---------- the family ----------

@dataclass(frozen=True)
class KravchukFamily:
    """Orthogonal polynomials K_0..K_degree_max for the weight Bin(m, rho).

    Stores m, rho, degree_max, the norms and the recurrence steps; values,
    the value table and the coefficients are derived from the steps on read.
    They agree with the closed form K_l(x) = sum_j (-r^2)^j C(x,j) C(m-x, l-j),
    r^2 = (1-rho)/rho, orthogonal under Bin(m, rho) with norm C(m,l) r^(2l).
    """

    m: int
    rho: Fraction
    degree_max: int
    norms: tuple[Fraction, ...]  # E[K_l^2] under Bin(m, rho)
    steps: tuple[tuple[int, int, int], ...]  # _recurrence_steps(m, rho, degree_max)

    def evaluate(self, ell: int, x) -> Fraction:
        if not 0 <= ell <= self.degree_max:
            raise DomainError(f"degree {ell} outside 0..{self.degree_max}")
        x = Fraction(x)
        h = _recurrence_at(self.steps[:ell], x.numerator, x.denominator)[-1]
        return Fraction(h, _scale(self.rho, ell) * x.denominator**ell)

    @cached_property
    def _rows(self) -> tuple[tuple[int, ...], ...]:
        """_rows[l][x] = H_l(x) = l! B^l K_l(x), integers, at x = 0..m."""
        return tuple(zip(*(_recurrence_at(self.steps, x, 1) for x in range(self.m + 1))))

    @cached_property
    def values(self) -> tuple[tuple[Fraction, ...], ...]:
        """values[l][x] = K_l(x) at the integer points x = 0..m."""
        return tuple(tuple(Fraction(v, _scale(self.rho, ell)) for v in row)
                     for ell, row in enumerate(self._rows))

    @cached_property
    def coeffs(self) -> tuple[Poly, ...]:
        return _recurrence_coeffs(self.steps, self.rho)


def inner_product(m: int, rho: Fraction, a: Poly, b: Poly) -> Fraction:
    """sum_x Bin(m, rho)(x) a(x) b(x): the weights' integer numerators
    summed first, then one division by Q^m."""
    q_m = Fraction(rho).denominator ** m
    return sum(w * poly_eval(a, x) * poly_eval(b, x)
               for x, w in enumerate(binomial_numerators(m, rho))) / q_m


def closed_form_value(m: int, rho: Fraction, ell: int, x: int) -> Fraction:
    """K_ell(x) at an integer point x by the closed-form sum
    sum_j (-r^2)^j C(x, j) C(m-x, ell-j), r^2 = (1-rho)/rho; an independent
    route to the values of the recurrence.  K_ell has degree ell <= m, so
    its values at x = 0..m fix every coefficient.  With r^2 = A/B it is
    summed on integers, sum_j (-A)^j B^(ell-j) C(x, j) C(m-x, ell-j), over
    B^ell."""
    rho = Fraction(rho)
    a, b = rho.denominator - rho.numerator, rho.numerator
    return Fraction(sum((-a) ** j * b ** (ell - j) * math.comb(x, j) * math.comb(m - x, ell - j)
                        for j in range(ell + 1)), b**ell)


def _recurrence_steps(m: int, rho: Fraction, ell_max: int):
    """The integer three-term recurrence of the generating function
    (1+z)^(m-x) (1-r^2 z)^x, r^2 = A/B = (1-rho)/rho:

        (l+1) K_{l+1} = (m - (1+r^2)x - (1-r^2)l) K_l - r^2 (m-l+1) K_{l-1}.

    On the integer polynomials H_l = l! B^l K_l it reads
    H_{l+1} = (c_l - s x) H_l - t_l H_{l-1}; yields (c_l, s, t_l) for
    l = 0..ell_max-1, with c_l = mB - (B-A)l, s = A+B, t_l = AB l (m-l+1).
    """
    a, b = rho.denominator - rho.numerator, rho.numerator
    for ell in range(ell_max):
        yield m * b - (b - a) * ell, a + b, a * b * ell * (m - ell + 1)


def _scale(rho: Fraction, ell: int) -> int:
    """l! B^l, B = rho's numerator: H_l = l! B^l K_l is integral."""
    return math.factorial(ell) * rho.numerator**ell


def _recurrence_at(steps, num: int, den: int) -> list[int]:
    """[den^l H_l(num/den) for l = 0..len(steps)], on integers."""
    prev, cur, out = 0, 1, [1]
    den_sq = den * den
    for c, s, t in steps:
        prev, cur = cur, (c * den - s * num) * cur - t * den_sq * prev
        out.append(cur)
    return out


def _recurrence_coeffs(steps, rho: Fraction) -> tuple[Poly, ...]:
    """K_0..K_len(steps) by the recurrence steps, run on the integer
    coefficients of H_l; each becomes a Fraction once, by `_scale`."""
    prev, cur, out = [], [1], [(Fraction(1),)]
    for ell, (c, s, t) in enumerate(steps, 1):
        nxt = [c * v for v in cur] + [0]
        for i, v in enumerate(cur):
            nxt[i + 1] -= s * v
        for i, v in enumerate(prev):
            nxt[i] -= t * v
        prev, cur = cur, nxt
        out.append(tuple(Fraction(v, _scale(rho, ell)) for v in cur))
    return tuple(out)


@lru_cache(maxsize=256)
def build_family(m: int, rho: Fraction, ell_max: int) -> KravchukFamily:
    """K_0..K_ell_max for Bin(m, rho): the norms and the integer three-term
    recurrence steps, from which the family derives everything else.  The
    closed form `closed_form_value` is the cross-check route; for m <= 16
    orthogonality is asserted on construction."""
    rho = Fraction(rho)
    if not 0 < rho < 1:
        raise DomainError("rho must lie in (0, 1)")
    if not 0 <= ell_max <= m:
        raise DomainError(f"degree cutoff {ell_max} outside 0..m={m}")
    r_sq = (1 - rho) / rho
    steps = tuple(_recurrence_steps(m, rho, ell_max))
    norms = tuple(math.comb(m, ell) * r_sq**ell for ell in range(ell_max + 1))
    fam = KravchukFamily(m, rho, ell_max, norms, steps)
    if m <= 16:
        _assert_orthogonality(fam)
    return fam


def _assert_orthogonality(fam: KravchukFamily):
    """sum_x w_x K_r(x) K_s(x) = [r = s] norm_r under w = Bin(m, P/Q), run
    on the integer rows H_r(x) = S_r K_r(x), S_r = `_scale`: both sides times
    Q^m S_r S_s, where Q^m w_x is `binomial_numerators`."""
    q, rows, weights = fam.rho.denominator, fam._rows, binomial_numerators(fam.m, fam.rho)
    for r, row_r in enumerate(rows):
        weighted = [w * v for w, v in zip(weights, row_r)]
        for s in range(r, fam.degree_max + 1):
            ip = sum(w * v for w, v in zip(weighted, rows[s]))
            want = fam.norms[r] * q**fam.m * _scale(fam.rho, r) ** 2 if r == s else 0
            if ip != want:
                raise IdentityViolationError(f"orthogonality failed at m={fam.m} "
                                             f"rho={fam.rho} (r={r}, s={s})")


# ---------- recursions and the tridiagonal identity ----------

def tridiagonal_char_poly(m: int, ell: int, x) -> Fraction:
    """det((x - m/2) I - A/2) at the point x, A the (ell+1) x (ell+1)
    tridiagonal matrix, via the three-term determinant expansion.

    Off-diagonal entries enter only through their squares k(m+1-k), so the
    expansion stays rational; it runs on 2^(j+1) times the j-th minor, which
    is an integer at an integer x.
    """
    shift = 2 * x - m
    prev, cur = 1, shift
    for j in range(1, ell + 1):
        prev, cur = cur, shift * cur - j * (m + 1 - j) * prev
    return Fraction(cur) / 2 ** (ell + 1)


def char_poly_identity_check(m: int, ell: int) -> bool:
    """The monic rescaling (ell+1)! (-2)^-(ell+1) K_{ell+1} of the balanced
    family equals the tridiagonal characteristic polynomial: both have degree
    ell + 1, so agreeing at the ell + 2 points x = 0..ell+1 makes them equal.
    Every ell reads the one full family of its m."""
    if ell + 1 > m:
        raise DomainError("need ell + 1 <= m")
    fam = build_family(m, HALF, m)
    monic = Fraction(math.factorial(ell + 1), (-2) ** (ell + 1))
    return all(monic * fam.evaluate(ell + 1, x) == tridiagonal_char_poly(m, ell, x)
               for x in range(ell + 2))


# ---------- roots ----------

def _count_below(fam: KravchukFamily, ell: int, num: int, den: int) -> tuple[int, bool]:
    """(number of roots of K_ell below num/den, whether num/den is a root).

    Reads the integers den^l H_l(x) of `_recurrence_at` at x = num/den.  H_l
    has leading sign (-1)^l, so H_0..H_ell is a Sturm sequence whose sign
    changes, zeros skipped, count the roots of H_ell below x.  At a root of
    H_ell the changes over H_0..H_(ell-1) count the roots strictly below it.
    """
    changes, positive = 0, True
    for cur in _recurrence_at(fam.steps[:ell], num, den):
        if cur and (cur > 0) != positive:
            changes += 1
            positive = not positive
    return changes, cur == 0


def _jacobi_roots(fam: KravchukFamily, ell: int) -> list[float]:
    """Float estimates of the ell roots of K_ell, ascending: the eigenvalues
    of the ell x ell Jacobi matrix of the stored recurrence steps (Golub and
    Welsch), diagonal c_l / s and off-diagonal sqrt(t_l) / s.  The entries
    come from int true division, so big-integer steps cannot overflow."""
    jac = np.zeros((ell, ell))
    for l, (c, s, t) in enumerate(fam.steps[:ell]):
        jac[l, l] = c / s
        if l:
            jac[l, l - 1] = math.sqrt(t / (s * s))
    return np.linalg.eigvalsh(jac).tolist()


def _root(fam: KravchukFamily, ell: int, j: int, precision: Fraction,
          guess: float) -> Fraction:
    """The j-th root (0-based, ascending) of K_ell within +-precision, by
    bisection on `_count_below` in the dyadic tree of [0, m]: the depth-d
    brackets are [k m / 2^d, (k + 1) m / 2^d], kept as integer numerators
    over 2^d, and bisection stops at the first depth no wider than
    precision.  The float `guess` only picks where the search starts.  At
    that depth, or at _GUESS_DEPTH if less, the bracket end nearest the
    guess, clipped to [0, m], is counted first; the count says on which side
    of that end the root lies, and one more count at the next end on that
    side certifies the bracket between them.  An end that is the root is
    returned.  When the two counts do not certify a bracket, or the guess is
    not finite, the search starts from [0, m].  Either way the result is
    bisection's from [0, m]: an exact root hit on the way, else the final
    midpoint."""
    m, p_num, p_den = fam.m, precision.numerator, precision.denominator
    span = 1  # 2^d of the start bracket
    while span < 1 << _GUESS_DEPTH and m * p_den > p_num * span:
        span *= 2
    lo_n, den = 0, 1
    if span > 1 and math.isfinite(guess):
        end, step = round(min(max(guess / m, 0.0), 1.0) * span), 0
        for _ in range(2):
            below, is_root = _count_below(fam, ell, end * m, span)
            if is_root and below == j:
                return Fraction(end * m, span)
            side = 1 if below + is_root <= j else -1  # the root lies above or below end
            if side == -step:  # ...and so between this end and the last
                lo_n, den = min(end, end - step) * m, span
                break
            end, step = end + side, side
    while m * p_den > p_num * den:
        den *= 2
        mid_n = 2 * lo_n + m
        below, is_root = _count_below(fam, ell, mid_n, den)
        if is_root and below == j:
            return Fraction(mid_n, den)
        lo_n = mid_n if below <= j else 2 * lo_n
    return Fraction(2 * lo_n + m, 2 * den)


def _roots(fam: KravchukFamily, ell: int, js, precision) -> list[Fraction]:
    """The roots j in js of K_ell, from one Jacobi eigen-solve and `_root`."""
    if not 1 <= ell <= fam.degree_max:
        raise DomainError("ell out of range for this family")
    precision = Fraction(precision)
    if precision <= 0:
        raise DomainError("root precision must be positive")
    guesses = _jacobi_roots(fam, ell)
    return [_root(fam, ell, j, precision, guesses[j]) for j in js]


def isolate_roots(fam: KravchukFamily, ell: int,
                  precision: Fraction = DEFAULT_ROOT_PRECISION) -> list[Fraction]:
    """All ell roots of K_ell in ascending order, each within +-precision:
    one float eigen-solve picks each start bracket and exact Sturm counts of
    the recurrence certify it and bisect it (`_root`)."""
    return _roots(fam, ell, range(ell), precision)


def largest_root(fam: KravchukFamily, ell: int,
                 precision: Fraction = DEFAULT_ROOT_PRECISION) -> Fraction:
    """The largest root of K_ell within +-precision, as `isolate_roots`."""
    return _roots(fam, ell, (ell - 1,), precision)[0]


def smallest_root(fam: KravchukFamily, ell: int,
                  precision: Fraction = DEFAULT_ROOT_PRECISION) -> Fraction:
    """The smallest root of K_ell within +-precision, as `isolate_roots`."""
    return _roots(fam, ell, (0,), precision)[0]


# ---------- principal representation and interlacing ----------

@dataclass(frozen=True)
class PrincipalRepresentation:
    """Minimal-support measure matching Bin(m, rho) moments to order 2*ell-1,
    supported on the roots of the degree-ell orthogonal polynomial with
    reciprocal-Christoffel masses."""

    m: int
    rho: Fraction
    ell: int
    support: tuple[Fraction, ...]
    masses: tuple[Fraction, ...]

    @property
    def order(self) -> int:
        return 2 * self.ell - 1

    def moment(self, j: int) -> Fraction:
        return sum(w * z**j for z, w in zip(self.support, self.masses))


def _kernel_coeffs(fam: KravchukFamily, z: Fraction, degree: int) -> list[Fraction]:
    """K_k(z) / norm_k for k = 0..degree from one recurrence run at z: the
    K-basis coefficients of the Christoffel-Darboux kernel
    t -> sum_k K_k(z) K_k(t) / norm_k."""
    hs = _recurrence_at(fam.steps[:degree], z.numerator, z.denominator)
    return [Fraction(h, _scale(fam.rho, k) * z.denominator**k) / fam.norms[k]
            for k, h in enumerate(hs)]


def principal_representation(m: int, rho: Fraction, ell: int) -> PrincipalRepresentation:
    rho = Fraction(rho)
    if ell < 1 or 2 * ell > m:
        raise DomainError("need 1 <= ell <= m/2")
    fam = build_family(m, rho, ell)
    roots = isolate_roots(fam, ell)
    # The reciprocal Christoffel function 1 / sum_k K_k(z)^2 / norm_k; the
    # degree-ell term is zero up to isolation error.
    masses = (1 / sum(c * c * n for c, n in zip(_kernel_coeffs(fam, z, ell), fam.norms))
              for z in roots)
    return PrincipalRepresentation(m, rho, ell, tuple(roots), tuple(masses))


def interlacing_check(rep: PrincipalRepresentation, profile) -> dict:
    """Verify P(X <= z_j) <= P(Z <= z_j) <= P(X <= z_{j+1}) for all j.

    X is the empirical satisfied-count distribution, Z the principal
    representation; the j = 0 and j = ell edges use cumulative 0 and 1.
    Requires the profile moments to match Bin(m, rho) up to order 2*ell-1.
    """
    # The support points sit within DEFAULT_ROOT_PRECISION of the roots; an
    # atom of X at a root must not fall just outside the cumulative at it.
    atom_slack = 4 * DEFAULT_ROOT_PRECISION
    if profile_moments(profile, rep.order) != binomial_moments(rep.m, rep.rho, rep.order):
        raise DomainError(
            f"profile does not match Bin({rep.m}, {rep.rho}) moments to order {rep.order}"
        )
    total = profile.total
    hist = profile.histogram

    def x_cdf(z, slack=Fraction(0)) -> Fraction:
        return Fraction(sum(c for t, c in enumerate(hist) if t <= z + slack), total)

    s_max_count = max(t for t, c in enumerate(hist) if c)
    top_root = rep.support[-1]
    least_slack = s_max_count + atom_slack - top_root
    inequalities = []
    ok = True
    for j in range(rep.ell + 1):
        # The full cumulative is 1 by construction; using the exact value at
        # j = ell avoids spurious failures from root-isolation error.
        z_mass = Fraction(1) if j == rep.ell else sum(rep.masses[:j], Fraction(0))
        lhs = x_cdf(rep.support[j - 1]) if j >= 1 else Fraction(0)
        rhs = x_cdf(rep.support[j], atom_slack) if j < rep.ell else Fraction(1)
        good = lhs <= z_mass <= rhs
        ok = ok and good
        least_slack = min(least_slack, z_mass - lhs, rhs - z_mass)
        inequalities.append({
            "j": j,
            "lower_slack": float(z_mass - lhs),
            "upper_slack": float(rhs - z_mass),
            "ok": bool(good),
        })
    return {
        "ok": bool(ok and s_max_count + atom_slack >= top_root),
        "violation": float(max(-least_slack, 0)),
        "inequalities": inequalities,
        "max_count": s_max_count,
        "top_root": float(top_root),
        "max_count_reaches_top_root": bool(s_max_count + atom_slack >= top_root),
    }


# ---------- optimal quadratic-form weights ----------

def kkt_optimum(m: int, ell: int) -> tuple[tuple[Fraction, ...], Fraction]:
    """Weights u for which the Bin(m, 1/2)-tilted mean hits its minimum.

    At the isolated smallest root z of K_{ell+1}, u_k = K_k(z) / norm_k for
    k <= ell: by Christoffel-Darboux, sum_k K_k(z) K_k(t) / norm_k is a
    multiple of K_{ell+1}(t) / (t - z).  Returns the weights, the top one
    normalized to 1, with their tilted mean
    sum t C(m,t) X(t)^2 / sum C(m,t) X(t)^2.
    """
    if ell + 1 > m:
        raise DomainError("need ell + 1 <= m")
    # the roots and kernel weights read only steps[:ell + 1] and norms[:ell + 1]
    fam = build_family(m, HALF, m)
    z = smallest_root(fam, ell + 1)
    # a root check on the recurrence alone: K_{ell+1} vanishes at z or
    # changes sign across z +- precision
    below, above = (fam.evaluate(ell + 1, z + d)
                    for d in (-DEFAULT_ROOT_PRECISION, DEFAULT_ROOT_PRECISION))
    if below * above >= 0 and fam.evaluate(ell + 1, z):
        raise IdentityViolationError(f"K_{ell + 1} has no root within root precision of {z}")
    u = _kernel_coeffs(fam, z, ell)
    # The tilted mean is scale invariant; normalize the top weight to 1.
    u = tuple(v / u[ell] for v in u)
    expected = tilted_mean(m, u)
    if abs(expected - z) > Fraction(1, 10**6) * m:
        raise IdentityViolationError("tilted mean strays from the isolated root")
    return u, expected


def tilted_mean(m: int, u) -> Fraction:
    """sum t C(m,t) X_u(t)^2 / sum C(m,t) X_u(t)^2 for X_u = sum u_k K_k,
    read from the integer rows H_k = S_k K_k of the balanced family
    `build_family(m, 1/2, m)` as sum_k (u_k / S_k) H_k."""
    u = [Fraction(v) for v in u]
    if not 0 < len(u) <= m + 1:
        raise DomainError(f"degree cutoff {len(u) - 1} outside 0..m={m}")
    rows = build_family(m, HALF, m)._rows
    coeffs = [v / _scale(HALF, k) for k, v in enumerate(u)]
    num = Fraction(0)
    den = Fraction(0)
    for t in range(m + 1):
        xt = sum(c * row[t] for c, row in zip(coeffs, rows))
        w = math.comb(m, t) * xt * xt
        num += t * w
        den += w
    if den == 0:
        raise DomainError("weights give an identically zero polynomial")
    return num / den
