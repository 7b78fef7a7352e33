"""Exact orthogonal-polynomial machinery for the binomial weight Bin(m, rho).

Coefficients are exact rationals throughout.  Roots are isolated by exact
sign-change bracketing (float eigenvalue estimates of the associated
tridiagonal matrix only seed the brackets; every bracket is certified by
exact sign evaluation before bisection).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .codes import binomial_moment, binomial_weights, profile_moment
from .errors import DomainError, IdentityViolationError

Poly = tuple[Fraction, ...]  # ascending powers

HALF = Fraction(1, 2)
DEFAULT_ROOT_PRECISION = Fraction(1, 10**12)


# ---------- polynomial helpers ----------

def poly_trim(c) -> Poly:
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_add(a: Poly, b: Poly) -> Poly:
    n = max(len(a), len(b))
    return poly_trim(
        [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]
    )


def poly_scale(a: Poly, s) -> Poly:
    return poly_trim([Fraction(s) * v for v in a])


def poly_mul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return poly_trim(out)


def poly_eval(c: Poly, x) -> Fraction:
    acc = Fraction(0)
    for v in reversed(c):
        acc = acc * x + v
    return acc


def poly_derivative(c: Poly) -> Poly:
    return poly_trim([i * c[i] for i in range(1, len(c))])


def _falling_binomial(shift: Fraction, sign: int, j: int) -> Poly:
    """C(shift + sign*x, j) as a polynomial in x."""
    out: Poly = (Fraction(1),)
    for i in range(j):
        out = poly_mul(out, (shift - i, Fraction(sign)))
    return poly_scale(out, Fraction(1, math.factorial(j)))


def _int_scaled(c: Poly) -> list[int]:
    den = math.lcm(*(v.denominator for v in c)) if c else 1
    return [int(v * den) for v in c]


def _sign_at(int_coeffs: list[int], num: int, den: int) -> int:
    """Sign of sum_i c_i (num/den)^i without building fractions."""
    d = len(int_coeffs) - 1
    acc = 0
    dp = 1
    for i in range(d, -1, -1):
        acc = acc * num + int_coeffs[i] * dp
        dp *= den
    return (acc > 0) - (acc < 0)


# ---------- the family ----------

@dataclass(frozen=True)
class KravchukFamily:
    """Orthogonal polynomials K_0..K_degree_max for the weight Bin(m, rho).

    For rho = 1/2 the coefficients agree with the classical closed form
    K_l(x) = sum_j (-1)^j C(x,j) C(m-x, l-j); for general rational rho the
    same sum with (-1)^j replaced by (-(1-rho)/rho)^j, which is orthogonal
    under Bin(m, rho) with norm E[K_l^2] = C(m,l) ((1-rho)/rho)^l.
    """

    m: int
    rho: Fraction
    degree_max: int
    coeffs: tuple[Poly, ...]
    norms: tuple[Fraction, ...]  # E[K_l^2] under Bin(m, rho)

    @property
    def r_sq(self) -> Fraction:
        return (1 - self.rho) / self.rho

    def evaluate(self, ell: int, x) -> Fraction:
        return poly_eval(self.coeffs[ell], x)

    def leading(self, ell: int) -> Fraction:
        return self.coeffs[ell][-1]


def inner_product(m: int, rho: Fraction, a: Poly, b: Poly) -> Fraction:
    return sum(
        w * poly_eval(a, x) * poly_eval(b, x)
        for x, w in enumerate(binomial_weights(m, rho))
    )


def kravchuk_coeffs(m: int, rho: Fraction, ell: int) -> Poly:
    """Coefficient vector of the degree-ell family member by the closed-form
    sum; an independent route to the coefficients `build_family` stores."""
    r_sq = (1 - Fraction(rho)) / Fraction(rho)
    out: Poly = ()
    a = Fraction(1)
    for j in range(ell + 1):
        term = poly_scale(
            poly_mul(_falling_binomial(Fraction(0), 1, j),
                     _falling_binomial(Fraction(m), -1, ell - j)),
            a,
        )
        out = poly_add(out, term)
        a *= -r_sq
    return out


def _recurrence_coeffs(m: int, rho: Fraction, ell_max: int) -> tuple[Poly, ...]:
    """K_0..K_ell_max by the three-term recurrence of the generating function
    (1+z)^(m-x) (1-r^2 z)^x, r^2 = A/B = (1-rho)/rho:

        (l+1) K_{l+1} = (m - (1+r^2)x - (1-r^2)l) K_l - r^2 (m-l+1) K_{l-1}.

    It runs on the integer polynomials H_l = l! B^l K_l, for which
    H_{l+1} = (mB - (B-A)l - (B+A)x) H_l - A B l (m-l+1) H_{l-1}; each
    coefficient becomes a Fraction once, by one division by l! B^l.
    """
    a, b = rho.denominator - rho.numerator, rho.numerator
    prev: list[int] = []
    cur = [1]
    scale = 1  # l! B^l
    out = [(Fraction(1),)]
    for ell in range(ell_max):
        nxt = [(m * b - (b - a) * ell) * v for v in cur] + [0]
        for i, v in enumerate(cur):
            nxt[i + 1] -= (a + b) * v
        tail = a * b * ell * (m - ell + 1)
        for i, v in enumerate(prev):
            nxt[i] -= tail * v
        prev, cur = cur, nxt
        scale *= (ell + 1) * b
        out.append(tuple(Fraction(v, scale) for v in cur))
    return tuple(out)


@lru_cache(maxsize=256)
def build_family(m: int, rho: Fraction, ell_max: int) -> KravchukFamily:
    """K_0..K_ell_max for Bin(m, rho), built by the integer three-term
    recurrence.  The closed form `kravchuk_coeffs` and `gram_schmidt_family`
    are the cross-check routes; for m <= 16 orthogonality is asserted on
    construction."""
    rho = Fraction(rho)
    if not 0 < rho < 1:
        raise DomainError("rho must lie in (0, 1)")
    if ell_max > m:
        raise DomainError(f"degree cutoff {ell_max} exceeds m={m}")
    r_sq = (1 - rho) / rho
    coeffs = _recurrence_coeffs(m, rho, ell_max)
    norms = tuple(math.comb(m, ell) * r_sq**ell for ell in range(ell_max + 1))
    fam = KravchukFamily(m, rho, ell_max, coeffs, norms)
    if m <= 16:
        _assert_orthogonality(fam)
    return fam


def _assert_orthogonality(fam: KravchukFamily):
    weights = binomial_weights(fam.m, fam.rho)
    values = [[poly_eval(c, x) for x in range(fam.m + 1)] for c in fam.coeffs]
    for r in range(fam.degree_max + 1):
        weighted = [w * v for w, v in zip(weights, values[r])]
        for s in range(r, fam.degree_max + 1):
            ip = sum(w * v for w, v in zip(weighted, values[s]))
            want = fam.norms[r] if r == s else Fraction(0)
            if ip != want:
                raise IdentityViolationError(
                    f"orthogonality failed at m={fam.m} rho={fam.rho} (r={r}, s={s})"
                )


def gram_schmidt_family(m: int, rho: Fraction, ell_max: int) -> list[Poly]:
    """Monic orthogonal polynomials by exact Gram-Schmidt; verification route."""
    rho = Fraction(rho)
    # Exact binomial moments up to order 2*ell_max.
    mom = [Fraction(0)] * (2 * ell_max + 1)
    for x, w in enumerate(binomial_weights(m, rho)):
        xp = Fraction(1)
        for j in range(2 * ell_max + 1):
            mom[j] += w * xp
            xp *= x

    def ip(a: Poly, b: Poly) -> Fraction:
        return sum(
            ai * bj * mom[i + j]
            for i, ai in enumerate(a) for j, bj in enumerate(b)
        )

    basis: list[Poly] = []
    for ell in range(ell_max + 1):
        mono: Poly = tuple([Fraction(0)] * ell + [Fraction(1)])
        for q in basis:
            mono = poly_add(mono, poly_scale(q, -ip(mono, q) / ip(q, q)))
        basis.append(mono)
    return basis


def family_to_json(fam: KravchukFamily) -> str:
    return json.dumps({
        "m": fam.m,
        "rho": [fam.rho.numerator, fam.rho.denominator],
        "degree_max": fam.degree_max,
        "coeffs": [[[c.numerator, c.denominator] for c in poly] for poly in fam.coeffs],
    })


def family_from_json(text: str) -> KravchukFamily:
    obj = json.loads(text)
    fam = build_family(obj["m"], Fraction(*obj["rho"]), obj["degree_max"])
    stored = tuple(tuple(Fraction(*c) for c in poly) for poly in obj["coeffs"])
    if stored != fam.coeffs:
        raise IdentityViolationError("serialized coefficients do not rebuild")
    return fam


# ---------- recursions and the tridiagonal identity ----------

def three_term_step(fam: KravchukFamily, ell: int) -> Poly:
    """K_{l+1} from K_l, K_{l-1} via (l+1)K_{l+1} = (m-2x)K_l - (m-l+1)K_{l-1}.

    This is the r^2 = 1 case of the general recurrence that `build_family`
    runs in integers; here it is applied to the stored Fraction
    coefficients, as a check on them, for the balanced family only.
    """
    if fam.rho != HALF:
        raise DomainError("the stated recursion holds for rho = 1/2 only")
    if ell < 1 or ell + 1 > fam.degree_max:
        raise DomainError("need 1 <= ell and K_{ell+1} stored in the family")
    m = fam.m
    rhs = poly_add(
        poly_mul((Fraction(m), Fraction(-2)), fam.coeffs[ell]),
        poly_scale(fam.coeffs[ell - 1], -(m - ell + 1)),
    )
    return poly_scale(rhs, Fraction(1, ell + 1))


@dataclass(frozen=True)
class TridiagonalForm:
    """Symmetric tridiagonal matrix with zero diagonal and off-diagonal
    entries sqrt(k(m+1-k)), k = 1..ell."""

    m: int
    ell: int

    @property
    def size(self) -> int:
        return self.ell + 1

    def offdiag_squared(self) -> list[int]:
        return [k * (self.m + 1 - k) for k in range(1, self.ell + 1)]

    def offdiag(self) -> list[float]:
        return [math.sqrt(v) for v in self.offdiag_squared()]

    def max_eigenvalue(self) -> float:
        mat = np.zeros((self.size, self.size))
        for k, v in enumerate(self.offdiag(), start=1):
            mat[k, k - 1] = mat[k - 1, k] = v
        return float(np.linalg.eigvalsh(mat)[-1])


def tridiagonal_char_poly(m: int, ell: int) -> Poly:
    """det((x - m/2) I - A/2) via the three-term determinant expansion.

    Off-diagonal entries enter only through their squares k(m+1-k), so the
    expansion stays rational.
    """
    prev: Poly = (Fraction(1),)
    cur: Poly = (Fraction(-m, 2), Fraction(1))
    for j in range(1, ell + 1):
        nxt = poly_add(
            poly_mul((Fraction(-m, 2), Fraction(1)), cur),
            poly_scale(prev, Fraction(-j * (m + 1 - j), 4)),
        )
        prev, cur = cur, nxt
    return cur


def monic_scaled(fam: KravchukFamily, ell: int) -> Poly:
    """The monic rescaling l! (-2)^{-l} K_l of the balanced family."""
    if fam.rho != HALF:
        raise DomainError("monic scaling l!(-2)^-l applies to rho = 1/2")
    return poly_scale(fam.coeffs[ell], Fraction(math.factorial(ell), (-2) ** ell))


def char_poly_identity_check(m: int, ell: int) -> bool:
    """Exact coefficientwise equality of the degree-(ell+1) monic polynomial
    with the tridiagonal characteristic polynomial."""
    if ell + 1 > m:
        raise DomainError("need ell + 1 <= m")
    fam = build_family(m, HALF, ell + 1)
    return monic_scaled(fam, ell + 1) == tridiagonal_char_poly(m, ell)


# ---------- roots ----------

def _jacobi_estimates(m: int, rho: Fraction, ell: int) -> list[float]:
    """Float eigenvalue estimates of the Jacobi matrix for Bin(m, rho).

    Used only to seed brackets; brackets are certified by exact signs.
    """
    rho_f = float(rho)
    diag = [k + rho_f * (m - 2 * k) for k in range(ell)]
    off = [math.sqrt(k * (m - k + 1) * rho_f * (1 - rho_f)) for k in range(1, ell)]
    mat = np.diag(diag)
    for k, v in enumerate(off, start=1):
        mat[k, k - 1] = mat[k - 1, k] = v
    return [float(v) for v in np.linalg.eigvalsh(mat)]


def _certified_brackets(fam: KravchukFamily, ell: int, ints: list[int]):
    """ell disjoint sign-change brackets inside (0, m), certified exactly;
    ints is the integer-scaled degree-ell member.

    Returns a list of (lo, hi, exact_root_or_None); an exact entry means a
    probe point happened to be a root.
    """
    m = fam.m

    def cuts_from_points(points: list[Fraction]):
        pts = sorted(set(points))
        signs = [_sign_at(ints, q.numerator, q.denominator) for q in pts]
        found = []
        last = None  # index of the last nonzero-sign probe
        for idx in range(len(pts)):
            if signs[idx] == 0:
                # A probe landed on a root; do not span it with a bracket.
                found.append((pts[idx], pts[idx], pts[idx]))
                last = None
                continue
            if last is not None and signs[last] * signs[idx] < 0:
                found.append((pts[last], pts[idx], None))
            last = idx
        return found

    est = _jacobi_estimates(m, fam.rho, ell)
    probes = [Fraction(0)]
    for i in range(len(est) - 1):
        probes.append(Fraction((est[i] + est[i + 1]) / 2).limit_denominator(1 << 20))
    probes.append(Fraction(m))
    brackets = cuts_from_points(probes)
    grid = 4 * ell + 4
    while len(brackets) != ell:
        # Estimates failed to separate the roots; fall back to a uniform scan.
        probes = [Fraction(i * m, grid) for i in range(grid + 1)]
        brackets = cuts_from_points(probes)
        grid *= 2
        if grid > (1 << 22):
            raise IdentityViolationError(
                f"could not isolate {ell} roots at m={m} rho={fam.rho}"
            )
    return brackets


def _bisect(ints: list[int], lo: Fraction, hi: Fraction, precision: Fraction) -> Fraction:
    """Bisect a certified bracket; returns the midpoint of the final bracket
    (or an exact root hit on the way).

    lo and hi are kept as integer numerators over one shared denominator,
    which doubles at each step.
    """
    den = math.lcm(lo.denominator, hi.denominator)
    lo_n = lo.numerator * (den // lo.denominator)
    hi_n = hi.numerator * (den // hi.denominator)
    precision = Fraction(precision)
    p_num, p_den = precision.numerator, precision.denominator
    slo = _sign_at(ints, lo_n, den)
    while (hi_n - lo_n) * p_den > p_num * den:
        mid_n = lo_n + hi_n
        den *= 2
        sm = _sign_at(ints, mid_n, den)
        if sm == 0:
            return Fraction(mid_n, den)
        if sm == slo:
            lo_n, hi_n = mid_n, 2 * hi_n
        else:
            lo_n, hi_n = 2 * lo_n, mid_n
    return Fraction(lo_n + hi_n, 2 * den)


def _roots(fam: KravchukFamily, ell: int, precision: Fraction, pick: slice) -> list[Fraction]:
    """The roots of the degree-ell member at positions `pick` of the
    ascending order, each within +-precision; only those are bisected."""
    if ell < 1 or ell > fam.degree_max:
        raise DomainError("ell out of range for this family")
    ints = _int_scaled(fam.coeffs[ell])
    return [
        exact if exact is not None else _bisect(ints, lo, hi, precision)
        for lo, hi, exact in _certified_brackets(fam, ell, ints)[pick]
    ]


def isolate_roots(fam: KravchukFamily, ell: int,
                  precision: Fraction = DEFAULT_ROOT_PRECISION) -> list[Fraction]:
    """All ell roots of the degree-ell member, each within +-precision."""
    return _roots(fam, ell, precision, slice(None))


def largest_root(fam: KravchukFamily, ell: int,
                 precision: Fraction = DEFAULT_ROOT_PRECISION) -> Fraction:
    return _roots(fam, ell, precision, slice(-1, None))[0]


def smallest_root(fam: KravchukFamily, ell: int,
                  precision: Fraction = DEFAULT_ROOT_PRECISION) -> Fraction:
    if fam.rho == HALF:
        # K_l(x) = (-1)^l K_l(m-x) pairs the extreme roots.
        return fam.m - largest_root(fam, ell, precision)
    return _roots(fam, ell, precision, slice(0, 1))[0]


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


def principal_representation(m: int, rho: Fraction, ell: int,
                             precision: Fraction = DEFAULT_ROOT_PRECISION) -> PrincipalRepresentation:
    rho = Fraction(rho)
    if ell < 1 or 2 * ell > m:
        raise DomainError("need 1 <= ell <= m/2")
    fam = build_family(m, rho, ell)
    roots = isolate_roots(fam, ell, precision)
    masses = []
    for z in roots:
        # Reciprocal Christoffel function over the orthonormal family; the
        # degree-ell term vanishes at its own roots up to isolation error.
        s = sum(fam.evaluate(k, z) ** 2 / fam.norms[k] for k in range(ell + 1))
        masses.append(1 / s)
    return PrincipalRepresentation(m, rho, ell, tuple(roots), tuple(masses))


def interlacing_check(rep: PrincipalRepresentation, profile, atom_slack: Fraction | None = None) -> dict:
    """Verify P(X <= z_j) <= P(Z <= z_j) <= P(X <= z_{j+1}) for all j.

    X is the empirical satisfied-count distribution, Z the principal
    representation; the j = 0 and j = ell edges use cumulative 0 and 1.
    Requires the profile moments to match Bin(m, rho) up to order 2*ell-1.
    """
    if atom_slack is None:
        atom_slack = 4 * DEFAULT_ROOT_PRECISION
    for j in range(rep.order + 1):
        if profile_moment(profile, j) != binomial_moment(rep.m, rep.rho, j):
            raise DomainError(
                f"profile does not match Bin({rep.m}, {rep.rho}) moments to order {rep.order}"
            )
    total = profile.total
    hist = profile.histogram

    def x_cdf(z, slack=Fraction(0)) -> Fraction:
        return Fraction(sum(c for t, c in enumerate(hist) if t <= z + slack), total)

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
        inequalities.append({
            "j": j,
            "lower_slack": float(z_mass - lhs),
            "upper_slack": float(rhs - z_mass),
            "ok": bool(good),
        })
    s_max_count = max(t for t, c in enumerate(hist) if c)
    top_root = rep.support[-1]
    return {
        "ok": bool(ok and s_max_count + atom_slack >= top_root),
        "inequalities": inequalities,
        "max_count": s_max_count,
        "top_root": float(top_root),
        "max_count_reaches_top_root": bool(s_max_count + atom_slack >= top_root),
    }


# ---------- optimal quadratic-form weights ----------

def synthetic_divide(c: Poly, z: Fraction) -> tuple[Poly, Fraction]:
    """Divide the polynomial by (x - z); returns (quotient, remainder)."""
    q = [Fraction(0)] * (len(c) - 1)
    acc = Fraction(0)
    for i in range(len(c) - 1, 0, -1):
        acc = acc * z + c[i]
        q[i - 1] = acc
    rem = acc * z + c[0]
    return poly_trim(q), rem


def kkt_optimum(m: int, ell: int,
                precision: Fraction = DEFAULT_ROOT_PRECISION) -> tuple[tuple[Fraction, ...], Fraction]:
    """Weights u for which the Bin(m, 1/2)-tilted mean hits its minimum.

    Divides K_{ell+1} by (t - z) at the isolated smallest root z, expands
    the quotient in the K-basis, and returns the tilted mean
    sum t C(m,t) X(t)^2 / sum C(m,t) X(t)^2 together with the weights.
    """
    if ell + 1 > m:
        raise DomainError("need ell + 1 <= m")
    fam = build_family(m, HALF, ell + 1)
    z = smallest_root(fam, ell + 1, precision)
    quot, rem = synthetic_divide(fam.coeffs[ell + 1], z)
    deriv_scale = abs(poly_eval(poly_derivative(fam.coeffs[ell + 1]), z))
    if abs(rem) > 4 * precision * max(deriv_scale, Fraction(1)):
        raise IdentityViolationError("division remainder exceeds root precision")
    # Expand the quotient in the K-basis by leading-coefficient elimination.
    u = [Fraction(0)] * (ell + 1)
    residual = list(quot) + [Fraction(0)] * (ell + 1 - len(quot))
    for k in range(ell, -1, -1):
        u[k] = residual[k] / fam.leading(k)
        for i, v in enumerate(fam.coeffs[k]):
            residual[i] -= u[k] * v
    if any(residual):
        raise IdentityViolationError("basis expansion left a nonzero residual")
    # The tilted mean is scale invariant; normalize the top weight to 1.
    top = u[ell]
    u = [v / top for v in u]
    num = Fraction(0)
    den = Fraction(0)
    for t in range(m + 1):
        xt = poly_eval(quot, Fraction(t))
        w = math.comb(m, t) * xt * xt
        num += t * w
        den += w
    expected = num / den
    if abs(expected - z) > Fraction(1, 10**6) * m:
        raise IdentityViolationError("tilted mean strays from the isolated root")
    return tuple(u), expected


def tilted_mean(m: int, u) -> Fraction:
    """sum t C(m,t) X_u(t)^2 / sum C(m,t) X_u(t)^2 for X_u = sum u_k K_k."""
    fam = build_family(m, HALF, len(u) - 1)
    poly: Poly = ()
    for k, uk in enumerate(u):
        poly = poly_add(poly, poly_scale(fam.coeffs[k], uk))
    num = Fraction(0)
    den = Fraction(0)
    for t in range(m + 1):
        xt = poly_eval(poly, Fraction(t))
        w = math.comb(m, t) * xt * xt
        num += t * w
        den += w
    if den == 0:
        raise DomainError("weights give an identically zero polynomial")
    return num / den
