"""Exact arithmetic in the quadratic extension Q(r) with r^2 = (1-rho)/rho.

All per-instance discrepancy quantities live in this ring when the list
density rho is rational: the two normalized indicator values are r and
-1/r = -(rho/(1-rho))*r, and the bias coefficient beta is a pure
r-component element.  Values are represented componentwise as a + b*r and
never collapsed, even when r^2 happens to be a perfect square, so equality
checks are exact ring equalities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


def _exact_sqrt(fr: Fraction) -> Fraction | None:
    rn, rd = math.isqrt(fr.numerator), math.isqrt(fr.denominator)
    if rn * rn == fr.numerator and rd * rd == fr.denominator:
        return Fraction(rn, rd)
    return None


@dataclass(frozen=True)
class QuadExt:
    """a + b*r with r = sqrt(r_sq), components exact rationals."""

    a: Fraction
    b: Fraction
    r_sq: Fraction

    @staticmethod
    def of(a, b, r_sq) -> "QuadExt":
        return QuadExt(_frac(a), _frac(b), _frac(r_sq))

    def _coerce(self, other) -> "QuadExt | None":
        if isinstance(other, QuadExt):
            if other.r_sq != self.r_sq:
                raise ValueError("mixing elements of different quadratic fields")
            return other
        if isinstance(other, (int, Fraction)):
            return QuadExt(_frac(other), Fraction(0), self.r_sq)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExt(self.a + o.a, self.b + o.b, self.r_sq)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExt(self.a - o.a, self.b - o.b, self.r_sq)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return QuadExt(-self.a, -self.b, self.r_sq)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return QuadExt(self.a * other, self.b * other, self.r_sq)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExt(
            self.a * o.a + self.b * o.b * self.r_sq,
            self.a * o.b + self.b * o.a,
            self.r_sq,
        )

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("only nonnegative integer powers")
        out = QuadExt(Fraction(1), Fraction(0), self.r_sq)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def inverse(self) -> "QuadExt":
        # (a + b r)^{-1} = (a - b r) / (a^2 - b^2 r^2); fails on zero divisors
        # of Q[r]/(r^2 - r_sq) when r_sq is a rational square.
        d = self.a * self.a - self.b * self.b * self.r_sq
        if d == 0:
            raise ZeroDivisionError("element is not invertible in Q(r)")
        return QuadExt(self.a / d, -self.b / d, self.r_sq)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return QuadExt(self.a / other, self.b / other, self.r_sq)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def real_equals(self, other) -> bool:
        """Exact equality of real values.

        Componentwise equality when r is irrational; when r_sq is a rational
        square the evaluation map r -> sqrt(r_sq) is not injective, so the
        images are compared instead (still exact rational arithmetic).
        """
        o = self._coerce(other)
        if o is None:
            raise TypeError("cannot compare")
        if self.a == o.a and self.b == o.b:
            return True
        q = _exact_sqrt(self.r_sq)
        if q is None:
            return False
        return self.a + self.b * q == o.a + o.b * q

    def real_is_zero(self) -> bool:
        return self.real_equals(QuadExt(Fraction(0), Fraction(0), self.r_sq))

    def to_float(self) -> float:
        return float(self.a) + float(self.b) * math.sqrt(float(self.r_sq))

    def __abs__(self) -> float:
        return abs(self.to_float())

    def __repr__(self):
        return f"({self.a} + {self.b}*sqrt({self.r_sq}))"


def r_sq_of(rho: Fraction) -> Fraction:
    rho = _frac(rho)
    if not 0 < rho < 1:
        raise ValueError("rho must lie in (0, 1)")
    return (1 - rho) / rho


def one(rho: Fraction) -> QuadExt:
    return QuadExt(Fraction(1), Fraction(0), r_sq_of(rho))


def zero(rho: Fraction) -> QuadExt:
    return QuadExt(Fraction(0), Fraction(0), r_sq_of(rho))


def r_of(rho: Fraction) -> QuadExt:
    """r = sqrt((1-rho)/rho), the in-list normalized indicator value."""
    return QuadExt(Fraction(0), Fraction(1), r_sq_of(rho))


def sqrt_rho_one_minus_rho(rho: Fraction) -> QuadExt:
    """sqrt(rho(1-rho)) = rho * r, exactly in Q(r)."""
    rho = _frac(rho)
    return QuadExt(Fraction(0), rho, r_sq_of(rho))


def beta_of(rho: Fraction) -> QuadExt:
    """beta = (1-2 rho)/sqrt(rho(1-rho)) = ((1-2 rho)/(1-rho)) * r."""
    rho = _frac(rho)
    return QuadExt(Fraction(0), (1 - 2 * rho) / (1 - rho), r_sq_of(rho))


def beta_abs_of(rho: Fraction) -> QuadExt:
    """|beta| = |1-2 rho|/sqrt(rho(1-rho)), as a Q(r) element."""
    rho = _frac(rho)
    return QuadExt(Fraction(0), abs(1 - 2 * rho) / (1 - rho), r_sq_of(rho))
