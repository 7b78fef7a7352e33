from fractions import Fraction

import pytest

from opilab.quadext import QuadExt, beta_of, r_of, r_sq_of


RHO = Fraction(2, 5)  # r^2 = 3/2, not a rational square


def test_r_sq():
    assert r_sq_of(RHO) == Fraction(3, 2)


def test_ring_ops_close():
    r = r_of(RHO)
    a = QuadExt.of(Fraction(1, 3), Fraction(2), r.r_sq)
    b = QuadExt.of(Fraction(-5), Fraction(1, 7), r.r_sq)
    prod = a * b
    # (a + b r)(c + d r) = (ac + bd r_sq) + (ad + bc) r
    assert prod.a == Fraction(1, 3) * Fraction(-5) + Fraction(2) * Fraction(1, 7) * Fraction(3, 2)
    assert prod.b == Fraction(1, 3) * Fraction(1, 7) + Fraction(2) * Fraction(-5)
    assert (a + b) - b == a
    assert a * (b + 1) == a * b + a


def test_power():
    r = r_of(RHO)
    assert r**2 == QuadExt.of(Fraction(3, 2), 0, Fraction(3, 2))
    assert r**5 == QuadExt.of(0, Fraction(9, 4), Fraction(3, 2))


def test_mixing_fields_rejected():
    with pytest.raises(ValueError):
        r_of(RHO) + r_of(Fraction(1, 3))


def test_beta_matches_definition():
    # beta = (1-2 rho)/sqrt(rho(1-rho)) and sqrt(rho(1-rho)) = rho * r.
    beta = beta_of(RHO)
    s = RHO * r_of(RHO)
    lhs = beta * s
    assert lhs == QuadExt.of(1 - 2 * RHO, 0, r_sq_of(RHO))
    assert abs(s.to_float() ** 2 - float(RHO * (1 - RHO))) < 1e-15


def test_indicator_values_identity():
    # g^2 = 1 + beta g for both indicator values r and -1/r.
    r = r_of(RHO)
    beta = beta_of(RHO)
    inside = r
    outside = QuadExt.of(0, -RHO / (1 - RHO), r_sq_of(RHO))
    for g in (inside, outside):
        assert g * g == 1 + beta * g
    # mean zero, variance one under rho / (1 - rho) weights
    mean = RHO * inside + (1 - RHO) * outside
    assert mean.is_zero()
    second = RHO * inside * inside + (1 - RHO) * outside * outside
    assert second == QuadExt.of(1, 0, r_sq_of(RHO))


def test_scalar_product_matches_the_ring_product():
    r_sq = Fraction(7, 4)
    x = QuadExt.of(Fraction(-3, 5), Fraction(11, 6), r_sq)
    for c in (0, 3, -7, Fraction(2, 9), Fraction(-5, 4)):
        as_element = QuadExt.of(c, 0, r_sq)
        for got, want in ((x * c, x * as_element), (c * x, as_element * x)):
            assert (got.a, got.b, repr(got)) == (want.a, want.b, repr(want))


def test_density_helpers_match_the_fraction_formulas():
    # r^2 = (Q - P)/P and beta's r-coefficient (Q - 2P)/(Q - P) built on
    # integers against (1 - rho)/rho and (1 - 2 rho)/(1 - rho) in Fraction
    for den in range(2, 41):
        for num in range(1, den):
            rho = Fraction(num, den)
            r_sq = (1 - rho) / rho
            for got, want in ((r_sq_of(rho), r_sq), (beta_of(rho).b, (1 - 2 * rho) / (1 - rho)),
                              (beta_of(rho).r_sq, r_sq), (r_of(rho).r_sq, r_sq)):
                assert (got.numerator, got.denominator) == (want.numerator, want.denominator), rho
            assert beta_of(rho).a == 0


@pytest.mark.parametrize("rho", [Fraction(0), Fraction(1), Fraction(3, 2), Fraction(-1, 3), 0, 1])
def test_density_helpers_reject_rho_outside_the_open_unit_interval(rho):
    for helper in (r_sq_of, beta_of, r_of):
        with pytest.raises(ValueError, match=r"rho must lie in \(0, 1\)"):
            helper(rho)


def test_density_helpers_reject_floats():
    for helper in (r_sq_of, beta_of, r_of):
        with pytest.raises(TypeError):
            helper(0.5)
