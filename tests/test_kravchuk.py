import math
from fractions import Fraction

import pytest

from opilab.codes import FieldCtx, brute_force_opi, make_lists, make_rs_code
from opilab.errors import DomainError
from opilab.kravchuk import (
    HALF,
    build_family,
    char_poly_identity_check,
    family_from_json,
    family_to_json,
    gram_schmidt_family,
    inner_product,
    interlacing_check,
    isolate_roots,
    kkt_optimum,
    kravchuk_coeffs,
    largest_root,
    monic_scaled,
    poly_add,
    poly_eval,
    poly_scale,
    principal_representation,
    smallest_root,
    three_term_step,
    tilted_mean,
    tridiagonal_char_poly,
)
from opilab.rates import semicircle_law


def test_low_degree_closed_forms():
    fam = build_family(10, HALF, 3)
    m = 10
    assert fam.coeffs[0] == (Fraction(1),)
    assert fam.coeffs[1] == (Fraction(m), Fraction(-2))  # m - 2x
    assert fam.evaluate(2, Fraction(0)) == math.comb(m, 2)
    for ell in range(4):
        assert fam.evaluate(ell, Fraction(0)) == math.comb(m, ell)
        assert len(fam.coeffs[ell]) == ell + 1  # degree exactly ell


def test_hand_checked_degree_two():
    # m=4: 2 K_2 = (4-2x)^2 - 4, i.e. K_2 = 2x^2 - 8x + 6
    fam = build_family(4, HALF, 2)
    assert fam.coeffs[2] == (Fraction(6), Fraction(-8), Fraction(2))


def test_generating_function_identity():
    # (1+z)^(m-x) (1-z)^x expanded at integer x reproduces the coefficients.
    for m in (1, 4, 7, 12, 20):
        fam = build_family(m, HALF, min(m, 6))
        for x in range(m + 1):
            series = [Fraction(0)] * (fam.degree_max + 1)
            for j in range(fam.degree_max + 1):
                series[j] = sum(
                    math.comb(m - x, j - i) * math.comb(x, i) * (-1) ** i
                    for i in range(j + 1)
                )
            for ell in range(fam.degree_max + 1):
                assert fam.evaluate(ell, Fraction(x)) == series[ell]


def test_orthogonality_balanced_exact():
    for m in (5, 9, 12):
        fam = build_family(m, HALF, m)
        for r in range(m + 1):
            for s in range(r, m + 1):
                ip = sum(
                    math.comb(m, x) * fam.evaluate(r, Fraction(x)) * fam.evaluate(s, Fraction(x))
                    for x in range(m + 1)
                )
                want = 2**m * math.comb(m, r) if r == s else 0
                assert ip == want


def test_general_rho_orthogonality_and_norms():
    fam = build_family(10, Fraction(1, 3), 4)
    for r in range(5):
        for s in range(r, 5):
            ip = inner_product(10, Fraction(1, 3), fam.coeffs[r], fam.coeffs[s])
            assert ip == (fam.norms[r] if r == s else 0)
    assert fam.norms[2] == math.comb(10, 2) * Fraction(2, 1) ** 2  # r_sq = 2


def test_gram_schmidt_route_agrees():
    # Monic Gram-Schmidt output rescaled by the leading coefficient must
    # reproduce the stored family, coefficient by coefficient.
    for rho in (HALF, Fraction(1, 3), Fraction(2, 7)):
        fam = build_family(8, rho, 4)
        monic = gram_schmidt_family(8, rho, 4)
        for ell in range(5):
            assert poly_scale(monic[ell], fam.leading(ell)) == fam.coeffs[ell]


@pytest.mark.parametrize("rho", [HALF, Fraction(1, 3), Fraction(2, 5), Fraction(3, 7),
                                 Fraction(5, 6)])
def test_recurrence_matches_closed_form(rho):
    # r^2 = A/B = (1-rho)/rho covers A = B, A > B (1/3, 2/5, 3/7) and A < B (5/6).
    for m in range(17):
        fam = build_family(m, rho, m)
        for ell in range(m + 1):
            assert fam.coeffs[ell] == kravchuk_coeffs(m, rho, ell)


def test_recurrence_matches_closed_form_mid_size():
    rho = Fraction(1, 3)
    assert build_family(40, rho, 12).coeffs[12] == kravchuk_coeffs(40, rho, 12)


def _fraction_bisect(ints, lo, hi, precision):
    """The bisection on Fraction midpoints that the integer kernel replaced."""
    from opilab.kravchuk import _sign_at

    slo = _sign_at(ints, lo.numerator, lo.denominator)
    while hi - lo > precision:
        mid = (lo + hi) / 2
        sm = _sign_at(ints, mid.numerator, mid.denominator)
        if sm == 0:
            return mid
        if sm == slo:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


@pytest.mark.parametrize("rho", [HALF, Fraction(1, 3)])
def test_integer_bisect_matches_fraction_bisect(monkeypatch, rho):
    from opilab import kravchuk

    cases = [(m, 3 * m // 10, precision)
             for m in (10, 20, 30) for precision in (Fraction(1, 10**9), Fraction(1, 10**12))]
    cases.append((12, 5, Fraction(1, 7)))  # coarse; at rho = 1/2 a midpoint hits the root 6
    got = []
    for m, ell, precision in cases:
        fam = build_family(m, rho, ell)
        got.append((largest_root(fam, ell, precision), smallest_root(fam, ell, precision),
                    isolate_roots(fam, ell, precision)))
    monkeypatch.setattr(kravchuk, "_bisect", _fraction_bisect)
    for (m, ell, precision), (big, small, roots) in zip(cases, got):
        fam = build_family(m, rho, ell)
        assert big == largest_root(fam, ell, precision)
        assert small == smallest_root(fam, ell, precision)
        assert roots == isolate_roots(fam, ell, precision)


def test_three_term_step_matches_stored():
    fam = build_family(9, HALF, 5)
    for ell in range(1, 5):
        assert three_term_step(fam, ell) == fam.coeffs[ell + 1]


def test_three_term_step_rejects_general_rho():
    fam = build_family(9, Fraction(1, 3), 3)
    with pytest.raises(DomainError):
        three_term_step(fam, 1)


@pytest.mark.parametrize("rho", [HALF, Fraction(1, 3)])
@pytest.mark.parametrize("root_fn", [largest_root, smallest_root, isolate_roots])
@pytest.mark.parametrize("ell", [0, 4, -1])
def test_root_degree_out_of_range_is_domain_error(rho, root_fn, ell):
    fam = build_family(9, rho, 3)
    with pytest.raises(DomainError):
        root_fn(fam, ell)


def test_reflection_symmetry():
    # K_l(x) - (-1)^l K_l(m-x) vanishes identically for rho = 1/2.
    m = 8
    fam = build_family(m, HALF, 5)
    for ell in range(6):
        for x in range(m + 1):
            lhs = fam.evaluate(ell, Fraction(x))
            rhs = (-1) ** ell * fam.evaluate(ell, Fraction(m - x))
            assert lhs == rhs


def test_char_poly_identity_small():
    assert char_poly_identity_check(6, 2)
    assert char_poly_identity_check(8, 5)
    # 1x1 case: both sides are x - m/2
    assert tridiagonal_char_poly(4, 0) == (Fraction(-2), Fraction(1))
    assert char_poly_identity_check(4, 0)


def test_char_poly_identity_full_range():
    for m in range(2, 13):
        for ell in range(m):
            assert char_poly_identity_check(m, ell)


def test_monic_scaling():
    fam = build_family(6, HALF, 3)
    k2 = monic_scaled(fam, 2)
    assert k2[-1] == 1


def test_root_count_and_interlacing_of_roots():
    m = 14
    fam = build_family(m, HALF, 7)
    prev = None
    for ell in range(1, 8):
        roots = isolate_roots(fam, ell)
        assert len(roots) == ell
        assert all(0 < z < m for z in roots)
        assert all(roots[i] < roots[i + 1] for i in range(ell - 1))
        if prev is not None:
            # strict interlacing with the previous degree
            for i, z in enumerate(prev):
                assert roots[i] < z < roots[i + 1]
        prev = roots


def test_degree_one_root_exact():
    fam = build_family(10, HALF, 1)
    assert abs(float(largest_root(fam, 1)) - 5) < 1e-12
    fam3 = build_family(9, Fraction(1, 3), 1)
    assert abs(float(largest_root(fam3, 1)) - 3) < 1e-12  # mean of Bin(9, 1/3)


def test_largest_root_tracks_limit_curve():
    # Exact roots: 92.1304... at m=100 and 187.0365... at m=200 (confirmed
    # against the tridiagonal eigenvalue route), so the gap to the limiting
    # curve is 0.0370 and 0.0231.  The working slack is calibrated to those
    # measured values; the substantive check is the strict shrink with m.
    z100 = largest_root(build_family(100, HALF, 30), 30, Fraction(1, 10**9))
    target = semicircle_law(0.5, 0.3)
    err100 = abs(float(z100) / 100 - target)
    assert err100 < 0.04
    z200 = largest_root(build_family(200, HALF, 60), 60, Fraction(1, 10**9))
    err200 = abs(float(z200) / 200 - target)
    assert err200 < 0.025
    assert err200 < err100


def test_tridiagonal_eigenvalue_matches_largest_root():
    from opilab.kravchuk import TridiagonalForm

    for (m, ell) in ((10, 3), (14, 6), (20, 8)):
        fam = build_family(m, HALF, ell)
        z = largest_root(fam, ell, Fraction(1, 10**10))
        form = TridiagonalForm(m, ell - 1)
        assert form.offdiag_squared() == [k * (m + 1 - k) for k in range(1, ell)]
        assert float(z) == pytest.approx(m / 2 + form.max_eigenvalue() / 2, abs=1e-8)


def test_interlacing_degree_one_edges():
    # single-atom representation against any valid profile: the j = 1 edge
    # uses the exact cumulative 1
    code = make_rs_code(FieldCtx(5), 4, 2)
    lists = make_lists(5, [[0, 1], [1, 2], [2, 3], [3, 4]])
    prof = brute_force_opi(code, lists)
    rep = principal_representation(4, Fraction(2, 5), 1)
    report = interlacing_check(rep, prof)
    assert report["ok"]
    assert report["inequalities"][-1]["ok"]


def test_principal_representation_single_atom():
    rep = principal_representation(10, HALF, 1)
    assert rep.support == (Fraction(5),)
    assert rep.masses == (Fraction(1),)


def test_principal_representation_moments():
    from opilab.codes import binomial_moment

    for rho in (HALF, Fraction(1, 3)):
        rep = principal_representation(12, rho, 3)
        assert sum(rep.masses) == pytest.approx(1.0, abs=1e-10)
        assert all(w > 0 for w in rep.masses)
        for j in range(2 * 3):
            want = binomial_moment(12, rho, j)
            got = rep.moment(j)
            assert abs(float(got - want)) <= 1e-8 * max(1.0, abs(float(want)))


def test_interlacing_on_brute_forced_instance():
    code = make_rs_code(FieldCtx(7), 6, 3)
    lists = make_lists(7, [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 6]])
    prof = brute_force_opi(code, lists)
    rep = principal_representation(6, Fraction(2, 7), 2)
    report = interlacing_check(rep, prof)
    assert report["ok"]
    assert report["max_count_reaches_top_root"]


def test_interlacing_requires_matching_moments():
    code = make_rs_code(FieldCtx(7), 6, 3)
    lists = make_lists(7, [[0, 1]] * 6)
    prof = brute_force_opi(code, lists)
    rep = principal_representation(6, Fraction(3, 7), 2)  # wrong density
    with pytest.raises(DomainError):
        interlacing_check(rep, prof)


def test_kkt_trivial_degree():
    u, value = kkt_optimum(10, 0)
    assert u == (Fraction(1),)
    assert value == 5  # binomial mean = smallest root of degree 1


def test_kkt_matches_isolated_root():
    m, ell = 20, 4
    u, value = kkt_optimum(m, ell)
    fam = build_family(m, HALF, ell + 1)
    z = smallest_root(fam, ell + 1)
    assert abs(float(value - z)) < 1e-6 * m


def test_kkt_is_a_minimum():
    m, ell = 12, 3
    _, value = kkt_optimum(m, ell)
    for trial in ((1, 1, 1, 1), (1, 0, 2, 1), (0, 1, 0, 3)):
        assert tilted_mean(m, [Fraction(v) for v in trial]) >= value - Fraction(1, 10**6) * m


def test_family_json_roundtrip():
    fam = build_family(7, Fraction(2, 5), 3)
    assert family_from_json(family_to_json(fam)) is not None


def test_degree_cutoff_validation():
    with pytest.raises(DomainError):
        build_family(4, HALF, 5)
