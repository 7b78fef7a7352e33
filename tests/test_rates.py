import math

import pytest

from opilab.errors import DomainError, IdentityViolationError
from opilab.rates import (
    FEAS_MARGIN,
    binary_entropy,
    curve_series,
    delta_cap,
    delta_max,
    dual_sum_exponent_avg,
    dual_sum_exponent_best,
    dual_sum_exponent_biased,
    dual_sum_exponent_green,
    f_bar,
    f_bar_max,
    feasible,
    improvement_density_boundary,
    improvement_possible,
    lambda_star,
    pair_count_exponent,
    pair_count_exponent_biased,
    scan_first_true,
    scan_max,
    semicircle_law,
    stationarity_residual,
    tau_derivative_factor,
    tau_star_analysis,
    thresholds,
)

LOG_2_OVER_PI = math.log(2 / math.pi)


def test_semicircle_law_values():
    assert semicircle_law(0.5, 0.5) == 1.0
    for mu in (0.1, 0.25, 0.4):
        assert semicircle_law(0.5, mu) == pytest.approx(0.5 + math.sqrt(mu * (1 - mu)), abs=1e-15)
    for rho in (0.2, 0.5, 0.7):
        assert semicircle_law(rho, 0.0) == pytest.approx(rho, abs=1e-15)
    with pytest.raises(DomainError):
        semicircle_law(0.5, 1.5)


def test_semicircle_continuous_at_saturation():
    for rho in (0.2, 0.45, 0.7):
        left = semicircle_law(rho, 1 - rho - 1e-12)
        assert left == pytest.approx(1.0, abs=1e-6)
        assert semicircle_law(rho, 1 - rho) == 1.0


def test_semicircle_biased_identity():
    # rho + (1-2rho)a + 2 sqrt(rho(1-rho)a(1-a)) agrees with the law itself.
    for rho in (0.2, 0.4, 0.5, 0.66):
        for a in (0.05, 0.2, 1 - rho - 0.01):
            lhs = rho + (1 - 2 * rho) * a + 2 * math.sqrt(rho * (1 - rho) * a * (1 - a))
            assert lhs == pytest.approx(semicircle_law(rho, a), abs=1e-12)


def test_entropy_values():
    assert binary_entropy(0.5) == pytest.approx(math.log(2), abs=1e-15)
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.11) == pytest.approx(0.346515, abs=5e-6)  # direct evaluation
    with pytest.raises(DomainError):
        binary_entropy(-0.01)
    with pytest.raises(DomainError):
        binary_entropy(1.01)


def test_pair_count_exponent_boundary():
    for mu in (0.1, 0.3, 0.45):
        assert pair_count_exponent(mu, 0.5 - mu) == pytest.approx(0.0, abs=1e-12)
        # delta = 0 collapses to 2 mu log 2 - H(mu)
        want = 2 * mu * math.log(2) - binary_entropy(mu)
        assert pair_count_exponent(mu, 0.0) == pytest.approx(want, abs=1e-12)


def test_pair_count_exponent_monotone_in_delta():
    # nonpositive, increasing to 0 at the cap; this is what makes the
    # feasible set a prefix interval in delta
    for mu in (0.31, 0.35, 0.4):
        prev = None
        for i in range(33):
            d = (0.5 - mu) * i / 32
            v = pair_count_exponent(mu, d)
            assert v <= 1e-12
            if prev is not None:
                assert v >= prev - 1e-12
            prev = v


def test_dual_sum_exponents():
    assert dual_sum_exponent_avg(0.5) == pytest.approx(LOG_2_OVER_PI, abs=1e-12)
    # single-bucket exponent changes sign at mu ~ 0.39
    assert dual_sum_exponent_green(0.391) < 0
    assert dual_sum_exponent_green(0.389) > 0
    root = 1.596313 / 4.095791  # hand-solved zero crossing
    assert dual_sum_exponent_green(root) == pytest.approx(0.0, abs=1e-6)


def test_best_exponent_touches_avg_exponent():
    # at lam = 2mu(4mu-1) both entropy terms collapse and best == avg
    for mu in (0.30, 0.35, 0.40):
        lam = 2 * mu * (4 * mu - 1)
        assert dual_sum_exponent_best(mu, lam) == pytest.approx(
            dual_sum_exponent_avg(mu), abs=1e-12
        )


def test_lambda_star_properties():
    for mu in (0.27, 0.32, 0.375, 0.45):
        ls = lambda_star(mu)
        assert ls >= 2 * mu * (4 * mu - 1) - 1e-12
        # stationarity by central finite differences
        h = 1e-6
        grad = (dual_sum_exponent_best(mu, ls + h) - dual_sum_exponent_best(mu, ls - h)) / (2 * h)
        assert abs(grad) < 1e-6
        # minimality against the touch point and a small grid; the feasible
        # lam interval is (max(0, 6mu-2), min(4mu-1, 2mu))
        assert dual_sum_exponent_best(mu, ls) <= dual_sum_exponent_avg(mu) + 1e-12
        lam_lo = max(0.0, 6 * mu - 2)
        lam_hi = min(4 * mu - 1, 2 * mu)
        for lam in (ls * 0.9, ls * 1.1):
            if lam_lo < lam < lam_hi:
                assert dual_sum_exponent_best(mu, lam) >= dual_sum_exponent_best(mu, ls) - 1e-12


def test_biased_pair_count_reduces_at_half():
    for mu, delta in ((0.3, 0.1), (0.35, 0.05), (0.42, 0.02)):
        value, gamma, _ = pair_count_exponent_biased(mu, delta, 0.0, 0.5)
        assert gamma == 0.0
        assert value == pytest.approx(pair_count_exponent(mu, delta), abs=1e-9)


def test_biased_pair_count_endpoint_at_tau_delta():
    value, gamma, endpoint = pair_count_exponent_biased(0.3, 0.1, 0.1, 0.4)
    assert endpoint and gamma == 0.0
    want = 2 * 0.4 * math.log(2) - binary_entropy(0.4)
    assert value == pytest.approx(want, abs=1e-12)


def test_biased_pair_count_stationarity():
    value, gamma, endpoint = pair_count_exponent_biased(0.35, 0.2, 0.0, 0.4)
    assert not endpoint and gamma > 0
    assert abs(stationarity_residual(0.35, 0.2, 0.0, 0.4, gamma)) < 1e-6


def test_biased_dual_sum_reduces_at_half():
    for mu in (0.3, 0.35, 0.45):
        assert dual_sum_exponent_biased(mu, 0.0, 0.5) == pytest.approx(
            dual_sum_exponent_avg(mu), abs=1e-9
        )


def test_feasible_examples():
    assert feasible(0.38, 0.5 - 0.38, 0.5, "best")
    assert not feasible(0.37, 0.5 - 0.37, 0.5, "best")
    assert feasible(0.40, 0.5 - 0.40, 0.5, "green")
    for mu in (0.05, 0.15, 0.25):
        cap = delta_cap(mu, 0.7, "biased")
        assert not feasible(mu, cap / 2, 0.7, "biased")
        assert not feasible(mu, 0.0, 0.7, "biased")


def test_feasible_rejects_bad_inputs():
    with pytest.raises(DomainError):
        feasible(0.3, 0.1, 0.4, "avg")  # balanced kind needs rho = 1/2
    with pytest.raises(DomainError):
        feasible(0.3, 0.5, 0.5, "avg")  # delta above the cap
    with pytest.raises(DomainError):
        feasible(0.3, 0.1, 0.5, "nope")


def test_delta_max_saturation_and_vanishing():
    assert delta_max(0.38, 0.5, "best") == pytest.approx(0.12, abs=1e-12)  # cap
    assert delta_max(0.31, 0.5, "best") == 0.0
    mid = delta_max(0.35, 0.5, "best")
    assert 0.0 < mid < 0.15
    # frozen regression value from the first verified bisection run
    assert mid == pytest.approx(0.03294754, abs=5e-6)


def test_delta_max_interval_structure():
    # the feasibility prefix holds on a grid for all three balanced bounds
    for kind in ("green", "avg", "best"):
        for mu in (0.33, 0.36, 0.39):
            delta_max(mu, 0.5, kind)  # raises on any interval violation


def test_thresholds_best():
    res = thresholds(0.5, "best")
    assert res.status == "ok"
    assert res.two_mu0 == pytest.approx(0.6225, abs=5e-4)
    assert res.two_mu1 == pytest.approx(0.7496, abs=5e-4)
    assert res.witness["delta"] == pytest.approx(0.5 - res.two_mu1 / 2, abs=1e-9)


def test_thresholds_avg():
    res = thresholds(0.5, "avg")
    assert res.two_mu0 == pytest.approx(0.6265, abs=5e-4)
    assert res.two_mu1 == pytest.approx(0.7526, abs=5e-4)


def test_thresholds_green():
    res = thresholds(0.5, "green")
    assert res.two_mu1 == pytest.approx(0.78, abs=1e-3)


@pytest.mark.parametrize("rho, kind, two_mu0, two_mu1", [
    (0.5, "green", 0.7003776164550781, 0.7795398974609375),
    (0.5, "avg", 0.6264033029785155, 0.7525014313964844),
    (0.5, "best", 0.6223749987792969, 0.7495107207031251),
    (0.6, "biased", 0.6473620444335939, 0.7462873310546876),
])
def test_thresholds_exact_values(rho, kind, two_mu0, two_mu1):
    # bit-for-bit the values of the hand-written scan-and-bisect loops that
    # scan_first_true replaced
    res = thresholds(rho, kind)
    assert res.two_mu0 == two_mu0
    assert res.two_mu1 == two_mu1


@pytest.mark.parametrize("rho", [0.0, 1.0, 1.5, -0.2, math.nan])
def test_thresholds_rho_outside_unit_interval(rho):
    with pytest.raises(DomainError):
        thresholds(rho, "biased")


def test_scan_max_concave_matches_closed_form():
    xs = [i / 16 for i in range(17)]
    x, v = scan_max(lambda t: -(t - 0.3137) ** 2, xs, tol=1e-10)
    assert x == pytest.approx(0.3137, abs=1e-10)
    assert v == -(x - 0.3137) ** 2


def test_scan_max_keeps_left_endpoint_of_decreasing_f():
    xs = [0.25 * i / 64 for i in range(65)]
    x, v = scan_max(lambda t: -t, xs)
    assert x == xs[0]
    assert v == 0.0


def test_scan_first_true_edges():
    xs = [i / 8 for i in range(9)]
    assert scan_first_true(lambda x: False, xs, 1e-6) is None
    assert scan_first_true(lambda x: x >= -1.0, xs, 1e-6) == (xs[0], xs[0])
    a, b = scan_first_true(lambda x: x > 0.3, xs, 1e-9)
    assert a <= 0.3 < b and b - a <= 1e-9


def test_scan_first_true_rejects_a_flip_back():
    xs = [i / 8 for i in range(9)]
    with pytest.raises(IdentityViolationError, match="scan index 5"):
        scan_first_true(lambda x: 0.2 < x < 0.6, xs, 1e-6)


def test_threshold_result_invariants():
    # improvement comes before saturation, and the predicate flips sign at
    # the reported saturation rate
    for rho, kind in ((0.5, "best"), (0.5, "avg"), (0.5, "green"), (0.45, "biased"),
                      (0.6, "biased")):
        res = thresholds(rho, kind)
        assert res.status == "ok"
        assert res.two_mu0 <= res.two_mu1 + 1e-12
        mu1 = res.two_mu1 / 2
        tol = 2e-4
        assert feasible(mu1 + tol, delta_cap(mu1 + tol, rho, kind), rho, kind)
        assert not feasible(mu1 - tol, delta_cap(mu1 - tol, rho, kind), rho, kind)


def test_tau_slope_negative_above_half_density():
    # the certificate extends to densities above 1/2: the exponent sum keeps
    # a negative tau-derivative along the optimal inner path
    mu, delta, rho = 0.33, 0.06, 0.6
    h = 1e-5

    def total(t):
        v, _, _ = pair_count_exponent_biased(mu, delta, t, rho)
        return v + dual_sum_exponent_biased(mu, t, rho)

    for tau in (0.0, 0.02, 0.04):
        d = (total(tau + h) - total(max(tau - h, 0.0))) / (h if tau == 0.0 else 2 * h)
        assert math.exp(d) < 1.0


def test_thresholds_biased_no_improvement_at_high_density():
    res = thresholds(0.7, "biased")
    assert res.status == "no finite threshold"
    assert res.two_mu0 is None


def test_balanced_consistency_of_biased_bound():
    # biased curve at rho = 1/2 + 1e-6 matches the balanced avg curve
    for two_mu in (0.64, 0.68, 0.72):
        mu = two_mu / 2
        d_avg = delta_max(mu, 0.5, "avg")
        d_biased = delta_max(mu, 0.5 + 1e-6, "biased")
        lhs = semicircle_law(0.5 + 1e-6, mu + d_biased)
        rhs = semicircle_law(0.5, mu + d_avg)
        assert lhs == pytest.approx(rhs, abs=1e-3)


def test_tau_factor_peak_balanced():
    # at rho = 1/2 the factor is 4x(1-x), peaking at 1
    assert tau_derivative_factor(0.5, 0.5) == pytest.approx(1.0, abs=1e-12)
    for x in (0.1, 0.3, 0.7):
        assert tau_derivative_factor(0.5, x) == pytest.approx(4 * x * (1 - x), abs=1e-12)


def test_tau_factor_peak_below_half():
    for rho in (0.1, 0.2, 0.3, 0.4, 0.5):
        assert tau_derivative_factor(rho, 1 - rho) == pytest.approx(1.0, abs=1e-10)
        rep = tau_star_analysis(rho, grid=800)
        assert rep["argmax_certified"]


def test_tau_factor_peak_above_half():
    rep = tau_star_analysis(0.6, grid=800)
    assert rep["argmax_expected"] == 0.6
    assert rep["argmax_certified"]
    assert rep["f_bar"] < 1.0


def test_f_bar_max_location_and_value():
    rho_star, val = f_bar_max()
    assert val == pytest.approx(0.9927, abs=5e-4)
    assert rho_star == pytest.approx(0.56, abs=0.01)
    assert f_bar(0.56) < 1.0


def test_tau_monotonicity_certificate():
    # exp(d[E+F]/dtau) < 1 along the optimal-gamma path for rho <= 1/2
    for rho in (0.3, 0.45):
        mu, delta = 0.32, 0.15
        h = 1e-5
        for tau in (0.0, 0.03, 0.07):
            def total(t):
                v, _, _ = pair_count_exponent_biased(mu, delta, t, rho)
                return v + dual_sum_exponent_biased(mu, t, rho)

            d = (total(tau + h) - total(max(tau - h, 0.0))) / (h if tau == 0.0 else 2 * h)
            assert math.exp(d) < 1.0


def test_improvement_boundary_near_two_thirds():
    assert improvement_possible(0.64)
    assert not improvement_possible(0.68)
    boundary = improvement_density_boundary()
    assert boundary == pytest.approx(0.668, abs=2e-3)


def test_curve_figure1_spot_values():
    header, rows = curve_series(1, 21)
    assert header == ["two_mu", "scl", "green", "avg", "best"]
    by_mu = {round(r[0], 3): r for r in rows}
    row = by_mu[0.9]  # above all saturation thresholds
    assert row[2] == pytest.approx(1.0, abs=1e-9)
    assert row[3] == pytest.approx(1.0, abs=1e-9)
    assert row[4] == pytest.approx(1.0, abs=1e-9)
    row = by_mu[0.5]  # below all improvement thresholds
    for v in row[2:]:
        assert v == pytest.approx(semicircle_law(0.5, 0.25), abs=1e-9)


def test_curve_figure2_monotone_repair():
    header, rows = curve_series(2, 40)
    assert header[-1] == "two_mu1_biased_repaired"
    repaired = [r[3] for r in rows]
    assert all(repaired[i + 1] <= repaired[i] + 1e-12 for i in range(len(repaired) - 1))
    # the raw column genuinely bumps up right after 1/2
    raw = {round(r[0], 4): r[2] for r in rows}
    rhos = sorted(raw)
    above_half = [raw[r] for r in rhos if r > 0.5]
    at_half = min(raw[r] for r in rhos if abs(r - 0.5) < 0.03)
    assert max(above_half) > at_half


def test_curve_figure3_tau_star_zero():
    for rho in (0.4, 0.6):
        header, rows = curve_series(3, 15, rho=rho)
        tau_col = header.index("tau_star")
        assert all(abs(r[tau_col]) < 1e-9 for r in rows)
        imp_col = header.index("improved")
        scl_col = header.index("scl_rho")
        assert all(r[imp_col] >= r[scl_col] - 1e-12 for r in rows)


def test_curve_figure3_gamma_star_positive_off_balance():
    # with nonzero bias the inner maximizer leaves the origin whenever an
    # improvement window exists (the entropy slope at 0 is infinite)
    header, rows = curve_series(3, 25, rho=0.4)
    d_col = header.index("delta_star")
    g_col = header.index("gamma_star")
    active = [r for r in rows if r[d_col] > 1e-6]
    assert active
    assert all(r[g_col] > 0 for r in active)
    # balanced density pins the maximizer at zero
    header, rows = curve_series(3, 25, rho=0.5)
    assert all(abs(r[header.index("gamma_star")]) < 1e-12 for r in rows)


def test_curve_figure4():
    header, rows = curve_series(4, 120)
    vals = [r[1] for r in rows]
    top = max(vals)
    assert top == pytest.approx(0.9927, abs=1e-3)
    arg = rows[vals.index(top)][0]
    assert arg == pytest.approx(0.56, abs=0.02)
    header2, rows2 = curve_series(4, 50, rho=0.3)
    assert header2 == ["x_or_rho", "f_rho_at_x"]
    assert all(len(r) == 2 and math.isfinite(r[1]) for r in rows2)
