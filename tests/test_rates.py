import math
import random
import struct

import pytest

from opilab import rates, verify
from opilab.errors import DomainError, IdentityViolationError
from opilab.rates import (
    FEAS_MARGIN,
    ThresholdResult,
    _delta_maxes,
    _exponent_in_delta,
    _pair_count_exponent_biased_scan,
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


def _delta_at_tau_points(count, seed):
    """Seeded (mu, tau, rho) with mu + tau < 1/2: a fifth at rho = 1/2, a
    fifth at tau = 0, the rest at tau > 0 and any density."""
    rng = random.Random(seed)
    points = []
    for i in range(count):
        mu = rng.uniform(0.0, 0.499)
        tau = 0.0 if i % 5 == 1 else rng.uniform(0.0, 0.4999 - mu)
        points.append((mu, tau, 0.5 if i % 5 == 0 else rng.uniform(1e-3, 1 - 1e-3)))
    return points


def test_biased_pair_count_at_delta_tau_is_the_closed_form():
    # the gamma bracket is [0, 0] and the objective there a H(0) + w H(0) = 0
    points = _delta_at_tau_points(100_000, 34)
    assert sum(rho == 0.5 for _, _, rho in points) >= 10_000
    assert sum(tau > 0.0 for _, tau, _ in points) >= 50_000
    for mu, tau, rho in points:
        want = 2.0 * (mu + tau) * math.log(2.0) - binary_entropy(mu + tau)
        got = pair_count_exponent_biased(mu, tau, tau, rho)
        assert _bits(got) == _bits((want, 0.0, True)), (mu, tau, rho)


def test_biased_pair_count_just_past_delta_tau_meets_the_closed_form():
    worst = 0.0
    for mu, tau, rho in _delta_at_tau_points(20_000, 35):
        closed = pair_count_exponent_biased(mu, tau, tau, rho)[0]
        worst = max(worst, abs(pair_count_exponent_biased(mu, tau + 1e-9, tau, rho)[0] - closed))
    assert worst <= 1e-6


@pytest.mark.parametrize("mu, delta, tau, rho, message", [
    (0.2, 0.1, 0.1, 0.0, "rho outside (0, 1)"),
    (0.2, 0.1, 0.1, 1.0, "rho outside (0, 1)"),
    (0.2, -1e-6, -1e-6, 0.4, "need 0 <= tau <= delta"),
    (0.2, 0.1, 0.1 + 1e-6, 0.4, "need 0 <= tau <= delta"),
    (0.3, 0.2, 0.2, 0.4, "need mu + tau < 1/2"),
    (0.1, 0.45, 0.45, 0.5, "need mu + tau < 1/2"),
])
def test_biased_pair_count_at_delta_tau_keeps_its_domain_errors(mu, delta, tau, rho, message):
    with pytest.raises(DomainError) as err:
        pair_count_exponent_biased(mu, delta, tau, rho)
    assert str(err.value) == message


# thresholds(rho, "biased") on figure 2's 16-density axis, as recorded before
# the delta = tau closed form: (rho, two_mu0, two_mu1, witness delta, gamma)
_FIGURE_2_BIASED = [
    (0.05, 0.6285395249023438, 0.998655231933594, 0.450672384033203, 0.8987897086286392),
    (0.1, 0.6206660212402344, 0.9930400200195313, 0.4034799899902344, 0.7944320156213619),
    (0.15000000000000002, 0.6154170187988282, 0.98144338671875, 0.359278306640625,
     0.6870103703928426),
    (0.2, 0.6117549240722656, 0.9630718781738281, 0.318464060913086, 0.5778431275555763),
    (0.25, 0.6096187021484375, 0.9378034245605469, 0.28109828771972656, 0.46890171228027344),
    (0.3, 0.6090083530273438, 0.9065535495605469, 0.2467232252197265, 0.3626214177046468),
    (0.35, 0.6101680163574219, 0.8707260561523438, 0.21463697192382813, 0.26121781893962925),
    (0.39999999999999997, 0.6133418317871094, 0.832029921875, 0.18398503906250008,
     0.16640598112120022),
    (0.45, 0.6187129040527344, 0.7921741242675782, 0.15391293786621096, 0.07921741039143997),
    (0.5, 0.6264033029785155, 0.7525014313964844, 0.1237492843017578, 0.0),
    (0.55, 0.6361625026855469, 0.7738205822753905, 0.0630897088623047, 0.03676705961894338),
    (0.6000000000000001, 0.6473620444335937, 0.7462873310546874, 0.02685633447265623,
     0.031341376905094434),
    (0.65, 0.6590680581054688, 0.6905131909179688, 0.004743404541015572, 0.008513163876253449),
]


def test_biased_thresholds_on_the_figure_2_axis_are_pinned():
    axis = [0.05 + (0.80 - 0.05) * i / 15 for i in range(16)]
    results = [thresholds(rho, "biased") for rho in axis]
    want = [ThresholdResult("biased", rho, mu0, mu1,
                            {"delta": delta, "lambda": 0.0, "gamma": gamma}, "ok")
            for rho, mu0, mu1, delta, gamma in _FIGURE_2_BIASED]
    want += [ThresholdResult("biased", rho, None, None, {}, "no finite threshold")
             for rho in axis[len(want):]]
    assert [repr(r) for r in results] == [repr(r) for r in want]


def test_biased_pair_count_stationarity():
    value, gamma, endpoint = pair_count_exponent_biased(0.35, 0.2, 0.0, 0.4)
    assert not endpoint and gamma > 0
    assert abs(stationarity_residual(0.35, 0.2, 0.0, 0.4, gamma)) < 1e-6


def test_stationarity_residual_is_sharp_where_x_is_near_one():
    # x = 1 - 1.7e-9 at this root; forming 1 - x by subtraction read -2.9e-8
    point = (0.17879675848304788, 0.665676342428763, 0.11517807915926513, 0.4999815034231294)
    _, gamma, endpoint = pair_count_exponent_biased(*point)
    assert not endpoint
    assert abs(stationarity_residual(*point, gamma)) < 1e-8


@pytest.mark.parametrize("gamma", [0.0, -0.1, 0.7, 0.75, 0.5, math.nan])
def test_stationarity_residual_rejects_gamma_outside_its_domain(gamma):
    # (0, 2(mu+tau)) = (0, 0.7); free = d - gamma/2 < 0 past gamma = 0.4
    with pytest.raises(DomainError, match=f"gamma={gamma}"):
        stationarity_residual(0.35, 0.2, 0.0, 0.4, gamma)


def test_stationarity_residual_rejects_empty_filled_and_a_density_outside_one():
    # filled = w - d + gamma/2 = 0.3 - 0.4 + 0.05 < 0
    with pytest.raises(DomainError, match="filled="):
        stationarity_residual(0.35, 0.4, 0.0, 0.2, 0.1)
    for rho in (0.0, 1.0, 1.4):
        with pytest.raises(DomainError, match=f"rho={rho} outside"):
            stationarity_residual(0.35, 0.2, 0.0, rho, 0.3)


def test_biased_saturation_closed_form_matches_the_newton_route():
    # at rho < 1/2 the saturation scan reads 2mu K(rho) + dual; the inner
    # Newton solve at the cap 1 - rho - mu is its second route
    rng = random.Random(35)
    for _ in range(20000):
        rho, mu = rng.uniform(0.0, 0.5), rng.uniform(0.0, 0.5)
        if rho == 0.0 or mu == 0.0:
            continue
        closed = rates._saturation_exponent(rho, "biased")(mu)
        newton = rates._exponent_at(mu, rho, "biased", delta_cap(mu, rho, "biased"))
        assert abs(closed - newton) <= 1e-14, (mu, rho, closed, newton)


def test_biased_saturation_slope_is_for_densities_below_half():
    assert rates.biased_saturation_slope(0.25) == pytest.approx(
        math.log(2) - binary_entropy(0.25) + binary_entropy(0.5)
        + 0.5 * math.log(0.5 / math.sqrt(0.25 * 0.75) / 2), abs=1e-15)
    for rho in (0.0, 0.5, 0.6, -0.1):
        with pytest.raises(DomainError, match=r"outside \(0, 1/2\)"):
            rates.biased_saturation_slope(rho)


def test_biased_thresholds_solve_the_inner_maximum_only_above_half(monkeypatch):
    # below 1/2 the saturation scan reads the closed form: no call with
    # delta > 0 (the improvement scan's delta = 0 calls are pinned at
    # gamma = 0); above it every saturation scan point solves at the cap
    real, positive = pair_count_exponent_biased, []

    def counted(mu, delta, tau, rho):
        if delta > 0.0:
            positive.append(delta)
        return real(mu, delta, tau, rho)

    monkeypatch.setattr(rates, "pair_count_exponent_biased", counted)
    assert thresholds(0.3, "biased").two_mu1 is not None
    assert positive == []
    assert thresholds(0.6, "biased").two_mu1 is not None
    assert len(positive) >= 129


def _saturation_records(seed=0):
    return [r for r in verify.run_suite("asymptotic", seed=seed)
            if r["identity"] == "biased_saturation_quadratic"]


@pytest.mark.parametrize("seed", [0, 1, 42])
def test_the_saturation_quadratic_row_passes_on_its_drawn_rate(seed):
    (record,) = _saturation_records(seed)
    assert record["status"] == "pass" and 0.0 <= record["max_abs_residual"] <= 1.0
    rho = record["instance"]["rho"]
    mu1 = verify._saturation_root(rho)
    assert rates._saturation_exponent(rho, "biased")(mu1) == pytest.approx(-FEAS_MARGIN, abs=1e-14)


def test_the_saturation_quadratic_row_fails_on_a_wrong_slope(monkeypatch):
    # K without its (1 - 2rho) log(|beta|/2) term
    monkeypatch.setattr(rates, "biased_saturation_slope", lambda rho: (
        math.log(2) - binary_entropy(rho) + binary_entropy(2.0 * rho)))
    (record,) = _saturation_records()
    assert record["status"] == "fail" and record["error"].startswith("rate - 2mu K(rho) is ")


def _biased_inner_points():
    """Seeded (mu, delta, tau, rho) points in the domain the thresholds and
    figures evaluate (0 <= delta <= 1 - rho - mu, 0 <= tau <= delta,
    mu + tau < 1/2), with each bracket shape drawn on purpose."""
    rng = random.Random(7)

    def draw(rho, with_tau):
        mu = rng.uniform(0.0, min(0.5, 1.0 - rho))
        delta = rng.uniform(0.0, 1.0 - rho - mu)
        tau = rng.uniform(0.0, max(0.0, min(delta, 0.5 - mu - 1e-9))) if with_tau else 0.0
        return mu, delta, tau, rho

    points = [draw(rng.uniform(0.01, 0.99), False) for _ in range(100)]
    points += [draw(rng.uniform(0.01, 0.99), True) for _ in range(100)]
    points += [draw(0.5, rng.random() < 0.5) for _ in range(50)]  # gamma pinned
    points += [draw(rho, True) for rho in (0.02, 0.98) for _ in range(50)]
    while len(points) < 450:  # gamma_lo = 2(delta - tau - w) > 0
        mu, delta, tau, rho = draw(rng.uniform(0.01, 0.3), True)
        if delta - tau > 1.0 - 2.0 * mu - 2.0 * tau:
            points.append((mu, delta, tau, rho))
    for _ in range(50):  # near-empty [0, 2(mu + tau)]: the root is interior
        points.append((10 ** rng.uniform(-9, -4) / 2, rng.uniform(0.01, 0.3), 0.0,
                       rng.uniform(0.01, 0.99)))
    for _ in range(50):  # near-empty [0, 2(delta - tau)]: the root hugs its end
        rho = rng.uniform(0.01, 0.99)
        mu = rng.uniform(0.0, min(0.49, 1.0 - rho))
        delta = rng.uniform(0.0, min(1.0 - rho - mu, 0.499 - mu))
        points.append((mu, delta, max(0.0, delta - 10 ** rng.uniform(-9, -4)), rho))
    return points


def test_biased_inner_solver_matches_scan_route():
    interior = 0
    for mu, delta, tau, rho in _biased_inner_points():
        value, gamma, at_end = pair_count_exponent_biased(mu, delta, tau, rho)
        scan_value, scan_gamma, scan_at_end = _pair_count_exponent_biased_scan(
            mu, delta, tau, rho)
        where = (mu, delta, tau, rho)
        assert at_end == scan_at_end, where
        assert value >= scan_value - 1e-15, where
        assert abs(gamma - scan_gamma) <= 1e-7, where
        if at_end:
            # Within 1e-9 of a log-singular bracket end the curvature is
            # huge, and golden section's absolute 1e-10 tolerance leaves the
            # scan up to about 1e-11 below the root's value.
            assert value - scan_value <= 1e-10, where
        else:
            interior += 1
            assert abs(value - scan_value) <= 1e-12, where
            assert abs(stationarity_residual(mu, delta, tau, rho, gamma)) <= 1e-6, where
    assert interior >= 400


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


def _tau_factor_argmax(rho):
    # the 801 interior points of (0, 1), refined between the best one's neighbours
    x, _ = scan_max(lambda x: tau_derivative_factor(rho, x), [(i + 1) / 802 for i in range(801)])
    return x


def test_tau_factor_peak_below_half():
    for rho in (0.1, 0.2, 0.3, 0.4, 0.5):
        assert tau_derivative_factor(rho, 1 - rho) == pytest.approx(1.0, abs=1e-10)
        assert abs(_tau_factor_argmax(rho) - (1 - rho)) <= 2 / 800


def test_tau_factor_peak_above_half():
    assert abs(_tau_factor_argmax(0.6) - 0.6) <= 2 / 800
    assert f_bar(0.6) < 1.0


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


# ---------- the delta-free builder against the route it replaced ----------

def _reference_pair_count_exponent(mu, delta):
    """pair_count_exponent as it was before the delta-free builder."""
    if delta < -1e-12 or mu < 0.0:
        raise DomainError("mu and delta must be nonnegative")
    if mu + delta > 0.5 + 1e-12:
        raise DomainError("need mu + delta <= 1/2")
    delta = max(delta, 0.0)
    s = mu + delta
    first = s * binary_entropy(mu / s) if s > 0 else 0.0
    return first + (1.0 - s) * binary_entropy(mu / (1.0 - s)) - binary_entropy(2.0 * mu)


def _reference_total_exponent(mu, delta, rho, kind):
    """The exponent sum recomputed whole at every delta."""
    if kind == "green":
        return _reference_pair_count_exponent(mu, delta) + dual_sum_exponent_green(mu)
    if kind == "avg":
        return _reference_pair_count_exponent(mu, delta) + dual_sum_exponent_avg(mu)
    if kind == "best":
        if mu <= 0.25:
            return math.inf
        return (_reference_pair_count_exponent(mu, delta)
                + dual_sum_exponent_best(mu, lambda_star(mu)))
    value, _, _ = pair_count_exponent_biased(mu, delta, 0.0, rho)
    return value + dual_sum_exponent_biased(mu, 0.0, rho)


def _reference_feasible(mu, delta, rho, kind):
    if delta < -1e-12 or delta > delta_cap(mu, rho, kind) + 1e-12:
        raise DomainError(f"delta={delta} outside [0, cap]")
    return _reference_total_exponent(mu, max(delta, 0.0), rho, kind) < -FEAS_MARGIN


def _reference_delta_max(mu, rho, kind):
    """delta_max with every scan and bisection point through the range-checked
    _reference_feasible."""
    cap = delta_cap(mu, rho, kind)
    if cap <= 0.0:
        return 0.0
    bracket = _reference_scan_first_true(lambda d: not _reference_feasible(mu, d, rho, kind),
                                         [cap * i / 256 for i in range(257)], 1e-6)
    return cap if bracket is None else bracket[0]


def _outcome(f, *args):
    """The bits of f(*args), or the type and message of what it raised."""
    try:
        value = f(*args)
    except DomainError as exc:
        return type(exc), str(exc)
    return struct.pack("<d", value) if isinstance(value, float) else value


_BUILDER_CASES = [("green", 0.5), ("avg", 0.5), ("best", 0.5),
                  ("biased", 0.3), ("biased", 0.5 + 1e-6), ("biased", 0.6)]


@pytest.mark.parametrize("kind,rho", _BUILDER_CASES)
def test_delta_free_builder_matches_the_whole_sum_bit_for_bit(kind, rho):
    rng = random.Random(f"{kind}-{rho}")
    mu_cap = min(0.5, 1.0 - rho) if kind == "biased" else 0.5
    mus = [rng.uniform(0.0, mu_cap) for _ in range(24)] + [0.0, 0.25, 0.3, mu_cap]
    for mu in mus:
        cap = delta_cap(mu, rho, kind)
        for delta in [0.0, cap] + [rng.uniform(0.0, cap) for _ in range(6)]:
            point = (mu, delta, rho, kind)
            want = _outcome(_reference_total_exponent, *point)

            def split_sum():
                pair_count, dual = _exponent_in_delta(mu, rho, kind)
                return pair_count(delta) + dual

            assert _outcome(split_sum) == want, point
            assert _outcome(feasible, *point) == _outcome(_reference_feasible, *point), point
            if kind != "biased":
                assert (_outcome(pair_count_exponent, mu, delta)
                        == _outcome(_reference_pair_count_exponent, mu, delta)), point
        assert (_outcome(delta_max, mu, rho, kind)
                == _outcome(_reference_delta_max, mu, rho, kind)), mu
        if kind != "biased":
            # in either order, each kind gets its own delta_max
            for kinds in (_FIGURE_1_KINDS, _FIGURE_1_KINDS[::-1]):
                assert (_bits(_delta_maxes(mu, rho, kinds))
                        == [_outcome(_reference_delta_max, mu, rho, k) for k in kinds]), (mu, kinds)


@pytest.mark.parametrize("figure, grid, rho", [
    *((1, grid, 0.5) for grid in (1, 2, 7, 40)),
    *((3, 40, rho) for rho in (0.05, 0.3, 0.45, 0.5 + 1e-6, 0.6, 0.8)),
])
def test_delta_maxes_match_the_whole_scan_on_the_figure_axes(figure, grid, rho):
    # the binary search against the range-checked whole scan, bit for bit, in
    # both kind orders; below rho = 1/2 the biased delta passes 1/2 - mu
    kinds = _FIGURE_1_KINDS if figure == 1 else ("biased",)
    for two_mu in rates._grid(0.0, 1.0, grid - 1) if grid > 1 else [0.5]:
        mu = two_mu / 2.0
        want = {kind: _outcome(_reference_delta_max, mu, rho, kind) for kind in kinds}
        for order in dict.fromkeys((kinds, kinds[::-1])):
            try:
                got = _bits(_delta_maxes(mu, rho, order))
            except DomainError as exc:
                got = [(type(exc), str(exc))] * len(order)
            assert got == [want[kind] for kind in order], (mu, order)


def test_the_monotone_scan_route_runs_the_whole_scan_check(monkeypatch):
    # feasible below cap / 2, infeasible above it, and feasible again at the
    # last scan point alone: only a check of all 257 points sees the flip.
    # delta_max binary-searches the scan, as the exponent increases in delta,
    # so it reads only the two ends here and returns the cap; the whole scan
    # runs in verify's delta_monotone_scan row, which names the flip.
    def non_interval(mu, rho, kind, tau=0.0):
        cap = delta_cap(mu, rho, kind)
        return lambda d: -1.0 if d < cap / 2 or d == cap else 1.0, 0.0

    monkeypatch.setattr(rates, "_exponent_in_delta", non_interval)
    for mu, rho, kinds in ((0.36, 0.5, ("avg",)), (0.33, 0.4, ("biased",)),
                           (0.36, 0.5, ("best", "green", "avg"))):
        with pytest.raises(IdentityViolationError) as err:
            verify._scanned_delta_maxes(mu, rho, kinds)
        message = str(err.value)
        for part in (f"mu={mu}", f"rho={rho}", f"kind={kinds[0]}", "scan index 256"):
            assert part in message, message
        assert _delta_maxes(mu, rho, kinds) == [delta_cap(mu, rho, kinds[0])] * len(kinds)
    records = [r for r in verify.run_suite("asymptotic") if r["identity"] == "delta_monotone_scan"]
    assert [r["status"] for r in records] == ["fail"] * 2
    assert all("scan index 256" in r["error"] for r in records)


def test_delta_max_checks_kind_and_density_even_with_nothing_to_scan():
    for mu in (0.3, 0.5, 0.7):  # cap > 0, cap = 0 and cap clamped to 0
        with pytest.raises(DomainError, match="unknown bound kind"):
            delta_max(mu, 0.5, "nope")
        with pytest.raises(DomainError, match="is for rho = 1/2"):
            delta_max(mu, 0.4, "avg")


def test_delta_max_and_feasible_reject_a_density_above_one_by_its_value():
    # rho > 1 clamps the biased cap to 0, which returned before rho was checked
    with pytest.raises(DomainError, match=r"rho=1\.5 outside \(0, 1\)"):
        delta_max(0.3, 1.5, "biased")
    with pytest.raises(DomainError, match=r"rho=1\.5 outside \(0, 1\)"):
        feasible(0.3, 0.0, 1.5, "biased")


# ---------- one grid, one bisection and one exponent builder ----------
# The routes below are the scans as they were written before _grid, _bisect
# and the builder served them: every grid, bisection loop and exponent sum
# spelled out, every threshold point through the range-checked feasible.

def _reference_scan_first_true(pred, xs, tol):
    flags = [pred(x) for x in xs]
    if not any(flags):
        return None
    first = flags.index(True)
    assert all(flags[first:])
    if first == 0:
        return xs[0], xs[0]
    a, b = xs[first - 1], xs[first]
    while b - a > tol:
        mid = (a + b) / 2.0
        if pred(mid):
            b = mid
        else:
            a = mid
    return a, b


def _reference_thresholds(rho, kind):
    if kind not in rates.BOUND_KINDS:
        raise DomainError(f"unknown bound kind {kind!r}")
    if not 0.0 < rho < 1.0:
        raise DomainError(f"rho={rho} outside (0, 1)")
    lo = 1e-6
    hi = (min(0.5, 1.0 - rho) if kind == "biased" else 0.5) - 1e-6
    mus = [lo + (hi - lo) * i / 128 for i in range(129)]

    def threshold(pred):
        bracket = _reference_scan_first_true(pred, mus, 5e-5)
        return None if bracket is None else bracket[1]

    mu0 = mu1 = None
    if lo <= hi:
        mu0 = threshold(lambda mu: feasible(mu, 0.0, rho, kind))
        mu1 = threshold(lambda mu: feasible(mu, delta_cap(mu, rho, kind), rho, kind))
    if mu0 is None and mu1 is None:
        return [None, None, {}, "no finite threshold"]
    witness = {}
    if mu1 is not None:
        witness = {
            "delta": delta_cap(mu1, rho, kind),
            "lambda": lambda_star(mu1) if kind == "best" and mu1 > 0.25 else 0.0,
            "gamma": (_pair_count_exponent_biased_scan(mu1, delta_cap(mu1, rho, kind), 0.0, rho)[1]
                      if kind == "biased" else 0.0),
        }
    return [None if mu0 is None else 2.0 * mu0, None if mu1 is None else 2.0 * mu1,
            witness, "ok"]


def _reference_tau_argmax(mu, delta, rho):
    def total(tau):
        value, _, _ = pair_count_exponent_biased(mu, delta, tau, rho)
        return value + dual_sum_exponent_biased(mu, tau, rho)

    hi = min(delta, (1.0 - 2.0 * mu) / 2.0 - 1e-9)
    if hi <= 0.0:
        return 0.0
    return scan_max(total, [hi * i / 64 for i in range(65)])[0]


def _reference_curve_series(figure_id, grid_size, rho=None):
    if figure_id == 1:
        rows = []
        for i in range(grid_size):
            two_mu = i / (grid_size - 1) if grid_size > 1 else 0.5
            mu = two_mu / 2.0
            rows.append([two_mu, semicircle_law(0.5, mu)] + [
                semicircle_law(0.5, mu + _reference_delta_max(mu, 0.5, kind))
                for kind in ("green", "avg", "best")])
        return rows
    if figure_id == 2:
        rows, running_min = [], math.inf
        for i in range(grid_size):
            r = 0.05 + (0.80 - 0.05) * i / (grid_size - 1) if grid_size > 1 else 0.5
            two_mu0, two_mu1, _, _ = _reference_thresholds(r, "biased")
            if two_mu0 is None or two_mu1 is None:
                continue
            running_min = min(running_min, two_mu1)
            rows.append([r, two_mu0, two_mu1, running_min])
        return rows
    if figure_id == 3:
        rows = []
        for i in range(grid_size):
            two_mu = i / (grid_size - 1) if grid_size > 1 else 0.5
            mu = two_mu / 2.0
            dm = _reference_delta_max(mu, rho, "biased") if mu < min(0.5, 1.0 - rho) else 0.0
            tau_s, gamma_s = 0.0, 0.0
            if dm > 0.0:
                tau_s = _reference_tau_argmax(mu, dm, rho)
                _, gamma_s, _ = _pair_count_exponent_biased_scan(mu, dm, tau_s, rho)
            rows.append([rho, two_mu, semicircle_law(rho, mu), semicircle_law(rho, mu + dm),
                         dm, tau_s, gamma_s])
        return rows
    if rho is not None:
        return [[x, tau_derivative_factor(rho, x)]
                for x in ((i + 1) / (grid_size + 1) for i in range(grid_size))]
    rows = []
    for i in range(grid_size):
        r = 0.5 + (0.67 - 0.5) * i / (grid_size - 1) if grid_size > 1 else 0.56
        rows.append([r, f_bar(r)])
    return rows


def _reference_improvement_possible(rho):
    mu_hi = min(0.5, 1.0 - rho)

    def expo(mu):
        value, _, _ = pair_count_exponent_biased(mu, 0.0, 0.0, rho)
        return value + dual_sum_exponent_biased(mu, 0.0, rho)

    mus = [mu_hi * (i + 1) / 402 for i in range(401)]
    _, neg = scan_max(lambda mu: -expo(mu), mus)
    return -neg < -FEAS_MARGIN


def _reference_improvement_density_boundary():
    lo, hi = 0.5, 0.9
    assert _reference_improvement_possible(lo)
    while _reference_improvement_possible(hi):
        hi += 0.05
    while hi - lo > 5e-4:
        mid = (lo + hi) / 2.0
        if _reference_improvement_possible(mid):
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def _bits(value):
    """value with every float replaced by its eight bytes."""
    if isinstance(value, float):
        return struct.pack("<d", value)
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    if isinstance(value, dict):
        return {k: _bits(v) for k, v in value.items()}
    return value


_ASYMPTOTIC_DENSITIES = [round(0.05 + (0.80 - 0.05) * i / 15, 6) for i in range(16)]


@pytest.mark.parametrize("rho, kind", [(rho, "biased") for rho in _ASYMPTOTIC_DENSITIES]
                         + [(1e-300, "biased"), (0.9999999, "biased"),
                            # the closed-form saturation scan below 1/2, to its ends
                            *((rho, "biased") for rho in (5e-324, 1e-9, 1 / 3, 0.4999999999,
                                                          0.49999999999999994)),
                            (0.5, "green"), (0.5, "avg"), (0.5, "best")])
def test_thresholds_match_the_feasible_route_bit_for_bit(rho, kind):
    res = thresholds(rho, kind)
    got = [res.two_mu0, res.two_mu1, res.witness, res.status]
    assert _bits(got) == _bits(_reference_thresholds(rho, kind))


@pytest.mark.parametrize("figure, grid, rho", [
    *((figure, grid, None) for figure in (1, 2) for grid in (1, 2, 7)),
    (2, 16, None),
    *((3, grid, rho) for rho in (0.6, 0.3) for grid in (1, 2, 7)),
    (4, 200, None), (4, 200, 0.3),
])
def test_curve_series_matches_the_hand_written_grids_bit_for_bit(figure, grid, rho):
    _, rows = curve_series(figure, grid, rho=rho)
    assert _bits(rows) == _bits(_reference_curve_series(figure, grid, rho))


_FIGURE_1_KINDS = ("green", "avg", "best")


def _per_kind_figure_1(grid_size):
    """Figure 1 with one delta_max, and so one pair-count row, per bound."""
    rows = []
    for two_mu in rates._grid(0.0, 1.0, grid_size - 1) if grid_size > 1 else [0.5]:
        mu = two_mu / 2.0
        rows.append([two_mu, semicircle_law(0.5, mu)]
                    + [semicircle_law(0.5, mu + delta_max(mu, 0.5, kind))
                       for kind in _FIGURE_1_KINDS])
    return rows


@pytest.mark.parametrize("grid", [1, 2, 7, 24, 40])
def test_figure_1_shared_row_matches_the_per_kind_loop_bit_for_bit(grid):
    _, rows = curve_series(1, grid)
    assert _bits(rows) == _bits(_per_kind_figure_1(grid))


def test_figure_1_evaluates_one_pair_count_row_per_rate(monkeypatch):
    # the kinds read one row, lazily and each scan point at most once: each
    # kind probes index 0, index 256 and at most log2(256) = 8 indices between
    # them, then bisects through its own exponent
    real_row, real_biased, real_bisect = (rates._pair_count_in_delta,
                                          rates.pair_count_exponent_biased, rates._bisect)
    scan_calls, bisect_calls, in_bisect = [], [], []

    def count(delta):
        (bisect_calls if in_bisect else scan_calls).append(delta)

    def counted_row(*args):
        pair_count = real_row(*args)

        def counted(delta):
            count(delta)
            return pair_count(delta)
        return counted

    def counted_biased(mu, delta, tau, rho):
        count(delta)
        return real_biased(mu, delta, tau, rho)

    def counted_bisect(pred, a, b, tol):
        in_bisect.append(True)
        try:
            return real_bisect(pred, a, b, tol)
        finally:
            in_bisect.pop()

    monkeypatch.setattr(rates, "_pair_count_in_delta", counted_row)
    monkeypatch.setattr(rates, "pair_count_exponent_biased", counted_biased)
    monkeypatch.setattr(rates, "_bisect", counted_bisect)
    searched = 0
    for rho, kinds in ((0.5, _FIGURE_1_KINDS), (0.3, ("biased",)), (0.6, ("biased",))):
        for two_mu in rates._grid(0.0, 1.0, 20):
            scan_calls.clear()
            bisect_calls.clear()
            if two_mu / 2.0 < min(0.5, 1.0 - rho):
                _delta_maxes(two_mu / 2.0, rho, kinds)
            assert len(scan_calls) == len(set(scan_calls)) <= len(kinds) * (2 + 8), (rho, two_mu)
            searched += bool(bisect_calls)
    assert searched >= 3


def test_improvement_scans_match_their_hand_written_routes_bit_for_bit():
    for rho in (0.64, 0.68):
        assert improvement_possible(rho) is _reference_improvement_possible(rho)
    assert (_bits(improvement_density_boundary())
            == _bits(_reference_improvement_density_boundary()))
    assert _bits(f_bar_max()) == _bits(scan_max(f_bar, [0.5 + (0.67 - 0.5) * i / 512
                                                        for i in range(513)]))


def test_thresholds_never_calls_feasible(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return feasible(*args)

    monkeypatch.setattr(rates, "feasible", counting)
    for kind in rates.BOUND_KINDS:
        thresholds(0.5, kind)
    thresholds(0.3, "biased")
    assert calls == []


@pytest.mark.parametrize("rho, kind", [(0.3, "green"), (2.0, "nope"), (1.5, "biased")])
def test_thresholds_raises_what_the_feasible_route_raised(rho, kind):
    def raised(f):
        with pytest.raises(DomainError) as err:
            f(rho, kind)
        return str(err.value)

    assert raised(thresholds) == raised(_reference_thresholds)
