import dataclasses
import math
from fractions import Fraction

import pytest

from opilab import discrepancy, kravchuk, verify
from opilab.codes import FieldCtx, brute_force_opi, make_lists, make_rs_code
from opilab.errors import DomainError, IdentityViolationError
from opilab.kravchuk import (
    DEFAULT_ROOT_PRECISION,
    HALF,
    _assert_orthogonality,
    _jacobi_roots,
    build_family,
    char_poly_identity_check,
    closed_form_value,
    inner_product,
    interlacing_check,
    isolate_roots,
    kkt_optimum,
    largest_root,
    poly_eval,
    principal_representation,
    smallest_root,
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


def _with_rows(fam, rows):
    """A copy of the family whose integer row table reads `rows`."""
    fam = dataclasses.replace(fam)
    vars(fam)["_rows"] = tuple(tuple(row) for row in rows)
    return fam


@pytest.mark.parametrize("rho", [HALF, Fraction(2, 5), Fraction(5, 7)])
def test_orthogonality_check_rejects_a_perturbed_family(rho):
    fam = build_family(9, rho, 9)
    _assert_orthogonality(fam)
    for ell, x, delta in ((0, 0, 1), (4, 2, -3), (9, 9, 1)):
        rows = [list(row) for row in fam._rows]
        rows[ell][x] += delta
        with pytest.raises(IdentityViolationError, match="orthogonality failed at m=9"):
            _assert_orthogonality(_with_rows(fam, rows))
    # a row scaled by 2 stays orthogonal to the others and fails its norm
    doubled = fam._rows[:3] + (tuple(2 * v for v in fam._rows[3]),) + fam._rows[4:]
    with pytest.raises(IdentityViolationError, match=r"\(r=3, s=3\)"):
        _assert_orthogonality(_with_rows(fam, doubled))
    # a perturbed step breaks every member above it
    for ell, i in ((0, 0), (5, 2)):
        steps = [list(step) for step in fam.steps]
        steps[ell][i] += 1
        bad = dataclasses.replace(fam, steps=tuple(map(tuple, steps)))
        with pytest.raises(IdentityViolationError, match="orthogonality failed at m=9"):
            _assert_orthogonality(bad)


@pytest.mark.parametrize("rho", [HALF, Fraction(1, 3), Fraction(2, 5), Fraction(3, 7),
                                 Fraction(5, 6), Fraction(2, 7)])
def test_recurrence_matches_closed_form(rho):
    # r^2 = A/B = (1-rho)/rho covers A = B, A > B (1/3, 2/5, 3/7, 2/7) and
    # A < B (5/6).  K_l has degree l <= m, so its values at x = 0..m fix
    # every coefficient.
    for m in range(17):
        fam = build_family(m, rho, m)
        for ell in range(m + 1):
            assert fam.values[ell] == tuple(closed_form_value(m, rho, ell, x)
                                            for x in range(m + 1))


def test_recurrence_matches_closed_form_mid_size():
    rho = Fraction(1, 3)
    assert build_family(40, rho, 12).values[12] == tuple(closed_form_value(40, rho, 12, x)
                                                         for x in range(41))


@pytest.mark.parametrize("rho", [HALF, Fraction(1, 3)])
def test_root_counts_read_the_stored_steps(rho, monkeypatch):
    m, ell = 23, 7
    fam = build_family.__wrapped__(m, rho, ell)
    want = (isolate_roots(fam, ell), largest_root(fam, ell), smallest_root(fam, ell))

    def rerun(*args):
        raise AssertionError("the recurrence was run again after construction")

    monkeypatch.setattr(kravchuk, "_recurrence_steps", rerun)
    assert (isolate_roots(fam, ell), largest_root(fam, ell), smallest_root(fam, ell)) == want


def _checked_roots(fam, ell, precision):
    """isolate_roots, checked on the stored coefficients: a route that
    shares nothing with the counts on the point recurrence."""
    m, c = fam.m, fam.coeffs[ell]
    roots = isolate_roots(fam, ell, precision)
    assert len(roots) == ell
    assert all(0 < z < m for z in roots)
    assert all(roots[i] < roots[i + 1] for i in range(ell - 1))
    for z in roots:
        assert (poly_eval(c, z - precision) * poly_eval(c, z + precision) < 0
                or poly_eval(c, z) == 0)
    assert largest_root(fam, ell, precision) == roots[-1]
    assert smallest_root(fam, ell, precision) == roots[0]
    return roots


@pytest.mark.parametrize("rho", [HALF, Fraction(1, 3), Fraction(2, 5), Fraction(5, 7)])
def test_sturm_roots_bracket_sign_changes_of_coefficients(rho):
    for m in range(1, 25):
        fam = build_family(m, rho, m)
        for ell in range(1, m + 1):
            for precision in (Fraction(1, 10**9), Fraction(1, 10**12)):
                _checked_roots(fam, ell, precision)


@pytest.mark.parametrize("m, ell, precision, root", [
    (10, 3, Fraction(1, 10**12), Fraction(5)),  # the first midpoint is the middle root
    (12, 5, Fraction(1, 7), Fraction(6)),  # coarse, yet the first midpoint is a root
])
def test_sturm_roots_exact_hits(m, ell, precision, root):
    fam = build_family(m, HALF, ell)
    assert root in _checked_roots(fam, ell, precision)
    assert poly_eval(fam.coeffs[ell], root) == 0


def _bisection_root(fam, ell, j, precision):
    """The float-free route the roots must equal: bisection of [0, m] on
    the exact count, returning an exact root hit on the way, else the final
    midpoint."""
    precision = Fraction(precision)
    p_num, p_den = precision.numerator, precision.denominator
    lo_n, hi_n, den = 0, fam.m, 1
    while (hi_n - lo_n) * p_den > p_num * den:
        mid_n = lo_n + hi_n
        den *= 2
        below, is_root = kravchuk._count_below(fam, ell, mid_n, den)
        if is_root and below == j:
            return Fraction(mid_n, den)
        if below > j:
            lo_n, hi_n = 2 * lo_n, mid_n
        else:
            lo_n, hi_n = mid_n, 2 * hi_n
    return Fraction(lo_n + hi_n, 2 * den)


def _assert_roots_equal_the_bisection(fam, ell, precision):
    want = [_bisection_root(fam, ell, j, precision) for j in range(ell)]
    assert isolate_roots(fam, ell, precision) == want
    assert largest_root(fam, ell, precision) == want[-1]
    assert smallest_root(fam, ell, precision) == want[0]


# 1e-30 lies past the deepest start bracket a float estimate picks
ORACLE_PRECISIONS = (Fraction(1, 7), Fraction(1, 10**9), Fraction(1, 10**12),
                     Fraction(1, 10**30))


def _memoized_counts(monkeypatch):
    """Share exact counts between both routes: the bisection paths of one
    root at two precisions agree down to the coarser one's depth, so each
    count is made once.  Returns the hook that starts a new family."""
    memo, count_below = {}, kravchuk._count_below

    def counted(fam, ell, num, den):
        key = ell, num, den
        if key not in memo:
            memo[key] = count_below(fam, ell, num, den)
        return memo[key]

    monkeypatch.setattr(kravchuk, "_count_below", counted)
    return memo.clear


@pytest.mark.parametrize("rho", [HALF, Fraction(1, 3), Fraction(2, 5), Fraction(5, 7),
                                 Fraction(1, 50), Fraction(49, 50)])
def test_roots_equal_the_float_free_bisection(rho, monkeypatch):
    new_family = _memoized_counts(monkeypatch)
    for m in range(1, 25):
        fam = build_family(m, rho, m)
        new_family()
        for ell in range(1, m + 1):
            for precision in reversed(ORACLE_PRECISIONS):
                _assert_roots_equal_the_bisection(fam, ell, precision)


# the m ladders of the finite_m benchmark workload, at ell = 0.3 m
FINITE_M_LADDERS = {HALF: (10, 20, 40, 60, 80, 100), Fraction(1, 3): (30, 60, 90)}


def test_roots_equal_the_float_free_bisection_at_large_m(monkeypatch):
    new_family = _memoized_counts(monkeypatch)
    for rho, ladder in FINITE_M_LADDERS.items():
        for m in ladder:
            new_family()
            _assert_roots_equal_the_bisection(build_family(m, rho, 3 * m // 10), 3 * m // 10,
                                              Fraction(1, 10**9))
    for m in (100, 200, 300):
        new_family()
        for precision in (DEFAULT_ROOT_PRECISION, Fraction(1, 10**9)):
            _assert_roots_equal_the_bisection(build_family(m, HALF, 3 * m // 10), 3 * m // 10,
                                              precision)


@pytest.mark.parametrize("m, rho", [
    (24, Fraction(10**30 + 1, 2 * 10**30 + 3)),
    (8, Fraction(10**400 + 1, 2 * 10**400 + 3)),  # every step overflows a float
])
def test_roots_equal_the_float_free_bisection_at_a_big_integer_density(m, rho, monkeypatch):
    _memoized_counts(monkeypatch)
    fam = build_family(m, rho, m)
    for ell in range(1, m + 1):
        for precision in reversed(ORACLE_PRECISIONS):
            _assert_roots_equal_the_bisection(fam, ell, precision)


def _count_calls(monkeypatch):
    calls, count_below = [0], kravchuk._count_below

    def counted(*args):
        calls[0] += 1
        return count_below(*args)

    monkeypatch.setattr(kravchuk, "_count_below", counted)
    return calls


@pytest.mark.parametrize("propose", [
    lambda fam, ell: [0.0] * ell,
    lambda fam, ell: [float(fam.m)] * ell,
    lambda fam, ell: [math.nan] * ell,
    lambda fam, ell: [math.inf] * ell,
    lambda fam, ell: [-math.inf] * ell,
    lambda fam, ell: [(-1) ** j * 1e300 for j in range(ell)],
    lambda fam, ell: _jacobi_roots(fam, ell)[::-1],
], ids=["zeros", "m", "nan", "inf", "-inf", "far", "reversed"])
def test_bad_float_estimates_cost_at_most_two_counts_a_root(propose, monkeypatch):
    calls = _count_calls(monkeypatch)
    monkeypatch.setattr(kravchuk, "_jacobi_roots", propose)
    for rho in (HALF, Fraction(2, 5)):
        for m, ell in ((1, 1), (2, 2), (9, 4), (9, 9), (24, 7), (24, 24)):
            fam = build_family(m, rho, m)
            for precision in ORACLE_PRECISIONS:
                for root_fn, js in ((smallest_root, [0]), (largest_root, [ell - 1]),
                                    (isolate_roots, range(ell))):
                    calls[0] = 0
                    want = [_bisection_root(fam, ell, j, precision) for j in js]
                    budget, calls[0] = calls[0] + 2 * len(js), 0
                    got = root_fn(fam, ell, precision)
                    assert (got if root_fn is isolate_roots else [got]) == want
                    assert calls[0] <= budget


def test_finite_m_ladders_take_a_quarter_of_the_bisection_counts(monkeypatch):
    # a guard on the number of exact counts, not on time
    calls = _count_calls(monkeypatch)
    precision, eigen_started, float_free = Fraction(1, 10**9), 0, 0
    for rho, ladder in FINITE_M_LADDERS.items():
        for m in ladder:
            fam, ell = build_family(m, rho, 3 * m // 10), 3 * m // 10
            calls[0] = 0
            largest_root(fam, ell, precision)
            smallest_root(fam, ell, precision)
            isolate_roots(fam, ell, precision)
            eigen_started += calls[0]
            calls[0] = 0
            for j in (ell - 1, 0, *range(ell)):
                _bisection_root(fam, ell, j, precision)
            float_free += calls[0]
    assert 4 * eigen_started <= float_free


def test_root_isolation_at_m_300_takes_three_counts_a_root(monkeypatch):
    # a guard on the number of exact counts, not on time: two counts certify
    # each start bracket at depth 48, and one level more reaches the final
    # depth 49, the first no wider than 1e-12 at m = 300
    calls = _count_calls(monkeypatch)
    for rho in (HALF, Fraction(1, 3)):
        isolate_roots(build_family(300, rho, 90), 90)
    assert calls[0] <= 3 * 2 * 90


def _no_float_work(fam, ell):
    raise AssertionError("the float estimate ran before the arguments were checked")


@pytest.mark.parametrize("rho", [HALF, Fraction(1, 3)])
@pytest.mark.parametrize("root_fn", [largest_root, smallest_root, isolate_roots])
@pytest.mark.parametrize("ell", [0, 4, -1])
def test_root_degree_out_of_range_is_domain_error(rho, root_fn, ell, monkeypatch):
    fam = build_family(9, rho, 3)
    monkeypatch.setattr(kravchuk, "_jacobi_roots", _no_float_work)
    with pytest.raises(DomainError):
        root_fn(fam, ell)


@pytest.mark.parametrize("precision", [0, Fraction(-1, 10)])
def test_root_precision_not_positive_is_domain_error(precision, monkeypatch):
    # bisection to a zero width would never stop
    monkeypatch.setattr(kravchuk, "_jacobi_roots", _no_float_work)
    with pytest.raises(DomainError):
        largest_root(build_family(9, HALF, 3), 3, precision)


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
    # by hand: the 1x1 case is x - m/2, the 2x2 case at m = 6 is
    # (x - 3)^2 - 1 * 6 / 4
    for x in (Fraction(-1), Fraction(0), Fraction(5, 2), Fraction(7)):
        assert tridiagonal_char_poly(4, 0, x) == x - 2
        assert tridiagonal_char_poly(6, 1, x) == (x - 3) ** 2 - Fraction(3, 2)
    assert char_poly_identity_check(4, 0)


def test_char_poly_identity_full_range():
    for m in range(2, 13):
        for ell in range(m):
            assert char_poly_identity_check(m, ell)


def test_monic_scaling():
    # l! (-2)^-l K_l is monic for rho = 1/2
    fam = build_family(6, HALF, 3)
    for ell, c in enumerate(fam.coeffs):
        assert c[-1] * Fraction(math.factorial(ell), (-2) ** ell) == 1


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
    from opilab.codes import binomial_moments

    for rho in (HALF, Fraction(1, 3)):
        rep = principal_representation(12, rho, 3)
        assert sum(rep.masses) == pytest.approx(1.0, abs=1e-10)
        assert all(w > 0 for w in rep.masses)
        for j, want in enumerate(binomial_moments(12, rho, 2 * 3 - 1)):
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


@pytest.mark.parametrize("m, want", [(4, ((2, 1), 1)), (16, ((4, 1), 6)), (64, ((8, 1), 28))])
def test_kkt_exact_at_a_dyadic_root(m, want):
    # K_2 = ((m - 2x)^2 - m) / 2 has smallest root z = (m - sqrt m) / 2, a
    # dyadic point of [0, m] at these m, so z is exact: u = (m / (m - 2z), 1)
    assert kkt_optimum(m, 1) == want


@pytest.mark.parametrize("m, ell", [(12, 4), (16, 1)])
@pytest.mark.parametrize("offset", [10, -10])
def test_kkt_rejects_a_point_off_the_root(m, ell, offset, monkeypatch):
    root = kravchuk.smallest_root
    monkeypatch.setattr(kravchuk, "smallest_root",
                        lambda fam, ell: root(fam, ell) + offset * DEFAULT_ROOT_PRECISION)
    with pytest.raises(IdentityViolationError, match=f"K_{ell + 1} has no root"):
        kkt_optimum(m, ell)


def test_kkt_is_a_minimum():
    m, ell = 12, 3
    _, value = kkt_optimum(m, ell)
    for trial in ((1, 1, 1, 1), (1, 0, 2, 1), (0, 1, 0, 3)):
        assert tilted_mean(m, [Fraction(v) for v in trial]) >= value - Fraction(1, 10**6) * m


def test_tilted_mean_matches_the_cut_family_value_table():
    # the Fraction value table of build_family(m, 1/2, len(u) - 1), summed
    # term by term, against the integer rows of the full family
    for m in range(1, 15):
        for length in range(1, m + 2):
            u = [Fraction((-1) ** k * (k + 2), 2 * k + 3) for k in range(length)]
            values = build_family(m, HALF, length - 1).values
            weights = [math.comb(m, t) * sum(uk * row[t] for uk, row in zip(u, values)) ** 2
                       for t in range(m + 1)]
            want = sum(t * w for t, w in enumerate(weights)) / sum(weights)
            assert tilted_mean(m, u) == want, (m, length)
    with pytest.raises(DomainError, match="degree cutoff 5 outside 0..m=4"):
        tilted_mean(4, [1] * 6)


def test_kkt_value_is_the_tilted_mean_of_its_weights():
    for m in range(2, 15):
        for ell in range(m):
            u, value = kkt_optimum(m, ell)
            assert value == tilted_mean(m, u)
            z = smallest_root(build_family(m, HALF, ell + 1), ell + 1)
            assert abs(value - z) <= Fraction(1, 10**9) * m


@pytest.mark.parametrize("rho", [HALF, Fraction(1, 3), Fraction(5, 7)])
def test_value_table_matches_coefficients(rho):
    for m in (1, 5, 9, 20):
        fam = build_family(m, rho, m)
        assert len(fam.values) == m + 1
        for ell, c in enumerate(fam.coeffs):
            assert fam.values[ell] == tuple(poly_eval(c, x) for x in range(m + 1))


def test_value_table_is_not_built_unless_read():
    # the orthogonality check (m <= 16) runs on the integer rows, not the table
    assert "values" not in vars(build_family.__wrapped__(12, Fraction(3, 10), 12))
    fam = build_family.__wrapped__(40, Fraction(3, 10), 12)
    assert "values" not in vars(fam)
    assert fam.values[12][40] == fam.evaluate(12, 40)
    assert "values" in vars(fam)


def test_evaluate_degree_out_of_range_is_domain_error():
    fam = build_family(6, HALF, 3)
    assert fam.evaluate(3, 1) == closed_form_value(6, HALF, 3, 1)
    for ell in (-1, 4, -4):
        with pytest.raises(DomainError):
            fam.evaluate(ell, 1)


@pytest.mark.parametrize("rho", [HALF, Fraction(1, 3), Fraction(5, 7),
                                 Fraction(10**30 + 1, 2 * 10**30 + 3)])
def test_evaluate_equals_the_coefficients(rho):
    for m in (1, 6, 13):
        fam = build_family(m, rho, m)
        points = [Fraction(k, 2**d) * m for d in (1, 3, 7) for k in range(2**d + 1)]
        points += [Fraction(-3), Fraction(-5, 7), Fraction(m + 1), Fraction(3 * m, 2)]
        for ell in range(m + 1):
            roots = isolate_roots(fam, ell) if ell else []
            for z in points + roots:
                assert fam.evaluate(ell, z) == poly_eval(fam.coeffs[ell], z)


def test_no_src_reader_builds_coefficients(monkeypatch):
    build_family.cache_clear()
    discrepancy._count_rows.cache_clear()

    def built(*args):
        raise AssertionError("coefficients were built")

    monkeypatch.setattr(kravchuk, "_recurrence_coeffs", built)
    m, ell, rho = 14, 4, Fraction(2, 5)
    fam = build_family(m, rho, ell)
    isolate_roots(fam, ell)
    largest_root(fam, ell)
    smallest_root(fam, ell)
    principal_representation(m, rho, ell)  # reads build_family(m, rho, ell)
    discrepancy._count_rows(m, rho)  # reads build_family(m, 1 - rho, m)
    tilted_mean(m, (1, 2, 3))  # reads build_family(m, HALF, m)
    kkt_optimum(12, 4)  # reads build_family(12, HALF, 12)
    char_poly_identity_check(9, 6)  # reads build_family(9, HALF, 9)
    verify.run_suite("kravchuk")
    fams = [fam, build_family(m, 1 - rho, m), build_family(m, HALF, m),
            build_family(12, HALF, 12), build_family(9, HALF, 9)]
    for rho, ladder in FINITE_M_LADDERS.items():
        for m in ladder:
            fams.append(build_family(m, rho, 3 * m // 10))
            largest_root(fams[-1], 3 * m // 10, Fraction(1, 10**9))
            smallest_root(fams[-1], 3 * m // 10, Fraction(1, 10**9))
    assert all("coeffs" not in vars(fam) for fam in fams)


def test_degree_cutoff_validation():
    with pytest.raises(DomainError):
        build_family(4, HALF, 5)
    with pytest.raises(DomainError, match="-1 outside 0..m=5"):
        build_family(5, HALF, -1)
