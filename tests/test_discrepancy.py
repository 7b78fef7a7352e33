import itertools
import json
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from opilab.codes import (
    FieldCtx,
    brute_force_opi,
    make_code,
    make_lists,
    make_rs_code,
    random_lists,
)
from opilab import discrepancy
from opilab.discrepancy import (
    SamplerSpec,
    _beta_sq,
    _lift,
    _pair_tables,
    _window_entries,
    count_rate_report,
    count_sym_diff,
    count_sym_diff_zero_closed,
    discrepancy_by_subsets,
    discrepancy_from_count,
    expected_discrepancy_all,
    expected_discrepancy_exact,
    expected_discrepancy_fourier,
    make_sampler,
    quadratic_form_satisfaction,
    expected_sampled_satisfaction,
    weighted_pair_count,
    weighted_pair_count_brute,
)

from opilab.errors import DomainError
from opilab.kravchuk import HALF, build_family, kkt_optimum, smallest_root
from opilab.quadext import QuadExt, beta_of, r_of, r_sq_of, zero

import mpmath


def rs_instance(p=7, m=6, n=3, seed=1, size=2):
    code = make_rs_code(FieldCtx(p), m, n)
    lists = random_lists(p, m, size, seed)
    return code, lists


def parity_instance(m, seed=0):
    """Exactly balanced instance: the even-weight code over F_2 with
    singleton lists, so the indicator normalization is the raw sign."""
    B = [[1 if i == j else 0 for j in range(m - 1)] for i in range(m - 1)]
    B.append([1] * (m - 1))
    code = make_code(FieldCtx(2), B)
    rng = random.Random(seed)
    lists = make_lists(2, [[rng.randint(0, 1)] for _ in range(m)])
    return code, lists


def normalized_indicator_value(in_set: bool, rho: Fraction) -> QuadExt:
    """r for members, -1/r = -(rho/(1-rho)) r for non-members."""
    rho = Fraction(rho)
    r = r_of(rho)
    return r if in_set else QuadExt.of(0, -rho / (1 - rho), r.r_sq)


def indicator_values(code, lists, x) -> list[QuadExt]:
    """The normalized indicator of each constraint at x, in Q(r)."""
    p = code.p
    res = [sum(code.B[i][j] * x[j] for j in range(code.n)) % p for i in range(code.m)]
    return [
        normalized_indicator_value(res[i] in lists.sets[i], lists.rho)
        for i in range(code.m)
    ]


def test_indicator_values_balanced():
    v_in = normalized_indicator_value(True, HALF)
    v_out = normalized_indicator_value(False, HALF)
    assert v_in.to_float() == 1.0 and v_out.to_float() == -1.0


def test_indicator_square_identity():
    for rho in (Fraction(2, 5), Fraction(3, 7), Fraction(1, 11)):
        beta = beta_of(rho)
        for flag in (True, False):
            g = normalized_indicator_value(flag, rho)
            assert g * g == 1 + beta * g


def test_indicator_moments_exact():
    rho = Fraction(2, 5)
    assert r_sq_of(rho) == Fraction(3, 2)
    g_in = normalized_indicator_value(True, rho)
    g_out = normalized_indicator_value(False, rho)
    assert (rho * g_in + (1 - rho) * g_out).is_zero()
    assert rho * g_in**2 + (1 - rho) * g_out**2 == QuadExt.of(1, 0, Fraction(3, 2))


def test_q0_is_one():
    code, lists = rs_instance()
    for x in ((0, 0, 0), (1, 2, 3), (6, 6, 6)):
        assert discrepancy_by_subsets(code, lists, x, 0) == QuadExt.of(1, 0, r_sq_of(lists.rho))


def test_q1_gives_satisfaction_exactly():
    code, lists = rs_instance(seed=3)
    rho = lists.rho
    for x in ((0, 0, 0), (1, 2, 3), (4, 0, 6), (2, 5, 1)):
        q1 = discrepancy_by_subsets(code, lists, x, 1)
        sat = sum(
            1
            for i in range(code.m)
            if sum(code.B[i][j] * x[j] for j in range(code.n)) % code.p in lists.sets[i]
        )
        lhs = rho + rho * r_of(rho) * q1 * Fraction(1, code.m)
        assert lhs == QuadExt.of(Fraction(sat, code.m), 0, q1.r_sq)


def elementary_symmetric_newton(values, k):
    """e_k via Newton's identities from power sums: a route to q_k
    independent of the subset sum and of the satisfied-count collapse."""
    if not values:
        raise DomainError("need at least one value")
    r_sq = values[0].r_sq
    power = [QuadExt.of(len(values), 0, r_sq)]
    for j in range(1, k + 1):
        power.append(sum((v**j for v in values), QuadExt.of(0, 0, r_sq)))
    e = [QuadExt.of(1, 0, r_sq)]
    for j in range(1, k + 1):
        acc = QuadExt.of(0, 0, r_sq)
        for i in range(1, j + 1):
            term = e[j - i] * power[i]
            acc = acc + (term if i % 2 == 1 else -term)
        e.append(acc * Fraction(1, j))
    return e[k]


def test_qk_three_routes_agree():
    code, lists = rs_instance(seed=7)
    x = (1, 2, 3)
    g = indicator_values(code, lists, x)
    sat = sum(
        1
        for i in range(code.m)
        if sum(code.B[i][j] * x[j] for j in range(code.n)) % code.p in lists.sets[i]
    )
    for k in range(code.m + 1):
        direct = discrepancy_by_subsets(code, lists, x, k)
        newton = elementary_symmetric_newton(g, k)
        collapsed = discrepancy_from_count(code.m, lists.rho, sat, k)
        assert direct == newton == collapsed


def quadext_subset_sum(code, lists, x, k):
    """The Q(r)-product route to q_k(x): one product of indicator values in
    Q(r) per k-subset."""
    total = zero(lists.rho)
    g = indicator_values(code, lists, x)
    for subset in itertools.combinations(range(code.m), k):
        prod = QuadExt.of(1, 0, total.r_sq)
        for i in subset:
            prod = prod * g[i]
        total = total + prod
    return total


# (instance, rho): 1/5 has r^2 = 4, a rational square
integer_route_instances = pytest.mark.parametrize("instance, rho", [
    (lambda: parity_instance(9, seed=5), HALF),
    (lambda: rs_instance(p=5, m=5, n=2, seed=2, size=1), Fraction(1, 5)),
    (lambda: rs_instance(p=7, m=7, n=3, seed=3, size=3), Fraction(3, 7)),
    (lambda: rs_instance(p=13, m=8, n=3, seed=4, size=4), Fraction(4, 13)),
], ids=["1/2", "1/5", "3/7", "4/13"])


@integer_route_instances
def test_integer_subset_sums_match_the_quadext_products(instance, rho):
    code, lists = instance()
    assert lists.rho == rho
    rng = random.Random(code.p)
    xs = [tuple(rng.randrange(code.p) for _ in range(code.n)) for _ in range(8)]
    for x in xs:
        for k in range(code.m + 2):
            want = quadext_subset_sum(code, lists, x, k)
            assert same_components(discrepancy_by_subsets(code, lists, x, k), want), (x, k)


def family_count_table(m, rho):
    """q[k][s] = r^k K_k(m - s) from the Fraction value table of the family
    at 1 - rho, each entry a Q(r) product."""
    r = r_of(rho)
    values = build_family(m, 1 - rho, m).values
    return tuple(tuple(_lift(r.r_sq ** (k // 2) * v, k % 2, r) for v in reversed(row))
                 for k, row in enumerate(values))


def lcm_expected_discrepancy(m, rho, profile):
    """E[q_k] from `family_count_table`: per k, the Fractions over the
    histogram summed on integers over the lcm of their denominators."""
    r = r_of(rho)
    bins = [(s, cnt) for s, cnt in enumerate(profile.histogram) if cnt]
    out = []
    for k, row in enumerate(family_count_table(m, rho)):
        vals = [(row[s].b if k % 2 else row[s].a, cnt) for s, cnt in bins]
        d = math.lcm(*(v.denominator for v, _ in vals))
        num = sum(v.numerator * (d // v.denominator) * cnt for v, cnt in vals)
        out.append(_lift(Fraction(num, d * profile.total), k % 2, r))
    return out


@pytest.mark.parametrize("rho", [HALF, Fraction(1, 5), Fraction(3, 7), Fraction(4, 13),
                                 Fraction(7, 9)])
def test_count_rows_match_the_family_value_table(rho):
    # the collapse reads m, rho and the histogram only, so seeded histograms
    # over lists of density rho stand in for instances
    for m in range(1, 13):
        assert all(same_components(discrepancy_from_count(m, rho, s, k), want)
                   for k, row in enumerate(family_count_table(m, rho))
                   for s, want in enumerate(row)), m
        code = SimpleNamespace(m=m)
        lists = make_lists(rho.denominator, [range(rho.numerator)] * m)
        rng = random.Random(m)
        for _ in range(4):
            hist = [rng.choice([0, rng.randint(1, 10**6)]) for _ in range(m + 1)]
            hist[rng.randrange(m + 1)] += 1
            profile = SimpleNamespace(histogram=tuple(hist), total=sum(hist))
            got = expected_discrepancy_exact(code, lists, profile)
            want = lcm_expected_discrepancy(m, rho, profile)
            assert len(got) == len(want) == m + 1
            assert all(same_components(g, w) for g, w in zip(got, want)), (m, hist)


def closed_form_sum(m, rho, sat, k):
    """The binomial-sum route to q_k / r^k at satisfied count `sat`:
    sum_a C(sat,a) C(m-sat,k-a) (-rho/(1-rho))^(k-a); zero for k > m."""
    c = -rho / (1 - rho)
    val = Fraction(0)
    for a in range(max(0, k - (m - sat)), min(sat, k) + 1):
        val += math.comb(sat, a) * math.comb(m - sat, k - a) * c ** (k - a)
    return val


def test_count_table_matches_closed_form():
    for p in (5, 7, 11, 13):
        for size in range(1, p):
            rho = Fraction(size, p)
            r_pow = [r_of(rho) ** k for k in range(15)]
            for m in range(1, 13):
                for s in range(m + 1):
                    for k in range(m + 3):
                        want = r_pow[k] * closed_form_sum(m, rho, s, k)
                        got = discrepancy_from_count(m, rho, s, k)
                        assert got == want and repr(got) == repr(want), (m, rho, s, k)


def test_count_outside_zero_to_m_is_domain_error():
    with pytest.raises(DomainError):
        discrepancy_from_count(4, HALF, 5, 1)
    with pytest.raises(DomainError):
        discrepancy_from_count(4, HALF, -1, 1)


def test_expected_discrepancy_structure():
    code, lists = rs_instance(seed=5)
    eq = expected_discrepancy_all(code, lists)
    assert eq[0] == QuadExt.of(1, 0, r_sq_of(lists.rho))
    for t in range(1, code.d_perp):
        assert eq[t].is_zero()
    # generally nonzero at the dual distance; both routes agreed inside
    fourier = expected_discrepancy_fourier(code, lists)
    assert fourier == eq and not eq[code.d_perp].is_zero()


def test_count_sym_diff_basics():
    m = 8
    for k in (0, 1, 2, 3):
        assert count_sym_diff([k, k], 0, m) == math.comb(m, k)
    assert count_sym_diff([2, 3], 0, m) == 0  # odd total
    assert count_sym_diff_zero_closed([2, 3], m) == 0
    assert count_sym_diff([3, 2], 7, m) == 0  # t > k + k'
    assert count_sym_diff([2, 2], 3, m) == 0  # parity mismatch


def balanced_kravchuk_sum(m, k, t):
    """sum_j (-1)^j C(t,j) C(m-t,k-j), the balanced family's closed form."""
    def comb0(n, j):
        return math.comb(n, j) if 0 <= j <= n else 0
    return sum((-1) ** j * comb0(t, j) * comb0(m - t, k - j) for j in range(k + 1))


def test_count_closed_form_matches_kravchuk_sum():
    for m in (1, 4, 7, 10):
        for ks in ([0, 0], [1, 1], [2, 2, 2], [1, 3, 4], [m, m], [m + 1, 1], [m + 2, 2]):
            want = Fraction(0)
            for t in range(m + 1):
                prod = Fraction(math.comb(m, t))
                for k in ks:
                    prod *= balanced_kravchuk_sum(m, k, t)
                want += prod
            want /= 2**m
            assert count_sym_diff_zero_closed(ks, m) == want, (m, ks)


def test_count_closed_form_matches_enumeration():
    m = 8
    for ks in ([2, 2], [1, 3], [2, 3, 3], [1, 1, 2], [2, 2, 2]):
        assert count_sym_diff(ks, 0, m) == count_sym_diff_zero_closed(ks, m)


def test_count_triple_brute_value():
    # frozen from the subset enumeration itself (regression guard)
    val = count_sym_diff([2, 3, 3], 2, 8)
    assert val == count_sym_diff([3, 3, 2], 2, 8)
    assert val > 0


def test_weighted_pair_count_reduces_to_plain():
    m = 8
    for k, kp, t in ((2, 2, 0), (2, 2, 2), (3, 2, 3), (3, 3, 4)):
        w = weighted_pair_count(k, kp, t, m, HALF)
        assert w.b == 0
        assert w.a == count_sym_diff([k, kp], t, m)


def beta_power_pair_count(k, kp, t, m, beta):
    """The beta-power route to N(k,k';t): the sum over every j with beta^j
    accumulated in Q(r), one product per j."""
    acc = QuadExt.of(0, 0, beta.r_sq)
    if k < 0 or kp < 0 or t < 0 or t > m:
        return acc
    beta_pow = QuadExt.of(1, 0, beta.r_sq)
    for j in range(t + 1):
        mid, outer = t + k - kp - j, k + kp - t - j
        if mid >= 0 and outer >= 0 and mid % 2 == 0 and outer % 2 == 0:
            c = math.comb(t, j) * math.comb(t - j, mid // 2) * math.comb(m - t, outer // 2)
            acc = acc + beta_pow * Fraction(c)
        beta_pow = beta_pow * beta
    return acc


def beta_power_triple_count(k, m, beta, pair):
    """(k+1) N(k+1,k';s) + beta k N(k,k';s) + (m-k+1) N(k-1,k';s) in Q(r),
    from pair(j) = N(j,k';s)."""
    return pair(k + 1) * Fraction(k + 1) + beta * pair(k) * Fraction(k) + pair(k - 1) * Fraction(
        m - k + 1)


def same_components(got, want):
    return got.a == want.a and got.b == want.b and repr(got) == repr(want)


def window_triples(m, rho, window, t):
    """The triple counts of `_window_entries` at weight t, each lifted to
    beta^parity Q / b^(t//2+1) in Q(r) and keyed by (k, k')."""
    beta = beta_of(rho)
    a, b = _beta_sq(beta)
    keys = [(k, kp) for k in window for kp in window]
    return {key: _lift(Fraction(num, b ** (t // 2 + 1)), parity, beta)
            for key, (parity, num) in zip(keys, _window_entries(m, a, b, window, t)[1])}


@pytest.mark.parametrize("rho", [HALF, Fraction(1, 3), Fraction(2, 5), Fraction(5, 7),
                                 Fraction(3, 11)])
def test_pair_count_kernel_matches_beta_power_route(rho):
    beta = beta_of(rho)
    for m in range(1, 10):
        keys = [(k, kp, t) for k in range(-1, m + 2) for kp in range(-1, m + 1)
                for t in range(m + 1)]
        want = {key: beta_power_pair_count(*key, m, beta) for key in keys}
        for k, kp, t in keys:
            key = (m, k, kp, t)
            assert same_components(weighted_pair_count(k, kp, t, m, rho), want[k, kp, t]), key
        # a window never leaves [0, m), so the whole of it covers every triple
        for t in range(m + 1):
            for (k, kp), got in window_triples(m, rho, range(m), t).items():
                triple = beta_power_triple_count(k, m, beta, lambda j: want[j, kp, t])
                assert same_components(got, triple), (m, k, kp, t)


def test_weighted_pair_count_vanishes_above_support():
    assert weighted_pair_count(2, 2, 5, 8, Fraction(3, 8)).is_zero()
    assert weighted_pair_count(1, 2, 0, 8, Fraction(3, 8)).is_zero()  # parity


def test_weighted_pair_count_against_enumeration():
    m = 8
    rho = Fraction(3, 8)
    for k, kp, t in ((3, 3, 4), (2, 3, 3), (2, 2, 2), (3, 2, 5)):
        assert weighted_pair_count(k, kp, t, m, rho) == weighted_pair_count_brute(
            k, kp, t, m, rho
        )


def test_triple_count_balanced_middle_drops():
    m = 8
    t = window_triples(m, HALF, range(2, 4), 3)[2, 3]
    want = 3 * weighted_pair_count(3, 3, 3, m, HALF) + 7 * weighted_pair_count(1, 3, 3, m, HALF)
    assert t == want


def test_triple_count_k_zero_convention():
    m, rho = 7, Fraction(2, 7)
    t = window_triples(m, rho, range(0, 3), 1)[0, 2]
    assert t == weighted_pair_count(1, 2, 1, m, rho)


def test_pointwise_triple_recursion():
    code, lists = rs_instance(seed=11)
    m, rho = code.m, lists.rho
    beta = beta_of(rho)
    rng = random.Random(0)
    xs = [tuple(rng.randrange(code.p) for _ in range(code.n)) for _ in range(12)]
    for x in xs:
        q = [discrepancy_by_subsets(code, lists, x, k) for k in range(m + 1)]
        for k in range(1, m):
            lhs = q[1] * q[k]
            rhs = q[k + 1] * Fraction(k + 1) + q[k - 1] * Fraction(m - k + 1) + beta * q[k] * Fraction(k)
            assert lhs == rhs


def test_pair_product_expansion_exact():
    # E[q_k q_k'] = sum_t N(k,k';t) E[q_t], exactly in Q(r)
    code, lists = rs_instance(seed=13)
    m, rho = code.m, lists.rho
    prof = brute_force_opi(code, lists)
    eq = expected_discrepancy_exact(code, lists, prof)
    scale = Fraction(1, prof.total)
    for k, kp in ((1, 1), (2, 2), (2, 3), (3, 3), (1, 4)):
        lhs = zero(rho)
        for s, cnt in enumerate(prof.histogram):
            if cnt:
                lhs = lhs + discrepancy_from_count(m, rho, s, k) * discrepancy_from_count(
                    m, rho, s, kp
                ) * Fraction(cnt)
        lhs = lhs * scale
        rhs = sum(
            (weighted_pair_count(k, kp, t, m, rho) * eq[t] for t in range(m + 1)),
            zero(rho),
        )
        assert lhs == rhs


@integer_route_instances
def test_checked_pair_sums_lift_to_the_quadext_histogram_sums(instance, rho):
    # the direct route's integers, lifted to Q(r), against the Q(r) sums
    # sum_s h_s q_k(s) q_k'(s) and sum_s h_s s q_k(s) q_k'(s), whose
    # factors are the collapse's q_k lifted one by one
    code, lists = instance()
    m, r, prof = code.m, r_of(rho), brute_force_opi(code, lists)
    window = range(min(m, 4))
    keys, direct_d, direct_m, den, r_sq = discrepancy._checked_pair_sums(code, lists, window, prof)
    assert keys == [(k, kp) for k in window for kp in window] and r_sq == r.r_sq
    for (k, kp), d, dm in zip(keys, direct_d, direct_m):
        terms = [(s, cnt, discrepancy_from_count(m, rho, s, k) * discrepancy_from_count(
            m, rho, s, kp)) for s, cnt in enumerate(prof.histogram) if cnt]
        want_d = sum((qq * cnt for _, cnt, qq in terms), zero(rho))
        want_m = sum((qq * (s * cnt) for s, cnt, qq in terms), zero(rho))
        for got, want in ((d, want_d), (dm, want_m)):
            assert same_components(_lift(Fraction(got, den), (k + kp) % 2, r), want), (k, kp)


def test_below_cutoff_orthogonality():
    code, lists = rs_instance(seed=17)
    m, rho = code.m, lists.rho
    prof = brute_force_opi(code, lists)
    scale = Fraction(1, prof.total)
    for k in range(2):
        for kp in range(2):
            if k + kp >= code.d_perp:
                continue
            acc = zero(rho)
            for s, cnt in enumerate(prof.histogram):
                if cnt:
                    acc = acc + discrepancy_from_count(m, rho, s, k) * discrepancy_from_count(
                        m, rho, s, kp
                    ) * Fraction(cnt)
            acc = acc * scale
            want = QuadExt.of(math.comb(m, k) if k == kp else 0, 0, acc.r_sq)
            assert acc == want


def test_triple_product_expectation_identity():
    # E[q_1 q_2 q_2] = sum_s N(2,2,1;s) E[q_s], exactly
    code, lists = rs_instance(seed=19)
    m, rho = code.m, lists.rho
    prof = brute_force_opi(code, lists)
    eq = expected_discrepancy_exact(code, lists, prof)
    lhs = zero(rho)
    for s, cnt in enumerate(prof.histogram):
        if cnt:
            q1 = discrepancy_from_count(m, rho, s, 1)
            q2 = discrepancy_from_count(m, rho, s, 2)
            lhs = lhs + q1 * q2 * q2 * Fraction(cnt)
    lhs = lhs * Fraction(1, prof.total)
    rhs = sum(
        (window_triples(m, rho, range(2, 3), s)[2, 2] * eq[s] for s in range(m + 1)),
        zero(rho),
    )
    assert lhs == rhs


def test_balanced_multiset_product_identity():
    # E[prod q_{k_i}] = sum_t N(k_1..k_r;t) E[q_t] for sign-valued lists
    code, lists = parity_instance(9, seed=2)
    m, rho = code.m, lists.rho
    prof = brute_force_opi(code, lists)
    eq = expected_discrepancy_exact(code, lists, prof)
    for ks in ([1, 1], [2, 2], [1, 2, 3], [2, 2, 2], [1, 1, 4]):
        lhs = zero(rho)
        for s, cnt in enumerate(prof.histogram):
            if cnt:
                prod = QuadExt.of(Fraction(cnt), 0, lhs.r_sq)
                for k in ks:
                    prod = prod * discrepancy_from_count(m, rho, s, k)
                lhs = lhs + prod
        lhs = lhs * Fraction(1, prof.total)
        rhs = zero(rho)
        for t in range(m + 1):
            c = count_sym_diff(ks, t, m)
            if c:
                rhs = rhs + eq[t] * Fraction(c)
        assert lhs == rhs


def test_sampled_satisfaction_exact_below_cutoff():
    # window strictly below half the dual distance: no correction terms
    code, lists = parity_instance(9, seed=4)
    spec = make_sampler(3, 2, weight_mode="rational_test")
    out = expected_sampled_satisfaction(code, lists, spec)
    assert out["max_rel_residual"] == 0.0
    u_full = [Fraction(0), Fraction(1), Fraction(1), Fraction(1)]
    form = quadratic_form_satisfaction(code.m, 3, u_full)
    num, den = out["exact_pair"]
    # num/den = form, cross multiplied; real-valued comparison since the
    # balanced field has r_sq = 1
    assert num.real_equals(den * form)


def test_sampled_satisfaction_exact_with_corrections():
    # window past half the dual distance on a biased instance
    code, lists = rs_instance(seed=23)
    spec = make_sampler(3, 1, weight_mode="rational_test",
                        rational_weights=(Fraction(2), Fraction(1)))
    out = expected_sampled_satisfaction(code, lists, spec)
    assert out["max_rel_residual"] == 0.0
    assert 0.0 < out["value"] < 1.0


def test_sampled_satisfaction_canonical_mode():
    code, lists = rs_instance(seed=29)
    spec = make_sampler(2, 1, weight_mode="canonical")
    out = expected_sampled_satisfaction(code, lists, spec)
    assert out["max_rel_residual"] < 1e-9


def test_canonical_mode_rejects_too_few_digits():
    code, lists = rs_instance(seed=29)
    canonical = make_sampler(2, 1, weight_mode="canonical")
    with pytest.raises(DomainError, match="at least 10 digits, got 9"):
        expected_sampled_satisfaction(code, lists, canonical, precision_digits=9)
    # the rational mode runs in Q(r) and never reads the digits
    rational = make_sampler(2, 1, weight_mode="rational_test")
    out = expected_sampled_satisfaction(code, lists, rational, precision_digits=0)
    assert out["max_rel_residual"] == 0.0


def test_canonical_mode_matches_tridiagonal_form():
    # below half the dual distance on balanced lists, E[s] is
    # 1/2 + <w, A w> / (2m <w, w>) with unit window weights w
    code, lists = parity_instance(11, seed=6)
    m, ell, sigma = code.m, 4, 2
    spec = make_sampler(ell, sigma, weight_mode="canonical")
    out = expected_sampled_satisfaction(code, lists, spec)
    cross = sum(2 * math.sqrt(k * (m + 1 - k)) for k in range(ell - sigma + 1, ell + 1))
    want = 0.5 + cross / (2 * m * (sigma + 1))
    assert out["value"] == pytest.approx(want, abs=1e-12)


def test_count_rate_second_window():
    rep = count_rate_report(400, 0.35, 0.10)
    assert rep["argmax_at_floor"]
    assert abs(rep["max_rate"] - rep["limit_exponent"]) < 0.02


def test_benchmark_identity_on_balanced_instance():
    # optimal window weights reproduce 1 - (smallest root)/m
    for m in (6, 8, 10):
        code, lists = parity_instance(m, seed=m)
        ell = m // 2 - 1
        u, _ = kkt_optimum(m, ell)
        spec = make_sampler(ell, ell, weight_mode="rational_test", rational_weights=u)
        out = expected_sampled_satisfaction(code, lists, spec)
        fam = build_family(m, HALF, ell + 1)
        z = smallest_root(fam, ell + 1)
        assert abs(out["value"] - (1 - float(z) / m)) < 1e-6


def test_count_rate_report():
    rep = count_rate_report(400, 0.35, 0.05)
    assert rep["argmax_at_floor"]
    assert rep["within_slack"]
    assert abs(rep["max_rate"] - rep["limit_exponent"]) < 0.02


def test_count_rate_identity_small():
    rep = count_rate_report(40, 0.3, 0.1)
    assert rep["argmax_at_floor"]


def _window_counts(m, rho, window, t_hi):
    """Reference route to the window tables: N(k,k';t) for k in the window
    widened by one on each side, k' in the window and t <= t_hi, and the
    triple counts of the window pairs, each in Q(r) by the beta-power
    route and keyed by (k, k', t)."""
    beta = beta_of(rho)
    ts = range(t_hi + 1)
    pairs = {(k, kp, t): beta_power_pair_count(k, kp, t, m, beta)
             for k in range(window[0] - 1, window[-1] + 2) for kp in window for t in ts}
    triples = {(k, kp, t): beta_power_triple_count(k, m, beta, lambda j: pairs[j, kp, t])
               for k in window for kp in window for t in ts}
    return pairs, triples


def reference_window_sums(m, rho, spec, precision_digits, counts=None):
    """The window sums as Q(r) and mpmath sums over `_window_counts`,
    term by term in (k, k') order."""
    t_hi = min(m, 2 * spec.ell + 1)
    pairs, triples = counts or _window_counts(m, rho, spec.window, t_hi)
    q = family_count_table(m, rho)
    with mpmath.workdps(precision_digits):
        if spec.weight_mode == "rational_test":
            u = dict(zip(spec.window, spec.rational_weights))
            zero_v, conv = zero(rho), lambda qe: qe
        else:
            u = {k: 1 / mpmath.sqrt(mpmath.binomial(m, k)) for k in spec.window}
            rho_f = mpmath.mpf(rho.numerator) / rho.denominator
            r_f = mpmath.sqrt((1 - rho_f) / rho_f)
            # a + b r with r as an mpmath float
            zero_v, conv = mpmath.mpf(0), lambda qe: (
                mpmath.mpf(qe.a.numerator) / qe.a.denominator
                + mpmath.mpf(qe.b.numerator) / qe.b.denominator * r_f)

        def window_sum(table, t):
            return sum((conv(table[k, kp, t]) * (u[k] * u[kp])
                        for k in spec.window for kp in spec.window), zero_v)

        wsq = tuple(sum((conv(q[k][s]) * u[k] for k in spec.window), zero_v) ** 2
                    for s in range(m + 1))
        ts = range(t_hi + 1)
        return (wsq, tuple(window_sum(pairs, t) for t in ts),
                tuple(window_sum(triples, t) for t in ts))


@pytest.mark.parametrize("m, rho, window, t_hi", [
    (6, HALF, range(0, 3), 5),            # window at 0: the k - 1 = -1 edge, beta = 0
    (7, Fraction(3, 8), range(0, 2), 3),  # biased, window at 0
    (8, Fraction(3, 8), range(2, 5), 8),  # biased, window top at m - 4, t up to m
    (9, Fraction(2, 7), range(6, 9), 9),  # window top at m - 1: k + 1 = m
])
def test_window_counts_match_single_point_counts(m, rho, window, t_hi):
    pairs, triples = _window_counts(m, rho, window, t_hi)
    widened = range(window[0] - 1, window[-1] + 2)
    assert set(pairs) == {(k, kp, t) for k in widened for kp in window for t in range(t_hi + 1)}
    assert set(triples) == {(k, kp, t) for k in window for kp in window
                            for t in range(t_hi + 1)}
    for (k, kp, t), val in pairs.items():
        assert same_components(val, weighted_pair_count(k, kp, t, m, rho))
    for t in range(t_hi + 1):
        for (k, kp), got in window_triples(m, rho, window, t).items():
            assert same_components(triples[k, kp, t], got)


def _criterion_7_window_keys():
    """(m, rho, ell) of every sampler criterion 7 and the desk_exact
    benchmark build, both windows of each shape and every list size, each
    mapped to the first (p, n) of the grid that builds it."""
    keys = {}
    for p in (5, 7, 11):
        for m in range(2, min(p, 8) + 1):
            for n in range(1, m):
                if p**n <= 20000 and p ** (m - n) <= 20000:
                    for size in range(1, p):
                        for ell in (min(m - 1, (n + 1) // 2 + 1), min(m - 1, (n + 1) // 2)):
                            keys.setdefault((m, Fraction(size, p), ell), (p, n))
    return dict(sorted(keys.items()))


def reference_sampled_satisfaction(code, lists, spec, profile, digits=60, counts=None):
    """The sampler's result by the reference route: the direct sums
    num = sum_s h_s (s/m) wsq[s] and den = sum_s h_s wsq[s] over
    `reference_window_sums`, term by term in s.  In rational_test mode
    (num, den) in Q(r), after checking exactly that the expansion through
    the reference window sums agrees; in canonical mode the float of
    num / den at `digits`."""
    m, rho = code.m, lists.rho
    wsq, t0s, t1s = reference_window_sums(m, rho, spec, digits, counts)
    rational = spec.weight_mode == "rational_test"
    with mpmath.workdps(digits):
        num = den = zero(rho) if rational else mpmath.mpf(0)
        for s, cnt in enumerate(profile.histogram):
            if cnt:
                term = wsq[s] * cnt
                num += term * Fraction(s, m)
                den += term
        if not rational:
            return float(num / den)
    eq = expected_discrepancy_exact(code, lists, profile)
    exp_den = sum((q * t0 for q, t0 in zip(eq, t0s)), zero(rho)) * profile.total
    exp_t1 = sum((q * t1 for q, t1 in zip(eq, t1s)), zero(rho)) * profile.total
    exp_num = rho * exp_den + rho * r_of(rho) * exp_t1 * Fraction(1, m)
    assert num.real_equals(exp_num) and den.real_equals(exp_den)
    return num, den


def _assert_sampler_matches_reference(code, lists, specs, profile, digits=60):
    """The sampler's exact pair (component by component) and canonical
    value (by repr) equal the reference route's, and a sampler the
    reference gives zero mass is a DomainError."""
    t_hi = max(min(code.m, 2 * spec.ell + 1) for spec in specs)
    counts = _window_counts(code.m, lists.rho, specs[0].window, t_hi)
    for spec in specs:
        assert spec.window == specs[0].window
        want = reference_sampled_satisfaction(code, lists, spec, profile, digits, counts)
        if spec.weight_mode == "rational_test" and want[1].real_is_zero():
            with pytest.raises(DomainError, match="zero sampler mass"):
                expected_sampled_satisfaction(code, lists, spec, profile, digits)
            continue
        got = expected_sampled_satisfaction(code, lists, spec, profile, digits)
        assert got["max_rel_residual"] == 0.0
        if spec.weight_mode == "rational_test":
            assert all(same_components(g, w) for g, w in zip(got["exact_pair"], want)), spec
        else:
            assert repr(got["value"]) == repr(want), spec


def test_window_sums_match_reference_on_criterion_7_keys():
    for (m, rho, ell), (p, n) in _criterion_7_window_keys().items():
        code = make_rs_code(FieldCtx(p), m, n)
        lists = random_lists(p, m, rho.numerator, m * 100 + ell)
        _assert_sampler_matches_reference(code, lists, [
            make_sampler(ell, weight_mode="rational_test"),
            make_sampler(ell, weight_mode="canonical")], brute_force_opi(code, lists))


@pytest.mark.parametrize("m, rho, ell, sigma", [
    (6, HALF, 2, 2),               # beta = 0, window at 0: k - 1 = -1
    (7, Fraction(3, 8), 1, 1),     # window at 0, biased
    (8, Fraction(5, 7), 3, 0),     # sigma = 0, beta < 0
    (9, Fraction(2, 7), 8, 2),     # ell = m - 1: k + 1 = m and t_hi = m
    (5, HALF, 4, 0),               # ell = m - 1 at beta = 0
    (12, Fraction(4, 11), 6, 2),
])
def test_window_sums_match_reference_on_edge_keys(m, rho, ell, sigma):
    # the sampler reads an instance only through m, rho and the histogram,
    # and each pair's identity holds pointwise in s, so a drawn histogram
    # over lists of density rho stands in for a code of length m
    rng = random.Random(m * 100 + ell)
    code = SimpleNamespace(m=m)
    lists = make_lists(rho.denominator, [range(rho.numerator)] * m)
    hist = [rng.choice([0, rng.randint(1, 50)]) for _ in range(m + 1)]
    hist[rng.randrange(m + 1)] += 1
    profile = SimpleNamespace(histogram=tuple(hist), total=sum(hist))
    weights = [tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(sigma + 1))
               for _ in range(3)]
    weights.append((Fraction(0),) * (sigma + 1))
    weights.append((Fraction(-3, 4),) + (Fraction(0),) * sigma)
    specs = [make_sampler(ell, sigma, weight_mode="rational_test", rational_weights=w)
             for w in weights]
    specs.append(make_sampler(ell, sigma, weight_mode="canonical"))
    _assert_sampler_matches_reference(code, lists, specs, profile)
    _assert_sampler_matches_reference(
        code, lists, [make_sampler(ell, sigma, weight_mode="canonical")], profile, 25)


def family_pair_tables(m, rho, window):
    """`_pair_tables` with its direct rows built from the Q(r) entries of
    `family_count_table`, the window's columns over the lcm of their
    values' denominators."""
    q = family_count_table(m, rho)
    cols = [[v.b if k % 2 else v.a for v in q[k]] for k in window]
    d = math.lcm(*(v.denominator for col in cols for v in col))
    cols = [[v.numerator * (d // v.denominator) for v in col] for col in cols]
    r_sq = r_sq_of(rho)
    rows = tuple(tuple(x * y * (r_sq.numerator if k % 2 and kp % 2 else r_sq.denominator)
                       for x, y in zip(ck, ckp))
                 for k, ck in zip(window, cols) for kp, ckp in zip(window, cols))
    a, b = _beta_sq(beta_of(rho))
    entries = tuple(_window_entries(m, a, b, window, t)
                    for t in range(min(m, 2 * window[-1] + 1) + 1))
    return rows, d * d * r_sq.denominator, entries


def test_pair_tables_match_the_family_column_build(monkeypatch):
    # every criterion 7 window, then the sampler on one instance per key:
    # the exact pair and the canonical value are the same with either table
    for m, rho, ell in _criterion_7_window_keys():
        window = make_sampler(ell).window
        assert _pair_tables(m, rho, window) == family_pair_tables(m, rho, window), (m, rho, window)
    runs = [(rs_instance(p=7, m=6, n=3, seed=23, size=2), 2),
            (rs_instance(p=11, m=8, n=5, seed=3, size=4), 4)]

    def sampled():
        return [expected_sampled_satisfaction(code, lists, make_sampler(ell, weight_mode=mode))
                for (code, lists), ell in runs for mode in ("rational_test", "canonical")]

    got = sampled()
    monkeypatch.setattr(discrepancy, "_pair_tables", family_pair_tables)
    for g, w in zip(got, sampled()):
        assert repr(g["value"]) == repr(w["value"]) and g["mode"] == w["mode"]
        if g["mode"] == "rational_test":
            assert all(same_components(a, b) for a, b in zip(g["exact_pair"], w["exact_pair"]))


@pytest.mark.parametrize("digits", [10, 25, 60])
def test_canonical_weights_are_the_mpmath_binomial_roots(digits):
    # C(m, k) is exact in mpmath at these digits below m = 40, so the integer
    # binomial and mpmath's give the same square root
    with mpmath.workdps(digits):
        for m in range(1, 40):
            for k in range(m + 1):
                if math.comb(m, k) < 10**digits:
                    assert mpmath.sqrt(math.comb(m, k)) == mpmath.sqrt(mpmath.binomial(m, k))


@pytest.mark.parametrize("m, rho", [
    (12, Fraction(1, 3)), (9, HALF), (10, Fraction(2, 5)), (8, Fraction(5, 7)),
    (7, Fraction(2, 9)), (60, Fraction(7, 9)),
])
def test_window_entries_weight_zero_identities(m, rho):
    # at weight 0 only N(k,k;0) = C(m,k) survives, so the triple counts are
    # the tridiagonal leading term: beta k C(m,k) on the diagonal and the
    # neighbours' (k+1) C(m,k+1), (m-k+1) C(m,k-1), for every window of
    # width up to 5
    a, b = _beta_sq(beta_of(rho))
    for width in range(1, 6):
        for lo in range(m - width + 1):
            window = range(lo, lo + width)
            pairs, triples = _window_entries(m, a, b, window, 0)
            keys = [(k, kp) for k in window for kp in window]
            for (k, kp), pair, triple in zip(keys, pairs, triples):
                assert pair == ((k - kp) % 2, math.comb(m, k) if k == kp else 0), (k, kp)
                want = (b * k * math.comb(m, k) if kp == k else
                        b * (k + 1) * math.comb(m, k + 1) if kp == k + 1 else
                        b * (m - k + 1) * math.comb(m, k - 1) if kp == k - 1 else 0)
                assert triple == ((k + 1 - kp) % 2, want), (k, kp)


@pytest.mark.parametrize("mode", ["rational_test", "canonical"])
@pytest.mark.parametrize("ell, sigma", [(3, 2), (4, 4), (2, 0)])
def test_sampled_satisfaction_computes_each_pair_count_once(monkeypatch, mode, ell, sigma):
    calls = []
    original = discrepancy._pair_numerator

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(discrepancy, "_pair_numerator", counting)
    _pair_tables.cache_clear()
    code, lists = rs_instance(p=11, m=8, n=5, seed=3, size=4)
    spec = make_sampler(ell, sigma, weight_mode=mode)
    first = expected_sampled_satisfaction(code, lists, spec)
    width, t_hi = sigma + 1, min(code.m, 2 * ell + 1)
    assert len(calls) <= (width + 2) * width * (t_hi + 1)
    assert len(set(calls)) == len(calls)
    window = spec.window
    assert {c[:3] for c in calls} == {
        (k, kp, t) for k in range(window[0] - 1, window[-1] + 2) for kp in window
        for t in range(t_hi + 1)}
    # the same spec again reads the cached tables
    calls.clear()
    again = expected_sampled_satisfaction(code, lists, spec)
    assert calls == []
    assert again == first and repr(again) == repr(first)


@pytest.mark.parametrize("spec, digits", [
    (make_sampler(3, 2, weight_mode="rational_test", rational_weights=(1, 2, 3)), 60),
    (make_sampler(3, 2, weight_mode="canonical"), 40),
])
def test_window_sums_are_cached_tuples(spec, digits):
    # the tables behind the window sums are keyed by (m, rho, window): no
    # weight and no digit count enters them
    code, lists = rs_instance(p=11, m=8, n=5, seed=3, size=4)
    first = _pair_tables(8, Fraction(4, 11), spec.window)
    expected_sampled_satisfaction(code, lists, spec, precision_digits=digits)
    assert _pair_tables(8, Fraction(4, 11), spec.window) is first
    rows, den, entries = first
    assert isinstance(den, int) and den > 0
    assert isinstance(rows, tuple) and all(isinstance(row, tuple) for row in rows)
    assert isinstance(entries, tuple) and all(
        isinstance(part, tuple) and all(isinstance(entry, tuple) for entry in part)
        for counts in entries for part in counts)


def test_sampler_spec_weights_become_a_fraction_tuple():
    # list weights must not make the frozen spec unhashable
    spec = SamplerSpec(3, 1, "rational_test", [2, 1])
    assert spec == make_sampler(3, 1, weight_mode="rational_test",
                                rational_weights=(Fraction(2), Fraction(1)))
    code, lists = rs_instance(seed=23)
    assert expected_sampled_satisfaction(code, lists, spec)["max_rel_residual"] == 0.0


def test_canonical_sampler_with_rational_weights_is_domain_error():
    # the canonical weights are C(m,k)^(-1/2); given weights would go unread
    with pytest.raises(DomainError, match="canonical"):
        make_sampler(2, 1, weight_mode="canonical", rational_weights=(1, 2))
    with pytest.raises(DomainError, match="canonical"):
        SamplerSpec(2, 1, "canonical", ())
    assert make_sampler(2, 1).rational_weights is None


def test_zero_mass_sampler_is_domain_error():
    code = make_rs_code(FieldCtx(7), 6, 3)
    lists = random_lists(7, 6, 3, 1)
    spec = make_sampler(2, 1, weight_mode="rational_test", rational_weights=[0, 0])
    with pytest.raises(DomainError, match="zero sampler mass"):
        expected_sampled_satisfaction(code, lists, spec)


def test_zero_mass_canonical_sampler_is_domain_error(monkeypatch):
    # canonical weights C(m,k)^(-1/2) never vanish, so all-zero tables (on
    # which both routes agree) are substituted to reach the canonical branch
    # of the same check
    code, lists = rs_instance(seed=29)

    def zero_tables(m, rho, window):
        rows, den, entries = _pair_tables(m, rho, window)
        return (tuple((0,) * len(row) for row in rows), den,
                tuple(tuple(tuple((parity, 0) for parity, _ in part) for part in counts)
                      for counts in entries))

    monkeypatch.setattr(discrepancy, "_pair_tables", zero_tables)
    with pytest.raises(DomainError, match="zero sampler mass"):
        expected_sampled_satisfaction(code, lists, make_sampler(2, 1, weight_mode="canonical"))


# Recorded as strings before the two weight modes shared one expansion body;
# the canonical residual is 0.0 since each window pair is compared exactly.
@pytest.mark.parametrize("p, m, n, seed, size, rational, canonical, pinned", [
    (7, 6, 3, 23, 2, (3, 1, (Fraction(2), Fraction(1))), (2, 1), (
        "(6175127/600 + 1023071/375*sqrt(5/2))",
        "(12598733/500 + -132398/125*sqrt(5/2))",
        "0.6124065328610783", "0.0")),
    (11, 8, 5, 3, 4, (4, 2, None), (3, 2), (
        "(29173320369435/2458624 + 4067156376173/614656*sqrt(7/4))",
        "(7661487089157/307328 + 3447296655/76832*sqrt(7/4))",
        "0.7524941281701397", "0.0")),
])
def test_sampled_satisfaction_pinned_strings(p, m, n, seed, size, rational, canonical, pinned):
    code, lists = rs_instance(p, m, n, seed, size)
    exact = expected_sampled_satisfaction(
        code, lists, make_sampler(*rational[:2], weight_mode="rational_test",
                                  rational_weights=rational[2]))
    floats = expected_sampled_satisfaction(
        code, lists, make_sampler(*canonical, weight_mode="canonical"))
    got = (*(repr(v) for v in exact["exact_pair"]), repr(floats["value"]),
           repr(floats["max_rel_residual"]))
    assert got == pinned


def test_window_entries_at_code_length_is_domain_error():
    a, b = _beta_sq(beta_of(Fraction(1, 3)))
    with pytest.raises(DomainError):
        _window_entries(7, a, b, range(5, 8), 0)


def test_sampler_with_a_profile_makes_no_dual_pass(monkeypatch):
    # E[q_t] comes from the exact route on the given profile; the dual-sum
    # check is expected_discrepancy_all's, which callers run themselves
    from opilab import codes

    code, lists = rs_instance()
    prof = brute_force_opi(code, lists)
    passes = []
    original = codes.dual_codewords

    def counting(code, budget=None):
        passes.append(code.m)
        return original(code, budget)

    monkeypatch.setattr(codes, "dual_codewords", counting)
    for mode in ("rational_test", "canonical"):
        expected_sampled_satisfaction(code, lists, make_sampler(2, weight_mode=mode), prof)
    assert passes == []


def test_an_off_by_one_pair_count_is_named_in_both_weight_modes(monkeypatch, capsys):
    # one pair count off by one at (k, k', t) = (1, 2, 0): E[q_0] = 1, so the
    # expansion reads it.  Every pair's D is compared before any M, so the
    # verify row's window, which opens at k = 0 and whose M(0, 2) reads the
    # count through a triple count, names (1, 2) as the sampler's does
    from opilab.cli import main
    from opilab.codes import lists_to_json
    from opilab.errors import IdentityViolationError

    original = discrepancy._pair_numerator

    def off_by_one(k, kp, t, m, a, b):
        return original(k, kp, t, m, a, b) + ((k, kp, t) == (1, 2, 0))

    monkeypatch.setattr(discrepancy, "_pair_numerator", off_by_one)
    _pair_tables.cache_clear()
    try:
        code, lists = rs_instance(p=11, m=8, n=5, seed=3, size=4)
        for mode in ("rational_test", "canonical"):
            with pytest.raises(IdentityViolationError, match=r"window pair \(1, 2\)") as err:
                expected_sampled_satisfaction(code, lists, make_sampler(3, 2, weight_mode=mode))
            assert err.value.instance == lists_to_json(lists)
        assert main(["verify", "--suite", "discrepancy"]) == 1
        report = json.loads(capsys.readouterr().out)
        failed = {r["identity"]: r["error"] for r in report["identities"]
                  if r["status"] == "fail"}
        assert {"pair_product_expansion", "master_expansion_rational",
                "master_expansion_canonical_weights"} <= set(failed)
        assert "window pair (1, 2)" in failed["pair_product_expansion"]
    finally:
        _pair_tables.cache_clear()
