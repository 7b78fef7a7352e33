
import itertools
from fractions import Fraction

import numpy as np
import pytest

from opilab import codes, discrepancy, leakage
from opilab.codes import (
    FieldCtx,
    InputLists,
    binomial_moments,
    binomial_weights,
    brute_force_opi,
    dual_codewords,
    dual_weight_sums,
    enumerate_dual_by_weight,
    is_prime,
    lists_from_json,
    lists_to_json,
    make_code,
    make_lists,
    make_rs_code,
    min_dual_weight,
    moments_match_check,
    profile_moments,
    random_lists,
)
from opilab.errors import BudgetExceededError, DomainError


def test_is_prime():
    assert [p for p in range(2, 30) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert is_prime(2**31 - 1)
    assert not is_prime(561)  # Carmichael


def test_field_ctx_rejects_composite():
    with pytest.raises(DomainError):
        FieldCtx(9)


def test_vandermonde_rows():
    code = make_rs_code(FieldCtx(5), 4, 2, [0, 1, 2, 3])
    assert code.B == ((1, 0), (1, 1), (1, 2), (1, 3))


def test_duplicate_points_rejected():
    with pytest.raises(DomainError):
        make_rs_code(FieldCtx(5), 4, 2, [0, 0, 1, 2])


def test_dimension_and_length_bounds():
    with pytest.raises(DomainError):
        make_rs_code(FieldCtx(5), 4, 5)
    with pytest.raises(DomainError):
        make_rs_code(FieldCtx(5), 6, 2)


def test_shape_is_checked_before_the_evaluation_points():
    # the default points 0..6 wrap mod 5, but the error names m > p
    with pytest.raises(DomainError, match="m=7 exceeds field size p=5"):
        make_rs_code(FieldCtx(5), 7, 3)
    with pytest.raises(DomainError, match="need 1 <= n <= m"):
        make_rs_code(FieldCtx(5), 3, 0, [0, 0, 1])


def test_dual_codewords_follow_the_lexicographic_coefficient_order():
    code = make_rs_code(FieldCtx(5), 5, 2)
    got = np.concatenate(list(dual_codewords(code)), axis=1)
    basis = np.array(code.dual_basis)
    coeffs = itertools.product(range(5), repeat=code.dual_dim)
    want = np.array([np.array(c) @ basis % 5 for c in coeffs]).T
    assert np.array_equal(got, want)


def _python_weight_sums(code, table):
    out = [0j] * (code.m + 1)
    for t in range(code.m + 1):
        for y in enumerate_dual_by_weight(code, t):
            term = 1 + 0j
            for i, v in enumerate(y):
                term *= table[i, v]
            out[t] += term
    return out


@pytest.mark.parametrize("p, m, n", [(7, 6, 3), (5, 4, 1), (5, 4, 4)])
def test_dual_weight_sums_match_a_product_over_listed_codewords(p, m, n):
    code = make_rs_code(FieldCtx(p), m, n)
    rng = np.random.default_rng(p * 100 + m * 10 + n)
    table = rng.normal(size=(m, p)) + 1j * rng.normal(size=(m, p))
    want = _python_weight_sums(code, table)
    whole = dual_weight_sums(code, table)
    assert whole.shape == (m + 1,)
    for t in range(m + 1):
        assert abs(whole[t] - want[t]) <= 1e-12 * max(1.0, abs(want[t]))
        one = dual_weight_sums(code, table, weight=t)
        assert abs(one[t] - want[t]) <= 1e-12 * max(1.0, abs(want[t]))
        assert np.count_nonzero(np.delete(one, t)) == 0
    if n == m:  # only the zero codeword: the product of column 0
        assert abs(whole[0] - np.prod(table[:, 0])) <= 1e-12
        assert min_dual_weight(code) == m + 1


def test_dual_weight_sums_reject_a_weight_outside_the_length():
    code = make_rs_code(FieldCtx(5), 4, 2)
    table = np.ones((4, 5))
    for weight in (-1, 5):
        with pytest.raises(DomainError):
            dual_weight_sums(code, table, weight=weight)


def test_dual_min_distance_is_n_plus_1():
    code = make_rs_code(FieldCtx(7), 6, 3, list(range(1, 7)))
    assert min_dual_weight(code) == 4 == code.d_perp
    for t in (1, 2, 3):
        assert enumerate_dual_by_weight(code, t) == []


def test_dual_total_count():
    code = make_rs_code(FieldCtx(7), 6, 3)
    total = sum(len(enumerate_dual_by_weight(code, t)) for t in range(7))
    assert total == 7**3


def test_weight_zero_is_zero_codeword():
    code = make_rs_code(FieldCtx(7), 5, 2)
    assert enumerate_dual_by_weight(code, 0) == [(0, 0, 0, 0, 0)]


def test_dual_of_mds_is_mds():
    code = make_rs_code(FieldCtx(11), 7, 3)
    # generator of the dual as an m x (m-n) matrix; make_code re-runs the
    # any-rows-invertible check on it
    dual_gen = [[code.dual_basis[j][i] for j in range(code.dual_dim)] for i in range(code.m)]
    dual_code = make_code(code.ctx, dual_gen)
    assert dual_code.n == code.m - code.n


def test_mds_bound_enforced():
    # a [6,3] MDS code cannot live over F_3
    with pytest.raises(DomainError):
        make_code(FieldCtx(3), [[1, 0, 0], [0, 1, 0], [0, 0, 1],
                                [1, 1, 1], [1, 2, 1], [2, 1, 1]])


def test_dependent_minor_is_rejected_by_its_rows():
    # a [4,2] code over F_7 passes the alphabet-size bound, but rows 2 and 3
    # are proportional, so their 2-row minor is singular
    with pytest.raises(DomainError, match=r"rows \(2, 3\) are dependent"):
        make_code(FieldCtx(7), [[1, 0], [0, 1], [1, 1], [2, 2]])


def test_lists_validation():
    with pytest.raises(DomainError):
        make_lists(5, [[0, 1], [2]])
    with pytest.raises(DomainError):
        make_lists(5, [[0, 5]])
    with pytest.raises(DomainError):
        make_lists(5, [[]])
    lists = make_lists(5, [[3, 1], [0, 2]])
    assert lists.sets == ((1, 3), (0, 2))
    assert lists.rho == Fraction(2, 5)


def test_full_lists_saturate():
    code = make_rs_code(FieldCtx(5), 4, 2)
    lists = make_lists(5, [list(range(5))] * 4)
    prof = brute_force_opi(code, lists)
    assert prof.s_max == 1
    assert prof.histogram[4] == 25 and sum(prof.histogram) == 25


def test_profile_small_instance():
    code = make_rs_code(FieldCtx(5), 4, 2, [0, 1, 2, 3])
    lists = make_lists(5, [[0, 1]] * 4)
    prof = brute_force_opi(code, lists)
    assert sum(prof.histogram) == 25
    # brute-force recomputation straight from the definition
    hist = [0] * 5
    best = None
    for x0 in range(5):
        for x1 in range(5):
            sat = sum((x0 + x1 * a) % 5 in (0, 1) for a in (0, 1, 2, 3))
            hist[sat] += 1
            if best is None or sat > best[0]:
                best = (sat, (x0, x1))
    assert list(prof.histogram) == hist
    assert prof.s_max == Fraction(best[0], 4)
    assert prof.best_x == best[1]


def test_argmax_is_lexicographically_least():
    code = make_rs_code(FieldCtx(5), 4, 2)
    lists = make_lists(5, [list(range(5))] * 4)
    prof = brute_force_opi(code, lists)
    assert prof.best_x == (0, 0)


def test_budget_errors():
    code = make_rs_code(FieldCtx(11), 8, 6)
    lists = make_lists(11, [[0]] * 8)
    with pytest.raises(BudgetExceededError):
        brute_force_opi(code, lists, budget=1000)


def test_s_max_at_least_rho():
    for seed in range(8):
        lists = random_lists(7, 6, 2, seed)
        code = make_rs_code(FieldCtx(7), 6, 3)
        prof = brute_force_opi(code, lists)
        assert prof.s_max >= lists.rho


def test_moments_match_to_order_n():
    code = make_rs_code(FieldCtx(7), 6, 3)
    for seed in range(5):
        lists = random_lists(7, 6, 2, seed)
        assert moments_match_check(code, lists, 3)
    assert moments_match_check(code, make_lists(7, [[0, 4]] * 6), 0)


def test_moment_mismatch_exists_at_order_n_plus_1():
    # Some family must break the matching one order above the dimension.
    code = make_rs_code(FieldCtx(5), 4, 2, [0, 1, 2, 3])
    found = False
    for seed in range(40):
        lists = random_lists(5, 4, 2, seed)
        if not moments_match_check(code, lists, 3):
            found = True
            break
    assert found


@pytest.mark.parametrize("rho", [Fraction(1, 2), Fraction(1, 3), Fraction(5, 7)])
def test_moment_tables_equal_per_order_sums(rho):
    p = rho.denominator
    for m in range(1, 13):
        order = 2 * m
        weights = binomial_weights(m, rho)
        assert binomial_moments(m, rho, order) == [
            sum(w * Fraction(t) ** j for t, w in enumerate(weights)) for j in range(order + 1)
        ]
        # the [m, 1] repetition code: one satisfied count per field element
        prof = brute_force_opi(make_code(FieldCtx(p), [[1]] * m),
                               random_lists(p, m, rho.numerator, m))
        assert profile_moments(prof, order) == [
            sum(Fraction(c, prof.total) * Fraction(t) ** j for t, c in enumerate(prof.histogram))
            for j in range(order + 1)
        ]


def test_moments_match_check_builds_binomial_weights_once(monkeypatch):
    builds = []
    original = codes.binomial_weights

    def counting(m, rho):
        builds.append(m)
        return original(m, rho)

    monkeypatch.setattr(codes, "binomial_weights", counting)
    code = make_rs_code(FieldCtx(7), 6, 3)
    assert moments_match_check(code, random_lists(7, 6, 2, 0), 3)
    assert builds == [6]


_CAPPED = {
    "moments_match_check": lambda code, lists, prof: moments_match_check(code, lists, 3),
    "enumerate_dual_by_weight": lambda code, lists, prof: enumerate_dual_by_weight(code, 4),
    "min_dual_weight": lambda code, lists, prof: min_dual_weight(code),
    "discrepancy_by_subsets":
        lambda code, lists, prof: discrepancy.discrepancy_by_subsets(code, lists, (0, 0, 0), 3),
    "expected_discrepancy_exact":
        lambda code, lists, prof: discrepancy.expected_discrepancy_exact(code, lists),
    "expected_discrepancy_all":
        lambda code, lists, prof: discrepancy.expected_discrepancy_all(code, lists, prof),
    "count_sym_diff": lambda code, lists, prof: discrepancy.count_sym_diff((3, 3), 0, 6),
    "weighted_pair_count_brute":
        lambda code, lists, prof: discrepancy.weighted_pair_count_brute(3, 3, 0, 6, lists.rho),
    "expected_sampled_satisfaction": lambda code, lists, prof: (
        discrepancy.expected_sampled_satisfaction(
            code, lists, discrepancy.make_sampler(2, weight_mode="rational_test"))),
    "per_transcript_sum": lambda code, lists, prof: leakage.per_transcript_sum(code, lists, 4),
    "tv_proxy": lambda code, lists, prof: leakage.tv_proxy(code, lists.sets, lists.sets),
    "parseval_split_identity":
        lambda code, lists, prof: leakage.parseval_split_identity(code, lists, (0, 1, 2)),
}


@pytest.mark.parametrize("name", sorted(_CAPPED))
def test_enumerations_without_a_budget_argument_obey_the_environment_cap(name, monkeypatch):
    code = make_rs_code(FieldCtx(7), 6, 3)
    lists = random_lists(7, 6, 2, 0)
    prof = brute_force_opi(code, lists)  # at the default cap
    monkeypatch.setenv("OPILAB_BUDGET", "10")
    with pytest.raises(BudgetExceededError):
        _CAPPED[name](code, lists, prof)


def test_json_round_trips():
    lists = make_lists(7, [[0, 1], [2, 3], [4, 5], [1, 6], [0, 2], [3, 5]])
    assert lists_from_json(lists_to_json(lists)) == lists
