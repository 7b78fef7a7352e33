import math
import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from opilab import codes, leakage
from opilab.codes import FieldCtx, dual_codewords, make_rs_code, random_lists
from opilab.discrepancy import expected_discrepancy_exact, expected_discrepancy_fourier
from opilab.errors import BudgetExceededError, DomainError
from opilab.leakage import (
    BucketFamily,
    _coverage_log_tails,
    _log_comb,
    arc_bound,
    arc_extremal_check,
    bucket_split_bound,
    certify_buckets,
    character_tables,
    coverage_count,
    dual_character_sums,
    indicator_spectrum,
    llr_rate_threshold,
    make_buckets,
    parseval_split_identity,
    per_transcript_sum,
)
from opilab.quadext import r_of


def test_spectrum_full_set_and_singleton():
    spec = indicator_spectrum(range(7), 7)
    assert abs(spec.coeffs[0] - 1.0) < 1e-12
    assert all(abs(spec.coeffs[z]) < 1e-12 for z in range(1, 7))
    point = indicator_spectrum([0], 7)
    assert np.allclose(np.abs(point.coeffs), 1 / 7)


def test_spectrum_interval_magnitudes():
    p, s = 23, 9
    spec = indicator_spectrum(range(s), p)
    for z in range(1, p):
        want = abs(math.sin(math.pi * s * z / p)) / (p * math.sin(math.pi * z / p))
        assert abs(spec.magnitude(z) - want) < 1e-12
    assert spec.magnitude(1) == pytest.approx(arc_bound(Fraction(s, p), p), abs=1e-12)


def test_arc_bound_limit():
    # at half density and large p the bound tends to 1/pi
    assert arc_bound(Fraction(500, 1001), 1001) == pytest.approx(1 / math.pi, abs=2e-3)
    with pytest.raises(DomainError):
        arc_bound(Fraction(1, 3), 7)  # rho * p not integral


def test_arc_extremal_check():
    rep = arc_extremal_check(101, Fraction(50, 101), trials=400, seed=5)
    assert rep["interval_attains_max"]
    assert rep["within_exact_bound"]
    rep = arc_extremal_check(53, Fraction(20, 53), trials=300, seed=6)
    assert rep["interval_attains_max"]


def test_bucket_preconditions():
    with pytest.raises(DomainError):
        make_buckets("cyclic", 10, 4)  # 2n - m < 0
    with pytest.raises(DomainError):
        make_buckets("nope", 10, 7)
    for kind in ("single", "cyclic"):  # only random buckets read these
        with pytest.raises(DomainError):
            make_buckets(kind, 10, 7, lambda_target=0.3)
        with pytest.raises(DomainError):
            make_buckets(kind, 10, 7, eps=0.05)


def test_cyclic_bucket_coverage():
    fam = make_buckets("cyclic", 10, 7)
    assert fam.J == 10 and fam.bucket_size == 4
    # every 8-set meets some shift in at least ceil(8*4/10) = 4 coordinates
    for subset in combinations(range(10), 8):
        best = max(len(set(subset) & b) for b in fam.buckets)
        assert best >= 4
    assert fam.certification["mode"] == "certified"
    assert fam.guaranteed_hits(8) >= 4


def test_single_bucket_union_bound():
    fam = make_buckets("single", 8, 6)
    assert fam.J == 1 and fam.bucket_size == 4
    assert fam.guaranteed_hits(7) >= 3  # t + b - m
    assert fam.guaranteed_hits(8) >= 4


def test_random_buckets_certified():
    fam = make_buckets("random", 20, 14, lambda_target=0.3, seed=3, eps=0.05)
    assert fam.certification["meets_target"]
    assert fam.guaranteed_hits(15) >= math.ceil(0.3 * 20)
    with pytest.raises(DomainError):
        make_buckets("random", 20, 14, lambda_target=0.9)  # infeasible target
    with pytest.raises(DomainError, match="n < m"):
        make_buckets("random", 2, 2, lambda_target=1.0)  # 2 - 4 mu = 0
    # at (8, 6, 0.5) the entropy term sets J: eps 0.04, 0.05, 0.06 give 8, 9, 10
    assert make_buckets("random", 8, 6, lambda_target=0.5).J == 9


def test_coverage_count_matches_enumeration():
    for (m, n) in ((10, 7), (12, 8), (20, 14)):
        b = 2 * n - m
        bucket = set(range(b))
        d_perp = n + 1
        for lam in (0.2, 0.3, 0.4):
            target = math.ceil(lam * m - 1e-9)
            want = sum(
                1 for D in combinations(range(m), d_perp) if len(bucket & set(D)) >= target
            )
            assert coverage_count(m, n, lam) == want


def test_split_bound_dominates_dual_sum():
    code = make_rs_code(FieldCtx(11), 8, 6)
    for seed in range(12):
        lists = random_lists(11, 8, 5 + (seed % 3), seed)
        eq = expected_discrepancy_fourier(code, lists)
        for kind in ("single", "cyclic"):
            fam = make_buckets(kind, 8, 6)
            for t in range(code.d_perp, code.m + 1):
                bound = bucket_split_bound(code, lists, fam, t)
                assert abs(eq[t]) <= bound * (1 + 1e-9)


def test_two_route_agreement_at_inequality_shape():
    # ties the dual-sum route used by the split-bound checks to the exact
    # enumeration at the same (p, m, n) shape; p^n here is 1.77M, within
    # the default budget
    from opilab.discrepancy import expected_discrepancy_all

    code = make_rs_code(FieldCtx(11), 8, 6)
    lists = random_lists(11, 8, 5, 424242)
    eq = expected_discrepancy_all(code, lists)  # asserts agreement internally
    assert eq[0].real_equals(1)
    assert all(eq[t].real_is_zero() for t in range(1, 7))


def test_split_bound_hits_dominance():
    # the cyclic cover never certifies fewer hits than the single bucket
    single = make_buckets("single", 8, 6)
    cyclic = make_buckets("cyclic", 8, 6)
    for t in range(7, 9):
        assert cyclic.guaranteed_hits(t) >= single.guaranteed_hits(t)


def test_split_bound_monotone_in_lambda():
    code = make_rs_code(FieldCtx(11), 8, 6)
    lists = random_lists(11, 8, 5, 1)
    base = make_buckets("cyclic", 8, 6)
    lo = BucketFamily("random", 8, 6, base.buckets, 0.25, 0,
                      {"mode": "certified", "min_intersection": 2})
    hi = BucketFamily("random", 8, 6, base.buckets, 0.5, 0,
                      {"mode": "certified", "min_intersection": 4})
    assert bucket_split_bound(code, lists, hi, 8) <= bucket_split_bound(code, lists, lo, 8)


def test_split_bound_requires_dual_weight():
    code = make_rs_code(FieldCtx(11), 8, 6)
    lists = random_lists(11, 8, 5, 2)
    fam = make_buckets("cyclic", 8, 6)
    with pytest.raises(DomainError):
        bucket_split_bound(code, lists, fam, 3)


def test_transcript_scaling_identity():
    # E[q_t] = rho^(t/2-m) (1-rho)^(-t/2) * transcript sum = rho^-m r^-t * transcript sum
    code = make_rs_code(FieldCtx(7), 6, 3)
    lists = random_lists(7, 6, 2, 9)
    r, rho = r_of(lists.rho), lists.rho
    eq = expected_discrepancy_fourier(code, lists)
    for t in range(code.m + 1):
        assert (eq[t] * r**t * rho**code.m).real_equals(per_transcript_sum(code, lists, t))


def test_near_balanced_transcript_factor():
    # |E[q_t]| = (2 + o(1))^m |sum|: with |S| = (p+1)/2 the per-coordinate
    # factor sits within (1 +- 2/p)^m of 2^m
    p, m, n = 11, 8, 6
    code = make_rs_code(FieldCtx(p), m, n)
    lists = random_lists(p, m, (p + 1) // 2, 3)
    eq = expected_discrepancy_fourier(code, lists)
    for t in (7, 8):
        ts = abs(per_transcript_sum(code, lists, t))
        if ts < 1e-15:
            continue
        ratio = abs(eq[t]) / (2**m * ts)
        assert (1 - 2 / p) ** m <= ratio <= (1 + 2 / p) ** m


@pytest.mark.parametrize("block", [1 << 16, 4])
def test_character_tables_are_power_sums_mod_each_prime(block, monkeypatch):
    # at a block of 4 exponents a set larger than it takes one y per block
    monkeypatch.setattr(leakage, "_BLOCK", block)
    p = 101
    sets = [[0], [3, 5, 99], list(range(0, p, 2))]
    primes = [codes._crt_prime(p, j) for j in range(2)]
    tables = character_tables(sets, p, primes)
    assert tables.shape == (2, 3, p) and tables.dtype == np.int64
    for (P, g), table in zip(primes, tables):
        assert pow(g, p, P) == 1 != g
        for row, s in zip(table, sets):
            # column 0 is 1: a zero coordinate of a codeword adds no factor
            want = [1] + [sum(pow(g, y * v % p, P) for v in s) % P for y in range(1, p)]
            assert row.tolist() == want


def test_character_tables_stay_in_blocks_at_large_p():
    # |S| = p/2 at p = 4001: one p x |S| block per row would take 128 MB
    p = 4001
    code = make_rs_code(FieldCtx(p), 3, 2)
    lists = random_lists(p, 3, p // 2, 0)
    leakage._character_sums.cache_clear()
    tracemalloc.start()
    try:
        sums = dual_character_sums(code, lists)
        peak = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    assert peak <= 16
    assert sums[:3] == (1, 0, 0) and sums[3] != 0  # the dual distance is 3


def _complex_transcript_sums(code, lists):
    """The transcript sums in complex doubles: the indicator spectra's
    products over every dual codeword, summed by weight."""
    table = np.array([indicator_spectrum(s, code.p).coeffs for s in lists.sets])
    out = np.zeros(code.m + 1, dtype=np.complex128)
    for Y in dual_codewords(code):
        prod = np.prod(table[np.arange(code.m)[:, None], Y], axis=0)
        np.add.at(out, (Y != 0).sum(axis=0), prod)
    return out


def test_per_transcript_sum_is_one_entry_of_the_weight_sums():
    code = make_rs_code(FieldCtx(7), 6, 3)
    lists = random_lists(7, 6, 3, 5)
    sums = leakage.dual_character_sums(code, lists)
    floats = _complex_transcript_sums(code, lists)
    for t in range(code.m + 1):
        ts = per_transcript_sum(code, lists, t)
        assert ts == lists.rho ** (code.m - t) * Fraction(sums[t], 7**t)
        assert abs(complex(ts) - floats[t]) < 1e-15 and ts.imag == 0
    for t in (-1, code.m + 1):  # no dual codeword has that weight
        assert per_transcript_sum(code, lists, t) == 0j


def test_per_transcript_sum_never_shares_a_cached_entry_between_lists():
    code = make_rs_code(FieldCtx(7), 6, 3)
    first, second = random_lists(7, 6, 3, 5), random_lists(7, 6, 3, 6)
    assert first != second
    got = {}
    for lists in (first, second, first, second):
        sums = leakage._character_sums.__wrapped__(code, lists, codes.enumeration_budget())
        got[lists] = [per_transcript_sum(code, lists, t) for t in range(code.m + 1)]
        assert got[lists] == [lists.rho ** (6 - t) * Fraction(v, 7**t) for t, v in enumerate(sums)]
    assert got[first] != got[second]


def test_per_transcript_sum_obeys_a_lower_cap_after_a_cached_pass(monkeypatch):
    code = make_rs_code(FieldCtx(7), 6, 3)
    lists = random_lists(7, 6, 3, 7)
    per_transcript_sum(code, lists, 4)
    monkeypatch.setenv("OPILAB_BUDGET", "10")  # p^(m-n) = 343
    with pytest.raises(BudgetExceededError):
        per_transcript_sum(code, lists, 4)


def test_expected_discrepancy_fourier_returns_a_copy_of_the_shared_pass():
    code = make_rs_code(FieldCtx(7), 6, 3)
    lists = random_lists(7, 6, 3, 8)
    first = expected_discrepancy_fourier(code, lists)
    want = list(first)
    first[:] = [first[0]] * len(first)
    again = expected_discrepancy_fourier(code, lists)
    assert again is not first and again == want
    # the shared pass is an immutable tuple of integers
    sums = dual_character_sums(code, lists)
    assert isinstance(sums, tuple) and all(type(v) is int for v in sums)
    assert again == expected_discrepancy_exact(code, lists)


def test_expected_discrepancy_fourier_obeys_a_lower_cap_after_a_cached_pass():
    code = make_rs_code(FieldCtx(7), 6, 3)
    lists = random_lists(7, 6, 3, 10)
    expected_discrepancy_fourier(code, lists)
    with pytest.raises(BudgetExceededError):  # p^(m-n) = 343
        expected_discrepancy_fourier(code, lists, budget=10)


def test_the_fourier_route_and_the_transcript_sums_share_one_dual_pass(monkeypatch):
    from opilab import codes, leakage

    code = make_rs_code(FieldCtx(7), 6, 3)
    lists = random_lists(7, 6, 3, 11)
    leakage._character_sums.cache_clear()
    passes = []
    original = codes.dual_codewords

    def counting(code, budget=None):
        passes.append(code.m)
        return original(code, budget)

    monkeypatch.setattr(codes, "dual_codewords", counting)
    expected_discrepancy_fourier(code, lists)
    for t in range(code.m + 1):
        per_transcript_sum(code, lists, t)
    assert passes == [6]


def test_density_one_has_transcript_sums_but_no_normalized_route():
    # every list is the whole field: only the zero codeword's product is 1
    code = make_rs_code(FieldCtx(5), 4, 2)
    lists = random_lists(5, 4, 5, 0)
    assert per_transcript_sum(code, lists, 0) == 1
    assert abs(per_transcript_sum(code, lists, 3)) < 1e-12
    with pytest.raises(DomainError, match="density below 1"):
        expected_discrepancy_fourier(code, lists)


def test_parseval_split_identity():
    code = make_rs_code(FieldCtx(7), 6, 3)
    lists = random_lists(7, 6, 3, 4)
    for coords in ((0, 1, 2), (3, 4, 5), (0, 2, 4)):
        lhs, rhs = parseval_split_identity(code, lists, coords)
        assert lhs == rhs == (7 * 3) ** 3


def test_audited_certificates_never_tighten_the_guarantee():
    base = make_buckets("cyclic", 8, 6)
    audited = BucketFamily("random", 8, 6, base.buckets, 0.25, 0,
                           {"mode": "audited", "min_intersection": 4})
    certified = BucketFamily("random", 8, 6, base.buckets, 0.25, 0,
                             {"mode": "certified", "min_intersection": 4})
    # the audited estimate stays at the analytic floor ceil(0.25 * 8) = 2
    assert audited.guaranteed_hits(7) == 2
    assert certified.guaranteed_hits(7) == 4


def test_certify_buckets_modes():
    fam = make_buckets("cyclic", 10, 7)
    rep = certify_buckets(fam.buckets, 10, 8, 4)
    assert rep["mode"] == "certified" and rep["meets_target"]
    rep = certify_buckets(fam.buckets, 10, 8, 4, budget=10, samples=500)
    assert rep["mode"] == "audited"


def test_single_bucket_log_bound_tracks_green_exponent():
    # one bucket at near-balanced density: the per-length log of the split
    # bound approaches the single-bucket decay exponent
    from opilab.rates import dual_sum_exponent_green

    p, m = 521, 200
    n = 130  # 2 mu = 0.65
    mu = n / (2 * m)
    rho = Fraction((p - 1) // 2, p)
    t = 2 * round(mu * m)  # the dual-distance scale
    hits = t + 2 * n - 2 * m
    arc = arc_bound(rho, p)
    rho_f = float(rho)
    log_bound = (
        (n - m) * math.log(rho_f)
        + (t / 2) * math.log(rho_f / (1 - rho_f))
        + hits * math.log(arc / rho_f)
    ) / m
    assert log_bound == pytest.approx(dual_sum_exponent_green(mu), abs=0.02)


def test_llr_coverage_tails_match_direct_sum():
    # the cumulative table against a peak-shifted log-sum-exp per tail
    for m in (64, 512):
        for mu in (0.3, 0.35, 0.4, 0.45, 0.49):
            n = round(2 * mu * m) // 2 * 2
            b = 2 * n - m
            tails = _coverage_log_tails(m, n)
            assert len(tails) == b + 1
            for hits in range(b + 1):
                terms = [_log_comb(b, k) + _log_comb(2 * (m - n), n + 1 - k)
                         for k in range(hits, b + 1)]
                peak = max(terms)
                direct = peak + math.log(sum(math.exp(t - peak) for t in terms))
                assert abs(tails[hits] - direct) <= 1e-12, (m, n, hits)


def test_llr_threshold_matches_rate_module():
    from opilab.rates import thresholds

    leak_side = llr_rate_threshold(m=4096)
    assert leak_side == pytest.approx(0.7498779296875273, abs=1e-12)
    rate_side = thresholds(0.5, "best").two_mu1
    assert leak_side == pytest.approx(rate_side, abs=0.01)
    assert leak_side == pytest.approx(0.7496, abs=0.01)
