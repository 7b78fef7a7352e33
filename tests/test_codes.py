
import itertools
import math
import random
import tracemalloc
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


def enumerate_dual_by_weight(code, t):
    """All dual codewords of Hamming weight exactly t: the listing route
    the dual-sum kernels are checked against."""
    out = []
    for Y in dual_codewords(code):
        w = (Y != 0).sum(axis=0)
        sel = Y[:, w == t]
        out.extend(tuple(int(v) for v in sel[:, j]) for j in range(sel.shape[1]))
    return out


def _python_weight_sums(code, table):
    out = [0] * (code.m + 1)
    for t in range(code.m + 1):
        for y in enumerate_dual_by_weight(code, t):
            out[t] += math.prod(int(table[i, v]) for i, v in enumerate(y))
    return out


def _residue_tables(table):
    """tables_of for a fixed integer table: its residues mod each prime."""
    return lambda primes: np.stack([np.asarray(table, dtype=np.int64) % P for P, _ in primes])


@pytest.mark.parametrize("p, m, n", [(7, 6, 3), (5, 4, 1), (5, 4, 4)])
def test_dual_weight_sums_match_a_product_over_listed_codewords(p, m, n):
    # signed integer entries: the CRT must return negative sums as such
    code = make_rs_code(FieldCtx(p), m, n)
    rng = np.random.default_rng(p * 100 + m * 10 + n)
    table = rng.integers(-50, 51, size=(m, p))
    want = _python_weight_sums(code, table)
    got = dual_weight_sums(code, _residue_tables(table), p ** (m - n) * 50**m)
    assert got == tuple(want) and all(type(v) is int for v in got)
    assert n == m or any(v < 0 for v in want)
    if n == m:  # only the zero codeword: the product of column 0
        assert got[0] == math.prod(int(v) for v in table[:, 0])
        assert min_dual_weight(code) == m + 1


def _matmul_dual_codewords(code):
    """The dual codewords by the enumeration that the split tables
    replaced: 2^16 coefficient vectors at a time unravelled in C order,
    then one int64 matmul with the dual basis mod p."""
    p, m, k = code.p, code.m, code.dual_dim
    if k == 0:
        yield np.zeros((m, 1), dtype=np.int64)
        return
    D = np.array(code.dual_basis, dtype=np.int64)
    for start in range(0, p**k, 1 << 16):
        C = np.array(np.unravel_index(np.arange(start, min(start + (1 << 16), p**k)), (p,) * k))
        yield (D.T @ C) % p


def _matmul_weight_sums(code, table, P=0):
    """The weight sums of one integer table by the matmul chunks and one
    m x chunk gather each: exact for small entries, or mod P when P is
    given, reduced after each row."""
    m = code.m
    out = [0] * (m + 1)
    for Y in _matmul_dual_codewords(code):
        vals = table[np.arange(m)[:, None], Y]
        prod = vals[0].copy()
        for row in vals[1:]:
            prod *= row
            if P:
                prod %= P
        w = (Y != 0).sum(axis=0)
        for t in range(m + 1):
            out[t] += int(prod[w == t].sum())
    return [v % P for v in out] if P else out


# k = m - n = 0, 1, 2, 3, 4, 5; (11, 10, 5) spans three chunks and its
# p^ceil(k/2) = 1331 does not divide 2^16
_DUAL_SWEEP = [(5, 4, 4), (7, 6, 6), (7, 5, 4), (70001, 2, 1), (5, 4, 2), (7, 6, 4), (11, 5, 3),
               (7, 6, 3), (13, 8, 5), (5, 5, 1), (7, 6, 2), (11, 10, 5), (17, 9, 5), (2, 2, 1),
               (3, 3, 1)]


@pytest.mark.parametrize("p, m, n", _DUAL_SWEEP)
def test_dual_chunks_match_the_matmul_route(p, m, n):
    rng = random.Random(p * 100 + m * 10 + n)
    points = rng.sample(range(min(p, 50)), m)
    code = make_rs_code(FieldCtx(p), m, n, points)
    got, want = list(dual_codewords(code)), list(_matmul_dual_codewords(code))
    assert len(got) == len(want)
    for a, b in zip(got, want):
        # a C-contiguous chunk keeps the row-by-row product equal to np.prod's
        assert a.flags.c_contiguous and a.dtype == np.int64
        assert np.array_equal(a, b)
    counts = np.bincount(np.concatenate([(Y != 0).sum(axis=0) for Y in want]), minlength=m + 1)
    weights = np.flatnonzero(counts[1:]) + 1
    assert min_dual_weight(code) == (int(weights[0]) if weights.size else m + 1)


@pytest.mark.parametrize("p, m, n", [s for s in _DUAL_SWEEP if s[0] < 1000])
def test_dual_weight_sums_equal_the_matmul_route_bit_for_bit(p, m, n):
    code = make_rs_code(FieldCtx(p), m, n)
    rng = np.random.default_rng(p * 100 + m * 10 + n)
    # a small integer table: the int64 matmul products are exact
    table = rng.integers(-3, 4, size=(m, p))
    got = dual_weight_sums(code, _residue_tables(table), p ** (m - n) * 3**m)
    assert list(got) == _matmul_weight_sums(code, table)
    # character tables over Z[omega]: every prime's residues, one pass for all
    lists = random_lists(p, m, max(1, p // 2), p * m + n)
    used = []

    def tables_of(primes):
        used.extend(primes)
        return leakage.character_tables(lists.sets, p, primes)

    sums = dual_weight_sums(code, tables_of, p ** (m - n) * len(lists.sets[0]) ** m)
    assert used == [codes._crt_prime(p, j) for j in range(len(used))]
    for P, g in used:
        table = leakage.character_tables(lists.sets, p, [(P, g)])[0]
        assert [v % P for v in sums] == _matmul_weight_sums(code, table, P)
    assert sums == leakage.dual_character_sums(code, lists)


def test_shared_pass_equals_the_matmul_route_on_every_criterion_7_instance():
    # acceptance criterion 7's 1,000 instances, drawn as it draws them: the
    # shared pass mod its first prime against the matmul route, and both
    # of its readers against the histogram route, exactly
    rng = random.Random(20240811)
    shapes = [(p, m, n) for p in (5, 7, 11) for m in range(2, min(p, 8) + 1)
              for n in range(1, m) if p**n <= 20000 and p ** (m - n) <= 20000]
    for _ in range(1000):
        p, m, n = shapes[rng.randrange(len(shapes))]
        size = rng.randint(1, p - 1)
        code = make_rs_code(FieldCtx(p), m, n)
        lists = random_lists(p, m, size, rng.randrange(2**32))
        sums = leakage.dual_character_sums(code, lists)
        P, g = codes._crt_prime(p, 0)
        table = leakage.character_tables(lists.sets, p, [(P, g)])[0]
        assert [v % P for v in sums] == _matmul_weight_sums(code, table, P)
        exact = discrepancy.expected_discrepancy_exact(code, lists)
        assert discrepancy.expected_discrepancy_fourier(code, lists) == exact
        r = discrepancy.r_of(lists.rho)
        for t in range(m + 1):
            assert (exact[t] * r**t * lists.rho**m).real_equals(
                leakage.per_transcript_sum(code, lists, t))


def test_dual_tables_are_built_once_per_code_and_read_only():
    code = make_rs_code(FieldCtx(7), 6, 3)
    codes._dual_tables.cache_clear()
    for _ in range(3):
        list(dual_codewords(code))
    info = codes._dual_tables.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    H, L = codes._dual_tables(code)
    assert H.shape == (6, 7) and L.shape == (6, 49)
    assert not H.flags.writeable and not L.flags.writeable


def _traced_peak_mb(fn):
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_one_coordinate_enumerations_stay_in_bounded_blocks():
    # at n = 1 (primal) and k = 1 (dual) one split table spans all p
    # values; blocks of at most 2^16 columns keep the peak near that table
    # (24 MB here), where one m x p index block took the oracle to 63 MB
    p = 1_000_003
    code = make_rs_code(FieldCtx(p), 3, 1)
    lists = random_lists(p, 3, 5, 0)
    codes._split_tables.cache_clear()
    try:
        prof, peak = _traced_peak_mb(lambda: brute_force_opi(code, lists))
        assert peak <= 40
        assert (prof.histogram, prof.best_x, prof.s_max) == _matmul_profile(code, lists)
    finally:
        codes._split_tables.cache_clear()
    dual = make_rs_code(FieldCtx(p), 3, 2)
    codes._dual_tables.cache_clear()
    try:
        chunks, peak = _traced_peak_mb(lambda: sum(1 for _ in dual_codewords(dual)))
        assert peak <= 40 and chunks == -(-p // (1 << 16))
    finally:
        codes._dual_tables.cache_clear()


def test_no_wide_span_table_stays_cached_after_its_call():
    # at n = 1 (oracle) and k = m - n = 1 (dual pass) a span table covers
    # all p values, 24 MB each here: such tables are rebuilt per call
    p = 1_000_003
    code, dual = make_rs_code(FieldCtx(p), 3, 1), make_rs_code(FieldCtx(p), 3, 2)
    lists = random_lists(p, 3, 5, 0)
    codes._split_tables.cache_clear()
    codes._dual_tables.cache_clear()
    tracemalloc.start()
    try:
        brute_force_opi(code, lists)
        sum(1 for _ in dual_codewords(dual))
        held = tracemalloc.get_traced_memory()[0] / 1e6
    finally:
        tracemalloc.stop()
        codes._split_tables.cache_clear()
        codes._dual_tables.cache_clear()
    assert held <= 4


def _mds_weight_count(q, m, d, w):
    """A_w of a length-m MDS code over F_q with minimum distance d."""
    if w == 0:
        return 1
    return math.comb(m, w) * sum((-1) ** j * math.comb(w, j) * (q ** (w - d + 1 - j) - 1)
                                 for j in range(w - d + 1))


def test_constant_table_sums_follow_the_mds_weight_enumerator():
    # every nonzero entry c: the weight-t sum is A_t c^t, A_t from the
    # weight enumerator of the dual [m, m - n, n + 1] MDS code.  c^6 needs
    # five CRT primes; with one fewer the largest sums come back wrong.
    p, m, n = 7, 6, 3
    code = make_rs_code(FieldCtx(p), m, n)
    c = -(2**20) - 3

    def tables_of(primes):
        tables = np.stack([np.full((m, p), c % P, dtype=np.int64) for P, _ in primes])
        tables[:, :, 0] = 1
        return tables

    want = [_mds_weight_count(p, m, n + 1, t) * c**t for t in range(m + 1)]
    assert dual_weight_sums(code, tables_of, p ** (m - n) * abs(c) ** m) == tuple(want)
    assert abs(want[m]) > math.prod(codes._crt_prime(p, j)[0] for j in range(4))


def test_dual_character_sums_can_be_negative():
    # a seeded (7, 6, 3) draw whose weight-5 sum is negative: the CRT
    # returns it signed, and E[q_t] by the histogram route agrees
    code = make_rs_code(FieldCtx(7), 6, 3)
    lists = random_lists(7, 6, 2, 5)
    assert leakage.dual_character_sums(code, lists) == (1, 0, 0, 0, 5, -16, -52)
    assert (discrepancy.expected_discrepancy_fourier(code, lists)
            == discrepancy.expected_discrepancy_exact(code, lists))


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


def _matmul_profile(code, lists):
    """(histogram, best_x, s_max) by the chunked matmul enumeration that the
    split kernel replaced: B X mod p for 2^16 solutions at a time in C
    order, then one membership gather and an int64 count per solution."""
    p, m, n = code.p, code.m, code.n
    total = p**n
    member = np.zeros((m, p), dtype=bool)
    for i, s in enumerate(lists.sets):
        member[i, list(s)] = True
    Bmat = np.array(code.B, dtype=np.int64)
    hist = np.zeros(m + 1, dtype=np.int64)
    best_count, best_idx = -1, -1
    for start in range(0, total, 1 << 16):
        stop = min(start + (1 << 16), total)
        X = np.array(np.unravel_index(np.arange(start, stop), (p,) * n))
        vals = (Bmat @ X) % p
        sat = member[np.arange(m)[:, None], vals].sum(axis=0)
        hist += np.bincount(sat, minlength=m + 1)
        loc = int(np.argmax(sat))
        if sat[loc] > best_count:
            best_count = int(sat[loc])
            best_idx = start + loc
    best_x = tuple(int(v) for v in np.unravel_index(best_idx, (p,) * n))
    return tuple(int(v) for v in hist), best_x, Fraction(best_count, m)


def _assert_split_kernel_matches_matmul(code, lists):
    prof = brute_force_opi(code, lists)
    assert (prof.histogram, prof.best_x, prof.s_max) == _matmul_profile(code, lists)


def test_split_kernel_matches_matmul_on_every_criterion_7_shape():
    rng = random.Random(7)
    shapes = [(p, m, n) for p in (5, 7, 11) for m in range(2, min(p, 8) + 1)
              for n in range(1, m) if p**n <= 20000 and p ** (m - n) <= 20000]
    assert len(shapes) == 45
    for p, m, n in shapes:
        for points in (None, rng.sample(range(p), m)):
            code = make_rs_code(FieldCtx(p), m, n, points)
            _assert_split_kernel_matches_matmul(
                code, random_lists(p, m, rng.randint(1, p - 1), rng.randrange(2**32)))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_split_kernel_matches_matmul_on_the_large_shapes(seed):
    # drawn as the benchmark's large_instances workload draws them
    rng = random.Random(seed)
    for p, m, n in ((23, 8, 5), (11, 10, 5), (17, 9, 5), (13, 8, 5), (31, 7, 4),
                    (29, 6, 4), (19, 7, 4)):
        size = rng.randint(max(1, p // 3), p - 1)
        code = make_rs_code(FieldCtx(p), m, n, rng.sample(range(p), m))
        lists = make_lists(p, [rng.sample(range(p), size) for _ in range(m)])
        _assert_split_kernel_matches_matmul(code, lists)


@pytest.mark.parametrize("p, m, n, size", [
    (7, 5, 1, 3),  # x_hi is empty
    (70001, 2, 1, 3),  # m p^ceil(n/2) > 2^16: the one-row batch floor
    (7, 4, 4, 3),  # n = m
    (2, 2, 1, 1), (2, 2, 2, 1), (3, 3, 2, 2),  # p = 2, 3
    (5, 1, 1, 2),  # m = 1
    (263, 260, 1, 262),  # counts up to 260 overflow a uint8
])
def test_split_kernel_matches_matmul_on_edge_shapes(p, m, n, size):
    code = make_rs_code(FieldCtx(p), m, n)
    lists = random_lists(p, m, size, 0)
    _assert_split_kernel_matches_matmul(code, lists)
    if m >= 256:
        assert brute_force_opi(code, lists).s_max == 1


def test_split_kernel_argmax_tie_across_batches_goes_to_the_smaller_x():
    # at (17, 9, 5) a batch is one x_hi row: the planted solutions x1 < x2
    # sit in batches 88 and 187, and only they satisfy every constraint
    p, m, n = 17, 9, 5
    code = make_rs_code(FieldCtx(p), m, n)
    B = np.array(code.B)
    x1, x2 = (5, 3, 1, 2, 0), (11, 0, 4, 4, 4)
    sets = [(a, b if b != a else (a + 1) % p) for a, b in zip(B @ x1 % p, B @ x2 % p)]
    lists = make_lists(p, sets)
    prof = brute_force_opi(code, lists)
    assert prof.s_max == 1 and prof.best_x == x1
    assert prof.histogram[m] == 2
    _assert_split_kernel_matches_matmul(code, lists)


def test_split_kernel_argmax_in_a_later_x_lo_slice():
    # at n = 1 and p > 2^16 x_lo runs in slices of 2^16; only x = 69000,
    # in the second slice, satisfies both constraints (B x = (x, x))
    p = 70001
    code = make_rs_code(FieldCtx(p), 2, 1)
    lists = make_lists(p, [(5, 69000), (7, 69000)])
    prof = brute_force_opi(code, lists)
    assert prof.best_x == (69000,) and prof.s_max == 1
    _assert_split_kernel_matches_matmul(code, lists)


def test_split_tables_are_built_once_per_code_and_read_only():
    code = make_rs_code(FieldCtx(7), 6, 3)
    codes._split_tables.cache_clear()
    for seed in range(3):
        brute_force_opi(code, random_lists(7, 6, 2, seed))
    info = codes._split_tables.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    for table in codes._split_tables(code):
        assert not table.flags.writeable


def test_budget_is_checked_before_the_tables_are_built():
    code = make_rs_code(FieldCtx(11), 8, 6)
    codes._split_tables.cache_clear()
    with pytest.raises(BudgetExceededError):
        brute_force_opi(code, make_lists(11, [[0]] * 8), budget=1000)
    assert codes._split_tables.cache_info().misses == 0


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


def test_random_lists_is_make_lists_of_the_same_draws():
    rng = random.Random(5)
    for _ in range(400):
        p = rng.choice((2, 3, 5, 7, 11, 13, 31))
        m, size, seed = rng.randint(1, 9), rng.randint(1, p), rng.randrange(2**32)
        draws = random.Random(seed)
        want = make_lists(p, [draws.sample(range(p), size) for _ in range(m)])
        got = random_lists(p, m, size, seed)
        assert got == want and repr(got) == repr(want)
    with pytest.raises(DomainError, match="empty constraint set"):
        random_lists(7, 3, 0, 1)
    with pytest.raises(DomainError, match="at least one constraint set"):
        random_lists(7, 0, 2, 1)
