"""Prime-field arithmetic, MDS code construction, dual enumeration, and the
brute-force satisfaction oracle.

Everything here is exact: matrices are tuples of ints reduced mod p, the
oracle histogram is computed over the full solution space, and moment
comparisons use rational arithmetic.  Enumerations are chunked through
numpy for speed but their results do not depend on the chunking.

Both enumerations read a linear span from two per-code split tables.  The
oracle splits each solution x into (x_hi, x_lo), x_hi its n // 2 leading
coordinates, so that B x = B_hi x_hi + B_lo x_lo (mod p) reads tables of
p^(n // 2) and p^ceil(n / 2) columns; a batch of x_hi rows against a slice
of x_lo is then one table gather and no matmul.  The dual pass splits the
coefficients of the dual basis the same way, so each chunk of dual
codewords is broadcast adds of table columns and one reduction mod p.
Dual-code sums of tables over Z[omega], omega = e(1/p), are integers taken
modulo primes P = 1 (mod p) and joined by CRT (`dual_weight_sums`).
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import BudgetExceededError, DomainError

DEFAULT_ENUM_BUDGET = 10_000_000
_CHUNK = 1 << 16

# Witnesses making Miller-Rabin deterministic below 3.3 * 10^24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def enumeration_budget(override: int | None = None) -> int:
    if override is not None:
        return int(override)
    env = os.environ.get("OPILAB_BUDGET")
    try:
        return int(env) if env else DEFAULT_ENUM_BUDGET
    except ValueError:
        raise DomainError(f"OPILAB_BUDGET must be an integer, got {env!r}") from None


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin for the desk-scale range."""
    if p < 2:
        return False
    for w in _MR_WITNESSES:
        if p == w:
            return True
        if p % w == 0:
            return False
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for w in _MR_WITNESSES:
        x = pow(w, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldCtx:
    """The prime field F_p."""

    p: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise DomainError(f"{self.p} is not prime")


def _nullspace_mod_p(rows: list[list[int]], width: int, p: int) -> list[tuple[int, ...]]:
    """Basis of {y : M y = 0} for M given as rows of length `width`, mod p."""
    mat = [list(r) for r in rows]
    nrows = len(mat)
    pivots = []
    rank = 0
    for col in range(width):
        piv = next((r for r in range(rank, nrows) if mat[r][col] % p), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = pow(mat[rank][col], p - 2, p)
        mat[rank] = [v * inv % p for v in mat[rank]]
        for r in range(nrows):
            if r != rank and mat[r][col] % p:
                f = mat[r][col]
                mat[r] = [(v - f * w) % p for v, w in zip(mat[r], mat[rank])]
        pivots.append(col)
        rank += 1
    free = [c for c in range(width) if c not in pivots]
    basis = []
    for fc in free:
        y = [0] * width
        y[fc] = 1
        for r, pc in enumerate(pivots):
            y[pc] = (-mat[r][fc]) % p
        basis.append(tuple(y))
    return basis


def _det_mod_p(rows: list[list[int]], p: int) -> int:
    mat = [list(r) for r in rows]
    n = len(mat)
    det = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if mat[r][col] % p), None)
        if piv is None:
            return 0
        if piv != col:
            mat[col], mat[piv] = mat[piv], mat[col]
            det = -det % p
        det = det * mat[col][col] % p
        inv = pow(mat[col][col], p - 2, p)
        for r in range(col + 1, n):
            if mat[r][col] % p:
                f = mat[r][col] * inv % p
                mat[r] = [(v - f * w) % p for v, w in zip(mat[r], mat[col])]
    return det


def _mds_check(B, p: int):
    """Every n-row minor of the m x n matrix B must be invertible mod p.

    Exhaustive up to 12 rows, 200 seeded random row sets above.
    """
    m, n = len(B), len(B[0])
    if m <= 12:
        rowsets = itertools.combinations(range(m), n)
    else:
        rng = random.Random(0)
        rowsets = (tuple(sorted(rng.sample(range(m), n))) for _ in range(200))
    for rows in rowsets:
        if _det_mod_p([list(B[i]) for i in rows], p) == 0:
            raise DomainError(f"rows {rows} are dependent: matrix is not MDS")


@dataclass(frozen=True)
class MdsCode:
    """Length-m dimension-n MDS code over F_p, columnspan of the m x n matrix B."""

    ctx: FieldCtx
    m: int
    n: int
    B: tuple[tuple[int, ...], ...]
    dual_basis: tuple[tuple[int, ...], ...]

    @property
    def p(self) -> int:
        return self.ctx.p

    @property
    def dual_dim(self) -> int:
        return self.m - self.n

    @property
    def d_perp(self) -> int:
        # Singleton equality on the dual of an MDS code.
        return self.n + 1


def make_code(ctx: FieldCtx, B) -> MdsCode:
    """Build an MdsCode from an explicit generator matrix, verifying MDS."""
    p = ctx.p
    B = tuple(tuple(v % p for v in row) for row in B)
    m, n = len(B), len(B[0])
    if not 1 <= n <= m:
        raise DomainError(f"need 1 <= n <= m, got n={n} m={m}")
    if any(len(row) != n for row in B):
        raise DomainError("ragged generator matrix")
    # Alphabet-size bound for nontrivial MDS codes.
    if 2 <= n <= m - 2 and p < max(m - n + 1, n - 1):
        raise DomainError(f"no [{m},{n}] MDS code exists over F_{p}")
    _mds_check(B, p)
    dual = _nullspace_mod_p([[B[i][j] for i in range(m)] for j in range(n)], m, p)
    if len(dual) != m - n:
        raise DomainError("dual dimension mismatch")
    for y in dual:
        for j in range(n):
            if sum(B[i][j] * y[i] for i in range(m)) % p:
                raise DomainError("dual basis fails B^T y = 0")
    return MdsCode(ctx, m, n, B, tuple(dual))


def make_rs_code(ctx: FieldCtx, m: int, n: int, eval_points=None) -> MdsCode:
    """Reed-Solomon code on distinct evaluation points; B[i][j] = a_i^j.

    Defaults to consecutive points 0..m-1; any distinct choice is as good.
    """
    p = ctx.p
    # The shape comes first: the default points 0..m-1 wrap mod p when m > p.
    if not 1 <= n <= m:
        raise DomainError(f"need 1 <= n <= m, got n={n} m={m}")
    if m > p:
        raise DomainError(f"m={m} exceeds field size p={p}")
    if eval_points is None:
        eval_points = list(range(m))
    pts = [a % p for a in eval_points]
    if len(pts) != m:
        raise DomainError(f"need {m} evaluation points, got {len(pts)}")
    if len(set(pts)) != m:
        raise DomainError("duplicate evaluation points")
    B = [[pow(a, j, p) for j in range(n)] for a in pts]
    return make_code(ctx, B)


@dataclass(frozen=True)
class InputLists:
    """Constraint sets S_1..S_m, all of the same size rho*p."""

    p: int
    sets: tuple[tuple[int, ...], ...]
    rho: Fraction

    @property
    def m(self) -> int:
        return len(self.sets)


def make_lists(p: int, sets) -> InputLists:
    if not sets:
        raise DomainError("need at least one constraint set")
    canon = []
    size = None
    for s in sets:
        t = tuple(sorted(set(int(v) for v in s)))
        if len(t) != len(list(s)):
            raise DomainError("list elements must be distinct")
        if not t:
            raise DomainError("empty constraint set (rho must be positive)")
        if t[0] < 0 or t[-1] >= p:
            raise DomainError("list element outside [0, p)")
        if size is None:
            size = len(t)
        elif len(t) != size:
            raise DomainError("all lists must share a common size")
        canon.append(t)
    return InputLists(p, tuple(canon), Fraction(size, p))


def random_lists(p: int, m: int, size: int, seed: int) -> InputLists:
    """`make_lists` of m seeded draws of `size` elements, built directly:
    `rng.sample` already gives distinct in-range elements."""
    rng = random.Random(seed)
    sets = tuple(tuple(sorted(rng.sample(range(p), size))) for _ in range(m))
    if not sets or not size:
        return make_lists(p, sets)  # raises its empty-list errors
    return InputLists(p, sets, Fraction(size, p))


def lists_to_json(lists: InputLists) -> str:
    return json.dumps({"p": lists.p, "sets": [list(s) for s in lists.sets]})


def lists_from_json(text: str) -> InputLists:
    """InputLists from the file format {"p": int, "sets": [[int]]}."""
    obj = json.loads(text)
    if not (isinstance(obj, dict) and isinstance(obj.get("p"), int)
            and isinstance(obj.get("sets"), list)
            and all(isinstance(s, list) for s in obj["sets"])):
        raise DomainError('lists must be a JSON object {"p": int, "sets": [[int]]}')
    return make_lists(obj["p"], obj["sets"])


@dataclass(frozen=True)
class SatisfactionProfile:
    """Exact histogram of the satisfied-constraint count over all solutions."""

    m: int
    p: int
    n: int
    histogram: tuple[int, ...]  # index t -> #{x : exactly t constraints satisfied}
    best_x: tuple[int, ...]
    s_max: Fraction

    @property
    def total(self) -> int:
        return self.p ** self.n


def _span_tables(G: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(H, L) for the column span of the m x k matrix G over F_p, split at
    its k // 2 leading columns: H[:, h] = G_hi c_hi mod p over every c_hi
    and L[:, l] = G_lo c_lo mod p over every c_lo, both in C order, so
    that span vector h * L.shape[1] + l, coefficients in lexicographic
    order, is (H[:, h] + L[:, l]) mod p.  k = 0 gives one zero column each.
    Read-only, as its callers cache them per code."""
    k = G.shape[1]
    tables = []
    for cols in (G[:, :k // 2], G[:, k // 2:]):
        j = cols.shape[1]
        table = cols @ np.indices((p,) * j).reshape(j, p**j)
        table %= p
        table.setflags(write=False)
        tables.append(table)
    return tuple(tables)


def _span_tables_of(cached, code: MdsCode, k: int) -> tuple[np.ndarray, np.ndarray]:
    """cached(code) for the span tables of a k-column matrix, or its
    uncached build when a table would span more than 2^16 columns, so that
    no cache keeps a wide table after its call."""
    return (cached if code.p ** -(-k // 2) <= _CHUNK else cached.__wrapped__)(code)


@functools.lru_cache(maxsize=4)
def _split_tables(code: MdsCode) -> tuple[np.ndarray, np.ndarray]:
    """(C, V_lo): the span tables of B, with 2 p i added to row i of C, so
    that it starts row i of the oracle's flat membership array."""
    C, V_lo = _span_tables(np.array(code.B, dtype=np.int64), code.p)
    C = C + 2 * code.p * np.arange(code.m)[:, None]
    C.setflags(write=False)
    return C, V_lo


@functools.lru_cache(maxsize=4)
def _dual_tables(code: MdsCode) -> tuple[np.ndarray, np.ndarray]:
    """The span tables of the dual basis, as the columns of an m x (m - n)
    matrix."""
    G = np.array(code.dual_basis, dtype=np.int64).reshape(code.dual_dim, code.m).T
    return _span_tables(G, code.p)


def brute_force_opi(code: MdsCode, lists: InputLists, budget: int | None = None) -> SatisfactionProfile:
    """Enumerate all p^n solutions; ties in the argmax go to the
    lexicographically smallest x.

    Each membership row is stored twice, so entry c + v of row i is
    member_i[(c + v) mod p] for table entries c, v < p.  A batch of x_hi
    rows against a slice of at most 2^16 x_lo is one block of counts in C
    order, so its flat argmax is the block's lexicographically smallest
    best x."""
    p, m, n = code.p, code.m, code.n
    if lists.p != p or lists.m != m:
        raise DomainError("lists do not match the code")
    total = p ** n
    if total > enumeration_budget(budget):
        raise BudgetExceededError(f"p^n = {total} exceeds budget")
    C, V_lo = _span_tables_of(_split_tables, code, n)
    member = np.zeros((m, 2 * p), dtype=np.uint8)
    member[np.arange(m)[:, None], lists.sets] = 1
    member[:, p:] = member[:, :p]
    member = member.ravel()
    hi, lo = C.shape[1], V_lo.shape[1]
    width = min(lo, _CHUNK)
    batch = max(1, _CHUNK // (m * width))
    count_dtype = np.min_scalar_type(m)  # the counts reach m
    hist = np.zeros(m + 1, dtype=np.int64)
    best_count, best_idx = -1, -1
    for start in range(0, hi, batch):
        for lo_start in range(0, lo, width):
            idx = C[:, start:start + batch, None] + V_lo[:, None, lo_start:lo_start + width]
            sat = member[idx].sum(axis=0, dtype=count_dtype)
            hist += np.bincount(sat.ravel(), minlength=m + 1)
            row, col = divmod(int(np.argmax(sat)), sat.shape[1])
            if int(sat[row, col]) > best_count:
                best_count, best_idx = int(sat[row, col]), (start + row) * lo + lo_start + col
    return SatisfactionProfile(
        m=m, p=p, n=n,
        histogram=tuple(int(v) for v in hist),
        best_x=tuple(int(v) for v in np.unravel_index(best_idx, (p,) * n)),
        s_max=Fraction(best_count, m),
    )


def dual_codewords(code: MdsCode, budget: int | None = None):
    """Yield all p^(m-n) dual codewords as C-contiguous (m x chunk) arrays,
    coefficient vectors in lexicographic order.  A chunk is runs of L
    columns on one H column each (`_dual_tables`): its whole runs take one
    broadcast add, a partial run at either end one more."""
    p, m = code.p, code.m
    total = p ** code.dual_dim
    if total > enumeration_budget(budget):
        raise BudgetExceededError(f"p^(m-n) = {total} exceeds budget")
    H, L = _span_tables_of(_dual_tables, code, code.dual_dim)
    width = L.shape[1]
    for start in range(0, total, _CHUNK):
        stop = min(start + _CHUNK, total)
        Y = np.empty((m, stop - start), dtype=np.int64)
        pos = start
        while pos < stop:
            h, l = divmod(pos, width)
            rows = max(1, (stop - pos) // width) if l == 0 else 1
            cols = min(width - l, stop - pos)
            at = pos - start
            np.add(H[:, h:h + rows, None], L[:, None, l:l + cols],
                   out=Y[:, at:at + rows * cols].reshape(m, rows, cols))
            pos += rows * cols
        Y %= p
        yield Y


@functools.cache
def _crt_prime(p: int, index: int) -> tuple[int, int]:
    """The index-th largest prime P = 1 (mod p) below 2^31, and a g != 1
    with g^p = 1 in F_P: omega = e(1/p) -> g maps Z[omega] onto F_P."""
    P = _crt_prime(p, index - 1)[0] - p if index else 1 + ((1 << 31) - 2) // p * p
    while P > p and not is_prime(P):
        P -= p
    if P <= p:
        raise DomainError(f"too few primes P = 1 (mod {p}) below 2^31 for the dual sums")
    return P, next(g for g in (pow(h, (P - 1) // p, P) for h in itertools.count(2)) if g != 1)


def dual_weight_sums(code: MdsCode, tables_of, bound: int, budget: int | None = None) -> tuple[int, ...]:
    """N_t = sum over weight-t dual codewords y of prod_i T[i, y_i], t = 0..m, for
    an m x p table T over Z[omega] with integer |N_t| <= bound: one dual pass mod
    `_crt_prime`s whose product exceeds 2 bound (`tables_of(primes)` gives T mod
    each (P, g) as (primes, m, p) int64); a chunk's sums stay below 2^47."""
    primes = [_crt_prime(code.p, 0)]
    while math.prod(P for P, _ in primes) <= 2 * bound:
        primes.append(_crt_prime(code.p, len(primes)))
    tables, residues = None, np.zeros((len(primes), code.m + 1), dtype=np.int64)
    for Y in dual_codewords(code, budget):
        # built at the first chunk, once dual_codewords has checked the budget
        tables = tables_of(primes) if tables is None else tables
        w, buf = (Y != 0).sum(axis=0), np.empty(Y.shape[1], dtype=np.int64)
        for (P, _), table, res in zip(primes, tables, residues):
            prod = table[0][Y[0]]
            for row, y in zip(table[1:], Y[1:]):
                # unbuffered take (y is in range); floor division is faster than %
                prod *= np.take(row, y, out=buf, mode="clip")
                prod -= np.multiply(np.floor_divide(prod, P, out=buf), P, out=buf)
            res += np.bincount(w, weights=prod, minlength=code.m + 1).astype(np.int64)
            res %= P
    modulus = math.prod(P for P, _ in primes)  # CRT, then the symmetric residue
    sums = [sum(r * (modulus // P) * pow(modulus // P, -1, P) for (P, _), r in zip(primes, col))
            % modulus for col in residues.T.tolist()]
    return tuple(x - modulus if 2 * x > modulus else x for x in sums)


def min_dual_weight(code: MdsCode) -> int:
    """Smallest nonzero dual weight, m + 1 when the dual code is {0}: the
    weight counts are the weight sums of a table of ones."""
    ones = lambda primes: np.ones((len(primes), code.m, code.p), dtype=np.int64)
    counts = dual_weight_sums(code, ones, code.p ** code.dual_dim)
    return next((t for t in range(1, code.m + 1) if counts[t]), code.m + 1)


def binomial_weights(m: int, rho: Fraction) -> list[Fraction]:
    rho = Fraction(rho)
    return [math.comb(m, t) * rho**t * (1 - rho) ** (m - t) for t in range(m + 1)]


def _moments(numerators, denominator: int, order: int) -> list[Fraction]:
    """E[X^j], j = 0..order, for P(X = t) = numerators[t] / denominator,
    summed on integers."""
    return [Fraction(sum(c * t**j for t, c in enumerate(numerators)), denominator)
            for j in range(order + 1)]


def binomial_moments(m: int, rho: Fraction, order: int) -> list[Fraction]:
    """Exact moments E[X^j], j = 0..order, of X ~ Bin(m, rho), from one
    `binomial_weights` list over the lcm of its denominators."""
    weights = binomial_weights(m, rho)
    d = math.lcm(*(w.denominator for w in weights))
    return _moments([w.numerator * (d // w.denominator) for w in weights], d, order)


def profile_moments(profile: SatisfactionProfile, order: int) -> list[Fraction]:
    """Exact moments E[X^j], j = 0..order, of the satisfied count X of a
    uniform solution, from one pass over the histogram."""
    return _moments(profile.histogram, profile.total, order)


def moments_match_check(code: MdsCode, lists: InputLists, order: int,
                        profile: SatisfactionProfile | None = None) -> bool:
    """True iff the count of satisfied constraints matches Bin(m, rho)
    moments exactly up to `order` (rational arithmetic on both sides)."""
    if profile is None:
        profile = brute_force_opi(code, lists)
    return profile_moments(profile, order) == binomial_moments(code.m, lists.rho, order)
