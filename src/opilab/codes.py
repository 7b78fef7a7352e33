"""Prime-field arithmetic, MDS code construction, and the one codeword
enumeration behind the brute-force satisfaction oracle and the dual pass.

Everything here is exact: matrices are tuples of ints reduced mod p, the
oracle histogram is computed over the full solution space, and moment
comparisons use rational arithmetic.  Enumerations are chunked through
numpy for speed but their results do not depend on the chunking.

One generator, `_codeword_chunks`, enumerates the span of any m x k
generator matrix G.  It splits each coefficient vector c into (c_hi, c_lo),
c_hi its k // 2 leading coordinates, so that G c = G_hi c_hi + G_lo c_lo
(mod p) reads two cached tables of p^(k // 2) and p^ceil(k / 2) columns
(`_span_tables`).  A chunk of about 2^16 entries is one broadcast add of
table columns and no reduction: row i holds H + L in [0, 2p) plus 2 p i,
so the chunk indexes the rows of any m 2p-row table that stores each row
of an m x p table twice.  Past 2^16 columns (n = 1 or m - n = 1 at p >
2^16) no table is built: each chunk's columns come from its own
coefficient slice, one multiply-add per coordinate and one reduction mod p
(`_span_columns`, which also builds the tables).

The oracle splits each solution into x = (x_lead, x_tail), x_tail the last
j = floor((n - 1) / 2) coordinates, with j cut until 2 p W <= 2^16 for W =
p^j.  Per call it builds one uint8 table V of m 2p rows and W columns,
V[2 p i + s, l] = [s + (B_tail x_tail)_i mod p in S_i] for the l-th tail,
gathered from the doubled membership table through an index that depends
only on the code (`_oracle_split`: cached per code in the smallest
unsigned dtype; the cap keeps it within a span table's 2^16 columns), 2^16
index entries at a time, so numpy's intp copy of it stays chunk-sized.  The
lead codewords come from `_codeword_chunks` on B's n - j leading columns,
about 2^16 / (m W) per chunk, and their unreduced sums gather whole V rows:
one sum over the m rows counts b x W solutions.  At j = 0 (n <= 2, or 2
p^2 > 2^16, p > 181) V is the doubled membership table itself and no
index is built.

The dual pass gathers doubled tables over Z[omega], omega = e(1/p),
modulo primes P = 1 (mod p) and joins the integer sums by CRT
(`dual_weight_sums`).
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
_CHUNK = 1 << 16  # entries per enumeration chunk; columns of the widest cached table

# Witnesses making Miller-Rabin deterministic below _MR_LIMIT, the least
# strong pseudoprime to all of them (1287836182261 * 2575672364521).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def enumeration_budget(override: int | None = None) -> int:
    if override is not None:
        return int(override)
    env = os.environ.get("OPILAB_BUDGET")
    try:
        return int(env) if env else DEFAULT_ENUM_BUDGET
    except ValueError:
        raise DomainError(f"OPILAB_BUDGET must be an integer, got {env!r}") from None


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin below _MR_LIMIT; DomainError from there up."""
    if p < 2:
        return False
    if p >= _MR_LIMIT:
        raise DomainError(f"{p} is past the deterministic primality range (below {_MR_LIMIT})")
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


def _mds_check(B, p: int):
    """Every one of the C(m, n) n-row minors of the m x n matrix B must be
    invertible mod p, checked in lexicographic order; refused past the
    enumeration budget before any is checked."""
    m, n = len(B), len(B[0])
    minors = math.comb(m, n)
    budget = enumeration_budget()
    if minors > budget:
        raise BudgetExceededError(f"C({m}, {n}) = {minors} minors exceed budget {budget}")
    for rows in itertools.combinations(range(m), n):
        if _nullspace_mod_p([B[i] for i in rows], n, p):
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
    return _with_dual(ctx, B)


def _with_dual(ctx: FieldCtx, B) -> MdsCode:
    """The MdsCode of the m x n matrix B (a tuple of reduced rows, taken as
    MDS), with a dual basis self-checked against B^T y = 0."""
    p, m, n = ctx.p, len(B), len(B[0])
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
    # Each n-row minor is a Vandermonde determinant on distinct points: nonzero.
    return _with_dual(ctx, tuple(tuple(pow(a, j, p) for j in range(n)) for a in pts))


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
    """InputLists from the file format {"p": int, "sets": [[int]]}: p and
    every element must be JSON integers, not floats, strings or booleans."""
    obj = json.loads(text)
    if not (isinstance(obj, dict) and "p" in obj and isinstance(obj.get("sets"), list)
            and all(isinstance(s, list) for s in obj["sets"])):
        raise DomainError('lists must be a JSON object {"p": int, "sets": [[int]]}')
    for v in (obj["p"], *itertools.chain.from_iterable(obj["sets"])):
        if type(v) is not int:
            raise DomainError(f"p and list elements must be JSON integers, got {json.dumps(v)}")
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


def _span_columns(G: np.ndarray, p: int, start: int, stop: int) -> np.ndarray:
    """(G c) mod p as an m x (stop - start) int64 array, for the m x k int64
    matrix G and its coefficient vectors c of lexicographic indices start to
    stop - 1: one multiply-add per coordinate over the digits of c, trailing
    digit first, then one reduction mod p.  k = 0 gives zero columns."""
    c = np.arange(start, stop)
    S = np.zeros((G.shape[0], c.size), dtype=np.int64)
    for g in G.T[::-1]:
        q = c // p  # floor division by a scalar is faster than %
        S += g[:, None] * (c - q * p)
        c = q
    S -= S // p * p
    return S


@functools.lru_cache(maxsize=8)
def _span_tables(rows, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(H, L) for the column span of the m x k matrix G over F_p given by its
    `rows`, split at its k // 2 leading columns: H[i, h] = (G_hi c_hi)_i mod p
    + 2 p i over every c_hi and L[i, l] = (G_lo c_lo)_i mod p over every
    c_lo, both in C order.  k = 0 gives one column each.  Read-only, as the
    cache shares them."""
    G = np.array(rows, dtype=np.int64)
    m, k = G.shape
    H, L = (_span_columns(g, p, 0, p ** g.shape[1]) for g in (G[:, :k // 2], G[:, k // 2:]))
    H += 2 * p * np.arange(m)[:, None]
    H.setflags(write=False)
    L.setflags(write=False)
    return H, L


def _codeword_chunks(rows, p: int, size: int | None = None):
    """Yield (start, S) over the p^k vectors G c of the span of the m x k
    matrix G given by its `rows`, coefficient vectors c in lexicographic
    order: column j of the m x b int64 array S is vector start + j.  S holds
    unreduced sums in [2 p i, 2 p i + 2 p) on row i: it indexes the rows of
    any m 2p-row table that stores each row of an m x p table twice, and
    S % p is the vectors.  A chunk holds `size` vectors, about 2^16 entries
    by default.  S is H[:, h] + L[:, l] from `_span_tables` while the lo
    table is at most 2^16 columns wide; past that, no table is built and
    each chunk's columns come from its own coefficient slice."""
    m = len(rows)
    k = len(rows[0])
    size = size or max(1, _CHUNK // m)  # vectors per chunk
    if p ** -(-k // 2) > _CHUNK:
        G, offset, total = np.array(rows, dtype=np.int64), 2 * p * np.arange(m)[:, None], p ** k
        for start in range(0, total, size):
            S = _span_columns(G, p, start, min(start + size, total))
            S += offset
            yield start, S
        return
    H, L = _span_tables(rows, p)
    width = L.shape[1]
    batch, step = max(1, size // width), min(size, width)
    for h in range(0, H.shape[1], batch):
        for l in range(0, width, step):
            yield h * width + l, (H[:, h:h + batch, None] + L[:, None, l:l + step]).reshape(m, -1)


@functools.lru_cache(maxsize=8)
def _oracle_split(B, p: int) -> tuple[tuple, int, np.ndarray | None]:
    """(lead, W, index) for the oracle on the m x n matrix B given by its
    rows, split as the module docstring says: `lead` holds the rows of B's
    n - j leading columns, W = p^j, and `index` is the m 2p x W gather of
    the raveled doubled membership table into V, entry (2 p i + s, l) = 2 p
    i + (s + T[i, l]) mod p for T = B_tail x_tail over the tails in C
    order; None at j = 0.  Read-only, as the cache shares it."""
    m, n = len(B), len(B[0])
    j = (n - 1) // 2
    while j and 2 * p ** (j + 1) > _CHUNK:
        j -= 1
    if not j:
        return B, 1, None
    W = p ** j
    T = _span_columns(np.array(B, dtype=np.int64)[:, n - j:], p, 0, W)
    index = np.empty((m, 2 * p, W), dtype=np.min_scalar_type(2 * p * m - 1))
    for i, t in enumerate(T):  # a row at a time: no temporary past 2^16 entries
        index[i] = (np.arange(2 * p)[:, None] + t) % p + 2 * p * i
    index = index.reshape(2 * p * m, W)
    index.setflags(write=False)
    return tuple(r[:n - j] for r in B), W, index


def brute_force_opi(code: MdsCode, lists: InputLists, budget: int | None = None) -> SatisfactionProfile:
    """Enumerate all p^n solutions; ties in the argmax go to the
    lexicographically smallest x, the first maximum of the first chunk
    that holds one.  Each chunk of lead codewords gathers whole rows of the
    shifted table V (see the module docstring): b x W counts at once."""
    p, m, n = code.p, code.m, code.n
    if lists.p != p or lists.m != m:
        raise DomainError("lists do not match the code")
    total = p ** n
    if total > enumeration_budget(budget):
        raise BudgetExceededError(f"p^n = {total} exceeds budget")
    member = np.zeros((m, 2 * p), dtype=np.uint8)
    member[np.arange(m)[:, None], lists.sets] = 1
    member[:, p:] = member[:, :p]
    lead, W, index = _oracle_split(code.B, p)
    if index is None:  # j = 0: V is the doubled membership table itself
        V = member.reshape(-1, 1)
    else:  # 2^16 entries at a time: numpy gathers through an intp copy of the index
        V = np.empty(index.shape, dtype=np.uint8)
        for r in range(0, len(index), _CHUNK // W):
            np.take(member, index[r:r + _CHUNK // W], out=V[r:r + _CHUNK // W])
    count_dtype = np.min_scalar_type(m)  # the counts reach m
    hist = np.zeros(m + 1, dtype=np.int64)
    best_count, best_idx = -1, -1
    for start, S in _codeword_chunks(lead, p, max(1, _CHUNK // (m * W))):
        sat = np.add.reduce(np.take(V, S, axis=0), axis=0, dtype=count_dtype).ravel()
        hist += np.bincount(sat, minlength=m + 1)
        q = int(sat.argmax())
        if sat[q] > best_count:
            best_count, best_idx = int(sat[q]), start * W + q
    return SatisfactionProfile(
        m=m, p=p, n=n,
        histogram=tuple(hist.tolist()),
        best_x=tuple(best_idx // p ** e % p for e in range(n - 1, -1, -1)),
        s_max=Fraction(best_count, m),
    )


def dual_codewords(code: MdsCode, budget: int | None = None):
    """Yield the p^(m-n) dual codewords in lexicographic coefficient order,
    as the chunks S of `_codeword_chunks`: S % p is the codewords, and S
    indexes a raveled m x 2p table that stores each row twice."""
    total = code.p ** code.dual_dim
    if total > enumeration_budget(budget):
        raise BudgetExceededError(f"p^(m-n) = {total} exceeds budget")
    rows = tuple(tuple(y[i] for y in code.dual_basis) for i in range(code.m))
    for _, S in _codeword_chunks(rows, code.p):
        yield S


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
    each (P, g) as (primes, m, p) int64, held doubled, 2 m p entries per prime, so
    the chunks index it unreduced); a chunk's sums stay below 2^47."""
    primes = [_crt_prime(code.p, 0)]
    while math.prod(P for P, _ in primes) <= 2 * bound:
        primes.append(_crt_prime(code.p, len(primes)))
    nonzero = np.tile(np.arange(code.p) != 0, 2 * code.m)
    tables, residues = None, np.zeros((len(primes), code.m + 1), dtype=np.int64)
    for S in dual_codewords(code, budget):
        # built at the first chunk, once dual_codewords has checked the budget
        tables = np.tile(tables_of(primes), 2).reshape(len(primes), -1) if tables is None else tables
        w, buf = nonzero[S].sum(axis=0), np.empty(S.shape[1], dtype=np.int64)
        for (P, _), table, res in zip(primes, tables, residues):
            prod = table[S[0]]
            for s in S[1:]:
                # unbuffered take (s is in range); floor division is faster than %
                prod *= np.take(table, s, out=buf, mode="clip")
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


def binomial_numerators(m: int, rho: Fraction) -> list[int]:
    """The Bin(m, P/Q) weights times Q^m: C(m,t) P^t (Q-P)^(m-t), t = 0..m."""
    p, q = Fraction(rho).as_integer_ratio()
    return [math.comb(m, t) * p**t * (q - p) ** (m - t) for t in range(m + 1)]


def _moments(numerators, denominator: int, order: int) -> list[Fraction]:
    """E[X^j], j = 0..order, for P(X = t) = numerators[t] / denominator,
    summed on integers."""
    return [Fraction(sum(c * t**j for t, c in enumerate(numerators)), denominator)
            for j in range(order + 1)]


def binomial_moments(m: int, rho: Fraction, order: int) -> list[Fraction]:
    """Exact moments E[X^j], j = 0..order, of X ~ Bin(m, rho), on integers."""
    return _moments(binomial_numerators(m, rho), Fraction(rho).denominator ** m, order)


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
