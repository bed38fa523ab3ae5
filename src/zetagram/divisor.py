"""Generalized divisor functions d_kappa (Dirichlet coefficients of
zeta^kappa), truncated convolution powers, partial-sum asymptotics, and
the cubic-moment polynomials built from Stieltjes constants.

Tables of d_kappa come from one segmented sieve, _sieve_segments, one
kappa per pass; it serves the tables alone (build_table and `divisor
--limit`).  The sums need no sieve: sum_{n<=x} d_kappa(n) and the ratio
sums of the divisor check, sum_{n<=x} d_lam(n) d_mu(n)/n, have
multiplicative terms, so one prime-sum engine gives them at every
floor(x/k) from two passes over the primes up to sqrt(x), in
double-double arithmetic (_multiplicative_sums).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .special import DomainError, _bernoulli, _split, _two_prod

__all__ = [
    "DivisorTable",
    "TruncatedCoeffs",
    "MomentPolynomial",
    "primes_up_to",
    "d_kappa",
    "build_table",
    "convolve_truncated",
    "divisor_partial_sum",
    "divisor_ratio_sum",
    "divisor_ratio_sums_by_case",
    "stieltjes",
    "p2_polynomial",
    "p3_polynomial",
]

#: hard cap on convolution output length (entries)
INDEX_BUDGET = 100_000_000

#: Entries per sieve segment (2 MiB of values and 1 MiB of their
#: sieved parts, int32).
SEG = 1 << 18


def primes_up_to(n: int) -> np.ndarray:
    """Primes <= n by a boolean sieve of the odd numbers to n; n + 1
    must fit INDEX_BUDGET."""
    if n + 1 > INDEX_BUDGET:
        raise DomainError(f"sieve of size {n} exceeds budget")
    if n < 2:
        return np.empty(0, dtype=np.int64)
    mask = np.ones((n + 1) // 2, dtype=bool)  # mask[i] for 2 i + 1
    for p in range(3, math.isqrt(n) + 1, 2):
        if mask[p // 2]:
            mask[p * p // 2::p] = False
    primes = 2 * np.flatnonzero(mask).astype(np.int64) + 1
    primes[0] = 2  # in place of 1, which mask[0] stands for
    return primes


# ----------------------------------------------------------------------
# d_kappa pointwise and by sieve
# ----------------------------------------------------------------------

#: The largest kappa accepted.  For kappa >= 1 each prime-power ratio
#: (kappa + e - 1)/e is at most kappa, and for kappa < 1 at most 1, so
#: d_kappa(n) <= max(kappa, 1)^Omega(n), Omega(n) the number of prime
#: factors of n with multiplicity; Omega(n) <= 26 for every n below
#: INDEX_BUDGET < 2^27.  At kappa <= 1e5 that gives d_kappa(n) <= 1e130,
#: a product d_lam(n) d_mu(n) <= 1e260, and a sum of at most
#: INDEX_BUDGET = 1e8 of either <= 1e268, below the largest double,
#: 1.8e308.  (The largest value, d_kappa(2^26) ~ kappa^26 / 26!, is
#: 2.5e103 at kappa = 1e5.)
KAPPA_MAX = 1e5


def _check_kappa(kappa: float) -> None:
    if not (math.isfinite(kappa) and 0 < kappa <= KAPPA_MAX):
        raise DomainError(f"kappa must be finite and positive and at most {KAPPA_MAX:g}, "
                          f"got {kappa!r}")


def _prime_power_coeff(kappa: float, j: int) -> float:
    """d_kappa(p^j) = Gamma(kappa + j) / (Gamma(kappa) j!) as the product
    prod_{i<j} (kappa + i)/(i + 1)."""
    out = 1.0
    for i in range(j):
        out *= (kappa + i) / (i + 1.0)
    return out


def d_kappa(n: int, kappa: float) -> float:
    """Multiplicative extension of the prime-power formula, by trial
    factorization, one n at a time.  Tables take their values from the
    sieve, _sieve_segments, instead, and sums over n come from the
    prime-sum engine, _multiplicative_sums."""
    if n < 1:
        raise DomainError("d_kappa requires n >= 1")
    _check_kappa(kappa)
    out = 1.0
    m = int(n)
    p = 2
    while p * p <= m:
        if m % p == 0:
            j = 0
            while m % p == 0:
                m //= p
                j += 1
            out *= _prime_power_coeff(kappa, j)
        p += 1 if p == 2 else 2
    if m > 1:
        out *= kappa
    return out


@dataclass(frozen=True)
class DivisorTable:
    """values[n] = d_kappa(n) for 1 <= n <= limit (index 0 unused)."""

    kappa: float
    limit: int
    values: np.ndarray

    def __getitem__(self, n: int) -> float:
        return float(self.values[n])


def _sieve_segments(kappa: float, limit: int):
    """d_kappa(1..limit), one segment at a time: segment j holds
    n = j SEG + 1 .. (j + 1) SEG (the last may be shorter).

    Each n gets the prime-power ratio d_kappa(p^e)/d_kappa(p^{e-1}) =
    (kappa + e - 1)/e for every p^e dividing it, primes ascending, then
    exponents ascending.  Only primes p <= sqrt(limit) are sieved.  An n
    they do not make up whole has one prime factor q above sqrt(limit),
    its largest, so q's ratio, rounded as at e = 1: (kappa + 1 - 1.0) / 1,
    which is not always kappa, comes last.

    Such a rough n is found by its sieved part s, the product of the
    p^e that divide it: n is rough exactly when s != n.  s divides n,
    and n < INDEX_BUDGET < 2^31, so s is exact in int32.

    The arrays are reused: a segment is valid until the next is asked
    for, so a caller copies what it keeps.  The arguments are checked at
    the call, not at the first next().
    """
    _check_kappa(kappa)
    limit = int(limit)
    if limit < 1:
        raise DomainError("limit must be >= 1")
    if limit + 1 > INDEX_BUDGET:
        raise DomainError(f"table of size {limit} exceeds budget")

    def segments():
        small = primes_up_to(math.isqrt(limit)).tolist()
        buf = np.empty(min(SEG, limit))
        sieved = np.empty(min(SEG, limit), np.int32)
        for lo in range(1, limit + 1, SEG):
            size = min(SEG, limit - lo + 1)
            v = buf[:size]
            v[:] = 1.0
            if kappa != 1.0:
                s = sieved[:size]
                s[:] = 1
                for p in small:
                    pe, e = p, 1
                    # no multiple of p^e in the segment means none of p^(e+1)
                    while (first := -lo % pe) < size:
                        v[first::pe] *= (kappa + e - 1.0) / e
                        s[first::pe] *= p
                        pe *= p
                        e += 1
                v[s != np.arange(lo, lo + size, dtype=np.int32)] *= (kappa + 1 - 1.0) / 1
            yield v

    return segments()


def build_table(kappa: float, limit: int) -> DivisorTable:
    """d_kappa(0..limit) in one array, with d_kappa(0) = 0, filled from
    the sieve segment by segment (see _sieve_segments).  It holds the
    whole table; `divisor --limit` writes the segments as they come."""
    segments = _sieve_segments(kappa, limit)
    limit = int(limit)
    vals = np.zeros(limit + 1)
    for lo, seg in zip(range(1, limit + 1, SEG), segments):
        vals[lo:lo + seg.size] = seg
    return DivisorTable(kappa=kappa, limit=limit, values=vals)


# ----------------------------------------------------------------------
# Truncated convolution powers
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TruncatedCoeffs:
    """Coefficients of (sum_{n<=xi} d_kappa(n) n^{-s})^m, indexed by n.

    values[n] agrees with d_{kappa m}(n) for n <= xi and never exceeds
    it anywhere.
    """

    kappa: float
    m: int
    xi: float
    values: np.ndarray

    @property
    def limit(self) -> int:
        return int(self.values.size - 1)

    def __getitem__(self, n: int) -> float:
        return float(self.values[n])


def _dirichlet_convolve(a: np.ndarray, b_idx: list, b_val: list, limit: int) -> np.ndarray:
    out = np.zeros(limit + 1, dtype=float)
    for j, bj in zip(b_idx, b_val):
        top = limit // j
        out[j::j] += bj * a[1:top + 1]
    return out


def convolve_truncated(kappa: float, m: int, xi: float) -> TruncatedCoeffs:
    """m-fold Dirichlet power of the xi-truncated d_kappa sequence."""
    if m < 0:
        raise DomainError("m must be >= 0")
    if not 1 <= xi < math.inf:
        raise DomainError(f"xi must be >= 1 and finite, got {xi!r}")
    base_limit = int(math.floor(xi))
    limit = base_limit ** m if m else 1
    if limit + 1 > INDEX_BUDGET:
        raise DomainError(f"convolution length {limit} exceeds budget")
    if m == 0:
        vals = np.zeros(2, dtype=float)
        vals[1] = 1.0
        return TruncatedCoeffs(kappa=kappa, m=0, xi=xi, values=vals)
    base = build_table(kappa, base_limit)
    b_idx = list(range(1, base_limit + 1))
    b_val = [float(base.values[j]) for j in b_idx]
    acc = np.zeros(limit + 1, dtype=float)
    acc[1] = 1.0
    if base_limit > 1:  # else every power of the one-term polynomial 1 is itself
        for _ in range(m):
            acc = _dirichlet_convolve(acc, b_idx, b_val, limit)
    return TruncatedCoeffs(kappa=kappa, m=m, xi=xi, values=acc)


# ----------------------------------------------------------------------
# Partial sums
# ----------------------------------------------------------------------

def divisor_partial_sum(lam: float, x: float):
    """(sum_{n<=x} d_lam(n), x P_{lam-1}(log x) or None) for any lam > 0.

    The sum needs no sieve: it is the prime-sum engine,
    _multiplicative_sums, with s = 0 and the one case (lam, 1), whose
    pass 1 counts primes exactly.  For integer lam every d_lam(p^e) is
    an integer, so a sum below 2^53 comes out as the exact integer; for
    any other lam it is the correctly rounded exact sum.  It works on
    about 2 sqrt(x) values and loops over the primes up to x^(1/3): the
    sum of d_3 to 1e6 takes about 10 ms, with a traced peak under 1 MiB,
    on one core of a shared 2-core machine.

    The residue polynomial is implemented for lam = 3 (via P2); for
    other lam the exact sum is still returned with prediction None.
    """
    if not 2 <= x < math.inf:
        raise DomainError(f"x must be finite and >= 2, got {x!r}")
    total = _multiplicative_sums(((lam, 1.0),), (int(math.floor(x)),), 0)[0][0]
    if lam == 3:
        prediction = x * p2_polynomial()(math.log(x))
    else:
        prediction = None
    return total, prediction


def divisor_ratio_sum(lam: float, mu: float, x: float) -> float:
    """sum_{n<=x} d_lam(n) d_mu(n) / n, correctly rounded."""
    return divisor_ratio_sums_at(lam, mu, (x,))[0]


def divisor_ratio_sums_at(lam: float, mu: float, checkpoints) -> list:
    """sum_{n<=x} d_lam(n) d_mu(n) / n at several checkpoints x: the one
    case (lam, mu) of divisor_ratio_sums_by_case."""
    return divisor_ratio_sums_by_case(((lam, mu),), checkpoints)[0]


def divisor_ratio_sums_by_case(cases, checkpoints) -> list:
    """For each case (lam, mu), the correctly rounded sum of the exact
    d_lam(n) d_mu(n) / n over n <= x, at every checkpoint x.  Every
    checkpoint must be finite and >= 2, there must be at least one, and
    the largest, top, must fit INDEX_BUDGET as a sieve would.  Returns
    one list per case.

    No sieve: the prime-sum engine, _multiplicative_sums, with s = 1.
    At top = 1e7 it works on 6,323 values floor(x/k), loops over the 47
    primes up to top^(1/3) and folds the other 399 primes up to
    sqrt(top) into one shared sum; the three cases of the divisor check
    take about 0.06 s on one core of a shared 2-core machine.
    """
    checkpoints = list(checkpoints)
    if not checkpoints or not all(2 <= c < math.inf for c in checkpoints):
        raise DomainError(f"checkpoints must be finite and >= 2, got {checkpoints!r}")
    return _multiplicative_sums(cases, [int(c) for c in checkpoints], 1)


def _multiplicative_sums(cases, xs, s: int) -> list:
    """For each case (lam, mu), the correctly rounded sum_{n<=x} d_lam(n)
    d_mu(n) n^-s at every x of xs (ints >= 2): one list per case.  s is
    0 for the partial sums and 1 for the ratio sums, and nothing else.

    f(n) = d_lam(n) d_mu(n) n^-s is multiplicative, with f(p^e) =
    d_lam(p^e) d_mu(p^e) w_p^e, w_p = p^-s, and f(p) = lam mu w_p.  So
    its partial sums F(v) at every v of V, the union over x of
    {floor(x/k)}, follow from two passes over the primes p <= sqrt(top),
    top = max(xs) (the prime-sum recurrence of Lagarias, Miller &
    Odlyzko 1985, extended to multiplicative f).  V is closed under
    v -> floor(v/m), and holds about 2 sqrt(top) values.
      - Pass 1, shared by the cases, gives G(v) = sum_{p<=v} w_p.  It
        starts from sum_{2<=n<=v} w_n (v - 1, or H(v) - 1) and takes the
        primes ascending, removing for every v >= p^2 the n whose least
        prime factor is p:
            G(v) -= w_p (G(floor(v/p)) - G(p - 1)).
      - Pass 2 starts from F(v) = lam mu G(v), the primes' terms, and
        takes the primes descending, adding for every v >= p^2 the
        composite n <= v whose least prime factor is p:
            F(v) += sum_{e: p^(e+1) <= v} f(p^e) (F(floor(v/p^e)) - lam mu G(p))
                                          + f(p^(e+1)).
    Only the small primes, p^3 <= top, take a step of their own.  A
    large prime has e = 1 only, and reads floor(v/p) <= top/p < q^2 for
    every large q, a value that no large prime's step writes, in either
    pass.  So their steps add up to two sums over the large p <= sqrt(v),
    the same for every case (_large_prime_sums),
        D(v) = sum w_p (G(floor(v/p)) - G(p - 1)),   C(v) = sum w_p^2,
    formed once after the small primes of pass 1, which then gives
    G(v) - D(v).  Pass 2 starts with
        F(v) += (lam mu)^2 (D(v) - C(v)) + d_lam(p^2) d_mu(p^2) C(v).
    A small prime's constants, f(p^(e+1)) - f(p^e) lam mu G(p), are
    summed over e <= E(v), the largest e with p^(e+1) <= v, and added
    once per v.  Its products f(p^e) F(floor(v/p^e)) are exact (Dekker),
    from halves of f(p^e) split once and of F split once per prime, and
    they gather in one unevaluated pair per v before F takes them.

    Every step works on a suffix of V in whole-array numpy operations,
    the cases stacked as rows.  Every value is a double-double (hi, lo),
    and each operation errs by about 2^-104 of its largest operand (H(v)
    by about 2^-98), so the sums carry far more bits than the 53 they
    are rounded to.
    """
    top = max(xs)
    cases = list(cases)
    for kappa in (k for case in cases for k in case):
        _check_kappa(kappa)
    if top + 1 > INDEX_BUDGET:
        raise DomainError(f"table of size {top} exceeds budget")
    vs = _quotients(xs)
    primes = primes_up_to(math.isqrt(top))
    small = primes[primes ** 3 <= top]
    large = primes[small.size:]
    g = _harmonic_minus_one(vs) if s else np.array((vs - 1.0, np.zeros(vs.size)))
    for p in small.tolist():
        first = np.searchsorted(vs, p * p)
        w = np.searchsorted(vs, vs[first:] // p)
        t = _dd_add(g[:, p - 2], -g[:, w])
        # at s = 0, w_p = 1, and x / 1 is x for the normalized pairs of _dd_add
        g[:, first:] = _dd_add(g[:, first:], _dd_div(t, float(p)) if s else t)
    lo = np.searchsorted(vs, large[0] ** 2) if large.size else vs.size
    d, c = _large_prime_sums(vs, lo, g, large, s)
    g[:, lo:] = _dd_add(g[:, lo:], -d)

    kappas = np.array(cases, dtype=float).reshape(-1, 2).T[..., None]
    lam_mu = _two_prod(kappas[0], kappas[1])
    # d_lam(p^e) and d_mu(p^e), the same for every p, for e = 1, 2, ...:
    # the prefix products of (kappa + e - 1)/e
    exps = np.arange(1.0, top.bit_length() + 1)
    d_pe = _dd_scan(_dd_div(_two_sum(kappas, exps - 1.0), exps), _dd_mul)
    coeffs = np.array(_dd_mul(d_pe[:, 0], d_pe[:, 1]))
    sums = np.array(_dd_mul(lam_mu, g[:, None, :]))  # the primes' terms
    sums[..., lo:] = _dd_add(sums[..., lo:], _dd_add(
        _dd_mul(_dd_mul(lam_mu, lam_mu), _dd_add(d, -c)), _dd_mul(coeffs[:, :, 1, None], c)))
    # f(p^e) of the small primes, f_pe[..., i, e - 1], and shift[..., i, e - 1],
    # the sum over e' <= e of their constants f(p^(e'+1)) - f(p^e') lam mu G(p)
    f_pe = np.array(_dd_div(coeffs[:, :, None], small[:, None].astype(float) ** (exps * s)))
    lam_mu_g = np.array(_dd_mul(lam_mu, g[:, small - 1]))[..., None]
    shift = _dd_scan(_dd_add(f_pe[..., 1:], np.negative(_dd_mul(f_pe[..., :-1], lam_mu_g))),
                     _dd_add)
    f_halves = np.array(_split(f_pe[0]))
    for i in range(small.size - 1, -1, -1):
        p = int(small[i])
        first = np.searchsorted(vs, p * p)
        powers = [p ** e for e in range(2, top.bit_length() + 1) if p ** e <= top]
        terms = shift[:, :, i, np.searchsorted(powers, vs[first:], side="right") - 1]
        # F and the halves of its hi, gathered in one call
        read = np.concatenate((sums, _split(sums[0])))
        for e, after in enumerate(powers, 1):
            j = np.searchsorted(vs, after) - first
            w = np.searchsorted(vs, vs[first + j:] // (after // p))
            got = np.take(read, w, axis=-1)
            prod, err = _dd_mul_halves(f_pe[:, :, i, e - 1, None], f_halves[:, :, i, e - 1, None],
                                       got[:2], got[2:])
            # terms stays an unevaluated pair: the products add to its hi
            # and their errors to its lo
            terms[0, :, j:], t = _two_sum(terms[0, :, j:], prod)
            terms[1, :, j:] += t + err
        sums[..., first:] = _dd_add(sums[..., first:], terms)
    # n = 1, and hi is then the double nearest hi + lo
    return _dd_add(sums[..., np.searchsorted(vs, xs)], (1.0, 0.0))[0].tolist()


#: The large primes of _large_prime_sums go this many to a rectangle.
_LARGE_BLOCK = 64


def _large_prime_sums(vs: np.ndarray, lo: int, g: np.ndarray, primes, s: int) -> tuple:
    """(D, C) at every v of vs[lo:], each a double-double:
        D(v) = sum w_p (G(floor(v/p)) - G(p - 1)),   C(v) = sum w_p^2,
    w_p = p^-s, over the p of primes with p^2 <= v, with G from g (final
    at every value this reads; see _multiplicative_sums).  The primes go
    _LARGE_BLOCK at a time, ascending.  A block's terms form one (v, p)
    rectangle over the v >= p^2 of its least p, whose entries with
    p^2 > v are exact zeros; it is summed pairwise along p and added to
    the sums of the blocks before it.  Every term is >= 0."""
    out = np.zeros((2, 2, vs.size - lo))
    for b in range(0, primes.size, _LARGE_BLOCK):
        p = primes[b:b + _LARGE_BLOCK]
        first = np.searchsorted(vs, p[0] * p[0])
        v = vs[first:, None]
        outside = p * p > v
        # where p^2 > v, G(p - 1) - G(p - 1), which is 0 exactly
        at = np.searchsorted(vs, np.where(outside, p - 1, v // p))
        d = _dd_add(g[:, at], -g[:, p - 2])
        c = (np.where(outside, 0.0, 1.0), np.zeros(outside.shape))
        if s:  # w_p = 1 at s = 0
            pw = p.astype(float)
            d, c = _dd_div(d, pw), _dd_div(c, pw * pw)
        out[..., first - lo:] = _dd_add(out[..., first - lo:],
                                        _dd_sum(np.array((d, c)).swapaxes(0, 1)))
    return out[:, 0], out[:, 1]


# ----------------------------------------------------------------------
# Double-double arithmetic and the prime sums
# ----------------------------------------------------------------------
#
# A double-double is a pair (hi, lo) of doubles or arrays standing for
# hi + lo (Dekker 1971).  Each operation below is exact up to one error
# of about 2^-104 of its largest operand.

def _two_sum(a, b):
    """(s, e) with s = a + b rounded and s + e = a + b exactly (Knuth)."""
    s = a + b
    t = s - a
    return s, (a - (s - t)) + (b - t)


def _dd_add(x, y):
    """x + y of two double-doubles."""
    s, e = _two_sum(x[0], y[0])
    return _two_sum(s, e + (x[1] + y[1]))


def _dd_mul(x, y):
    """x y of two double-doubles."""
    p, e = _two_prod(x[0], y[0])
    return _two_sum(p, e + (x[0] * y[1] + x[1] * y[0]))


def _dd_scan(x, op):
    """The inclusive prefix sums (op = _dd_add) or products (_dd_mul) of
    the double-doubles x = (hi, lo) along the last axis, in log2 n
    doubling steps (Hillis & Steele 1986)."""
    x = np.array(x)
    k = 1
    while k < x.shape[-1]:
        x[..., k:] = op(x[..., :-k], x[..., k:])
        k *= 2
    return x


def _dd_mul_halves(x, x_halves, y, y_halves):
    """x y of two double-doubles as an unevaluated pair (p, e), p the
    rounded x[0] y[0], from the halves (_split) of x[0] and y[0]: Dekker's
    exact product of the two, and the cross terms, with no final
    _two_sum.  A caller that multiplies one value many times splits it
    once."""
    (xh, xl), (yh, yl) = x_halves, y_halves
    p = x[0] * y[0]
    return p, ((xh * yh - p) + xh * yl + xl * yh) + xl * yl + (x[0] * y[1] + x[1] * y[0])


def _dd_div(x, d):
    """x / d of a double-double and a double."""
    q = x[0] / d
    p, e = _two_prod(q, d)
    return _two_sum(q, ((x[0] - p) - e + x[1]) / d)


def _dd_sum(x: np.ndarray) -> np.ndarray:
    """The sum over the last axis (not empty) of the double-doubles
    x = (hi, lo), pairwise: neighbours add, an odd count gaining a zero,
    until one entry is left."""
    while x.shape[-1] > 1:
        if x.shape[-1] % 2:
            x = np.concatenate((x, np.zeros(x.shape[:-1] + (1,))), axis=-1)
        x = np.array(_dd_add(x[..., 0::2], x[..., 1::2]))
    return x[..., 0]


def _quotients(xs) -> np.ndarray:
    """The union over x in xs of {floor(x/k): 1 <= k <= x}, ascending:
    1 .. isqrt(x) and x // (1 .. isqrt(x)) for each x.  It is closed
    under v -> floor(v/m), and its first isqrt(max(xs)) values are
    1, 2, 3, ..., so a v up to there sits at index v - 1."""
    parts = []
    for x in set(xs):
        r = np.arange(1, math.isqrt(x) + 1)
        parts += [r, x // r]
    return np.unique(np.concatenate(parts))


#: H(v) = sum_{n<=v} 1/n comes from one compensated prefix sum below
#: this, 2^BITS, and from that sum at the top BITS bits of v above it.
_HARMONIC_BITS = 12
_HARMONIC_TABLE = 1 << _HARMONIC_BITS


def _harmonic_minus_one(vs: np.ndarray) -> tuple:
    """H(v) - 1 at every v of vs (ascending, from 1) as a double-double.

    Below _HARMONIC_TABLE: np.cumsum of the rounded r_n = fl(1/n), which
    adds in order, plus a second cumsum of two small parts, each step's
    rounding error (by _two_sum) and each residual 1/n - r_n =
    (1 - n r_n)/n, whose numerator _two_prod gives exactly.  At and above
    it, from that prefix sum at m = v >> j, the top _HARMONIC_BITS bits
    of v, and the Euler-Maclaurin expansion of the rest,
        H(v) - H(m) = ln(v/m) + (m - v)/(2 v m) - sum_{k<=4} B_2k (v^-2k - m^-2k)/(2k),
    whose next term is below 2^-116 as m >= 2^11; ln(v/m) is j ln 2 +
    log1p(d), d = (v - m 2^j)/(m 2^j) < 2^-11, by the first 10 terms of
    its series.  Measured against 50-digit decimal sums, each value is
    within about 2^-98 of H(v) - 1.
    """
    small = int(np.searchsorted(vs, _HARMONIC_TABLE))
    n = np.arange(1.0, min(vs[-1], _HARMONIC_TABLE - 1) + 1)
    r = 1.0 / n
    p, e = _two_prod(r, n)
    low = ((1.0 - p) - e) / n
    r[0] = low[0] = 0.0  # the term n = 1
    s = np.cumsum(r)
    low += _two_sum(np.concatenate(([0.0], s[:-1])), r)[1]
    table = np.array(_two_sum(s, np.cumsum(low)))
    out = np.empty((2, vs.size))
    out[:, :small] = table[:, vs[:small] - 1]
    v = vs[small:]
    j = np.frexp(v)[1] - _HARMONIC_BITS
    m = v >> j
    vf, mf, base = v.astype(float), m.astype(float), (m << j).astype(float)
    d = _dd_div((vf - base, 0.0), base)
    log1p = (0.0, 0.0)
    for k in range(10, 0, -1):
        log1p = _dd_mul(_dd_add(_dd_div(((-1.0) ** (k + 1), 0.0), k), log1p), d)
    with localcontext() as ctx:
        ctx.prec = _DIGITS
        ln2 = Decimal(2).ln()
        ln2 = (float(ln2), float(ln2 - Decimal(float(ln2))))
    h = _dd_add(_dd_add(table[:, m - 1], _dd_mul((j.astype(float), 0.0), ln2)),
                _dd_add(log1p, _dd_div((mf - vf, 0.0), 2 * vf * mf)))
    inv_v2, inv_m2 = (_dd_div(_dd_div((1.0, 0.0), x), x) for x in (vf, mf))
    pow_v, pow_m = inv_v2, inv_m2
    for k, b in enumerate(_bernoulli(4), 1):
        c = -b / (2 * k)
        c = (float(c), float(c - Fraction(float(c))))
        h = _dd_add(h, _dd_mul(c, _dd_add(pow_v, np.negative(pow_m))))
        pow_v, pow_m = _dd_mul(pow_v, inv_v2), _dd_mul(pow_m, inv_m2)
    out[:, small:] = h
    return out


# ----------------------------------------------------------------------
# Stieltjes constants and the moment polynomials
# ----------------------------------------------------------------------

#: Decimal digits of the Euler-Maclaurin sums.
_DIGITS = 50


def _decimal(q: Fraction) -> Decimal:
    return Decimal(q.numerator) / Decimal(q.denominator)


@lru_cache(maxsize=1)
def _stieltjes_decimal() -> tuple:
    """(gamma, gamma1) to _DIGITS digits, from their limit definitions

        gamma  = lim ( sum_{n<=N} 1/n      - log N )
        gamma1 = lim ( sum_{n<=N} log(n)/n - (log N)^2 / 2 )

    through Euler-Maclaurin at N = 20 with 16 Bernoulli terms, enough
    for the double-double harmonic sums that take gamma.  The
    (2k-1)-th derivative of log(x)/x is -(2k-1)! (log x - H_{2k-1}) /
    x^2k, so
        gamma  = H_N - L - 1/(2N) + sum_k B_2k / (2k N^2k),
        gamma1 = sum_{n<=N} log(n)/n - L^2/2 - L/(2N)
                 + sum_k B_2k (L - H_{2k-1}) / (2k N^2k),
    L = log N; both are within 1e-34 of the constants.
    """
    big_n = 20
    with localcontext() as ctx:
        ctx.prec = _DIGITS
        logs = [Decimal(n).ln() for n in range(1, big_n + 1)]
        log_n = logs[-1]
        gamma = sum(1 / Decimal(n) for n in range(1, big_n + 1)) - log_n - Decimal(1) / (2 * big_n)
        gamma1 = (sum(lg / n for n, lg in enumerate(logs, 1))
                  - log_n * log_n / 2 - log_n / (2 * big_n))
        for k, b in enumerate(_bernoulli(16), 1):
            term = _decimal(b / (2 * k * big_n ** (2 * k)))
            gamma += term
            gamma1 += term * (log_n - _decimal(sum(Fraction(1, j) for j in range(1, 2 * k))))
    return gamma, gamma1


@lru_cache(maxsize=1)
def stieltjes() -> tuple:
    """(gamma, gamma1), each correctly rounded, from _stieltjes_decimal.
    Computed once per process."""
    return tuple(float(c) for c in _stieltjes_decimal())


@dataclass(frozen=True)
class MomentPolynomial:
    """Polynomial with coefficients stored constant-term first."""

    coefficients: tuple

    def __call__(self, u):
        out = 0.0
        for c in reversed(self.coefficients):
            out = out * u + c
        return out

    def derivative(self) -> "MomentPolynomial":
        c = self.coefficients
        return MomentPolynomial(tuple(k * c[k] for k in range(1, len(c))) or (0.0,))


@lru_cache(maxsize=1)
def p2_polynomial() -> MomentPolynomial:
    """P2 with sum_{n<=x} d_3(n) = x P2(log x) + lower order:
    the residue at s = 1 of x^s zeta(s)^3 / s.

    Writing zeta(s) = 1/(s-1) + gamma + c1 (s-1) + ... (so c1 is the
    Laurent coefficient, c1 = -gamma1 in terms of the limit-definition
    constant), the residue gives
        A2 = 1/2,  A1 = 3 gamma - 1,  A0 = 1 + 3 (gamma^2 - gamma + c1).
    """
    gamma, gamma1 = stieltjes()
    c1 = -gamma1
    a2 = 0.5
    a1 = 3.0 * gamma - 1.0
    a0 = 1.0 + 3.0 * (gamma * gamma - gamma + c1)
    return MomentPolynomial((a0, a1, a2))


@lru_cache(maxsize=1)
def p3_polynomial() -> MomentPolynomial:
    """P3(u) = u P2(u) - P2(u) + P2'(u) - P2''(u); explicitly
    B3 = 1/2, B2 = 3 gamma - 3/2, B1 = 3 (c1 + (1 - gamma)^2), B0 = -B1."""
    a0, a1, a2 = p2_polynomial().coefficients
    b3 = a2
    b2 = a1 - a2
    b1 = a0 - a1 + 2.0 * a2
    b0 = -b1
    return MomentPolynomial((b0, b1, b2, b3))
