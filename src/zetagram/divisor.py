"""Generalized divisor functions d_kappa (Dirichlet coefficients of
zeta^kappa), truncated convolution powers, partial-sum asymptotics, and
the cubic-moment polynomials built from Stieltjes constants.

Tables of d_kappa come from one segmented sieve, _sieve_segments, one
kappa per pass, and the sums of d_kappa over n reduce its segments as
they come and hold no whole table.  The ratio sums of the divisor check,
sum_{n<=x} d_lam(n) d_mu(n)/n, need no sieve: their terms are
multiplicative, so the sums at every floor(x/k) follow from two passes
over the primes up to sqrt(x), in double-double arithmetic
(divisor_ratio_sums_by_case).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .special import _two_prod
from .summation import ExactSum

__all__ = [
    "DivisorTable",
    "TruncatedCoeffs",
    "MomentPolynomial",
    "SizeBudgetError",
    "ConfigurationError",
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

#: Entries per sieve segment (2 MiB of values).  The sums over n take
#: the segments as chunks and round each prefix once whatever SEG is.
SEG = 1 << 18

#: The sieve's last multiply is formed this many entries at a time, so
#: that its work arrays stay small and in cache.
BLOCK = 1 << 14

#: The sieve's rough-number mark weighs a prime p as round(_MARK_SCALE log2 p).
_MARK_SCALE = 4


class SizeBudgetError(ValueError):
    """A table or convolution would exceed the index budget."""


class ConfigurationError(RuntimeError):
    """A parameter that a construction does not admit (the resonator's
    cutoff)."""


def primes_up_to(n: int) -> np.ndarray:
    """Primes <= n by a boolean sieve of n + 1 entries, which must fit
    INDEX_BUDGET."""
    if n + 1 > INDEX_BUDGET:
        raise SizeBudgetError(f"sieve of size {n} exceeds budget")
    if n < 2:
        return np.empty(0, dtype=np.int64)
    mask = np.ones(n + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, int(math.isqrt(n)) + 1):
        if mask[p]:
            mask[p * p::p] = False
    return np.nonzero(mask)[0].astype(np.int64)


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
        raise ValueError(f"kappa must be finite and positive and at most {KAPPA_MAX:g}, "
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
    factorization, one n at a time.  Tables and sums over n take their
    values from the sieve, _sieve_segments, instead."""
    if n < 1:
        raise ValueError("d_kappa requires n >= 1")
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

    Such a rough n is found by a mark, not by forming the sieved part s
    of n: each p^e dividing n adds w(p) = round(S log2 p), S = _MARK_SCALE,
    to a uint8 count A.  As |w(p) - S log2 p| <= 1/2 <= (log2 p)/2,
        (S - 1/2) log2 s <= A <= (S + 1/2) log2 s.
    A smooth n (s = n) has A >= (S - 1/2) log2 n; a rough one has
    log2 s = log2 n - log2 q < log2 n - (log2 limit)/2, so
    A < (S + 1/2)(log2 n - (log2 limit)/2).  The two bounds are
    (S + 1/2)(log2 limit)/2 - log2 n >= (5/4) log2 limit apart, and n is
    rough when A is below their midpoint.  The mark is read BLOCK n at a
    time, and past the first block one threshold serves a whole block:
    the smooth bound at its lowest n exceeds the rough bound at its
    highest by more than 1 there (by 15 or more at BLOCK = 2^14).  A
    stays at most (S + 1/2) log2 INDEX_BUDGET < 120, so the uint8
    cannot overflow.  The rough n are multiplied by the ratio, and the
    others by 1.0, through an exact 0/1 blend with no branch per n.

    The array is reused: a segment is valid until the next is asked
    for, so a caller copies what it keeps.  The arguments are checked at
    the call, not at the first next().
    """
    _check_kappa(kappa)
    limit = int(limit)
    if limit < 1:
        raise ValueError("limit must be >= 1")
    if limit + 1 > INDEX_BUDGET:
        raise SizeBudgetError(f"table of size {limit} exceeds budget")

    def segments():
        small = primes_up_to(math.isqrt(limit)).tolist()
        weights = [round(_MARK_SCALE * math.log2(p)) for p in small]
        buf = np.empty(min(SEG, limit))
        mark = np.empty(min(SEG, limit), np.uint8)
        rough, smooth, factor = (np.empty(min(BLOCK, limit)) for _ in range(3))
        for lo in range(1, limit + 1, SEG):
            size = min(SEG, limit - lo + 1)
            v = buf[:size]
            v[:] = 1.0
            if kappa != 1.0:
                a = mark[:size]
                a[:] = 0
                for p, w in zip(small, weights):
                    pe, e = p, 1
                    # no multiple of p^e in the segment means none of p^(e+1)
                    while (first := -lo % pe) < size:
                        v[first::pe] *= (kappa + e - 1.0) / e
                        a[first::pe] += w
                        pe *= p
                        e += 1
                for b in range(0, size, BLOCK):
                    m = min(BLOCK, size - b)
                    threshold = _rough_threshold(lo + b, m, limit)
                    np.less(a[b:b + m], threshold, out=rough[:m])
                    np.greater_equal(a[b:b + m], threshold, out=smooth[:m])
                    # 1.0 or the ratio, exactly, and no branch per n
                    np.multiply(rough[:m], (kappa + 1 - 1.0) / 1, out=factor[:m])
                    np.add(factor[:m], smooth[:m], out=factor[:m])
                    np.multiply(v[b:b + m], factor[:m], out=v[b:b + m])
            yield v

    return segments()


def _rough_threshold(lo: int, size: int, limit: int):
    """n = lo .. lo + size - 1 is rough when its mark is below this (see
    _sieve_segments): one int for the whole range where the smooth
    bound at lo clears the rough bound at lo + size - 1 by more than 1,
    else the midpoint of the two bounds at each n."""
    half_log_limit = math.log2(limit) / 2
    smooth_least = (_MARK_SCALE - 0.5) * math.log2(lo)
    rough_most = (_MARK_SCALE + 0.5) * (math.log2(lo + size - 1) - half_log_limit)
    if smooth_least - rough_most > 1:
        return max(math.ceil((smooth_least + rough_most) / 2), 0)
    mid = np.log2(np.arange(lo, lo + size, dtype=float))
    mid *= _MARK_SCALE
    mid -= (_MARK_SCALE + 0.5) / 2 * half_log_limit
    return mid


def build_table(kappa: float, limit: int) -> DivisorTable:
    """d_kappa(0..limit) in one array, with d_kappa(0) = 0, filled from
    the sieve segment by segment (see _sieve_segments).  It holds the
    whole table; sums over n go through the segments instead."""
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
        raise ValueError("m must be >= 0")
    if xi < 1:
        raise ValueError("xi must be >= 1")
    base_limit = int(math.floor(xi))
    limit = base_limit ** m if m else 1
    if limit + 1 > INDEX_BUDGET:
        raise SizeBudgetError(f"convolution length {limit} exceeds budget")
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

    The residue polynomial is implemented for lam = 3 (via P2); for
    other lam the exact sum is still returned with prediction None.
    """
    if not 2 <= x < math.inf:
        raise ValueError(f"x must be finite and >= 2, got {x!r}")
    n = int(math.floor(x))
    acc = ExactSum()
    for seg in _sieve_segments(float(lam), n):
        acc.add(seg)
    total = acc.value()
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

    No sieve: f(n) = d_lam(n) d_mu(n) / n is multiplicative, with
    f(p) = lam mu / p, so its partial sums F(v) at every v of V, the
    union over the checkpoints x of {floor(x/k)}, follow from two passes
    over the primes p <= sqrt(top) (the prime-sum recurrence of Lagarias,
    Miller & Odlyzko 1985, extended to multiplicative f).  V is closed
    under v -> floor(v/m), and holds about 2 sqrt(top) values.
      - Pass 1, shared by the cases, gives G(v) = sum_{p<=v} 1/p
        (_prime_reciprocal_sums).
      - Pass 2 starts from F(v) = lam mu G(v), the primes' terms, and
        takes the primes descending, adding for every v >= p^2 the
        composite n <= v whose least prime factor is p:
            F(v) += sum_{e: p^(e+1) <= v} f(p^e) (F(floor(v/p^e)) - lam mu G(p))
                                          + f(p^(e+1)).
    Each step works on a suffix of V in whole-array numpy operations,
    the cases stacked as rows.  Every value is a double-double (hi, lo),
    and each operation errs by about 2^-104 of its largest operand, so
    the sums carry far more bits than the 53 they are rounded to.  f(p^e)
    is formed in double-double from lam and mu, as the product of
    (kappa + i)/(i + 1), i < e, for each, over p^e.  At top = 1e7, V
    holds 6,323 values, and the three cases of the divisor check take
    about 0.15 s on one core of a shared 2-core machine, against about
    0.6 s for one pass of the sieve to 1e7.
    """
    checkpoints = list(checkpoints)
    if not checkpoints or not all(2 <= c < math.inf for c in checkpoints):
        raise ValueError(f"checkpoints must be finite and >= 2, got {checkpoints!r}")
    xs = [int(c) for c in checkpoints]
    top = max(xs)
    cases = list(cases)
    for kappa in (k for case in cases for k in case):
        _check_kappa(kappa)
    if top + 1 > INDEX_BUDGET:
        raise SizeBudgetError(f"table of size {top} exceeds budget")
    vs = _quotients(xs)
    primes = primes_up_to(math.isqrt(top))
    g = _prime_reciprocal_sums(vs, primes)
    lam, mu = (np.array([case[j] for case in cases], dtype=float)[:, None] for j in (0, 1))
    lam_mu = _two_prod(lam, mu)
    # f(p^e) for every prime p, e = 1, 2, ..., and the part of a step that
    # is the same for every v, f(p^(e+1)) - f(p^e) lam mu G(p)
    d_lam = d_mu = (np.ones_like(lam), np.zeros_like(lam))
    f_pe = []
    for e in range(1, top.bit_length() + 1):
        d_lam = _dd_mul(d_lam, _dd_div(_two_sum(lam, e - 1.0), e))
        d_mu = _dd_mul(d_mu, _dd_div(_two_sum(mu, e - 1.0), e))
        f_pe.append(np.array(_dd_div(_dd_mul(d_lam, d_mu), primes.astype(float) ** e)))
    lam_mu_g = np.negative(_dd_mul(lam_mu, g[:, primes - 1]))
    shift = [np.array(_dd_add(after, _dd_mul(now, lam_mu_g))) for now, after in zip(f_pe, f_pe[1:])]
    sums = np.array(_dd_mul(lam_mu, g[:, None, :]))  # the primes' terms, lam mu / p each
    for i in range(primes.size - 1, -1, -1):
        p = int(primes[i])
        first = np.searchsorted(vs, p * p)
        terms, pe, e = None, p, 1
        while pe * p <= top:
            j = np.searchsorted(vs, pe * p) - first
            w = np.searchsorted(vs, vs[first + j:] // pe)
            t = _dd_add(_dd_mul(f_pe[e - 1][..., i, None], sums[..., w]), shift[e - 1][..., i, None])
            if terms is None:
                terms = np.array(t)
            else:
                terms[..., j:] = _dd_add(terms[..., j:], t)
            pe, e = pe * p, e + 1
        sums[..., first:] = _dd_add(sums[..., first:], terms)
    # n = 1, and hi is then the double nearest hi + lo
    return _dd_add(sums[..., np.searchsorted(vs, xs)], (1.0, 0.0))[0].tolist()


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


def _dd_div(x, d):
    """x / d of a double-double and a double."""
    q = x[0] / d
    p, e = _two_prod(q, d)
    return _two_sum(q, ((x[0] - p) - e + x[1]) / d)


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


def _prime_reciprocal_sums(vs: np.ndarray, primes) -> tuple:
    """G(v) = sum_{p<=v} 1/p at every v of vs (from _quotients) as a
    double-double.  It starts from H(v) - 1 = sum_{2<=n<=v} 1/n, and each
    prime p of primes, ascending (all of those <= sqrt(max(vs))), takes
    away the n whose least prime factor is p:
        g(v) -= (g(floor(v/p)) - G(p - 1)) / p    for every v >= p^2
    (the Legendre-type step of Lagarias, Miller & Odlyzko 1985)."""
    g = _harmonic_minus_one(vs)
    for p in primes.tolist():
        first = np.searchsorted(vs, p * p)
        w = np.searchsorted(vs, vs[first:] // p)
        g[:, first:] = _dd_add(g[:, first:], _dd_div(_dd_add(g[:, p - 2], -g[:, w]), float(p)))
    return g


#: H(v) = sum_{n<=v} 1/n comes from one compensated prefix sum below
#: this, and from its Euler-Maclaurin expansion at and above it.
_HARMONIC_TABLE = 1 << 16


def _harmonic_minus_one(vs: np.ndarray) -> tuple:
    """H(v) - 1 at every v of vs (ascending, from 1) as a double-double.

    Below _HARMONIC_TABLE: np.cumsum of the rounded r_n = fl(1/n), which
    adds in order, plus a second cumsum of two small parts, each step's
    rounding error (by _two_sum) and each residual 1/n - r_n =
    (1 - n r_n)/n, whose numerator _two_prod gives exactly.  At and above
    it: ln v + gamma - 1 + 1/(2v) - sum_{k<=4} B_2k / (2k v^2k), in
    decimal, whose next term is below 2^-160 there.
    """
    small = int(np.searchsorted(vs, _HARMONIC_TABLE))
    n = np.arange(1.0, vs[small - 1] + 1)
    r = 1.0 / n
    p, e = _two_prod(r, n)
    low = ((1.0 - p) - e) / n
    r[0] = low[0] = 0.0  # the term n = 1
    s = np.cumsum(r)
    low += _two_sum(np.concatenate(([0.0], s[:-1])), r)[1]
    at = vs[:small] - 1
    out = np.empty((2, vs.size))
    out[:, :small] = _two_sum(s[at], np.cumsum(low)[at])
    gamma = _stieltjes_decimal()[0]
    bernoulli = _bernoulli(4)
    with localcontext() as ctx:
        ctx.prec = _DIGITS
        for i in range(small, vs.size):
            v = Decimal(int(vs[i]))
            h = v.ln() + gamma - 1 + 1 / (2 * v) - sum(
                _decimal(b) / (2 * k * v ** (2 * k)) for k, b in enumerate(bernoulli, 1))
            out[0, i] = float(h)
            out[1, i] = float(h - Decimal(out[0, i]))
    return out


# ----------------------------------------------------------------------
# Stieltjes constants and the moment polynomials
# ----------------------------------------------------------------------

#: Decimal digits of the Euler-Maclaurin sums.
_DIGITS = 50


def _bernoulli(k: int) -> list:
    """B_2, B_4, ..., B_2k as fractions, from sum_{j<=m} C(m+1, j) B_j = 0."""
    b = [Fraction(1)]
    for m in range(1, 2 * k + 1):
        b.append(-sum(math.comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
    return b[2::2]


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

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

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
