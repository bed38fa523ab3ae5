"""Generalized divisor functions d_kappa (Dirichlet coefficients of
zeta^kappa), truncated convolution powers, partial-sum asymptotics, and
the cubic-moment polynomials built from Stieltjes constants.

Bulk d_kappa values come from one segmented sieve, _sieve_segments,
which serves several kappa in one pass; the sums over n reduce its
segments as they come and hold no whole table, and every ratio sum that
the divisor check needs comes out of one such pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

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

#: The sieve's last multiply and the ratio sums' terms are formed this
#: many entries at a time, so that their work arrays stay small and in
#: cache however many kappa and cases share the pass.
BLOCK = 1 << 14

#: The sieve's rough-number mark weighs a prime p as round(_MARK_SCALE log2 p).
_MARK_SCALE = 4


class SizeBudgetError(ValueError):
    """A table or convolution would exceed the index budget."""


class ConfigurationError(RuntimeError):
    """Startup self-validation failed."""


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


def _sieve_segments(kappas, limit: int):
    """d_kappa(1..limit) for every kappa in kappas, one segment at a time:
    segment j is a list of one array per kappa, each holding n = j SEG + 1
    .. (j + 1) SEG (the last may be shorter).  One loop over the prime
    powers serves every kappa, and a repeated kappa is sieved once.

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

    The arrays are reused: a segment is valid until the next is asked
    for, so a caller copies what it keeps.  The arguments are checked at
    the call, not at the first next().
    """
    kappas = list(kappas)
    for kappa in kappas:
        _check_kappa(kappa)
    limit = int(limit)
    if limit < 1:
        raise ValueError("limit must be >= 1")
    if limit + 1 > INDEX_BUDGET:
        raise SizeBudgetError(f"table of size {limit} exceeds budget")

    def segments():
        small = primes_up_to(math.isqrt(limit)).tolist()
        weights = [round(_MARK_SCALE * math.log2(p)) for p in small]
        bufs = {kappa: np.ones(min(SEG, limit)) for kappa in kappas}
        mark = np.empty(min(SEG, limit), np.uint8)
        rough, smooth, factor = (np.empty(min(BLOCK, limit)) for _ in range(3))
        for lo in range(1, limit + 1, SEG):
            size = min(SEG, limit - lo + 1)
            vals = {kappa: buf[:size] for kappa, buf in bufs.items()}
            sieved = [(v, kappa) for kappa, v in vals.items() if kappa != 1.0]
            if sieved:
                a = mark[:size]
                a[:] = 0
                for v, _ in sieved:
                    v[:] = 1.0
                for p, w in zip(small, weights):
                    pe, e = p, 1
                    # no multiple of p^e in the segment means none of p^(e+1)
                    while (first := -lo % pe) < size:
                        for v, kappa in sieved:
                            v[first::pe] *= (kappa + e - 1.0) / e
                        a[first::pe] += w
                        pe *= p
                        e += 1
                for b in range(0, size, BLOCK):
                    m = min(BLOCK, size - b)
                    threshold = _rough_threshold(lo + b, m, limit)
                    np.less(a[b:b + m], threshold, out=rough[:m])
                    np.greater_equal(a[b:b + m], threshold, out=smooth[:m])
                    for v, kappa in sieved:
                        # 1.0 or the ratio, exactly, and no branch per n
                        np.multiply(rough[:m], (kappa + 1 - 1.0) / 1, out=factor[:m])
                        np.add(factor[:m], smooth[:m], out=factor[:m])
                        np.multiply(v[b:b + m], factor[:m], out=v[b:b + m])
            yield [vals[kappa] for kappa in kappas]

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
    segments = _sieve_segments((kappa,), limit)
    limit = int(limit)
    vals = np.zeros(limit + 1)
    for lo, (seg,) in zip(range(1, limit + 1, SEG), segments):
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
    for seg, in _sieve_segments((float(lam),), n):
        acc.add(seg)
    total = acc.value()
    if lam == 3:
        prediction = x * p2_polynomial()(math.log(x))
    else:
        prediction = None
    return total, prediction


def divisor_ratio_sum(lam: float, mu: float, x: float) -> float:
    """sum_{n<=x} d_lam(n) d_mu(n) / n, exactly rounded."""
    return divisor_ratio_sums_at(lam, mu, (x,))[0]


def divisor_ratio_sums_at(lam: float, mu: float, checkpoints) -> list:
    """sum_{n<=x} d_lam(n) d_mu(n) / n at several checkpoints x: the one
    case (lam, mu) of divisor_ratio_sums_by_case."""
    return divisor_ratio_sums_by_case(((lam, mu),), checkpoints)[0]


def divisor_ratio_sums_by_case(cases, checkpoints) -> list:
    """For each case (lam, mu), sum_{n<=x} d_lam(n) d_mu(n) / n at every
    checkpoint x, all in one pass of the sieve over every exponent the
    cases name.  The terms are formed BLOCK at a time, into arrays reused
    from block to block, and each case adds them to one exact accumulator,
    read where a checkpoint falls, so each sum is the exact sum over its
    whole prefix, rounded once, and equals divisor_ratio_sum(lam, mu, x)
    bit for bit.  Every checkpoint must be finite and >= 2, and there must
    be at least one.  Returns one list per case.
    """
    checkpoints = list(checkpoints)
    if not checkpoints or not all(2 <= c < math.inf for c in checkpoints):
        raise ValueError(f"checkpoints must be finite and >= 2, got {checkpoints!r}")
    xs = [int(c) for c in checkpoints]
    top = max(xs)
    cases = list(cases)
    kappas = list(dict.fromkeys(k for case in cases for k in case))
    pairs = [(kappas.index(lam), kappas.index(mu)) for lam, mu in cases]
    accs, cuts, read = [ExactSum() for _ in cases], sorted(set(xs)), {}
    block = min(BLOCK, top)
    base = np.arange(1.0, block + 1)
    ns, bufs = np.empty(block), [np.empty(block) for _ in cases]
    for lo, vals in zip(range(1, top + 1, SEG), _sieve_segments(kappas, top)):
        for a in range(0, vals[0].size, block):
            m = min(block, vals[0].size - a)
            n = np.add(base[:m], lo + a - 1, out=ns[:m])
            terms = [np.divide(np.multiply(vals[i][a:a + m], vals[j][a:a + m], out=t[:m]), n,
                               out=t[:m]) for (i, j), t in zip(pairs, bufs)]
            done = 0  # terms of this block already added
            while cuts and cuts[0] < lo + a + m:  # a checkpoint falls in this block
                end = cuts[0] - (lo + a) + 1
                for acc, t in zip(accs, terms):
                    acc.add(t[done:end])
                read[cuts.pop(0)] = [acc.value() for acc in accs]
                done = end
            for acc, t in zip(accs, terms):
                acc.add(t[done:m])
    return [[read[x][i] for x in xs] for i in range(len(cases))]


# ----------------------------------------------------------------------
# Stieltjes constants and the moment polynomials
# ----------------------------------------------------------------------

@lru_cache(maxsize=1)
def stieltjes() -> tuple:
    """(gamma, gamma1) from their limit definitions.

    gamma  = lim ( sum_{n<=N} 1/n      - log N )
    gamma1 = lim ( sum_{n<=N} log(n)/n - (log N)^2 / 2 )

    Accelerated by the Euler-Maclaurin half-term plus dyadic Richardson
    extrapolation; the three top levels must agree to 1e-10 or a
    ConfigurationError is raised.  The terms are formed SEG at a time
    and added to two exact accumulators, read at N = 2^20, 2^21 and
    2^22, so no 2^22-entry array is held.
    Computed once per process.
    """
    ends = [1 << e for e in (20, 21, 22)]  # each a multiple of SEG
    h, s1 = ExactSum(), ExactSum()
    g_seq, g1_seq = [], []
    for a in range(0, ends[-1], SEG):  # 1/n and log(n)/n for a < n <= a + SEG
        ns = np.arange(a + 1, a + SEG + 1, dtype=float)
        recip = 1.0 / ns
        h.add(recip)
        s1.add(np.multiply(np.log(ns, out=ns), recip, out=ns))
        n = a + SEG
        if n in ends:
            ln = math.log(n)
            g_seq.append(h.value() - ln - 0.5 / n)
            g1_seq.append(s1.value() - 0.5 * ln * ln - 0.5 * ln / n)

    def richardson2(seq):
        # one elimination of the 1/N^2 term on a doubling grid
        return [(4.0 * seq[i + 1] - seq[i]) / 3.0 for i in range(len(seq) - 1)]

    g_acc = richardson2(g_seq)
    g1_acc = richardson2(g1_seq)
    if abs(g_acc[-1] - g_acc[-2]) > 1e-10 or abs(g1_acc[-1] - g1_acc[-2]) > 1e-10:
        raise ConfigurationError("Stieltjes self-validation failed")
    return float(g_acc[-1]), float(g1_acc[-1])


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
