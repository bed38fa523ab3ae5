"""Generalized divisor functions d_kappa (Dirichlet coefficients of
zeta^kappa), truncated convolution powers, partial-sum asymptotics, and
the cubic-moment polynomials built from Stieltjes constants.

Bulk d_kappa values come from one segmented sieve, _sieve_segments; the
sums over n reduce its segments as they come and hold no whole table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .summation import prefix_fsums

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
    "stieltjes",
    "p2_polynomial",
    "p3_polynomial",
]

#: hard cap on convolution output length (entries)
INDEX_BUDGET = 100_000_000

#: Entries per sieve segment (2 MiB of values).  The sums over n take
#: the segments as chunks and round each prefix once whatever SEG is.
SEG = 1 << 18


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

def _check_kappa(kappa: float) -> None:
    if not (math.isfinite(kappa) and kappa > 0):
        raise ValueError(f"kappa must be finite and positive, got {kappa!r}")


def _prime_power_coeff(kappa: float, j: int) -> float:
    """d_kappa(p^j) = Gamma(kappa + j) / (Gamma(kappa) j!) as the product
    prod_{i<j} (kappa + i)/(i + 1)."""
    out = 1.0
    for i in range(j):
        out *= (kappa + i) / (i + 1.0)
    return out


def d_kappa(n: int, kappa: float) -> float:
    """Multiplicative extension of the prime-power formula, by trial
    factorization.  Kept simple; bulk work goes through build_table."""
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
    """d_kappa(1..limit) as consecutive arrays of SEG entries (the last
    may be shorter): segment j holds n = j SEG + 1 .. (j + 1) SEG.

    Each n gets the prime-power ratio d_kappa(p^e)/d_kappa(p^{e-1}) =
    (kappa + e - 1)/e for every p^e dividing it, primes ascending, then
    exponents ascending.  Only primes p <= sqrt(limit) are sieved, and
    the part of n they make up is multiplied alongside.  An n that part
    does not reach has one prime factor above sqrt(limit), its largest,
    so that prime's ratio, rounded as at e = 1: (kappa + 1 - 1.0) / 1,
    which is not always kappa, comes last.

    The arguments are checked at the call, not at the first next().
    Each segment is a new array.
    """
    _check_kappa(kappa)
    limit = int(limit)
    if limit < 1:
        raise ValueError("limit must be >= 1")
    if limit + 1 > INDEX_BUDGET:
        raise SizeBudgetError(f"table of size {limit} exceeds budget")

    def segments():
        small = primes_up_to(math.isqrt(limit)).tolist()
        large = (kappa + 1 - 1.0) / 1
        for lo in range(1, limit + 1, SEG):
            hi = min(lo + SEG - 1, limit)
            vals = np.ones(hi - lo + 1)
            if kappa == 1.0:
                yield vals
                continue
            # smooth[i]: the part of n = lo + i made of the sieved primes
            # (int32 holds every n under INDEX_BUDGET)
            smooth = np.ones(hi - lo + 1, dtype=np.int32)
            for p in small:
                pe, e = p, 1
                while pe <= hi:
                    first = -lo % pe
                    vals[first::pe] *= (kappa + e - 1.0) / e
                    smooth[first::pe] *= p
                    pe *= p
                    e += 1
            # times 1.0 leaves the rest as it is, and needs no branch
            vals *= np.where(smooth != np.arange(lo, hi + 1, dtype=np.int32), large, 1.0)
            yield vals

    return segments()


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
    total = prefix_fsums(_sieve_segments(float(lam), n), (n,))[0]
    if lam == 3:
        prediction = x * p2_polynomial()(math.log(x))
    else:
        prediction = None
    return total, prediction


def divisor_ratio_sum(lam: float, mu: float, x: float) -> float:
    """sum_{n<=x} d_lam(n) d_mu(n) / n, exactly rounded."""
    return divisor_ratio_sums_at(lam, mu, (x,))[0]


def divisor_ratio_sums_at(lam: float, mu: float, checkpoints) -> list:
    """sum_{n<=x} d_lam(n) d_mu(n) / n at several checkpoints x, in one
    pass of the sieve: each checkpoint is the exact sum over its whole
    prefix, rounded once, so it equals divisor_ratio_sum(lam, mu, x) bit for bit.  The
    terms are formed one sieve segment at a time.  Every checkpoint must
    be finite and >= 2, and there must be at least one.
    """
    checkpoints = list(checkpoints)
    if not checkpoints or not all(2 <= c < math.inf for c in checkpoints):
        raise ValueError(f"checkpoints must be finite and >= 2, got {checkpoints!r}")
    xs = [int(c) for c in checkpoints]
    n = max(xs)
    seg_a = _sieve_segments(lam, n)
    seg_b = None if mu == lam else _sieve_segments(mu, n)

    def terms():  # d_lam(n) d_mu(n) / n, one segment at a time
        for lo, da in zip(range(1, n + 1, SEG), seg_a):
            db = da if seg_b is None else next(seg_b)
            yield da * db / np.arange(lo, lo + da.size, dtype=float)

    return prefix_fsums(terms(), xs)


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
    inside the prefix sums, so no 2^22-entry array is held.
    Computed once per process.
    """
    exps = (20, 21, 22)
    ends = [1 << e for e in exps]

    def terms(a, log):  # (log(n) if log else 1) / n for a <= n < a + SEG
        ns = np.arange(a, a + SEG, dtype=float)
        recip = 1.0 / ns
        return np.multiply(np.log(ns, out=ns), recip, out=ns) if log else recip

    hs, s1s = (prefix_fsums((terms(a, log) for a in range(1, ends[-1], SEG)), ends)
               for log in (False, True))
    g_seq, g1_seq = [], []
    for n, h, s1 in zip(ends, hs, s1s):
        ln = math.log(n)
        g_seq.append(h - ln - 0.5 / n)
        g1_seq.append(s1 - 0.5 * ln * ln - 0.5 * ln / n)

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
