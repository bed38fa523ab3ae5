"""Generalized divisor functions d_kappa (Dirichlet coefficients of
zeta^kappa), truncated convolution powers, partial-sum asymptotics, and
the cubic-moment polynomials built from Stieltjes constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .summation import blocked_fsum, blocked_prefix_fsums, fsum

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


def build_table(kappa: float, limit: int) -> DivisorTable:
    """Sieve d_kappa(1..limit) by multiplying the prime-power ratio
    d_kappa(p^e)/d_kappa(p^{e-1}) = (kappa + e - 1)/e into every
    multiple of p^e, primes ascending, then exponents ascending.

    A prime p > sqrt(limit) divides each n <= limit at most once, and is
    then n's largest prime factor, so its ratio is the last one
    multiplied in.  Those primes share one vectorized pass after the
    per-prime loop, with the ratio rounded as the loop rounds it at
    e = 1: (kappa + 1 - 1.0) / 1, which is not always kappa.
    """
    _check_kappa(kappa)
    limit = int(limit)
    if limit < 1:
        raise ValueError("limit must be >= 1")
    if limit + 1 > INDEX_BUDGET:
        raise SizeBudgetError(f"table of size {limit} exceeds budget")
    vals = np.ones(limit + 1, dtype=float)
    vals[0] = 0.0
    if kappa == 1.0:
        return DivisorTable(kappa=kappa, limit=limit, values=vals)
    primes = primes_up_to(limit)
    split = int(np.searchsorted(primes, math.isqrt(limit), "right"))
    for p in primes[:split].tolist():
        pe = p
        e = 1
        while pe <= limit:
            vals[pe::pe] *= (kappa + e - 1.0) / e
            pe *= p
            e += 1
    large = primes[split:]
    if large.size:
        ratio = (kappa + 1 - 1.0) / 1
        cofactors = np.arange(1, limit // int(large[0]) + 1)
        counts = np.searchsorted(large, limit // cofactors, "right")
        # index arrays of at most 2^14 primes: whole slices (5 MB at 1e7)
        # would leave the process that much larger after the call
        chunk = 1 << 14
        for m, k in zip(cofactors.tolist(), counts.tolist()):
            for lo in range(0, k, chunk):
                vals[m * large[lo:min(k, lo + chunk)]] *= ratio
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
    table = build_table(float(lam), n)
    total = blocked_fsum(table.values[1:])
    if lam == 3:
        prediction = x * p2_polynomial()(math.log(x))
    else:
        prediction = None
    return total, prediction


def divisor_ratio_sum(lam: float, mu: float, x: float) -> float:
    """sum_{n<=x} d_lam(n) d_mu(n) / n, exactly by tables."""
    return divisor_ratio_sums_at(lam, mu, (x,))[0]


def divisor_ratio_sums_at(lam: float, mu: float, checkpoints) -> list:
    """sum_{n<=x} d_lam(n) d_mu(n) / n at several checkpoints x, off one
    pair of tables: each checkpoint is the blocked sum over its whole
    prefix, so it equals divisor_ratio_sum(lam, mu, x) bit for bit.  The
    terms are formed one block at a time.  Every checkpoint must be
    finite and >= 2, and there must be at least one.
    """
    checkpoints = list(checkpoints)
    if not checkpoints or not all(2 <= c < math.inf for c in checkpoints):
        raise ValueError(f"checkpoints must be finite and >= 2, got {checkpoints!r}")
    xs = [int(c) for c in checkpoints]
    n = max(xs)
    ta = build_table(lam, n).values
    tb = ta if mu == lam else build_table(mu, n).values

    def terms(a, b):  # d_lam(n) d_mu(n) / n for a < n <= b
        return ta[a + 1:b + 1] * tb[a + 1:b + 1] / np.arange(a + 1, b + 1, dtype=float)

    return blocked_prefix_fsums(terms, xs)


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
    ConfigurationError is raised.  Computed once per process.
    """
    exps = (20, 21, 22)
    n_top = 1 << exps[-1]
    ns = np.arange(1, n_top + 1, dtype=float)
    recip = 1.0 / ns
    logs = np.log(ns) * recip
    ends = [1 << e for e in exps]
    hs = blocked_prefix_fsums(lambda a, b: recip[a:b], ends)
    s1s = blocked_prefix_fsums(lambda a, b: logs[a:b], ends)
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
