"""Critical-line machinery: log-Gamma, the theta function, the
functional-equation factor, Hardy's Z, and zeta at s = 1/2 + it.

Two genuinely independent evaluation routes are provided for the
critical line:

* :func:`zeta_euler_maclaurin` -- truncated Dirichlet sum plus an
  Euler-Maclaurin tail of EM_TERMS Bernoulli terms, to EM_ABS_TOL.
  Accurate but O(|t|) per point; the reference oracle for |t| up to
  about 1e3.

* :func:`hardy_z` -- Riemann-Siegel main sum of length floor(sqrt(t/2pi))
  plus the *exact* saddle-point remainder, a contour integral evaluated
  by trapezoid quadrature on the 45-degree line through N + 1/2 (about
  1e-11 absolute accuracy for t >= 10 and O(sqrt(t)) cost per point).
  The classical asymptotic correction terms C0, C1 are kept in the
  private :func:`_rs_series_remainder`, pinned against the quadrature.

Everything is plain binary64; long sums are compensated.  All functions
are pure, and the array entry points are safe to call from multiple
threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.special import loggamma as _sc_loggamma

__all__ = [
    "DomainError",
    "PoleError",
    "ZetaSample",
    "log_gamma",
    "theta",
    "theta_deriv",
    "delta",
    "log_delta",
    "zeta_euler_maclaurin",
    "hardy_z",
    "zeta_critical",
    "rs_psi",
]

TWO_PI = 2.0 * math.pi

#: Below this height the Riemann-Siegel main sum is too short to be
#: useful and all evaluation routes through Euler-Maclaurin.
RS_MIN_T = 10.0

#: Switch height between the log-Gamma and Stirling evaluations of theta.
THETA_SWITCH_T = 30.0

#: Trapezoid step and half-width of the quadrature remainder's mesh on
#: the 45-degree line (145 nodes).
RS_STEP = 0.0625
RS_HALFWIDTH = 4.5

#: Bernoulli correction terms and absolute accuracy target of the
#: Euler-Maclaurin tail.
EM_TERMS = 12
EM_ABS_TOL = 1e-10


class DomainError(ValueError):
    """Argument outside the documented domain of an operation."""


class PoleError(ValueError):
    """Evaluation requested at (or numerically too close to) a pole."""


@dataclass(frozen=True)
class ZetaSample:
    """One evaluated critical-line point: zeta(1/2 + it) = e^{-i theta} Z."""

    t: float
    theta: float
    z: float
    zeta: complex

    def __post_init__(self):
        for v in (self.t, self.theta, self.z, self.zeta.real, self.zeta.imag):
            if not math.isfinite(v):
                raise DomainError("non-finite component in ZetaSample")


# ----------------------------------------------------------------------
# log-Gamma and the theta function
# ----------------------------------------------------------------------

def log_gamma(s: complex) -> complex:
    """Principal branch of log Gamma(s).

    Raises :class:`PoleError` at the poles s = 0, -1, -2, ...
    """
    s = complex(s)
    if s.imag == 0.0 and s.real <= 0.0 and s.real == int(s.real):
        raise PoleError(f"log_gamma pole at s={s}")
    return complex(_sc_loggamma(s))


def _theta_stirling(t):
    """Stirling expansion of theta, two correction terms (t > 30)."""
    return (0.5 * t * (np.log(t / TWO_PI) - 1.0)
            - math.pi / 8.0
            + 1.0 / (48.0 * t)
            + 7.0 / (5760.0 * t ** 3))


def theta(t):
    """Riemann-Siegel theta: Im log Gamma(1/4 + it/2) - (t/2) log pi.

    Continuous branch with theta(0) = 0.  Accepts a scalar or ndarray;
    t must be >= 0.  Uses log-Gamma directly for t <= 30 and the
    Stirling expansion above (the two branches overlap to ~1.6e-11 at
    the switch point).
    """
    arr = np.asarray(t, dtype=float)
    if np.any(arr < 0.0):
        raise DomainError("theta requires t >= 0")
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    out = np.empty_like(arr)
    low = arr <= THETA_SWITCH_T
    if low.any():
        out[low] = np.imag(_sc_loggamma(0.25 + 0.5j * arr[low])) \
            - 0.5 * arr[low] * math.log(math.pi)
    high = ~low
    if high.any():
        out[high] = _theta_stirling(arr[high])
    return float(out[0]) if scalar else out


def theta_deriv(t):
    """d theta / dt = (1/2) log(t/2pi) - 1/(48 t^2) - 7/(1920 t^4), t > 1."""
    arr = np.asarray(t, dtype=float)
    if np.any(arr <= 1.0):
        raise DomainError("theta_deriv requires t > 1")
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    out = 0.5 * np.log(arr / TWO_PI) - 1.0 / (48.0 * arr ** 2) - 7.0 / (1920.0 * arr ** 4)
    return float(out[0]) if scalar else out


# ----------------------------------------------------------------------
# The functional-equation factor
# ----------------------------------------------------------------------

def log_delta(s: complex) -> complex:
    """A logarithm (arbitrary branch) of the factor Delta with
    zeta(s) = Delta(s) zeta(1-s).

    Computed as (s - 1/2) log pi + log Gamma((1-s)/2) - log Gamma(s/2),
    which is identical to the defining product
    2^s pi^{s-1} Gamma(1-s) sin(pi s / 2) by the duplication and
    reflection formulas, but stays finite in log space for large |Im s|
    and has no removable singularities at even integers.
    """
    s = complex(s)
    for arg in ((1.0 - s) / 2.0, s / 2.0):
        if arg.imag == 0.0 and arg.real <= 0.0 and arg.real == int(arg.real):
            raise PoleError(f"Delta has a pole/zero at s={s}")
    return (s - 0.5) * math.log(math.pi) + complex(_sc_loggamma((1.0 - s) / 2.0)) \
        - complex(_sc_loggamma(s / 2.0))


def delta(s: complex) -> complex:
    """The functional-equation factor Delta(s); unimodular on the
    critical line, Delta(s) Delta(1-s) = 1.

    Returns 0 at the trivial zeros s = 0, -2, -4, ... and raises
    :class:`PoleError` at the poles s = 1, 3, 5, ...
    """
    s = complex(s)
    half = s / 2.0
    if half.imag == 0.0 and half.real <= 0.0 and half.real == int(half.real):
        return 0.0 + 0.0j
    return complex(np.exp(log_delta(s)))


def delta_critical(t):
    """Delta(1/2 + it) for an array of heights (vectorized)."""
    arr = np.atleast_1d(np.asarray(t, dtype=float))
    s = 0.5 + 1j * arr
    ld = (s - 0.5) * math.log(math.pi) + _sc_loggamma((1.0 - s) / 2.0) - _sc_loggamma(s / 2.0)
    return np.exp(ld)


# ----------------------------------------------------------------------
# Euler-Maclaurin zeta
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def _bern_over_fact(k: int) -> float:
    """B_{2k} / (2k)! as a correctly rounded double (exact rational
    recurrence, no transcribed table)."""
    m = 2 * k
    row = [Fraction(0)] * (m + 1)
    for j in range(m + 1):
        row[j] = Fraction(1, j + 1)
        for i in range(j, 0, -1):
            row[i - 1] = i * (row[i - 1] - row[i])
    return float(row[0] / math.factorial(m))


def _em_truncation(s: complex) -> int:
    """Truncation point N for the Euler-Maclaurin tail.

    N of order |Im s| makes the tail terms decay like (|s|/2piN)^{2k};
    the start value below gives ~1e-13 absolute error with 12 terms,
    and N is bumped until the first omitted term estimate clears
    EM_ABS_TOL.
    """
    t = abs(s.imag)
    n = int(max(16, math.ceil(1.25 * t) + 24))
    k = EM_TERMS
    b = abs(_bern_over_fact(k + 1))
    while n < 10_000_000:
        # |(s)_{2k+1}| N^{-Re s - 2k - 1} ~ (|s| + 2k)^{2k+1} N^{-Re s - 2k - 1}
        logterm = math.log(b) + (2 * k + 1) * math.log(abs(s) + 2 * k + 2) \
            - (s.real + 2 * k + 1) * math.log(n)
        if logterm < math.log(EM_ABS_TOL) - 1.5:
            break
        n = int(n * 1.3) + 8
    return n


def zeta_euler_maclaurin(s: complex) -> complex:
    """zeta(s) by Dirichlet sum plus Euler-Maclaurin tail.

    Intended for |Im s| <= 1e3 (cost grows linearly with |Im s|).
    Raises :class:`PoleError` at s = 1.
    """
    s = complex(s)
    if s == 1.0:
        raise PoleError("zeta has a pole at s=1")
    n = _em_truncation(s)
    ns = np.arange(1, n, dtype=float)
    head_terms = ns ** (-s)
    head = complex(math.fsum(head_terms.real.tolist()),
                   math.fsum(head_terms.imag.tolist()))
    tail = n ** (1.0 - s) / (s - 1.0) + 0.5 * n ** (-s)
    corr = 0.0 + 0.0j
    rising = s
    npow = complex(n) ** (-s - 1)
    for k in range(1, EM_TERMS + 1):
        corr += _bern_over_fact(k) * rising * npow * n ** (2 - 2 * k)
        rising *= (s + 2 * k - 1) * (s + 2 * k)
    return head + tail + corr


def _z_from_em(t: float) -> float:
    """Z(t) through the Euler-Maclaurin route (low-t path and oracle)."""
    return (np.exp(1j * theta(t)) * zeta_euler_maclaurin(0.5 + 1j * t)).real


# ----------------------------------------------------------------------
# Riemann-Siegel evaluation of Z(t)
# ----------------------------------------------------------------------

@lru_cache(maxsize=1)
def _psi_taylor() -> np.ndarray:
    """Taylor coefficients at 0 of the entire function
    F(z) = cos(pi z^2 / 2 + 3 pi / 8) / cos(pi z);  Psi(p) = F(1 - 2p).

    Computed as Cauchy coefficients on the circle |z| = 2 by FFT.  The
    circle stays clear of the removable points (real half-integers), and
    |F| <= ~5e2 there, so coefficient n carries absolute error about
    eps * 5e2 / 2^n: summable to ~1e-13 anywhere in |z| <= 1, including
    after differentiating a few times.  (Power-series division is not
    usable here: rounding at the removable singularities z = +-1/2
    injects a spurious pole whose coefficients grow like 2^n eps.)
    """
    m = 64
    grid = 512
    z = 2.0 * np.exp(2j * math.pi * np.arange(grid) / grid)
    vals = np.cos(math.pi * z * z / 2.0 + 3.0 * math.pi / 8.0) / np.cos(math.pi * z)
    coef = np.fft.fft(vals) / grid
    return (coef[:m] / 2.0 ** np.arange(m)).real


def rs_psi(p, deriv: int = 0):
    """The Riemann-Siegel remainder shape
    Psi(p) = cos(2 pi (p^2 - p - 1/16)) / cos(2 pi p)
    and its derivatives, via the Taylor series of the entire extension
    (stable at the removable points p = 1/4, 3/4).
    """
    coef = _psi_taylor()
    z = 1.0 - 2.0 * np.asarray(p, dtype=float)
    if deriv == 0:
        dcoef = coef
    else:
        n = np.arange(coef.size)
        fall = np.ones(coef.size)
        for j in range(deriv):
            fall *= np.maximum(n - j, 0)
        dcoef = (coef * fall)[deriv:]
    zz = np.atleast_1d(z)
    out = np.zeros_like(zz)
    for k in range(len(dcoef) - 1, -1, -1):
        out = out * zz + dcoef[k]
    out *= (-2.0) ** deriv
    return float(out[0]) if np.asarray(p).ndim == 0 else out


def _denominator(x):
    """e^{i pi x} - e^{-i pi x} = 2 i sin(pi x).  No overflow risk:
    |Im x| <= RS_HALFWIDTH/sqrt(2) < 4, so |sin(pi x)| < e^{4 pi}."""
    return 2j * np.sin(math.pi * x)


def _rs_quadrature_remainder(t: np.ndarray, th: np.ndarray) -> np.ndarray:
    """Exact Riemann-Siegel remainder  Z - (main sum)  by trapezoid
    quadrature of the saddle-point integral.

    With N = floor(a), a = sqrt(t/2pi), the identity

        Z(t) = 2 sum_{n<=N} cos(theta - t log n)/sqrt(n)
               - 2 Re[ e^{i theta(t)} I(t) ],
        I(t) = int_{L} e^{i pi x^2} x^{-s} / (e^{i pi x} - e^{-i pi x}) dx,

    holds exactly, where L is the line of slope e^{i pi/4} through
    N + 1/2 (the poles collected between c in (0,1) and c = N + 1/2
    produce the two main sums of the approximate functional equation).
    The integrand decays like exp(-2 pi u^2) along L and the nearest
    poles sit at distance 1/(2 sqrt 2), so the trapezoid rule with the
    step RS_STEP converges to ~1e-12.  Verified against the
    Euler-Maclaurin route in the test suite.
    """
    a = np.sqrt(t / TWO_PI)
    n_main = np.floor(a)
    c = n_main + 0.5
    h = RS_STEP
    u = np.arange(-RS_HALFWIDTH, RS_HALFWIDTH + h / 2.0, h)
    rot = np.exp(1j * math.pi / 4.0)
    x = c[:, None] + rot * u[None, :]
    s = 0.5 + 1j * t
    # Re(i pi x^2 - s log x + i theta) stays within [-2 pi U^2, ~2], so
    # the exponential neither overflows nor loses the Gaussian decay.
    expo = (1j * math.pi) * x * x - s[:, None] * np.log(x) + 1j * th[:, None]
    integral = (rot * h) * (np.exp(expo) / _denominator(x)).sum(axis=1)
    return -2.0 * integral.real


def _rs_series_remainder(t: np.ndarray, order: int) -> np.ndarray:
    """Classical asymptotic remainder (-1)^{N-1} tau^{-1/4} [C0 + C1 tau^{-1/2}].

    C0(p) = Psi(p); C1(p) = -Psi'''(p) / (96 pi^2) in the p = a - N
    parametrization (the constant is pinned against the exact remainder
    in the tests).  Error is O(tau^{-5/4}) after C0 and O(tau^{-7/4})
    after C1 (order 0 or 1).  Not used by hardy_z: it is 1e-6 accurate
    only above t ~ 2e4.
    """
    a = np.sqrt(t / TWO_PI)
    n_main = np.floor(a)
    p = a - n_main
    tau = t / TWO_PI
    sgn = np.where(np.mod(n_main, 2.0) == 0.0, -1.0, 1.0)
    corr = rs_psi(p)
    if order >= 1:
        corr = corr - rs_psi(p, deriv=3) / (96.0 * math.pi ** 2) / np.sqrt(tau)
    return sgn * tau ** (-0.25) * corr


def _rs_main_sum(t: np.ndarray, th: np.ndarray) -> np.ndarray:
    """2 sum_{n <= floor(sqrt(t/2pi))} cos(theta - t log n)/sqrt(n),
    vectorized over a ragged index set (log n and 1/sqrt(n) come from
    small lookup tables; n stays below ~400 even at t = 1e6)."""
    counts = np.floor(np.sqrt(t / TWO_PI)).astype(np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.zeros_like(t)
    nmax = int(counts.max())
    base = np.arange(nmax + 1, dtype=float)
    base[0] = 1.0
    logn = np.log(base)
    rsqrt = 1.0 / np.sqrt(base)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    which = np.repeat(np.arange(t.size), counts)
    n_flat = np.arange(total, dtype=np.int64) - np.repeat(starts, counts) + 1
    terms = np.cos(th[which] - t[which] * logn[n_flat]) * rsqrt[n_flat]
    # reduceat is safe: counts >= 1 for every t >= 2 pi
    sums = np.add.reduceat(terms, starts)
    return 2.0 * sums


#: Points per evaluation chunk are sized so the quadrature mesh stays
#: within ~30 MB regardless of input length.
_CHUNK_TARGET = 1 << 21


def hardy_z(t):
    """Hardy's Z(t) = e^{i theta(t)} zeta(1/2 + it), real for real t.

    Scalar or ndarray.  Heights below RS_MIN_T route through
    Euler-Maclaurin; above, the Riemann-Siegel main sum plus the
    quadrature remainder.
    """
    arr = np.asarray(t, dtype=float)
    if np.any(arr < 0.0):
        raise DomainError("hardy_z requires t >= 0")
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr).astype(float)
    out = np.empty_like(arr)
    low = arr < RS_MIN_T
    for i in np.nonzero(low)[0]:
        out[i] = _z_from_em(float(arr[i]))
    hi = np.nonzero(~low)[0]
    if hi.size:
        nodes = int(2 * RS_HALFWIDTH / RS_STEP) + 1
        chunk = max(1024, _CHUNK_TARGET // nodes)
        for j in range(0, hi.size, chunk):
            idx = hi[j:j + chunk]
            ts = arr[idx]
            th = theta(ts)
            out[idx] = _rs_main_sum(ts, th) + _rs_quadrature_remainder(ts, th)
    return float(out[0]) if scalar else out


def zeta_critical(t: float) -> ZetaSample:
    """Consistent (t, theta, Z, zeta) sample on the critical line."""
    t = float(t)
    if t < 0.0:
        raise DomainError("zeta_critical requires t >= 0")
    th = theta(t)
    z = float(hardy_z(t))
    zeta = complex(np.exp(-1j * th) * z)
    return ZetaSample(t=t, theta=th, z=z, zeta=zeta)
