"""Critical-line machinery: log-Gamma, the theta function, the
functional-equation factor, Hardy's Z, and zeta at s = 1/2 + it.

Two genuinely independent evaluation routes are provided for the
critical line:

* :func:`zeta_euler_maclaurin` -- truncated Dirichlet sum plus an
  Euler-Maclaurin tail of EM_TERMS Bernoulli terms, to EM_ABS_TOL.
  Accurate but O(|t|) per point; the reference oracle for |t| up to
  about 1e3.

* :func:`hardy_z` -- Riemann-Siegel main sum of length floor(sqrt(t/2pi))
  plus a remainder selected by height, both about 1e-11 absolute for
  t >= 10.  Below SERIES_MIN_T it is the *exact* saddle-point
  remainder, a contour integral evaluated by trapezoid quadrature on
  the 45-degree line through N + 1/2, on a mesh (RS_STEP, RS_HALFWIDTH)
  derived from its truncation and discretization terms.  From
  SERIES_MIN_T up it is the classical asymptotic series C0..C4 at O(1)
  cost per point; the quadrature is its oracle in the tests.

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

from .summation import fsum

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

#: From this height up hardy_z takes the Riemann-Siegel remainder from
#: the series C0..C4, below it from the quadrature.  Measured over 3,000
#: random t per band, max |series - quadrature| is 9.8e-12 on [2e3, 3e3],
#: 3.4e-12 on [3e3, 4e3], 1.5e-12 on [4e3, 5e3] and at most 5.4e-12 on
#: [5e3, 1e5], where the quadrature's own rounding dominates.
SERIES_MIN_T = 5000.0

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
    t must be finite and >= 0.  Uses log-Gamma directly for t <= 30 and the
    Stirling expansion above (the two branches overlap to ~1.6e-11 at
    the switch point).
    """
    arr = np.asarray(t, dtype=float)
    if not np.all((arr >= 0.0) & (arr < math.inf)):
        raise DomainError("theta requires finite t >= 0")
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
    """d theta / dt = (1/2) log(t/2pi) - 1/(48 t^2) - 7/(1920 t^4), finite t > 1."""
    arr = np.asarray(t, dtype=float)
    if not np.all((arr > 1.0) & (arr < math.inf)):
        raise DomainError("theta_deriv requires finite t > 1")
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
    head = complex(fsum(head_terms.real), fsum(head_terms.imag))
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


def _psi_deriv_taylor(deriv: int) -> np.ndarray:
    """Taylor coefficients in z = 1 - 2p of d^deriv Psi / dp^deriv."""
    coef = _psi_taylor()
    n = np.arange(deriv, coef.size)
    fall = np.ones(n.size)
    for j in range(deriv):
        fall *= n - j
    return (-2.0) ** deriv * fall * coef[deriv:]


def _horner(coef: np.ndarray, z: np.ndarray) -> np.ndarray:
    """sum_n coef[n] z^n, each coef[n] broadcast against z."""
    out = np.zeros(np.broadcast_shapes(coef.shape[1:], z.shape))
    for c in coef[::-1]:
        out = out * z + c
    return out


def rs_psi(p, deriv: int = 0):
    """The Riemann-Siegel remainder shape
    Psi(p) = cos(2 pi (p^2 - p - 1/16)) / cos(2 pi p)
    and its derivatives, via the Taylor series of the entire extension
    (stable at the removable points p = 1/4, 3/4).
    """
    z = np.atleast_1d(1.0 - 2.0 * np.asarray(p, dtype=float))
    out = _horner(_psi_deriv_taylor(deriv), z)
    return float(out[0]) if np.asarray(p).ndim == 0 else out


#: The Riemann-Siegel coefficients: C_k(p) is the sum of w Psi^{(j)}(p)
#: over the pairs (j, w) of row k (Edwards, Riemann's Zeta Function,
#: section 7.4; Gabcke 1979).
_RS_SERIES = (
    ((0, 1.0),),
    ((3, -1.0 / (96.0 * math.pi ** 2)),),
    ((2, 1.0 / (64.0 * math.pi ** 2)), (6, 1.0 / (18432.0 * math.pi ** 4))),
    ((1, -1.0 / (64.0 * math.pi ** 2)), (5, -1.0 / (3840.0 * math.pi ** 4)),
     (9, -1.0 / (5308416.0 * math.pi ** 6))),
    ((0, 1.0 / (128.0 * math.pi ** 2)), (4, 19.0 / (24576.0 * math.pi ** 4)),
     (8, 11.0 / (5898240.0 * math.pi ** 6)), (12, 1.0 / (2038431744.0 * math.pi ** 8))),
)


@lru_cache(maxsize=1)
def _series_taylor() -> np.ndarray:
    """Taylor coefficients in z = 1 - 2p of C_k(p), one column per k."""
    m = _psi_taylor().size
    out = np.zeros((m, len(_RS_SERIES)))
    for k, row in enumerate(_RS_SERIES):
        for j, w in row:
            out[:m - j, k] += w * _psi_deriv_taylor(j)
    return out


def _rs_series_remainder(t: np.ndarray, order: int) -> np.ndarray:
    """Classical asymptotic remainder
    (-1)^{N-1} tau^{-1/4} sum_{k <= order} C_k(p) tau^{-k/2},
    with tau = t/2pi, N = floor(sqrt(tau)) and p = sqrt(tau) - N.

    The error after C_k is O(tau^{-(2k+3)/4}).  With order 4 it is
    within 1e-11 of the quadrature from SERIES_MIN_T up, where hardy_z
    uses it.
    """
    tau = t / TWO_PI
    a = np.sqrt(tau)
    n_main = np.floor(a)
    ck = _horner(_series_taylor()[:, :order + 1, None], 1.0 - 2.0 * (a - n_main))
    corr = ck[order]
    for k in range(order - 1, -1, -1):
        corr = corr / a + ck[k]
    sgn = np.where(np.mod(n_main, 2.0) == 0.0, -1.0, 1.0)
    return sgn * tau ** (-0.25) * corr


#: Distance from the 45-degree line through N + 1/2 to the poles of
#: 1/sin(pi x) at N and N + 1.  The saddle point sqrt(t/2pi) lies in
#: [N, N + 1), so along the line its projection is within the same
#: distance of the centre.
_POLE_DISTANCE = 1.0 / (2.0 * math.sqrt(2.0))

#: Bound on each of the quadrature remainder's two neglected terms.
RS_QUAD_TOL = 1e-15
_LOG_TOL = -math.log(RS_QUAD_TOL)

#: Trapezoid step: the largest power of two (so every node is exact)
#: whose discretization term exp(-2 pi d / h) is at most RS_QUAD_TOL,
#: with d = _POLE_DISTANCE.
RS_STEP = 2.0 ** math.floor(math.log2(TWO_PI * _POLE_DISTANCE / _LOG_TOL))

#: Half-width of the mesh in whole steps: the integrand falls off like
#: exp(-2 pi (u - u0)^2) about the saddle's projection |u0| <= d, so
#: truncation at U leaves exp(-2 pi (U - d)^2) <= RS_QUAD_TOL.
_HALF_STEPS = math.ceil((_POLE_DISTANCE + math.sqrt(_LOG_TOL / TWO_PI)) / RS_STEP)
RS_HALFWIDTH = _HALF_STEPS * RS_STEP

_RS_ROT = np.exp(1j * math.pi / 4.0)
#: Offsets k h e^{i pi/4} of the nodes from the line's centre.
_RS_NODES = _RS_ROT * (RS_STEP * np.arange(-_HALF_STEPS, _HALF_STEPS + 1))


#: Trapezoid weights h e^{i pi/4} / (2i cos(pi w)) at the offsets w.  The
#: denominator e^{i pi x} - e^{-i pi x} = 2i sin(pi x) at x = N + 1/2 + w
#: is 2i (-1)^N cos(pi w), so only its sign depends on the point.  The one
#: real node is w = 0, away from the zeros of cos(pi w), and
#: |Im w| <= RS_HALFWIDTH/sqrt(2) < 2 keeps |cos(pi w)| < e^{2 pi}.
_RS_WEIGHTS = (_RS_ROT * RS_STEP) / (2j * np.cos(math.pi * _RS_NODES))


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
    The mesh RS_STEP, RS_HALFWIDTH bounds the truncation and
    discretization terms by RS_QUAD_TOL each.  This is the remainder of
    hardy_z below SERIES_MIN_T and the oracle of the series above.
    """
    n_main = np.floor(np.sqrt(t / TWO_PI))
    x = (n_main + 0.5)[:, None] + _RS_NODES[None, :]
    s = 0.5 + 1j * t
    # Re(i pi x^2 - s log x + i theta) stays within [-2 pi U^2, ~2], so
    # the exponential neither overflows nor loses the Gaussian decay.
    expo = (1j * math.pi) * x * x - s[:, None] * np.log(x) + 1j * th[:, None]
    integral = (np.exp(expo) * _RS_WEIGHTS).sum(axis=1)
    return np.where(np.mod(n_main, 2.0) == 0.0, -2.0, 2.0) * integral.real


def _rs_main_sum(t: np.ndarray, th: np.ndarray) -> np.ndarray:
    """2 sum_{n <= N(t)} cos(theta - t log n)/sqrt(n), N(t) = floor(sqrt(t/2pi)).

    One pass per n over the points with N(t) >= n, a suffix of the
    heights in ascending order.  Each point adds its terms in n order,
    so its sum does not depend on the rest of the batch.
    """
    order = np.argsort(t, kind="stable")
    ts, ths = t[order], th[order]
    counts = np.floor(np.sqrt(ts / TWO_PI))
    starts = np.searchsorted(counts, np.arange(1, counts[-1] + 1 if ts.size else 1))
    acc = np.zeros_like(ts)
    for n, i in enumerate(starts.tolist(), 1):
        acc[i:] += np.cos(ths[i:] - ts[i:] * math.log(n)) * (1.0 / math.sqrt(n))
    out = np.empty_like(t)
    out[order] = 2.0 * acc
    return out


#: Heights per block of hardy_z: the main sum, the series and the
#: quadrature each see one block at a time, so their scratch memory
#: (22 MiB per quadrature temporary at most) does not grow with the input.
BLOCK_POINTS = 1 << 14


def hardy_z(t):
    """Hardy's Z(t) = e^{i theta(t)} zeta(1/2 + it), real for real t.

    Scalar or ndarray of finite t >= 0.  Heights below RS_MIN_T route
    through Euler-Maclaurin; above, the Riemann-Siegel main sum plus the
    quadrature remainder below SERIES_MIN_T and the C0..C4 series from
    there up, in blocks of BLOCK_POINTS.  Each value is a function of
    its own t alone.
    """
    arr = np.asarray(t, dtype=float)
    if not np.all((arr >= 0.0) & (arr < math.inf)):
        raise DomainError("hardy_z requires finite t >= 0")
    flat = arr.ravel()
    out = np.empty_like(flat)
    for a in range(0, flat.size, BLOCK_POINTS):
        out[a:a + BLOCK_POINTS] = _hardy_z_block(flat[a:a + BLOCK_POINTS])
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def _hardy_z_block(arr: np.ndarray) -> np.ndarray:
    out = np.empty_like(arr)
    low = arr < RS_MIN_T
    for i in np.nonzero(low)[0]:
        out[i] = _z_from_em(float(arr[i]))
    ts = arr[~low]
    if ts.size:
        th = theta(ts)
        series = ts >= SERIES_MIN_T
        rem = np.empty_like(ts)
        rem[series] = _rs_series_remainder(ts[series], 4)
        rem[~series] = _rs_quadrature_remainder(ts[~series], th[~series])
        out[~low] = _rs_main_sum(ts, th) + rem
    return out


def zeta_critical(t: float) -> ZetaSample:
    """Consistent (t, theta, Z, zeta) sample on the critical line."""
    t = float(t)
    if not 0.0 <= t < math.inf:
        raise DomainError("zeta_critical requires finite t >= 0")
    th = theta(t)
    z = float(hardy_z(t))
    zeta = complex(np.exp(-1j * th) * z)
    return ZetaSample(t=t, theta=th, z=z, zeta=zeta)
