"""Critical-line machinery: log-Gamma, the theta function, the
functional-equation factor, Hardy's Z, and zeta at s = 1/2 + it.

Two genuinely independent evaluation routes are provided for the
critical line:

* :func:`zeta_euler_maclaurin` -- truncated Dirichlet sum plus an
  Euler-Maclaurin tail of EM_TERMS Bernoulli terms, to EM_ABS_TOL, on
  -2 <= Re s <= 1e6, |Im s| <= 1e6.  Accurate but O(|t|) per point;
  the reference oracle for |t| up to about 1e3.

* :func:`hardy_z` -- Riemann-Siegel main sum of length N = floor(sqrt(t/2pi))
  plus a remainder selected by height.  The *exact* saddle-point
  remainder is a contour integral, evaluated by trapezoid quadrature on
  the 45-degree line through N + 1/2 on a mesh (RS_STEP, RS_HALFWIDTH)
  derived from its truncation and discretization terms.  Below
  SERIES_MIN_T, within each band N the remainder is an analytic
  function of p = sqrt(t/2pi) - N: the quadrature at _TABLE_NODES
  Chebyshev points per band gives a table of Chebyshev coefficients,
  built once per band when first needed, and each height takes its
  remainder from its band's table by Clenshaw's recurrence, within
  1e-12 of the quadrature.  From SERIES_MIN_T up it is the classical
  asymptotic series C0..C4 at O(1) cost per point, within 1e-11 of the
  quadrature; the quadrature is the oracle of both in the tests.  The
  error of Z grows with t, because the binary64 phases theta - t log n
  carry errors of about t 2^-53: against mpmath.siegelz it is at most
  1e-14 t (1 + |Z|) (measured: 1e-12 near t = 1e3, 3.5e-11 near 1e4,
  5e-10 near 1e5, 3e-9 near 1e6).

log_gamma is a port of scipy.special.loggamma (BSD-3-Clause; Hare
1997) that repeats its results bit for bit, so the package needs numpy
alone at run time; theta below THETA_SWITCH_T takes the same bits from
its steps at Re s = 1/4, run on Python floats.

Everything is plain binary64; long sums are compensated.  All functions
are pure, and the array entry points are safe to call from multiple
threads.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import repeat

import numpy as np

from .summation import fsum

__all__ = [
    "DomainError",
    "InvariantError",
    "log_gamma",
    "theta",
    "theta_deriv",
    "delta",
    "log_delta",
    "zeta_euler_maclaurin",
    "hardy_z",
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
#: Euler-Maclaurin tail, and its domain EM_MIN_RE <= Re s <= EM_MAX_PART,
#: |Im s| <= EM_MAX_PART.
EM_TERMS = 12
EM_ABS_TOL = 1e-10
EM_MIN_RE = -2.0
EM_MAX_PART = 1e6


class DomainError(ValueError):
    """Argument outside the documented domain of an operation, a pole or
    a size budget: the one class of bad input."""


class InvariantError(RuntimeError):
    """Computed numbers broke an identity or inequality that holds by
    algebra for every input: a fault of the program, not of its input."""


# ----------------------------------------------------------------------
# log-Gamma and the theta function
# ----------------------------------------------------------------------
#
# log_gamma is a port of scipy.special.loggamma (BSD-3-Clause), after
# Hare (1997), that reproduces its results bit for bit: the Gram points
# are Newton roots of theta, and a change in the last bit of theta moves
# some of them.  So each step is the operation that scipy's C++ compiles
# to: complex products as (ac - bd, ad + bc), quotients by libgcc's
# __divdc3, fused multiply-adds rounded once, and clog, exp, sin, ...
# from the C library.

_DBL_MIN, _EPS = sys.float_info.min, sys.float_info.epsilon
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitter

#: log(2 pi)/2 and log(pi), as scipy spells them.
_HLOG2PI = 0.918938533204672742
_LOGPI = 1.1447298858494001741434262

#: The Stirling coefficients B_2n / (2n (2n - 1)), n = 8 down to 1, and
#: the Taylor coefficients of log Gamma(1 + z), (-1)^n zeta(n)/n for
#: n = 23 down to 2 and then -(Euler's gamma), each to 20 digits as
#: scipy's _precompute/loggamma.py prints them.
_STIRLING = (-2.955065359477124183e-2, 6.4102564102564102564e-3, -1.9175269175269175269e-3,
             8.4175084175084175084e-4, -5.952380952380952381e-4, 7.9365079365079365079e-4,
             -2.7777777777777777778e-3, 8.3333333333333333333e-2)
_TAYLOR = (-4.3478266053040259361e-2, 4.5454556293204669442e-2, -4.7619070330142227991e-2,
           5.000004769810169364e-2, -5.2631679379616660734e-2, 5.5555767627403611102e-2,
           -5.8823978658684582339e-2, 6.2500955141213040742e-2, -6.6668705882420468033e-2,
           7.1432946295361336059e-2, -7.6932516411352191473e-2, 8.3353840546109004025e-2,
           -9.0954017145829042233e-2, 1.0009945751278180853e-1, -1.1133426586956469049e-1,
           1.2550966952474304242e-1, -1.4404989676884611812e-1, 1.6955717699740818995e-1,
           -2.0738555102867398527e-1, 2.7058080842778454788e-1, -4.0068563438653142847e-1,
           8.2246703342411321824e-1, -5.7721566490153286061e-1)


def _c99(fn, zr, zi=0.0):
    """fn(zr + i zi) as (Re, Im), for fn one of numpy's exp, log, sin,
    cosh, sinh.  On complex input numpy calls the C library's cexp, clog,
    csin, ..., as scipy does, and on the real axis these give exp, sin,
    ... exactly.  (numpy's real exp, log, cosh, ... and its complex
    products are SIMD code that differs in the last bit of some results.)
    """
    z = np.empty(np.broadcast(zr, zi).shape, dtype=complex)
    z.real, z.imag = zr, zi
    z = fn(z)
    return z.real, z.imag


def _split(a):
    """Veltkamp's halves (h, l) of a: h + l = a exactly, each with at
    most 26 significant bits (exact unless a * _SPLIT overflows)."""
    h = a * _SPLIT
    h = h - (h - a)
    return h, a - h


def _two_prod(a, b):
    """(p, e) with p = a b rounded and p + e = a b exactly, per element
    (Dekker 1971, from the halves of _split; exact unless a step
    overflows or underflows)."""
    p = a * b
    (ah, al), (bh, bl) = _split(a), _split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _fma(a, b, c) -> np.ndarray:
    """a b + c rounded once, per element: math.fsum of c and the exact
    product p + e of _two_prod."""
    p, e = _two_prod(a, b)
    c = c.tolist() if isinstance(c, np.ndarray) else repeat(c)
    return np.fromiter(map(math.fsum, zip(p.tolist(), e.tolist(), c)), float, p.size)


def _cevalpoly(coef, zr, zi):
    """The real polynomial coef (highest degree first) at z = zr + i zi,
    by Knuth's recurrence (TAOCP 4.6.4, eq. 3) as scipy runs it: with
    r = 2 Re z and s = |z|^2, each step a, b = r a + b, c - s a is fused,
    and the result is z a + b."""
    a, b = np.full_like(zr, coef[0]), np.full_like(zr, coef[1])
    r, s = 2.0 * zr, zr * zr + zi * zi
    for c in coef[2:]:
        a, b = _fma(r, a, b), _fma(-s, a, c)
    return zr * a + b, zi * a


def _cdiv(a, b, c, d):
    """(a + ib) / (c + id) as libgcc's __divdc3 (Smith 1962, with its other
    order for a subnormal ratio), less the power-of-two rescalings that
    act only where a step would overflow or underflow.  For |c| < |d| it
    divides (b - ia) by (d - ic), which takes the same steps."""
    flip = np.abs(c) < np.abs(d)
    a, b, c, d = (np.where(flip, b, a), np.where(flip, -a, b),
                  np.where(flip, d, c), np.where(flip, -c, d))
    ratio = d / c
    denom = d * ratio + c
    tiny = np.abs(ratio) <= _DBL_MIN
    return (np.where(tiny, a + d * (b / c), b * ratio + a) / denom,
            np.where(tiny, b - d * (a / c), b - a * ratio) / denom)


def _lg_stirling(x, y):
    """Stirling's series of log Gamma(x + iy), for x > 7 or |y| > 7."""
    rr, ri = _cdiv(np.ones_like(x), np.zeros_like(x), x, y)
    pr, pi_ = _cevalpoly(_STIRLING, *_cdiv(rr, ri, x, y))
    lr, li = _c99(np.log, x, y)
    return ((x - 0.5) * lr - y * li - x + _HLOG2PI + (rr * pr - ri * pi_),
            (x - 0.5) * li + y * lr - y + (rr * pi_ + ri * pr))


def _lg_shift(x, y):
    """The upward recurrence for log Gamma(x + iy), y >= +0: the first
    x + k > 7, and log|p|, arg p and the 2 pi turns of log p for the
    product p = z (z + 1) ... (z + k - 1), one turn per crossing of the
    negative real axis."""
    pr, pi_, flips = x, y, np.zeros_like(x)
    x = x + 1.0
    live = x <= 7.0
    while live.any():
        below = np.signbit(pi_)
        pr, pi_ = (np.where(live, pr * x - pi_ * y, pr), np.where(live, pr * y + pi_ * x, pi_))
        flips += live & np.signbit(pi_) & ~below
        x = np.where(live, x + 1.0, x)
        live = x <= 7.0
    return (x, *_c99(np.log, pr, pi_), 2.0 * flips * math.pi)


def _lg_taylor(x, y):
    """log Gamma(1 + x + iy) by its Taylor series, for |x + iy| < 0.2."""
    pr, pi_ = _cevalpoly(_TAYLOR, x, y)
    return x * pr - y * pi_, x * pi_ + y * pr


def _log_near_one(x, y):
    """log(x + iy) as scipy's zlog1: the series of log(1 + u) within 0.1
    of 1, clog elsewhere."""
    lr, li = _c99(np.log, x, y)
    live = np.flatnonzero(np.hypot(x - 1.0, y) <= 0.1)
    ur, ui = x[live] - 1.0, y[live]
    cr, ci, rr, ri = -np.ones(live.size), np.zeros(live.size), np.zeros(live.size), np.zeros(live.size)
    for n in range(1, 17):  # coefficient c = -(-u)^n; stop where |sum / c| < eps
        cr, ci = -cr * ur + ci * ui, -cr * ui - ci * ur
        rr, ri = rr + cr / n, ri + ci / n
        lr[live], li[live] = rr, ri
        with np.errstate(divide="ignore", invalid="ignore"):  # c = 0 runs on to n = 16
            keep = ~(np.hypot(*_cdiv(rr, ri, cr, ci)) < _EPS)
        live, ur, ui, cr, ci, rr, ri = (v[keep] for v in (live, ur, ui, cr, ci, rr, ri))
    return lr, li


def _sin_pi(x, y):
    """sin(pi (x + iy)) as scipy's sinpi for |pi y| < 700: sin and cos of
    pi x, as sines after reducing x mod 2, times cosh and sinh of pi y."""
    r = np.fmod(np.abs(x), 2.0)
    sign = np.where(x < 0.0, -1.0, 1.0) * np.where((r < 0.5) | (r > 1.5), 1.0, -1.0)
    sin = sign * _c99(np.sin, math.pi * (r - np.where(r < 0.5, 0.0, np.where(r > 1.5, 2.0, 1.0))))[0]
    cos = np.where(r < 1.0, -1.0, 1.0) * _c99(np.sin, math.pi * (r - np.where(r < 1.0, 0.5, 1.5)))[0]
    cos[r == 0.5] = 0.0
    py = math.pi * y
    return sin * _c99(np.cosh, py)[0], cos * _c99(np.sinh, py)[0]


def _log_gamma(x, y):
    """(Re, Im) of the principal log Gamma(x + iy), off the poles."""
    re, im = np.empty_like(x), np.empty_like(x)
    small = (x <= 7.0) & (np.abs(y) <= 7.0)
    near1 = small & (np.hypot(x - 1.0, y) < 0.2)
    near2 = small & ~near1 & (np.hypot(x - 2.0, y) < 0.2)
    refl = small & ~(near1 | near2) & (x < 0.1)
    rec = small & ~(near1 | near2 | refl)
    if near1.any():
        re[near1], im[near1] = _lg_taylor(x[near1] - 1.0, y[near1])
    if near2.any():  # log Gamma(z) = log(z - 1) + log Gamma(z - 1)
        lr, li = _log_near_one(x[near2] - 1.0, y[near2])
        tr, ti = _lg_taylor(x[near2] - 1.0 - 1.0, y[near2])
        re[near2], im[near2] = lr + tr, li + ti
    if refl.any():  # log pi - log sin(pi z) - log Gamma(1 - z), on the principal branch
        xr, yr = x[refl], y[refl]
        sr, si = _sin_pi(xr, yr)
        gr, gi = _log_gamma(1.0 - xr, -yr)
        turns = np.copysign(2.0 * math.pi, yr) * np.floor(0.5 * xr + 0.25)
        lr, li = _c99(np.log, sr, si)
        re[refl], im[refl] = _LOGPI - lr - gr, turns - li - gi
    st = ~small | rec
    if st.any():  # Stirling, after the recurrence for rec; Gamma(conj z) = conj Gamma(z)
        r, lower = rec[st], np.signbit(y[st])
        sx, sy = x[st], np.where(r, np.abs(y[st]), y[st])
        sx[r], lr, li, turns = _lg_shift(sx[r], sy[r])
        sr, si = _lg_stirling(sx, sy)
        sr[r], si[r] = sr[r] - lr, si[r] - li - turns
        re[st], im[st] = sr, np.where(r & lower, -si, si)
    return re, im


def log_gamma(s):
    """Principal branch of log Gamma(s), for a scalar (returns complex)
    or an array (returns a complex ndarray).

    A port of scipy.special.loggamma (BSD-3-Clause) that gives its
    results bit for bit, after Hare (1997): Stirling's series for Re s > 7 or |Im s| > 7; Taylor
    series about 1 and, by one recurrence step, about 2 within 0.2 of
    them; the reflection formula for Re s < 0.1; otherwise the upward
    recurrence to Re s > 7 and Stirling there.

    Raises :class:`DomainError` at the poles s = 0, -1, -2, ...
    """
    arr = np.asarray(s, dtype=complex)
    x, y = arr.real.ravel(), arr.imag.ravel()
    if np.any((y == 0.0) & (x <= 0.0) & (x == np.floor(x))):
        raise DomainError(f"log_gamma pole at s={s}")
    out = np.empty(x.size, dtype=complex)
    out.real, out.imag = _log_gamma(x, y)
    return complex(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def _cdiv_float(a, b, c, d):
    """_cdiv on Python floats, step for step."""
    if abs(c) < abs(d):
        a, b, c, d = b, -a, d, -c
    ratio = d / c
    denom = d * ratio + c
    if abs(ratio) <= _DBL_MIN:
        return (a + d * (b / c)) / denom, (b - d * (a / c)) / denom
    return (b * ratio + a) / denom, (b - a * ratio) / denom


def _im_log_gamma_quarter(y):
    """Im log Gamma(1/4 + iy) for a Python float y = t/2 of theta's low
    branch, with _log_gamma's bits: the same IEEE operations in the same
    order on floats, the fused steps as math.fsum of _two_prod's exact
    product and the addend, and clog as numpy's log of a complex scalar,
    which calls the C library as _c99 does (cmath.log does not)."""
    x, sy, shift_li, flips = 0.25, abs(y), 0.0, 0
    if sy <= 7.0:  # the upward recurrence of _lg_shift, to x = 7.25
        pr, pi_ = x, sy
        x += 1.0
        while x <= 7.0:
            below = math.copysign(1.0, pi_) < 0.0
            pr, pi_ = pr * x - pi_ * sy, pr * sy + pi_ * x
            flips += math.copysign(1.0, pi_) < 0.0 and not below
            x += 1.0
        shift_li = complex(np.log(complex(pr, pi_))).imag
    rr, ri = _cdiv_float(1.0, 0.0, x, sy)  # then _lg_stirling
    zr, zi = _cdiv_float(rr, ri, x, sy)
    r, s = 2.0 * zr, zr * zr + zi * zi
    a, b = _STIRLING[:2]
    for c in _STIRLING[2:]:  # _cevalpoly
        a, b = math.fsum((*_two_prod(r, a), b)), math.fsum((*_two_prod(-s, a), c))
    pr, pi_ = zr * a + b, zi * a
    lg = complex(np.log(complex(x, sy)))
    si = (x - 0.5) * lg.imag + sy * lg.real - sy + (rr * pi_ + ri * pr)
    si = si - shift_li - 2.0 * flips * math.pi  # both +0.0 for y > 7: si keeps its bits
    return -si if math.copysign(1.0, y) < 0.0 else si  # y = -0.0: the conjugate


def _theta_stirling(t):
    """Stirling expansion of theta, four correction terms (t > 30).  The
    powers of t are products, which cost less than np.power; on 3e6
    heights in [30, 1e7] theta kept every bit of the t ** k form."""
    t2 = t * t
    t3 = t2 * t
    return (0.5 * t * (np.log(t / TWO_PI) - 1.0)
            - math.pi / 8.0
            + 1.0 / (48.0 * t)
            + 7.0 / (5760.0 * t3)
            + 31.0 / (80640.0 * (t3 * t2))
            + 127.0 / (430080.0 * (t3 * t2 * t2)))


def theta(t):
    """Riemann-Siegel theta: Im log Gamma(1/4 + it/2) - (t/2) log pi.

    Continuous branch with theta(0) = 0.  Accepts a scalar or ndarray;
    t must be finite and >= 0.  Uses log-Gamma directly for t <= 30 and the
    Stirling expansion above (the two branches differ by 1.8e-15 at the
    switch point and by at most 1.3e-14 on [29, 31]).

    The t <= 30 branch runs per element on Python floats
    (_im_log_gamma_quarter, with the bits of the array log-Gamma port),
    about 10 us a height: 3 low heights, a direction's first Gram points,
    cost 0.04 ms there against the array port's 0.28 ms.  In bulk it is
    about 3.5x slower than the array port (80k heights: 0.85 against
    0.23 s; even near 40 heights), but no command passes more than a few
    such heights to one call.
    """
    arr = np.asarray(t, dtype=float)
    if not np.all((arr >= 0.0) & (arr < math.inf)):
        raise DomainError("theta requires finite t >= 0")
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    out = np.empty_like(arr)
    low = arr <= THETA_SWITCH_T
    if low.any():
        out[low] = [_im_log_gamma_quarter(0.5 * t) - 0.5 * t * math.log(math.pi)
                    for t in arr[low].tolist()]
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
            raise DomainError(f"Delta has a pole/zero at s={s}")
    return (s - 0.5) * math.log(math.pi) + log_gamma((1.0 - s) / 2.0) - log_gamma(s / 2.0)


def delta(s: complex) -> complex:
    """The functional-equation factor Delta(s); unimodular on the
    critical line, Delta(s) Delta(1-s) = 1.

    Returns 0 at the trivial zeros s = 0, -2, -4, ... and raises
    :class:`DomainError` at the poles s = 1, 3, 5, ...
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
    ld = (s - 0.5) * math.log(math.pi) + log_gamma((1.0 - s) / 2.0) - log_gamma(s / 2.0)
    return np.exp(ld)


# ----------------------------------------------------------------------
# Euler-Maclaurin zeta
# ----------------------------------------------------------------------

def _bernoulli(k: int) -> list:
    """B_2, B_4, ..., B_2k as fractions, from sum_{j<=m} C(m+1, j) B_j = 0."""
    b = [Fraction(1)]
    for m in range(1, 2 * k + 1):
        b.append(-sum(math.comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
    return b[2::2]


@lru_cache(maxsize=None)
def _bern_over_fact(k: int) -> float:
    """B_{2k} / (2k)! as a correctly rounded double."""
    return float(_bernoulli(k)[-1] / math.factorial(2 * k))


def _em_truncation(s: complex) -> int:
    """Truncation point N of the Euler-Maclaurin tail, of order |Im s| so
    that the tail terms decay like (|s|/2piN)^{2k}.  On the domain the
    first omitted term's estimate |B_26/26!| (|s| + 26)^25 N^(-Re s - 25)
    is below EM_ABS_TOL e^-1.5: its log falls with Re s and, from |Im s|
    = 60 up, rises with |Im s|, and at s = -2 + 1e6 i it clears by 0.067.
    """
    return max(16, math.ceil(1.25 * abs(s.imag)) + 24)


def zeta_euler_maclaurin(s: complex) -> complex:
    """zeta(s) by Dirichlet sum plus Euler-Maclaurin tail, on the domain
    -2 <= Re s <= 1e6, |Im s| <= 1e6; DomainError outside it, for a
    non-finite s and at the pole s = 1.

    The sum has N = 1.25 |Im s| + 24 terms (about 30 MB at the bound).
    Against mpmath the relative error was at most 4.1e-11 at Re s = -1
    and 2.7e-10 at Re s = -2 for |Im s| <= 1e4 (1e-8 at Re s = -2,
    |Im s| = 1e5, from the rounding of the phases t log n).  Below
    Re s = -2 this N misses EM_ABS_TOL at |Im s| = 1e6; the Bernoulli
    terms overflow near Re s = 1e14, and zeta rounds to 1 from Re s = 54.
    """
    s = complex(s)
    if not (EM_MIN_RE <= s.real <= EM_MAX_PART and abs(s.imag) <= EM_MAX_PART):  # and not NaN
        raise DomainError(f"zeta_euler_maclaurin requires {EM_MIN_RE} <= Re s <= {EM_MAX_PART:g} "
                          f"and |Im s| <= {EM_MAX_PART:g}, got s = {s!r}")
    if s == 1.0:
        raise DomainError("zeta has a pole at s=1")
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
    """sum_n coef[n] z^n, each coef[n] broadcast against z, in one
    accumulator updated in place."""
    out = np.zeros(np.broadcast_shapes(coef.shape[1:], z.shape))
    for c in coef[::-1]:
        np.multiply(out, z, out=out)
        np.add(out, c, out=out)
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


def _rs_series_remainder(t: np.ndarray, a: np.ndarray, n_main: np.ndarray,
                         order: int) -> np.ndarray:
    """Classical asymptotic remainder
    (-1)^{N-1} tau^{-1/4} sum_{k <= order} C_k(p) tau^{-k/2},
    with tau = t/2pi and p = a - N for the band a = sqrt(tau),
    N = n_main = floor(a) of _hardy_z_block.

    The error after C_k is O(tau^{-(2k+3)/4}).  With order 4 it is
    within 1e-11 of the quadrature from SERIES_MIN_T up, where hardy_z
    uses it.
    """
    ck = _horner(_series_taylor()[:, :order + 1, None], 1.0 - 2.0 * (a - n_main))
    corr = ck[order]
    for k in range(order - 1, -1, -1):
        corr = corr / a + ck[k]
    sgn = np.where(np.mod(n_main, 2.0) == 0.0, -1.0, 1.0)
    return sgn * (t / TWO_PI) ** (-0.25) * corr


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


def _rs_quadrature_remainder(t: np.ndarray, th: np.ndarray, n_main: int) -> np.ndarray:
    """Exact Riemann-Siegel remainder  Z - (main sum)  by trapezoid
    quadrature of the saddle-point integral, at heights t of one band
    N = n_main, N <= sqrt(t/2pi) < N + 1, with theta values th.

    The identity

        Z(t) = 2 sum_{n<=N} cos(theta - t log n)/sqrt(n)
               - 2 Re[ e^{i theta(t)} I(t) ],
        I(t) = int_{L} e^{i pi x^2} x^{-s} / (e^{i pi x} - e^{-i pi x}) dx,

    holds exactly, where L is the line of slope e^{i pi/4} through
    N + 1/2 (the poles collected between c in (0,1) and c = N + 1/2
    produce the two main sums of the approximate functional equation).
    The mesh RS_STEP, RS_HALFWIDTH bounds the truncation and
    discretization terms by RS_QUAD_TOL each.  This builds the
    remainder's table (_remainder_table) and is the oracle of the series
    above SERIES_MIN_T.  The nodes x and the factors i pi x^2 and log x
    depend on N alone, so they are formed once.
    """
    x = (n_main + 0.5) + _RS_NODES
    s = 0.5 + 1j * t
    # Re(i pi x^2 - s log x + i theta) stays within [-2 pi U^2, ~2],
    # so the exponential neither overflows nor loses the Gaussian decay.
    expo = (1j * math.pi) * x * x - s[:, None] * np.log(x) + 1j * th[:, None]
    return (-2.0 if n_main % 2 == 0 else 2.0) * (np.exp(expo) * _RS_WEIGHTS).sum(axis=1).real


#: The bands N = floor(sqrt(t/2pi)) of the heights in [RS_MIN_T,
#: SERIES_MIN_T): N = 1, ..., _TABLE_BANDS.
_TABLE_BANDS = math.floor(math.sqrt(SERIES_MIN_T / TWO_PI))

#: Chebyshev nodes per band of the remainder's table.  Within a band the
#: remainder is an analytic function of p = sqrt(t/2pi) - N, and its
#: Chebyshev coefficients fall faster than geometrically.  In band 1,
#: where they are largest, |c_16| = 2.0e-10, |c_18| = 2.5e-12,
#: |c_19| = 3.6e-12 and from c_20 on at most 1.3e-14, the quadrature's
#: own rounding (up to 5e-14 in the top bands).  Against the quadrature
#: at 20,000 random heights and at every seam, 20 and 22 nodes left
#: 5.5e-14 and 1.4e-14 in bands 1 to 3, 24 nodes 1.2e-14, and 28 and 32
#: nodes no less than that rounding.
_TABLE_NODES = 24

#: The table's heights in each band are at p = (1 + cos(angle))/2, the
#: Chebyshev points of the first kind mapped to (0, 1): all interior,
#: so none sits on a band edge.  _TABLE_COS turns the remainder's values
#: there into the coefficients c_k of sum_k c_k T_k(2p - 1) (the
#: discrete cosine transform, with c_0 halved).
_TABLE_ANGLES = math.pi * (np.arange(_TABLE_NODES) + 0.5) / _TABLE_NODES
_TABLE_P = 0.5 * (1.0 + np.cos(_TABLE_ANGLES))
_TABLE_COS = (2.0 / _TABLE_NODES) * np.cos(np.arange(_TABLE_NODES)[:, None] * _TABLE_ANGLES)
_TABLE_COS[0] *= 0.5


@lru_cache(maxsize=_TABLE_BANDS)
def _remainder_table(n_main: int) -> np.ndarray:
    """The Chebyshev coefficients in x = 2p - 1 of the Riemann-Siegel
    remainder on the band N = n_main, from the quadrature at the band's
    _TABLE_NODES heights t = 2 pi (N + p)^2 with theta(t).  Read-only:
    every caller shares the cached array."""
    t = TWO_PI * (n_main + _TABLE_P) ** 2
    coef = (_TABLE_COS * _rs_quadrature_remainder(t, theta(t), n_main)).sum(axis=1)
    coef.flags.writeable = False
    return coef


def _rs_table_remainder(a: np.ndarray, n_main: np.ndarray) -> np.ndarray:
    """The Riemann-Siegel remainder at heights in [RS_MIN_T,
    SERIES_MIN_T), given as their bands a = sqrt(t/2pi), N = n_main =
    floor(a) of _hardy_z_block, by Clenshaw's recurrence from the table
    of each height's band.  Each value is a function of its own t and
    its band's table."""
    band = n_main.astype(np.intp)
    counts = np.bincount(band)
    coef = np.zeros((_TABLE_NODES, counts.size))  # column N: band N's table
    for n in np.flatnonzero(counts).tolist():
        coef[:, n] = _remainder_table(n)
    x2 = 4.0 * (a - n_main) - 2.0  # 2x
    b1 = b2 = np.zeros_like(a)
    for c in coef[:0:-1]:
        b1, b2 = c[band] + x2 * b1 - b2, b1
    return coef[0][band] + 0.5 * x2 * b1 - b2


def _rs_main_sum(t: np.ndarray, th: np.ndarray, n_main: np.ndarray) -> np.ndarray:
    """2 sum_{n <= N} cos(theta - t log n)/sqrt(n), with the band N =
    n_main = floor(sqrt(t/2pi)) of _hardy_z_block.

    One pass per n over the points with N >= n, a suffix of the points
    sorted by N.  Each point adds its terms in n order, so its sum does
    not depend on the rest of the batch.
    """
    order = np.argsort(n_main, kind="stable")
    ts, ths, counts = t[order], th[order], n_main[order]
    starts = np.searchsorted(counts, np.arange(1, counts[-1] + 1 if ts.size else 1))
    acc = np.zeros_like(ts)
    for n, i in enumerate(starts.tolist(), 1):
        acc[i:] += np.cos(ths[i:] - ts[i:] * math.log(n)) * (1.0 / math.sqrt(n))
    out = np.empty_like(t)
    out[order] = 2.0 * acc
    return out


#: Heights per block of hardy_z: theta, the main sum and the remainder
#: each see one block at a time, so their scratch memory does not grow
#: with the input.
BLOCK_POINTS = 1 << 14


def hardy_z(t):
    """Hardy's Z(t) = e^{i theta(t)} zeta(1/2 + it), real for real t.

    Scalar or ndarray of finite t >= 0.  Heights below RS_MIN_T route
    through Euler-Maclaurin; above, the Riemann-Siegel main sum plus the
    remainder, from its band's Chebyshev table below SERIES_MIN_T and
    from the C0..C4 series from there up, in blocks of BLOCK_POINTS.
    Each value is a function of its own t alone.  Against mpmath.siegelz
    the error is at most 1e-14 t (1 + |Z|) for t >= RS_MIN_T.
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
    low = arr < RS_MIN_T  # Z = Re e^{i theta} zeta, by Euler-Maclaurin
    out[low] = [(np.exp(1j * theta(t)) * zeta_euler_maclaurin(0.5 + 1j * t)).real
                for t in arr[low].tolist()]
    ts = arr[~low]
    if ts.size:
        a = np.sqrt(ts / TWO_PI)  # the band of each height, derived once
        n_main = np.floor(a)
        series = ts >= SERIES_MIN_T
        rem = np.empty_like(ts)
        rem[series] = _rs_series_remainder(ts[series], a[series], n_main[series], 4)
        rem[~series] = _rs_table_remainder(a[~series], n_main[~series])
        out[~low] = _rs_main_sum(ts, theta(ts), n_main) + rem
    return out

