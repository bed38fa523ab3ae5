"""Discrete moment engines over the Gram points t_n(phi) and their
predicted main terms: the mean values S1/S2 of Dirichlet polynomials,
the cubic moment with its explicit polynomial main term, the rational
lower-bound pipeline, and the signed odd moments / maxima scans.

Every sum runs in fixed index order with exactly rounded (fsum)
reductions, so reports are bit-identical across runs and worker counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from weakref import WeakKeyDictionary

import numpy as np

from . import divisor, expsum
from .grampoints import _as_angle, classify, count_estimate, enumerate_points, solve_gram
from .special import TWO_PI, DomainError, InvariantError
from .summation import ExactSum, blocked_fsum, fsum

__all__ = [
    "DirichletPolynomial",
    "MomentReport",
    "RationalExponent",
    "GramSweep",
    "moment_abs_2k",
    "moment_cubed",
    "cubic_main_term",
    "gram_cut_height",
    "compute_S1",
    "compute_S2",
    "theorem1_pipeline",
    "Theorem1Report",
    "signed_odd_moment",
    "max_scan",
    "class_maxima",
    "MaxScanResult",
]

REL_EPS = 1e-300


@dataclass(frozen=True, eq=False)
class DirichletPolynomial:
    """Finite sum X(s) = sum_{n <= limit} x_n n^{-s} as two arrays: ns, the
    support, strictly ascending in [1, limit], and cs, the x_n there (the
    constructor makes them int64 and complex).  Compared by identity."""

    ns: np.ndarray
    cs: np.ndarray
    limit: int
    #: GramSweep.half_line's values, per sweep
    _half_line: WeakKeyDictionary = field(default_factory=WeakKeyDictionary, init=False, repr=False)
    #: _cross_sum(self, b), per b, for _cross_sum_once
    _cross: WeakKeyDictionary = field(default_factory=WeakKeyDictionary, init=False, repr=False)

    def __post_init__(self):
        ns = np.asarray(self.ns, dtype=np.int64)
        cs = np.asarray(self.cs, dtype=complex)
        if ns.ndim != 1 or ns.shape != cs.shape or ns.size and not (
                1 <= ns[0] and ns[-1] <= self.limit and (ns[1:] > ns[:-1]).all()):
            raise DomainError(f"need indices strictly ascending in [1, {self.limit}], one per x_n")
        object.__setattr__(self, "ns", ns)
        object.__setattr__(self, "cs", cs)

    @classmethod
    def from_values(cls, values) -> "DirichletPolynomial":
        """The polynomial with x_n = values[n - 1], its zeros left out."""
        values = np.asarray(values, dtype=complex)
        ns = np.flatnonzero(values)
        return cls(ns + 1, values[ns], max(values.size, 1))

    @property
    def coefficients(self) -> dict:
        """{n: x_n} over the support, built from the arrays on each read."""
        return dict(zip(self.ns.tolist(), self.cs.tolist()))

    def conjugate(self) -> "DirichletPolynomial":
        """The polynomial with coefficients conj(x_n), so that X(1/2 - it)
        = conj(conjugate()(1/2 + it)); X itself when every x_n is real.
        Built once, so GramSweep.half_line keeps its values too."""
        return self._conjugate if self.cs.imag.any() else self

    @cached_property
    def _conjugate(self) -> "DirichletPolynomial":
        return DirichletPolynomial(self.ns, self.cs.conj(), self.limit)

    def evaluate_half_line(self, t: np.ndarray) -> np.ndarray:
        """X(1/2 + it) = sum x_n n^{-1/2} e^{-it log n} at each t.  For
        X(1/2 - it) take the conjugate of conjugate().evaluate_half_line(t):
        for real x_n that is conj(X(1/2 + it)) bit for bit.

        `expsum.evaluate` adds one term per pass over the points, or, when
        its cost model (support size, point count, t-range) finds it
        cheaper, interpolates from a Gaussian-gridded uniform t-grid by a
        windowed sinc.  Error model: the gridded values are within about
        1e-11 sum |x_n| n^{-1/2} of the term-by-term ones (measured:
        6.4e-12 at X = 5e4, T = 1e4; 3.6e-12 at X = 1e6, T = 1e5), besides
        the rounding of the phases t log n that both share, about
        |t| log n 2^-53 per term.
        On either path a value depends only on the polynomial and its t,
        and memory is O(len(t) + support).
        """
        return expsum.evaluate(np.log(self.ns), self.cs / np.sqrt(self.ns), t)


#: Candidate pairs per pass of _cross_sum: about 56 bytes of work arrays
#: each, so a pass holds under 4 MiB beside the dense copy of b.
CROSS_CHUNK = 1 << 16


def _cross_sum(a: DirichletPolynomial, b: DirichletPolynomial) -> complex:
    """sum_{m in supp a, mn in supp b} a_m b_{mn} / (mn), exactly rounded.

    The candidate pairs (m, k) with m in supp a and m k <= max supp b are
    numbered m by m, k ascending, and read CROSS_CHUNK at a time, so a
    long run of one m (m = 1 has max supp b of them) is split too.  Each
    pass looks m k up in a dense copy of b and keeps the nonzero hits.
    Each term is (a_m b_{mk}) / (mk) with the real and imaginary parts
    divided by mk separately, which rounds as Python's complex / int does
    (numpy's complex / real multiplies by a reciprocal instead); numpy's
    complex product of two arrays rounds as that of a scalar and an
    array, and each pass adds its terms to two exact accumulators, so
    neither the passes nor their order move a bit.  Memory is
    O(max supp b + CROSS_CHUNK).
    """
    an, ac = a.ns, a.cs
    bn, bc = b.ns, b.cs
    if not (an.size and bn.size):
        return 0j
    dense = np.zeros(int(bn[-1]) + 1, dtype=complex)
    dense[bn] = bc
    counts = (dense.size - 1) // an   # the k with m k <= max supp b
    ends = np.cumsum(counts)
    starts = ends - counts
    total = int(ends[-1])
    re, im = ExactSum(), ExactSum()
    for lo in range(0, total, CROSS_CHUNK):
        hi = min(lo + CROSS_CHUNK, total)
        # the m-groups that meet [lo, hi), and how many of their pairs do
        g0, g1 = int(np.searchsorted(ends, lo, "right")), int(np.searchsorted(starts, hi))
        span = np.minimum(ends[g0:g1], hi) - np.maximum(starts[g0:g1], lo)
        group = np.repeat(np.arange(g0, g1), span)
        mk = an[group] * (np.arange(lo, hi) - starts[group] + 1)
        hit = np.flatnonzero(dense[mk])
        mk, group = mk[hit], group[hit]
        prod = ac[group] * dense[mk]
        re.add(prod.real / mk)
        im.add(prod.imag / mk)
    return complex(re.value(), im.value())


@dataclass(frozen=True)
class RationalExponent:
    """k = p/q >= 1 in lowest terms; kappa = 1/q, r = p - q."""

    p: int
    q: int

    def __post_init__(self):
        if not (self.p >= self.q >= 1):
            raise DomainError("need p >= q >= 1")
        if math.gcd(self.p, self.q) != 1:
            raise DomainError("p/q must be in lowest terms")

    @property
    def k(self) -> float:
        return self.p / self.q

    @property
    def kappa(self) -> float:
        return 1.0 / self.q

    @property
    def r(self) -> int:
        return self.p - self.q


@dataclass
class MomentReport:
    phi: float
    t_max: float
    kind: str  # abs2k | cubed | S1 | S2
    parameter: float
    computed: complex
    predicted: complex
    abs_error: float
    rel_error: float
    n_points: int

    @classmethod
    def build(cls, sweep: "GramSweep", kind, parameter, computed,
              predicted) -> "MomentReport":
        computed = complex(computed)
        predicted = complex(predicted)
        abs_err = abs(computed - predicted)
        rel_err = abs_err / max(abs(predicted), REL_EPS)
        return cls(phi=sweep.phi.phi, t_max=sweep.t_max, kind=kind,
                   parameter=float(parameter), computed=computed,
                   predicted=predicted, abs_error=abs_err, rel_error=rel_err,
                   n_points=len(sweep.points))


class GramSweep:
    """Shared enumeration + sign classification for a (phi, t_max) pair:
    the one pipeline from a height to classified points.  It holds the
    points and, one entry per point, the arrays z = Z(t_n), parity =
    (-1)^n, value = parity z and the class masks plus_mask/minus_mask.

    Every moment engine takes one of these as its first argument, so one
    sweep serves every verification at its (phi, t_max).
    """

    def __init__(self, phi, t_max: float, cache_dir: str | None = None,
                 threads: int = 1):
        self.phi = _as_angle(phi)
        self.t_max = float(t_max)
        self.points = enumerate_points(self.phi, self.t_max, cache_dir)
        self.z, self.parity, self.value, self.plus_mask = classify(self.points, threads)
        self.minus_mask = ~self.plus_mask

    def half_line(self, poly: DirichletPolynomial) -> np.ndarray:
        """poly.evaluate_half_line at the sweep's heights, read-only and
        evaluated once per polynomial: the values are kept on the
        polynomial, weakly keyed by the sweep, so the sweep holds none.
        X(1/2 - it_n) is np.conj(self.half_line(poly.conjugate())), which
        for real coefficients reuses the values of X(1/2 + it_n).
        """
        if self not in poly._half_line:
            values = poly.evaluate_half_line(self.points.t)
            values.flags.writeable = False
            poly._half_line[self] = values
        return poly._half_line[self]

    @cached_property
    def cut_height(self) -> float:
        """_midpoint_cut at the sweep's last point, with one solve (every
        sweep holds t_0 <= 17.85 < 20 <= t_max)."""
        return _midpoint_cut(self.phi, int(self.points.n[-1]), float(self.points.t[-1]))


def _midpoint_cut(phi, n: int, t_n: float) -> float:
    """T = (t_n + t_{n+1}) / 2 after the last point t_n: a cut height
    without the boundary jitter of stopping between two roots."""
    return 0.5 * (t_n + solve_gram(n + 1, phi).t)


def gram_cut_height(phi, t_max: float) -> float:
    """GramSweep(phi, t_max).cut_height from two Gram solves, without the
    sweep: the last index of enumerate_points is the floor of
    count_estimate, less one when that point lies above t_max."""
    n = math.floor(count_estimate(phi, t_max))
    t_n = solve_gram(n, phi).t
    if t_n > t_max:
        n, t_n = n - 1, solve_gram(n - 1, phi).t
    return _midpoint_cut(phi, n, t_n)


def _require_height(sweep: GramSweep, what: str) -> None:
    if sweep.t_max < 100.0:
        raise DomainError(f"{what} requires t_max >= 100.0")


# ----------------------------------------------------------------------
# |zeta|^{2k} and zeta^3
# ----------------------------------------------------------------------

def moment_abs_2k(sweep: GramSweep, k: float) -> MomentReport:
    """sum |zeta(1/2 + i t_n)|^{2k} against the growth shape
    T (log T)^{k^2+1} / (2 pi).

    The shape carries an unknown constant, so rel_error here is a
    comparator, not an accuracy claim; k = 0 returns the point count.
    A k whose comparator is not a finite double raises DomainError.
    """
    _require_height(sweep, "moment_abs_2k")
    if k < 0:
        raise DomainError("k must be >= 0")
    big_t = sweep.cut_height
    try:
        predicted = big_t * math.log(big_t) ** (k * k + 1.0) / TWO_PI
    except OverflowError:
        predicted = math.inf
    if not math.isfinite(predicted):
        raise DomainError(f"k = {k!r} is too large: T (log T)^(k^2+1) overflows at T = {big_t!r}")
    absz = np.abs(sweep.z)
    if k == 0:
        computed = float(len(sweep.points))
    else:
        logs = np.where(absz < 1e-300, -np.inf, np.log(np.maximum(absz, 1e-300)))
        computed = blocked_fsum(np.where(np.isneginf(logs), 0.0, np.exp(2.0 * k * logs)))
    return MomentReport.build(sweep, "abs2k", k, computed, predicted)


def cubic_main_term(phi, big_t: float) -> complex:
    """The main term of sum zeta(1/2 + i t_n)^3 at the cut height T:
    2 e^{3 i phi} cos(phi) (T/2pi) P3(log T/2pi)
      + 2 e^{3 i phi} cos(3 phi) (T/2pi) log(T/2pi e)."""
    phi = _as_angle(phi).phi
    phase, tau = complex(np.exp(3j * phi)), big_t / TWO_PI
    return (2.0 * phase * math.cos(phi) * tau * divisor.p3_polynomial()(math.log(tau))
            + 2.0 * phase * math.cos(3.0 * phi) * tau * math.log(tau / math.e))


def moment_cubed(sweep: GramSweep) -> MomentReport:
    """sum zeta(1/2 + i t_n)^3 = e^{3 i phi} sum (-1)^n Z(t_n)^3 against
    cubic_main_term at the sweep's cut height."""
    _require_height(sweep, "moment_cubed")
    computed = complex(np.exp(3j * sweep.phi.phi)) * blocked_fsum(sweep.parity * sweep.z ** 3)
    predicted = cubic_main_term(sweep.phi, sweep.cut_height)
    return MomentReport.build(sweep, "cubed", 3.0, computed, predicted)


# ----------------------------------------------------------------------
# S1 and S2
# ----------------------------------------------------------------------

def _check_limits(sweep: GramSweep, *polys: DirichletPolynomial) -> None:
    bound = sweep.t_max ** 0.25 * (1.0 + 1e-9)
    for poly in polys:
        if poly.limit > bound:
            raise DomainError(
                f"polynomial limit {poly.limit} exceeds t_max^(1/4) = {bound:.3f}")


def _cross_sum_once(a: DirichletPolynomial, b: DirichletPolynomial) -> complex:
    """_cross_sum(a, b), once per pair of polynomials: kept on a, weakly keyed by b."""
    if b not in a._cross:
        a._cross[b] = _cross_sum(a, b)
    return a._cross[b]


def s1_predicted_coefficient(phi, x_poly: DirichletPolynomial,
                             y_poly: DirichletPolynomial) -> complex:
    """e^{-2 i phi} sum_{m<=X, mn<=Y} x_m y_{mn}/(mn)
    + sum_{m<=Y, mn<=X} y_m x_{mn}/(mn), exactly over the supports, each
    once per pair of polynomials: when y_poly is x_poly, one sum."""
    xy, yx = _cross_sum_once(x_poly, y_poly), _cross_sum_once(y_poly, x_poly)
    return complex(np.exp(-2j * _as_angle(phi).phi)) * xy + yx


def _s1_sum(sweep: GramSweep, x_poly: DirichletPolynomial,
            y_poly: DirichletPolynomial) -> complex:
    """sum zeta(1/2 - i t_n) X(1/2 + i t_n) Y(1/2 - i t_n), each part exactly rounded."""
    # zeta(1/2 - it_n) = conj(zeta) = e^{i theta} Z = (-1)^n e^{-i phi} Z
    zeta_conj = sweep.parity * complex(np.exp(-1j * sweep.phi.phi)) * sweep.z
    xs = sweep.half_line(x_poly)
    ys = np.conj(sweep.half_line(y_poly.conjugate()))
    terms = zeta_conj * xs * ys
    return complex(blocked_fsum(terms.real), blocked_fsum(terms.imag))


def _s2_sum(sweep: GramSweep, x_poly: DirichletPolynomial) -> float:
    """sum |X(1/2 + i t_n)|^2, exactly rounded."""
    return blocked_fsum(np.abs(sweep.half_line(x_poly)) ** 2)


def compute_S1(sweep: GramSweep, x_poly: DirichletPolynomial,
               y_poly: DirichletPolynomial) -> MomentReport:
    """S1 = sum zeta(1/2 - i t_n) X(1/2 + i t_n) Y(1/2 - i t_n) against
    (T/2pi) log(T/2pi e) times the exact coefficient double sums."""
    _require_height(sweep, "compute_S1")
    _check_limits(sweep, x_poly, y_poly)
    tau = sweep.cut_height / TWO_PI
    predicted = tau * math.log(tau / math.e) * s1_predicted_coefficient(sweep.phi, x_poly, y_poly)
    return MomentReport.build(sweep, "S1", x_poly.limit, _s1_sum(sweep, x_poly, y_poly), predicted)


def compute_S2(sweep: GramSweep, x_poly: DirichletPolynomial) -> MomentReport:
    """S2 = sum |X(1/2 + i t_n)|^2 against
    (T/2pi) log(T/2pi e) sum |x_n|^2 / n."""
    _require_height(sweep, "compute_S2")
    _check_limits(sweep, x_poly)
    # Python's abs (hypot) and ** (pow): numpy's abs and x * x differ in some last bits
    coeff = fsum([abs(v) ** 2 / n for n, v in zip(x_poly.ns.tolist(), x_poly.cs.tolist())])
    tau = sweep.cut_height / TWO_PI
    predicted = tau * math.log(tau / math.e) * coeff
    return MomentReport.build(sweep, "S2", x_poly.limit, _s2_sum(sweep, x_poly), predicted)


# ----------------------------------------------------------------------
# Rational lower-bound pipeline
# ----------------------------------------------------------------------

@dataclass
class Theorem1Report:
    exponent: RationalExponent
    phi: float
    t_max: float
    xi: float
    s1: MomentReport
    s2: MomentReport
    moment: float          # sum |zeta|^{2k}, computed directly
    lower_bound: float     # |S1|^{2k} / S2^{2k-1}, at most moment (up to 1e-9)
    sigma1: float          # coefficient sum over (m in X-range, mn in Y-range)
    sigma2: float          # coefficient sum over (m in Y-range, mn in X-range)
    n_points: int
    x_coeffs: divisor.TruncatedCoeffs   # D^p, the coefficients of X
    y_coeffs: divisor.TruncatedCoeffs   # D^r, the coefficients of Y


def theorem1_pipeline(sweep: GramSweep, kexp: RationalExponent) -> Theorem1Report:
    """Lower-bound construction for sum |zeta|^{2k} with k = p/q.

    Builds the xi-truncated kappa-divisor polynomial D with
    xi = T^{1/(4p)}, sets X = D^p and Y = D^r, computes S1, S2 and the
    direct moment, and checks the Hoelder chain
        sum |zeta|^{2k} >= |S1|^{2k} / S2^{2k-1}
    (an inequality between the actually computed sums, so it must hold
    up to 1e-9 relative slack; a violation raises InvariantError).  A k
    too large for the comparator of moment_abs_2k or for finite Hoelder
    powers raises DomainError.
    """
    _require_height(sweep, "theorem1_pipeline")
    k = kexp.k
    xi = sweep.t_max ** (1.0 / (4.0 * kexp.p))
    x_tr = divisor.convolve_truncated(kexp.kappa, kexp.p, xi)
    y_tr = divisor.convolve_truncated(kexp.kappa, kexp.r, xi)
    x_poly = DirichletPolynomial.from_values(x_tr.values[1:])
    y_poly = DirichletPolynomial.from_values(y_tr.values[1:])
    s1 = compute_S1(sweep, x_poly, y_poly)
    s2 = compute_S2(sweep, x_poly)
    m2k = moment_abs_2k(sweep, k)
    s2_val = s2.computed.real
    moment_val = m2k.computed.real
    try:
        s1_pow = abs(s1.computed) ** (2.0 * k)
        s2_pow = s2_val ** (2.0 * k - 1.0)
    except OverflowError:
        s1_pow = s2_pow = math.inf
    if not (math.isfinite(s1_pow) and math.isfinite(moment_val * s2_pow)):
        raise DomainError(f"k = {k!r} is too large: its Hoelder powers overflow a double")
    lower = s1_pow / s2_pow if s2_val > 0 else 0.0
    if not moment_val * s2_pow >= s1_pow * (1.0 - 1e-9):
        raise InvariantError("Hoelder inequality violated beyond numerical slack")
    return Theorem1Report(
        exponent=kexp, phi=sweep.phi.phi, t_max=sweep.t_max, xi=xi,
        s1=s1, s2=s2, moment=moment_val, lower_bound=lower,
        sigma1=_cross_sum_once(x_poly, y_poly).real, sigma2=_cross_sum_once(y_poly, x_poly).real,
        n_points=len(sweep.points), x_coeffs=x_tr, y_coeffs=y_tr)


# ----------------------------------------------------------------------
# Signed odd moments and maxima
# ----------------------------------------------------------------------

def signed_odd_moment(sweep: GramSweep, ell: int) -> tuple:
    """(plus, minus): sums of |zeta|^{2 ell + 1} over the two sign
    classes, computed both by direct classification and through the
    identity (1/2) sum (|v|^{2l+1} +- v^{2l+1}) with v = (-1)^n Z.
    The two routes must agree to 1e-6 relative (InvariantError otherwise).
    """
    _require_height(sweep, "signed_odd_moment")
    if ell < 0:
        raise DomainError("ell must be >= 0")
    power = 2 * ell + 1
    absv = np.abs(sweep.value) ** power
    plus_direct = blocked_fsum(absv[sweep.plus_mask])
    minus_direct = blocked_fsum(absv[sweep.minus_mask])
    vpow = sweep.value ** power
    abs_sum, vpow_sum = blocked_fsum(absv), blocked_fsum(vpow)
    plus_ident = 0.5 * (abs_sum + vpow_sum)
    minus_ident = 0.5 * (abs_sum - vpow_sum)
    scale = max(plus_direct + minus_direct, 1e-300)
    if abs(plus_ident - plus_direct) > 1e-6 * scale or \
            abs(minus_ident - minus_direct) > 1e-6 * scale:
        raise InvariantError("signed-moment identity route disagrees with direct route")
    return plus_direct, minus_direct


@dataclass
class MaxScanResult:
    max_plus: float | None
    max_minus: float | None
    argmax_plus: float | None
    argmax_minus: float | None
    count: int             # points scanned: those with t_n <= T


def class_maxima(sweep: GramSweep, heights) -> list:
    """MaxScanResult over the prefix t_n <= T of the sweep for each height
    T: the largest |zeta| in each sign class and its abscissa (ties go to
    the first point), None for a class with no point below T.  Requires
    t_max >= 100, as every other statistic of the sweep."""
    _require_height(sweep, "class_maxima")
    absz = np.abs(sweep.value)
    t = sweep.points.t

    def best(mask, count):
        idx = np.nonzero(mask[:count])[0]
        if not idx.size:
            return None, None
        j = idx[np.argmax(absz[idx])]
        return float(absz[j]), float(t[j])

    out = []
    for height in heights:
        count = int(np.searchsorted(t, height, "right"))
        mp, ap = best(sweep.plus_mask, count)
        mm, am = best(sweep.minus_mask, count)
        out.append(MaxScanResult(max_plus=mp, max_minus=mm, argmax_plus=ap,
                                 argmax_minus=am, count=count))
    return out


def max_scan(sweep: GramSweep) -> MaxScanResult:
    """Running maxima of |zeta| over each sign class with abscissas."""
    return class_maxima(sweep, (sweep.t_max,))[0]
