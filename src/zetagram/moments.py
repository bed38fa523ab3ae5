"""Discrete moment engines over the Gram points t_n(phi) and their
predicted main terms: the mean values S1/S2 of Dirichlet polynomials,
the cubic moment with its explicit polynomial main term, the rational
lower-bound pipeline, and the signed odd moments / maxima scans.

Every sum runs in fixed index order with exactly rounded (fsum)
reductions, so reports are bit-identical across runs and worker counts.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import divisor
from .grampoints import Angle, classify, enumerate_points, solve_gram
from .special import DomainError
from .summation import blocked_fsum, fsum

__all__ = [
    "DirichletPolynomial",
    "MomentReport",
    "RationalExponent",
    "PreconditionError",
    "GramSweep",
    "moment_abs_2k",
    "moment_cubed",
    "compute_S1",
    "compute_S2",
    "theorem1_pipeline",
    "Theorem1Report",
    "signed_odd_moment",
    "max_scan",
    "class_maxima",
    "MaxScanResult",
]

TWO_PI = 2.0 * math.pi
REL_EPS = 1e-300


class PreconditionError(ValueError):
    """A stated precondition (polynomial length vs height) is violated."""


@dataclass(frozen=True)
class DirichletPolynomial:
    """Finite sum X(s) = sum_{n <= limit} x_n n^{-s}."""

    coefficients: dict
    limit: int

    def __post_init__(self):
        for n in self.coefficients:
            if not 1 <= n <= self.limit:
                raise ValueError(f"coefficient index {n} outside [1, {self.limit}]")

    @classmethod
    def from_values(cls, values) -> "DirichletPolynomial":
        seq = list(values)
        coeff = {n: complex(v) for n, v in enumerate(seq, start=1) if v != 0}
        return cls(coefficients=coeff, limit=max(len(seq), 1))

    @cached_property
    def _arrays(self):
        """(n, x_n) over the support, sorted by n; built once."""
        ns = np.array(sorted(self.coefficients), dtype=np.int64)
        cs = np.array([self.coefficients[n] for n in ns.tolist()], dtype=complex)
        return ns, cs

    @cached_property
    def _half_line(self):
        """GramSweep.half_line's values, per sweep and then conj_arg."""
        return weakref.WeakKeyDictionary()

    def evaluate_half_line(self, t: np.ndarray, conj_arg: bool = False) -> np.ndarray:
        """X(1/2 + it), or X(1/2 - it) when conj_arg (no coefficient
        conjugation: exactly the polynomial at the reflected argument).

        One coefficient per pass into a single accumulator, so memory is
        O(len(t) + support) whatever the support size.
        """
        ns, cs = self._arrays
        t = np.asarray(t, dtype=float)
        phase = 1j if conj_arg else -1j
        out = np.zeros(t.shape, dtype=complex)
        for logn, w in zip(np.log(ns).tolist(), (cs / np.sqrt(ns)).tolist()):
            out += w * np.exp(phase * (t * logn))
        return out


def _cross_sum(a: DirichletPolynomial, b: DirichletPolynomial) -> complex:
    """sum_{m in supp a, mn in supp b} a_m b_{mn} / (mn), exactly rounded.

    Each term is (a_m b_k) / k with the real and imaginary parts divided
    by k separately, which rounds as Python's complex / int does (numpy's
    complex / real multiplies by a reciprocal instead).
    """
    an, ac = a._arrays
    bn, bc = b._arrays
    if not (an.size and bn.size):
        return 0j
    dense = np.zeros(int(bn[-1]) + 1, dtype=complex)
    dense[bn] = bc
    re, im = [], []
    for m, am in zip(an.tolist(), ac.tolist()):
        ks = np.arange(m, dense.size, m)
        prod = am * dense[ks]
        re.append(prod.real / ks)
        im.append(prod.imag / ks)
    return complex(fsum(np.concatenate(re)), fsum(np.concatenate(im)))


@dataclass(frozen=True)
class RationalExponent:
    """k = p/q >= 1 in lowest terms; kappa = 1/q, r = p - q."""

    p: int
    q: int

    def __post_init__(self):
        if not (self.p >= self.q >= 1):
            raise ValueError("need p >= q >= 1")
        if math.gcd(self.p, self.q) != 1:
            raise ValueError("p/q must be in lowest terms")

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
    kind: str  # abs2k | cubed | S1 | S2 | signed_odd | certificate
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
        self.phi = phi if isinstance(phi, Angle) else Angle(float(phi))
        self.t_max = float(t_max)
        self.points = enumerate_points(self.phi, self.t_max, cache_dir)
        self.z, self.parity, self.value, self.plus_mask = classify(self.points, threads)
        self.minus_mask = ~self.plus_mask

    def half_line(self, poly: DirichletPolynomial, conj_arg: bool = False) -> np.ndarray:
        """poly.evaluate_half_line over the sweep's heights, evaluated once
        per polynomial.  With real coefficients X(1/2 - it) is conj(X(1/2 + it))
        bit for bit, so the reflected values cost no second evaluation.
        The values are kept on the polynomial, so the sweep holds none.
        """
        if conj_arg and not np.any(poly._arrays[1].imag):
            return np.conj(self.half_line(poly))
        memo = poly._half_line.setdefault(self, {})
        if conj_arg not in memo:
            memo[conj_arg] = poly.evaluate_half_line(self.points.t, conj_arg)
            memo[conj_arg].flags.writeable = False
        return memo[conj_arg]

    @cached_property
    def cut_height(self) -> float:
        """Midpoint normalization T = (t_nu + t_{nu+1}) / 2 at the cut:
        removes the boundary jitter of stopping between two roots."""
        if not len(self.points):
            return self.t_max
        t_next = solve_gram(int(self.points.n[-1]) + 1, self.phi).t
        return 0.5 * (float(self.points.t[-1]) + t_next)


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
        raise ValueError("k must be >= 0")
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


def moment_cubed(sweep: GramSweep) -> MomentReport:
    """sum zeta(1/2 + i t_n)^3 = e^{3 i phi} sum (-1)^n Z(t_n)^3 against
    the main term
    2 e^{3 i phi} cos(phi) (T/2pi) P3(log T/2pi)
      + 2 e^{3 i phi} cos(3 phi) (T/2pi) log(T/2pi e).
    """
    _require_height(sweep, "moment_cubed")
    phase = complex(np.exp(3j * sweep.phi.phi))
    computed = phase * blocked_fsum(sweep.parity * sweep.z ** 3)
    big_t = sweep.cut_height
    tau = big_t / TWO_PI
    p3 = divisor.p3_polynomial()
    predicted = (2.0 * phase * math.cos(sweep.phi.phi) * tau * p3(math.log(tau))
                 + 2.0 * phase * math.cos(3.0 * sweep.phi.phi) * tau * math.log(tau / math.e))
    return MomentReport.build(sweep, "cubed", 3.0, computed, predicted)


# ----------------------------------------------------------------------
# S1 and S2
# ----------------------------------------------------------------------

def _check_limits(sweep: GramSweep, *polys: DirichletPolynomial) -> None:
    bound = sweep.t_max ** 0.25 * (1.0 + 1e-9)
    for poly in polys:
        if poly.limit > bound:
            raise PreconditionError(
                f"polynomial limit {poly.limit} exceeds t_max^(1/4) = {bound:.3f}")


def s1_predicted_coefficient(phi, x_poly: DirichletPolynomial,
                             y_poly: DirichletPolynomial) -> complex:
    """e^{-2 i phi} sum_{m<=X, mn<=Y} x_m y_{mn}/(mn)
    + sum_{m<=Y, mn<=X} y_m x_{mn}/(mn), exactly over the supports."""
    angle = phi if isinstance(phi, Angle) else Angle(float(phi))
    return complex(np.exp(-2j * angle.phi)) * _cross_sum(x_poly, y_poly) \
        + _cross_sum(y_poly, x_poly)


def compute_S1(sweep: GramSweep, x_poly: DirichletPolynomial,
               y_poly: DirichletPolynomial, enforce_limits: bool = True) -> MomentReport:
    """S1 = sum zeta(1/2 - i t_n) X(1/2 + i t_n) Y(1/2 - i t_n) against
    (T/2pi) log(T/2pi e) times the exact coefficient double sums."""
    _require_height(sweep, "compute_S1")
    if enforce_limits:
        _check_limits(sweep, x_poly, y_poly)
    # zeta(1/2 - it_n) = conj(zeta) = e^{i theta} Z = (-1)^n e^{-i phi} Z
    zeta_conj = sweep.parity * complex(np.exp(-1j * sweep.phi.phi)) * sweep.z
    xs = sweep.half_line(x_poly)
    ys = sweep.half_line(y_poly, conj_arg=True)
    terms = zeta_conj * xs * ys
    computed = complex(blocked_fsum(terms.real), blocked_fsum(terms.imag))
    big_t = sweep.cut_height
    tau = big_t / TWO_PI
    predicted = tau * math.log(tau / math.e) * s1_predicted_coefficient(sweep.phi, x_poly, y_poly)
    return MomentReport.build(sweep, "S1", x_poly.limit, computed, predicted)


def compute_S2(sweep: GramSweep, x_poly: DirichletPolynomial,
               enforce_limits: bool = True) -> MomentReport:
    """S2 = sum |X(1/2 + i t_n)|^2 against
    (T/2pi) log(T/2pi e) sum |x_n|^2 / n."""
    _require_height(sweep, "compute_S2")
    if enforce_limits:
        _check_limits(sweep, x_poly)
    xs = sweep.half_line(x_poly)
    computed = blocked_fsum(np.abs(xs) ** 2)
    coeff = fsum([abs(v) ** 2 / n for n, v in x_poly.coefficients.items()])
    big_t = sweep.cut_height
    tau = big_t / TWO_PI
    predicted = tau * math.log(tau / math.e) * coeff
    return MomentReport.build(sweep, "S2", x_poly.limit, computed, predicted)


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
    lower_bound: float     # |S1|^{2k} / S2^{2k-1}
    holder_satisfied: bool
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
    up to 1e-9 relative slack; a violation raises).  A k too large for
    the comparator of moment_abs_2k or for finite Hoelder powers raises
    DomainError.
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
    holder_ok = moment_val * s2_pow >= s1_pow * (1.0 - 1e-9)
    if not holder_ok:
        raise RuntimeError("Hoelder inequality violated beyond numerical slack")
    sigma1 = _cross_sum(x_poly, y_poly).real
    sigma2 = _cross_sum(y_poly, x_poly).real
    return Theorem1Report(
        exponent=kexp, phi=sweep.phi.phi, t_max=sweep.t_max, xi=xi,
        s1=s1, s2=s2, moment=moment_val, lower_bound=lower,
        holder_satisfied=holder_ok, sigma1=sigma1, sigma2=sigma2,
        n_points=len(sweep.points), x_coeffs=x_tr, y_coeffs=y_tr)


# ----------------------------------------------------------------------
# Signed odd moments and maxima
# ----------------------------------------------------------------------

def signed_odd_moment(sweep: GramSweep, ell: int) -> tuple:
    """(plus, minus): sums of |zeta|^{2 ell + 1} over the two sign
    classes, computed both by direct classification and through the
    identity (1/2) sum (|v|^{2l+1} +- v^{2l+1}) with v = (-1)^n Z.
    The two routes must agree to 1e-6 relative.
    """
    _require_height(sweep, "signed_odd_moment")
    if ell < 0:
        raise ValueError("ell must be >= 0")
    power = 2 * ell + 1
    absv = np.abs(sweep.value) ** power
    plus_direct = blocked_fsum(absv[sweep.plus_mask])
    minus_direct = blocked_fsum(absv[sweep.minus_mask])
    vpow = sweep.value ** power
    plus_ident = 0.5 * (blocked_fsum(absv) + blocked_fsum(vpow))
    minus_ident = 0.5 * (blocked_fsum(absv) - blocked_fsum(vpow))
    scale = max(plus_direct + minus_direct, 1e-300)
    if abs(plus_ident - plus_direct) > 1e-6 * scale or \
            abs(minus_ident - minus_direct) > 1e-6 * scale:
        raise RuntimeError("signed-moment identity route disagrees with direct route")
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
    the first point), None for a class with no point below T."""
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
    _require_height(sweep, "max_scan")
    return class_maxima(sweep, (sweep.t_max,))[0]
