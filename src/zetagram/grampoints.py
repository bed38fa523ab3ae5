"""Generalized Gram points: the positive roots of e^{2 i phi} =
Delta(1/2 + it) on the increasing branch of theta, realized as
theta(t_n) = pi n - phi, together with their sign classification
value = e^{-i phi} zeta(1/2 + i t_n) = (-1)^n Z(t_n).
"""

from __future__ import annotations

import hashlib
import math
import os
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import special
from .special import TWO_PI, DomainError, InvariantError, _c99, _cevalpoly, theta, theta_deriv

__all__ = [
    "Angle",
    "GramPoint",
    "GramPointSet",
    "solve_gram",
    "enumerate_points",
    "classify",
    "count_estimate",
]

#: theta at its minimum t = 2 pi; targets must clear this plus a buffer
#: to sit safely on the increasing branch.  (A buffer of 0.25 keeps the
#: root theta(t) = -pi at t ~ 9.667 admissible.)
THETA_MIN = float(theta(TWO_PI))
BRANCH_BUFFER = 0.25

#: Bump when the solver or the theta evaluation changes; invalidates caches.
EVALUATOR_VERSION = 4

NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 60

#: classification values of smaller magnitude count as "+"
NEAR_ZERO = 1e-9

#: Most Gram points one enumeration may hold.  From T = 1e5 to 1e6 the
#: address space (VmPeak) of `points` and `maxscan` grew by at most 42
#: bytes per point, that of `resonate --certificate` by 106 and that of
#: `verify all` by about 190 when it held three sweeps (it holds two);
#: so each fits in 4 GiB at the budget.  A t_max above about 4.99e6
#: holds more points and is rejected before any array is allocated.
POINT_BUDGET = 10_000_000


@dataclass(frozen=True)
class Angle:
    """Direction phi selecting the target line e^{i phi} R."""

    phi: float

    def __post_init__(self):
        if not 0.0 <= self.phi < math.pi:
            raise DomainError("phi must be in [0, pi)")


@dataclass(frozen=True)
class GramPoint:
    n: int
    phi: Angle
    t: float


def _as_angle(phi) -> Angle:
    return phi if isinstance(phi, Angle) else Angle(float(phi))


# ----------------------------------------------------------------------
# Root solving
# ----------------------------------------------------------------------

#: Constants of scipy.special.lambertw: W(1), 1/e, the series of W at
#: the branch point -1/e (Corless et al. 1996, 4.22) and the (3, 2) Pade
#: approximant of W at 0, coefficients highest degree first.
_OMEGA = 0.56714329040978387299997
_EXPN1 = 0.36787944117144232159553
_W_BRANCH = (-1.0 / 3.0, 1.0, -1.0)
_W_PADE_NUM = (12.85106382978723404255, 12.34042553191489361902, 1.0)
_W_PADE_DEN = (32.53191489361702127660, 14.34042553191489361702, 1.0)


def _lambertw(b: np.ndarray) -> np.ndarray:
    """The principal branch W0(b) for real b > -1/e.

    A port of scipy.special.lambertw (BSD-3-Clause) at its default tol
    1e-8 that gives its real part bit for bit, with the operations and
    C-library calls of special.log_gamma: the seed is the branch-point
    series within 0.3 of -1/e, the Pade approximant on (-0.2, 1.5) and
    log b - log log b above; then Halley's iteration (Corless et al.
    1996, 5.9), written with e^-w for w >= 0, until a step is at most
    1e-8 of the iterate.
    """
    w = np.empty_like(b)
    near = np.abs(b + _EXPN1) < 0.3
    pade = ~near & (b > -0.2) & (b < 1.5)
    asy = ~(near | pade)
    p = np.sqrt(2.0 * (math.e * b[near] + 1.0))
    w[near] = _cevalpoly(_W_BRANCH, p, 0.0)[0]
    bp = b[pade]
    w[pade] = bp * _cevalpoly(_W_PADE_NUM, bp, 0.0)[0] / _cevalpoly(_W_PADE_DEN, bp, 0.0)[0]
    lb = _c99(np.log, b[asy])[0]
    w[asy] = lb - _c99(np.log, lb)[0]
    out = np.where(b == 0.0, b, _OMEGA)
    live = np.flatnonzero((b != 0.0) & (b != 1.0))
    b, w = b[live], w[live]
    up = w >= 0.0
    for _ in range(100):
        if not live.size:
            break
        ew = _c99(np.exp, np.where(up, -w, w))[0]
        f = np.where(up, w - b * ew, w * ew - b)
        wn = w - f / (np.where(up, w + 1.0, w * ew + ew) - (w + 2.0) * f / (2.0 * w + 2.0))
        done = np.abs(wn - w) <= 1e-8 * np.abs(wn)
        out[live[done]] = wn[done]
        live, b, w, up = live[~done], b[~done], wn[~done], up[~done]
    out[live] = np.nan  # no convergence in 100 steps, as scipy
    return out


def _initial_guess(targets: np.ndarray) -> np.ndarray:
    """Invert the leading asymptotic (t/2) log(t/(2 pi e)) = tau + pi/8.

    With y = t/(2 pi e) the equation reads y log y = beta, solved by
    y = beta / W0(beta).  Newton's result depends on the seed's last
    bit, so W0 is _lambertw, a port of scipy.special.lambertw (Corless
    et al. 1996) that repeats scipy's bits.  On the branch (targets at
    least THETA_MIN + BRANCH_BUFFER) beta >= -0.3382, clear of the fold
    at -1/e, so y >= 0.525 and the seed is at least 8.97.
    """
    beta = (targets + math.pi / 8.0) / (math.pi * math.e)
    y = np.ones_like(beta)
    big = np.abs(beta) >= 1e-12  # y -> 1 as beta -> 0; no 0/0 at beta = 0
    y[big] = beta[big] / _lambertw(beta[big])
    return TWO_PI * math.e * y


def _solve_targets(targets: np.ndarray) -> np.ndarray:
    """Vectorized Newton for theta(t) = tau on t > 2 pi.

    theta''(t) = -(1/4) Im psi'(1/4 + it/2) > 0 for t > 0, so theta is
    convex, and it increases on t > 2 pi: from a start right of the
    root Newton's iterates fall monotonically onto it, and from one left
    of it one step lands right of it.  On the branch every seed of
    _initial_guess is at least 8.97, right of 2 pi, so no bracket or
    fallback is needed; theta and theta_deriv raise DomainError should
    an iterate leave their domain.
    Each element stops on its own test, so its result does not depend
    on the other targets of the batch: |residual| <= NEWTON_TOL, a step
    of at most 2 ulps, or a step no smaller than the one before.  That
    step is rounding noise: near t = 1e6 one ulp of theta spans about 3
    ulps of t, and Newton would 2-cycle there, as across theta's
    1.6e-11 jump at THETA_SWITCH_T.  A final ulp-level polish picks the
    representable t minimizing |theta(t) - tau|, which is the best
    achievable residual in binary64.
    """
    targets = np.asarray(targets, dtype=float)
    if np.any(targets < THETA_MIN + BRANCH_BUFFER):
        raise DomainError(
            f"target {float(targets.min())!r} below the increasing-branch cutoff "
            f"theta(2 pi) + {BRANCH_BUFFER} = {THETA_MIN + BRANCH_BUFFER:.4f}")
    t = _initial_guess(targets)
    # each pass works on the still-live elements only: live indexes t,
    # and tau and last hold the targets and previous step sizes of those
    live, tau, last = np.arange(t.size), targets, np.full(t.size, math.inf)
    for _ in range(NEWTON_MAX_ITER):
        tl = t[live]
        res = theta(tl) - tau
        tn = tl - res / theta_deriv(tl)
        step = np.abs(tn - tl)
        moving = (np.abs(res) > NEWTON_TOL) & (step < last)
        t[live[moving]] = tn[moving]
        keep = moving & (step > 2.0 * np.spacing(tl))
        if not keep.any():
            break
        live, tau, last = live[keep], tau[keep], step[keep]
    # ulp polish: among the 5 neighbouring representables, keep the one
    # with the smallest computed residual.
    ulp = np.spacing(t)
    best_t = t.copy()
    best_res = np.abs(theta(t) - targets)
    for k in (-2, -1, 1, 2):
        cand = t + k * ulp
        r = np.abs(theta(cand) - targets)
        better = r < best_res
        best_t = np.where(better, cand, best_t)
        best_res = np.where(better, r, best_res)
    return best_t


def solve_gram(n: int, phi) -> GramPoint:
    """Solve theta(t) = pi n - phi on the canonical branch t > 2 pi."""
    angle = _as_angle(phi)
    t = float(_solve_targets(np.array([math.pi * n - angle.phi]))[0])
    return GramPoint(n=n, phi=angle, t=t)


# ----------------------------------------------------------------------
# Point collections
# ----------------------------------------------------------------------

class GramPointSet:
    """Monotone run of Gram points with consecutive indices, as the
    arrays n and t."""

    def __init__(self, phi: Angle, n: np.ndarray, t: np.ndarray):
        self.phi = phi
        self.n = np.asarray(n, dtype=np.int64)
        self.t = np.asarray(t, dtype=float)
        if self.n.shape != self.t.shape:
            raise DomainError("index/abscissa length mismatch")

    def __len__(self) -> int:
        return int(self.n.size)

    def residuals(self) -> np.ndarray:
        """theta(t_n) - (pi n - phi) for every point."""
        return theta(self.t) - (math.pi * self.n - self.phi.phi)


# ----------------------------------------------------------------------
# Enumeration and caching
# ----------------------------------------------------------------------

def _cache_path(cache_dir: str, phi: Angle) -> str:
    key = f"phi{phi.phi!r}_v{EVALUATOR_VERSION}".replace("+", "").replace("-", "m")
    return os.path.join(cache_dir, f"gram_{key}.bin")


def _cache_fields(phi: Angle) -> bytes:
    """The header up to the height; a file of another version or angle
    does not start with it."""
    return f"zetagram gram points evaluator={EVALUATOR_VERSION} phi={phi.phi!r} height=".encode()


def _digest(fields: bytes, body: bytes) -> bytes:
    return hashlib.sha256(fields + body).hexdigest().encode()


def _load_cache(path: str, phi: Angle):
    """(height, t) from the cache file of phi, or None for a missing,
    foreign or damaged one.

    The file is one header line, then t_0, t_1, ... as little-endian
    float64: every point up to the height.  The header ends in the
    sha256 of its own fields and of every byte of t, so any change to
    either fails the comparison.
    """
    try:
        with open(path, "rb") as fh:
            head, _, body = fh.read().partition(b"\n")
    except OSError:
        return None
    fields, _, digest = head.partition(b" sha256=")
    prefix = _cache_fields(phi)
    if not fields.startswith(prefix) or digest != _digest(fields, body):
        return None
    return float(fields[len(prefix):]), np.frombuffer(body, dtype="<f8")


def _store_cache(path: str, phi: Angle, height: float, t: np.ndarray) -> None:
    fields = _cache_fields(phi) + repr(height).encode()
    body = t.astype("<f8").tobytes()
    # a temporary file of its own, so no other writer or file shares its name
    fd, tmp = tempfile.mkstemp(suffix=".tmp", prefix=os.path.basename(path) + ".",
                               dir=os.path.dirname(path))
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(fields + b" sha256=" + _digest(fields, body) + b"\n" + body)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def enumerate_points(phi, t_max: float, cache_dir: str | None = None) -> GramPointSet:
    """All Gram points t_n(phi) with 0 <= n and t_n <= t_max, ascending.

    Enumeration starts at index 0 (the root of theta = -phi); negative
    indices on the canonical branch remain reachable via solve_gram.
    Each t_n is a function of (n, phi) alone, so the points below t_max
    are a prefix of those below any larger height.  One cache file per
    phi holds the points up to the largest height asked for: a lower
    t_max reads its prefix, a higher one solves the missing indices and
    rewrites the file, and a damaged or foreign file is replaced.  A
    t_max with more than POINT_BUDGET points raises DomainError.
    """
    angle = _as_angle(phi)
    t_max = float(t_max)
    if not 20.0 <= t_max < math.inf:
        raise DomainError("enumerate_points requires a finite t_max >= 20")
    estimate = count_estimate(angle, t_max)
    if not estimate < POINT_BUDGET:
        raise DomainError(f"t_max = {t_max!r} holds about {estimate:.4g} Gram points, "
                          f"above the budget of {POINT_BUDGET}")
    n_max = int(math.floor(estimate))
    height, t = -math.inf, np.empty(0)
    if cache_dir:
        os.makedirs(cache_dir, exist_ok=True)
        path = _cache_path(cache_dir, angle)
        height, t = _load_cache(path, angle) or (height, t)
    if t_max > height:
        known, t = t.size, np.concatenate([t, np.empty(n_max + 1 - t.size)])
        for a in range(known, t.size, special.BLOCK_POINTS):
            b = min(a + special.BLOCK_POINTS, t.size)
            t[a:b] = _solve_targets(math.pi * np.arange(a, b) - angle.phi)
        if np.any(t[1:] <= t[:-1]):
            raise InvariantError("enumerated abscissas are not strictly increasing")
        if cache_dir:
            _store_cache(path, angle, t_max, t)
    k = int(np.searchsorted(t[:n_max + 1], t_max, "right"))
    return GramPointSet(angle, np.arange(k), t[:k])


def count_estimate(phi, t_max: float) -> float:
    """(theta(t_max) + phi)/pi, the smooth count of points below t_max;
    grows like (t_max/2pi) log(t_max/2pi).  The actual enumeration count
    is floor(estimate) + 1, so |count - estimate| < 1 always."""
    angle = _as_angle(phi)
    if t_max < TWO_PI:
        raise DomainError("count_estimate requires t_max > 2 pi")
    with np.errstate(over="ignore"):  # huge heights overflow theta; the budgets reject them
        return (float(theta(t_max)) + angle.phi) / math.pi


# ----------------------------------------------------------------------
# Classification
# ----------------------------------------------------------------------

def bulk_hardy_z(t: np.ndarray, threads: int = 1) -> np.ndarray:
    """Z(t) over an array, its hardy_z blocks mapped over a thread pool.

    Each Z depends only on its own t, so the bytes are identical for
    every thread count.
    """
    t = np.asarray(t, dtype=float)
    block = special.BLOCK_POINTS
    if threads <= 1 or t.size <= block:
        return special.hardy_z(t)
    out = np.empty_like(t)
    starts = range(0, t.size, block)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for a, z in zip(starts, pool.map(special.hardy_z, (t[a:a + block] for a in starts))):
            out[a:a + block] = z
    return out


def classify(points: GramPointSet, threads: int = 1) -> tuple:
    """The sign classes of e^{-i phi} zeta(1/2 + i t_n) = (-1)^n Z(t_n),
    as the arrays (z, parity, value, plus): Z(t_n), (-1)^n, value =
    parity z, and the mask of the "+" class.

    The identity form (-1)^n Z is exact on the canonical branch; a 1%
    stride is cross-checked against Re(e^{-i phi} e^{-i theta} Z) and a
    mismatch raises InvariantError, as does a non-finite Z.  Near-zero values
    (|value| < NEAR_ZERO) count as "+".
    """
    z = bulk_hardy_z(points.t, threads)
    if not np.all(np.isfinite(z)):
        raise InvariantError("Hardy Z is not finite at some Gram point")
    parity = np.where(points.n % 2 == 0, 1.0, -1.0)
    value = parity * z
    if len(points):
        stride = max(1, len(points) // 100)
        samp = np.arange(0, len(points), stride)
        ts = points.t[samp]
        direct = np.exp(-1j * (points.phi.phi + theta(ts))) * z[samp]
        if np.max(np.abs(direct.real - value[samp])) > 1e-6 * max(1.0, np.max(np.abs(value[samp]))):
            raise InvariantError("sign-classification cross-check failed")
        if np.max(np.abs(direct.imag)) > 1e-6 * max(1.0, float(np.max(np.abs(z[samp])))):
            raise InvariantError("e^{-i phi} zeta is not numerically real at sampled points")
    return z, parity, value, value > -NEAR_ZERO
