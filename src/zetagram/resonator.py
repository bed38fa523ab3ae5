"""Resonator construction certifying large values of |zeta| on a line
e^{i phi} R through the discrete mean-value ratio |S1| / S2.

The resonator is the multiplicative function f supported on squarefree
products of primes from [L^2, exp((log L)^2)] with L =
exp(sqrt(log X log log X)), prime weight f(p) = L / (p log p), and
Dirichlet coefficients x_n = sqrt(n) f(n).  The window starts at L^2,
so while L^4 > X no product of two of its primes is <= X and the
support is {1} together with the window's primes; cutoffs with
L^4 <= X (X above about 2e29) are rejected.  This prime weight is the
one under which the classical bound sum_n f(n)^2 <= prod_p (1 +
L^2/(p^2 log^2 p)) < e holds; see the notes in the README about the
sqrt(p) variant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .divisor import primes_up_to
from .moments import DirichletPolynomial, GramSweep, _require_height, _s1_sum, _s2_sum
from .special import DomainError, InvariantError, _c99
from .summation import fsum

__all__ = [
    "ResonatorConfig",
    "Resonator",
    "build_resonator",
    "resonator_ratio",
    "certify_lower_bound",
    "CertificateReport",
]


@dataclass(frozen=True)
class ResonatorConfig:
    """Derived parameters of the resonator at coefficient cutoff X."""

    X: float
    L: float
    prime_lo: float
    prime_hi: float

    @classmethod
    def for_cutoff(cls, X: float) -> "ResonatorConfig":
        X = float(X)
        if not 1e3 <= X < math.inf:
            raise DomainError(f"resonator cutoff X must be finite and >= 1e3, got {X!r}")
        L = math.exp(math.sqrt(math.log(X) * math.log(math.log(X))))  # log log X >= 1.93
        if L ** 4 <= X:
            raise DomainError(
                f"resonator cutoff X = {X!r} has L^4 <= X, so its support would hold "
                "products of primes; only {1} and primes are supported")
        return cls(X=X, L=L, prime_lo=L * L, prime_hi=math.exp(math.log(L) ** 2))

    @property
    def effective_hi(self) -> float:
        """Products must stay <= X, so primes above X never contribute."""
        return min(self.prime_hi, self.X)


@dataclass
class Resonator:
    config: ResonatorConfig
    support: np.ndarray   # 1 and the window's primes, ascending
    weights: np.ndarray   # f(n) on the support

    def coefficient_polynomial(self) -> DirichletPolynomial:
        """x_n = sqrt(n) f(n) as a DirichletPolynomial."""
        return DirichletPolynomial(self.support, np.sqrt(self.support) * self.weights,
                                   int(self.config.X))

    @property
    def sum_f_squared(self) -> float:
        """sum_n f(n)^2; bounded by prod_p (1 + L^2/(p^2 log^2 p)) < e."""
        return fsum(self.weights ** 2)


def build_resonator(X: float) -> Resonator:
    """The resonator at cutoff X: f(1) = 1 and f(p) = L / (p log p) for
    the primes p in [L^2, min(exp((log L)^2), X)].

    An empty window (possible just above the X >= 1e3 floor) degrades
    to the trivial resonator supported on {1}.
    """
    cfg = ResonatorConfig.for_cutoff(X)
    primes = primes_up_to(int(math.floor(cfg.effective_hi)))
    primes = primes[primes >= math.ceil(cfg.prime_lo)]  # none while L^2 > X, X below about 5.5e3
    # the C library's log, as math.log; numpy's real log differs in the last bit
    logs = _c99(np.log, primes)[0]
    return Resonator(config=cfg, support=np.concatenate(([1], primes)),
                     weights=np.concatenate(([1.0], cfg.L / (primes * logs))))


def resonator_ratio(res: Resonator) -> float:
    """(sum_{mn<=X} f(m) f(mn)/sqrt(n)) / (sum_{n<=X} f(n)^2).

    On the support {1} and primes the pairs (m, mn) are (1, 1), (1, p)
    and (p, p), so the numerator is 1 + sum_p (f(p)/sqrt(p) + f(p)^2).
    """
    f, p = res.weights[1:], res.support[1:].astype(float)
    return fsum(np.concatenate(([1.0], f / np.sqrt(p), f * f))) / res.sum_f_squared


@dataclass
class CertificateReport:
    phi: float
    t_max: float
    cutoff: float
    certified_bound: float      # |S1| / S2 <= max |zeta| over the points
    scanned_max: float
    degenerate_direction: bool  # phi = pi/2: the (1 + e^{-2 i phi}) factor vanishes


def certify_lower_bound(sweep: GramSweep, res: Resonator) -> CertificateReport:
    """Large-value certificate: |S1| <= S2 * max |zeta(1/2 + i t_n)|
    with X = Y = the resonator polynomial, so the scanned maximum must
    dominate |S1|/S2 up to 1e-9 relative slack.  A break of that, or an
    S2 (a sum of squares with x_1 = 1) that is not positive, raises
    InvariantError.  It computes the two sums alone, not their
    predictions."""
    _require_height(sweep, "certify_lower_bound")
    poly = res.coefficient_polynomial()
    s1 = _s1_sum(sweep, poly, poly)
    s2 = _s2_sum(sweep, poly)
    if not s2 > 0.0:
        raise InvariantError("certificate sum S2 is not positive")
    bound = abs(s1) / s2
    scanned = float(np.max(np.abs(sweep.z)))  # a sweep holds t_0 <= 17.85 < t_max
    if scanned < bound * (1.0 - 1e-9):
        raise InvariantError("certificate inequality |S1| <= S2 max|zeta| failed")
    degenerate = abs(1.0 + complex(np.exp(-2j * sweep.phi.phi))) < 1e-12
    return CertificateReport(
        phi=sweep.phi.phi, t_max=sweep.t_max, cutoff=res.config.X,
        certified_bound=bound, scanned_max=scanned,
        degenerate_direction=degenerate)
