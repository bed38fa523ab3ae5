"""Named verification checks driven by the CLI `verify` subcommand.

Each check returns a CriterionResult with the computed numbers so the
report is auditable; tolerances at the reference height T = 1e5 are
fixed, and scale like sqrt(1e5/T) (capped) at other heights since the
subleading terms of every compared formula lose a factor ~sqrt(T)
against the main term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import divisor, moments, resonator
from .grampoints import Angle
from .moments import DirichletPolynomial, GramSweep, RationalExponent
from .special import DomainError

__all__ = ["CriterionResult", "SweepCache", "run_checks", "CHECK_NAMES"]

REFERENCE_T = 1e5


def _tol_scale(t_max: float) -> float:
    return min(4.0, max(1.0, math.sqrt(REFERENCE_T / t_max)))


@dataclass
class CriterionResult:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)


class SweepCache:
    """One GramSweep per direction at the run's height t_max, shared across checks."""

    def __init__(self, t_max: float, threads: int = 1, cache_dir: str | None = None):
        self.t_max = float(t_max)
        self.threads = threads
        self.cache_dir = cache_dir
        self._sweeps: dict = {}

    def get(self, phi: float) -> GramSweep:
        key = round(float(phi), 12)
        if key not in self._sweeps:
            self._sweeps[key] = GramSweep(phi, self.t_max, cache_dir=self.cache_dir,
                                          threads=self.threads)
        return self._sweeps[key]


# ----------------------------------------------------------------------
# individual checks
# ----------------------------------------------------------------------

def _near(rep, tol: float, floor: float) -> bool:
    """|computed - predicted| <= max(tol |predicted|, floor): relative
    where the predicted main term is large, absolute where it cancels,
    with no switch between the two.  The floor is the absolute test of
    the direction where the main term vanishes."""
    return abs(rep.computed - rep.predicted) <= max(tol * abs(rep.predicted), floor)


def _main_scale(t_max: float) -> float:
    """Size of a non-degenerate (T/2pi) log(T/2pi e) main term; the yard
    stick for directions where the predicted coefficient cancels."""
    return t_max / (2 * math.pi) * math.log(t_max / (2 * math.pi * math.e))


def check_prop1(cache: SweepCache, phi: float) -> list:
    """Mean-value formulas for S2 (two coefficient sets) and S1 (three
    example configurations, including the cancelling direction)."""
    scale = _tol_scale(cache.t_max)
    out = []
    one = DirichletPolynomial.from_values([1.0])
    one_one = DirichletPolynomial.from_values([1.0, 1.0])

    for poly, tol, tag in ((one, 0.02 * scale, "S2[1]"),
                           (one_one, 0.05 * scale, "S2[1,1]")):
        rep = moments.compute_S2(cache.get(phi), poly)
        out.append(CriterionResult(
            f"prop1:{tag}:phi={phi:.6g}", rep.rel_error <= tol,
            {"computed": rep.computed.real, "predicted": rep.predicted.real,
             "rel_error": rep.rel_error, "tolerance": tol}))

    s1_tol = 0.05 * scale
    yardstick = _main_scale(cache.t_max)
    for x_poly, tag in ((one, "S1[1|1]"), (one_one, "S1[1,1|1]")):
        rep = moments.compute_S1(cache.get(phi), x_poly, one)
        out.append(CriterionResult(
            f"prop1:{tag}:phi={phi:.6g}", _near(rep, s1_tol, s1_tol * yardstick),
            {"computed_abs": abs(rep.computed), "predicted_abs": abs(rep.predicted),
             "rel_error": rep.rel_error, "tolerance": s1_tol}))
    # cancelling direction: coefficient (1 + e^{-2 i phi}) = 0 at phi = pi/2
    rep_c = moments.compute_S1(cache.get(math.pi / 2), one, one)
    out.append(CriterionResult(
        "prop1:S1-degenerate:phi=pi/2",
        abs(rep_c.computed) <= s1_tol * yardstick,
        {"computed_abs": abs(rep_c.computed), "reference_scale": yardstick,
         "tolerance_fraction": s1_tol}))
    return out


def check_thm2(cache: SweepCache, phi: float) -> list:
    """Cubic moment against its closed-form main term, plus the
    vanishing direction phi = pi/2."""
    tol = 0.05 if cache.t_max >= REFERENCE_T else 0.10
    frac = 0.01 if cache.t_max >= REFERENCE_T else 0.03
    rep = moments.moment_cubed(cache.get(phi))
    # the main term at phi = 0 needs that direction's cut height alone
    main_0 = abs(moments.cubic_main_term(0.0, moments.gram_cut_height(0.0, cache.t_max)))
    out = [CriterionResult(
        f"thm2:main:phi={phi:.6g}", _near(rep, tol, frac * main_0),
        {"computed_re": rep.computed.real, "computed_im": rep.computed.imag,
         "predicted_re": rep.predicted.real, "rel_error": rep.rel_error,
         "tolerance": tol, "n_points": rep.n_points})]
    rep_v = moments.moment_cubed(cache.get(math.pi / 2))
    out.append(CriterionResult(
        "thm2:vanishing:phi=pi/2",
        abs(rep_v.computed) <= frac * main_0,
        {"computed_abs": abs(rep_v.computed),
         "reference_main": main_0, "tolerance_fraction": frac}))
    return out


DEFAULT_EXPONENTS = ((1, 1), (3, 2), (2, 1))


def check_thm1(cache: SweepCache, phi: float, exponents=DEFAULT_EXPONENTS) -> list:
    """Rational lower-bound pipeline (default k in {1, 3/2, 2}):
    coefficient-sum ordering, a positive lower bound, and the
    truncated-convolution invariants (theorem1_pipeline itself enforces
    the Hoelder chain)."""
    out = []
    for p, q in exponents:
        kexp = RationalExponent(p, q)
        rep = moments.theorem1_pipeline(cache.get(phi), kexp)
        out.append(CriterionResult(
            f"thm1:k={p}/{q}", rep.sigma2 >= rep.sigma1 and rep.lower_bound > 0.0,
            {"moment": rep.moment, "lower_bound": rep.lower_bound,
             "sigma1": rep.sigma1, "sigma2": rep.sigma2, "xi": rep.xi}))
        # truncation invariants for both constructed polynomials
        for tr in (rep.x_coeffs, rep.y_coeffs):
            full = divisor.build_table(tr.kappa * tr.m, tr.limit) if tr.m else None
            below = int(math.floor(tr.xi))
            if full is not None:
                eq = np.allclose(tr.values[1:below + 1],
                                 full.values[1:below + 1], rtol=1e-12, atol=1e-12)
                dom = np.all(tr.values <= full.values[:tr.limit + 1] * (1 + 1e-12) + 1e-12)
            else:
                eq = dom = True
            out.append(CriterionResult(
                f"thm1:truncation:k={p}/{q}:m={tr.m}", bool(eq and dom),
                {"xi": tr.xi, "limit": tr.limit}))
    return out


def check_cor1(cache: SweepCache, phi: float) -> list:
    """Sign classes: both non-empty, maxima growing with T, and the
    two signed odd moments, whose routes signed_odd_moment checks
    against each other (the exponent comparisons are reported, never
    asserted)."""
    sw = cache.get(phi)
    n_plus = int(sw.plus_mask.sum())
    n_minus = int(sw.minus_mask.sum())
    out = [CriterionResult(
        f"cor1:classes:phi={phi:.6g}", n_plus > 0 and n_minus > 0,
        {"n_plus": n_plus, "n_minus": n_minus})]
    t_small = max(1e3, sw.t_max / 100.0)
    scan_big = moments.max_scan(sw)
    if t_small < 0.9 * sw.t_max:
        scan_small = moments.class_maxima(sw, (t_small,))[0]
        grown = (scan_big.max_plus or 0.0) > (scan_small.max_plus or 0.0) and \
                (scan_big.max_minus or 0.0) > (scan_small.max_minus or 0.0)
    else:
        # not enough headroom between the two heights to compare maxima
        scan_small = scan_big
        grown = True
    logt = math.log(sw.t_max)
    out.append(CriterionResult(
        f"cor1:max-growth:phi={phi:.6g}", grown,
        {"max_plus_small": scan_small.max_plus, "max_plus_big": scan_big.max_plus,
         "max_minus_small": scan_small.max_minus, "max_minus_big": scan_big.max_minus,
         "ratio_plus_log54": (scan_big.max_plus or 0.0) / logt ** 1.25,
         "ratio_plus_log32": (scan_big.max_plus or 0.0) / logt ** 1.5}))
    plus, minus = moments.signed_odd_moment(sw, 1)
    out.append(CriterionResult(
        f"cor1:signed-identity:phi={phi:.6g}", True, {"plus": plus, "minus": minus}))
    return out


RESONATOR_GRID = (1e3, 1e4, 1e5, 1e6)


def check_cor2(cache: SweepCache, phi: float) -> list:
    """Resonator ratio growth over the cutoff grid, the diagonal-weight
    bound < e, and the certificate at (phi, t_max), whose inequality
    certify_lower_bound enforces."""
    ratios = []
    bounds_ok = True
    sums = []
    for x in RESONATOR_GRID:
        res = resonator.build_resonator(x)
        ratios.append(resonator.resonator_ratio(res))
        s2 = res.sum_f_squared
        sums.append(s2)
        bounds_ok = bounds_ok and s2 < math.e
    increasing = all(ratios[i] < ratios[i + 1] for i in range(len(ratios) - 1))
    out = [CriterionResult(
        "cor2:ratio-growth", increasing,
        {f"ratio@{x:.0e}": r for x, r in zip(RESONATOR_GRID, ratios)}),
        CriterionResult(
        "cor2:weight-bound", bounds_ok,
        {f"sum_f2@{x:.0e}": s for x, s in zip(RESONATOR_GRID, sums)})]
    cutoff = max(1e3, cache.t_max ** 0.2)
    cert = resonator.certify_lower_bound(cache.get(phi), resonator.build_resonator(cutoff))
    out.append(CriterionResult(
        f"cor2:certificate:phi={phi:.6g}", True,
        {"certified_bound": cert.certified_bound, "scanned_max": cert.scanned_max,
         "degenerate_direction": cert.degenerate_direction}))
    return out


DIVISOR_REGRESSION_GRID = (1e4, 1e5, 1e6, 1e7)
DIVISOR_EXPONENT_CASES = ((1.0, 1.0), (2.0, 1.0), (0.5, 0.5))


def check_divisor(cache: SweepCache, phi: float) -> list:
    """Partial-sum asymptotics, log-log regression of the ratio sums,
    and the cubic-polynomial coefficient identities."""
    total, pred = divisor.divisor_partial_sum(3, 1e6)
    rel = abs(total - pred) / total
    out = [CriterionResult(
        "divisor:d3-partial-sum", rel <= 0.005,
        {"sum": total, "predicted": pred, "rel_error": rel, "tolerance": 0.005})]
    loglog = np.log(np.log(np.array(DIVISOR_REGRESSION_GRID)))
    all_sums = divisor.divisor_ratio_sums_by_case(DIVISOR_EXPONENT_CASES, DIVISOR_REGRESSION_GRID)
    for (lam, mu), sums in zip(DIVISOR_EXPONENT_CASES, all_sums):
        slope = float(np.polyfit(loglog, np.log(np.array(sums)), 1)[0])
        target = lam * mu
        out.append(CriterionResult(
            f"divisor:exponent:lam={lam:g},mu={mu:g}", abs(slope - target) <= 0.3,
            {"slope": slope, "target": target, "band": 0.3}))
    p2 = divisor.p2_polynomial()
    p3 = divisor.p3_polynomial()
    a0, a1, a2 = p2.coefficients
    b0, b1, b2, b3 = p3.coefficients
    ident = (b3 == a2 and b2 == a1 - a2 and b1 == a0 - a1 + 2 * a2 and b0 == -b1)
    us = (1.7, 0.3, 5.5)
    d1 = p2.derivative()
    d2 = d1.derivative()
    abel = max(abs(p3(u) - (u * p2(u) - p2(u) + d1(u) - d2(u))) for u in us)
    out.append(CriterionResult(
        "divisor:p3-identities", ident and abel < 1e-12,
        {"B": [b0, b1, b2, b3], "A": [a0, a1, a2], "abel_residual": abel}))
    return out


_CHECKS = {
    "prop1": check_prop1,
    "thm2": check_thm2,
    "thm1": check_thm1,
    "cor1": check_cor1,
    "cor2": check_cor2,
    "divisor": check_divisor,
}
CHECK_NAMES = tuple(_CHECKS)


def run_checks(which: str, phi: float, t_max: float, threads: int = 1,
               cache_dir: str | None = None, exponents=None) -> list:
    """Run one named check (or "all") and return CriterionResults.

    exponents, when given, selects the rational exponents (p, q) run by
    the lower-bound pipeline check instead of the default three.
    """
    Angle(phi)  # validate early with the canonical message
    names = CHECK_NAMES if which == "all" else (which,)
    for name in names:
        if name not in _CHECKS:
            raise DomainError(f"unknown check {name!r}; choose from "
                              f"{', '.join(CHECK_NAMES)} or 'all'")
    cache = SweepCache(t_max, threads, cache_dir)
    results = []
    for name in names:
        if name == "thm1":
            results.extend(check_thm1(cache, phi, exponents or DEFAULT_EXPONENTS))
        else:
            results.extend(_CHECKS[name](cache, phi))
    return results
