"""Acceptance gate: the twelve shipped guarantees, each asserted at its
stated tolerance and printed as one line.

Desk scale: expensive sweeps (T = 1e5) are session fixtures shared with
the rest of the suite; every tolerance here is pinned, not derived at
run time.
"""

import math
import time

import numpy as np
import pytest

from zetagram import cli
from zetagram.divisor import (
    divisor_partial_sum,
    divisor_ratio_sums_at,
    p2_polynomial,
    p3_polynomial,
)
from zetagram.grampoints import count_estimate, enumerate_points
from zetagram.moments import (
    DirichletPolynomial,
    RationalExponent,
    compute_S1,
    compute_S2,
    max_scan,
    moment_cubed,
    signed_odd_moment,
    theorem1_pipeline,
)
from zetagram.resonator import build_resonator, certify_lower_bound, resonator_ratio
from zetagram.special import delta, delta_critical, hardy_z, theta, zeta_euler_maclaurin
from zetagram.summation import blocked_fsum
from zetagram import divisor as divisor_mod

ONE = DirichletPolynomial([1], [1.0], 1)
ONE_ONE = DirichletPolynomial([1, 2], [1.0, 1.0], 2)


def report(num, name, passed, detail):
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line)
    assert passed, line


def test_criterion_01_functional_equation_closure():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    ts = rng.uniform(1.0, 1e5, 1000)
    line_err = float(np.max(np.abs(np.abs(delta_critical(ts)) - 1.0)))
    box_err = 0.0
    done = 0
    while done < 20:
        s = complex(rng.uniform(-2.0, 3.0), rng.uniform(-50.0, 50.0))
        if abs(s.imag) < 0.3:
            continue
        box_err = max(box_err, abs(delta(s) * delta(1 - s) - 1.0))
        done += 1
    elapsed = time.perf_counter() - start
    report(1, "functional-equation closure",
           line_err <= 1e-9 and box_err <= 1e-9 and elapsed < 1.0,
           f"line_err={line_err:.2e}<=1e-9, box_err={box_err:.2e}<=1e-9, "
           f"runtime={elapsed:.2f}s<1s")


def test_criterion_02_evaluator_cross_validation():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    ts = rng.uniform(50.0, 500.0, 100)
    z_rs = hardy_z(ts)
    worst = 0.0
    for t, z in zip(ts, z_rs):
        em = (np.exp(1j * theta(t)) * zeta_euler_maclaurin(0.5 + 1j * t)).real
        worst = max(worst, abs(z - em))
    elapsed = time.perf_counter() - start
    report(2, "evaluator cross-validation",
           worst <= 1e-6 and elapsed < 10.0,
           f"max|Z_RS - e^(i theta) zeta_EM|={worst:.2e}<=1e-6 over 100 pts in "
           f"[50,500], runtime={elapsed:.2f}s<10s")


@pytest.mark.parametrize("phi", [0.0, math.pi / 4, math.pi / 2, 2.0])
def test_criterion_03_gram_point_residuals(phi):
    start = time.perf_counter()
    pts = enumerate_points(phi, 1e5)
    theta_resid = float(np.max(np.abs(pts.residuals())))
    delta_resid = float(np.max(np.abs(delta_critical(pts.t) - np.exp(2j * phi))))
    count_err = abs(len(pts) - count_estimate(phi, 1e5))
    elapsed = time.perf_counter() - start
    report(3, f"gram-point residuals phi={phi:.4g}",
           theta_resid <= 1e-10 and delta_resid <= 1e-8
           and count_err <= 2 and elapsed < 30.0,
           f"theta_resid={theta_resid:.2e}<=1e-10, delta_resid={delta_resid:.2e}"
           f"<=1e-8, count_err={count_err:.2f}<=2, n={len(pts)}, "
           f"runtime={elapsed:.1f}s<30s")


def test_criterion_04_cubic_moment_main_term(sweep_1e5_phi0, sweep_1e4_phi0):
    start = time.perf_counter()
    rep5 = moment_cubed(sweep_1e5_phi0.sweep)
    elapsed = sweep_1e5_phi0.build_seconds + (time.perf_counter() - start)
    rep4 = moment_cubed(sweep_1e4_phi0.sweep)
    report(4, "cubic moment vs main term",
           rep4.rel_error <= 0.10 and rep5.rel_error <= 0.05
           and rep5.rel_error < rep4.rel_error and elapsed < 120.0,
           f"rel@1e4={rep4.rel_error:.2e}<=0.10, rel@1e5={rep5.rel_error:.2e}"
           f"<=0.05, decreasing={rep5.rel_error < rep4.rel_error}, "
           f"runtime={elapsed:.1f}s<120s")


def test_criterion_05_cubic_moment_vanishing_direction(sweep_1e5_phi0, sweep_1e5_pi2):
    rep_0 = moment_cubed(sweep_1e5_phi0.sweep)
    rep_v = moment_cubed(sweep_1e5_pi2.sweep)
    frac = abs(rep_v.computed) / abs(rep_0.predicted)
    report(5, "cubic moment vanishing direction",
           frac <= 0.01,
           f"|sum zeta^3(pi/2)|={abs(rep_v.computed):.4g} is {frac:.2e} of the "
           f"phi=0 main term {abs(rep_0.predicted):.4g} (<=0.01)")


@pytest.mark.parametrize("phi_name,phi_fix", [("0", "sweep_1e5_phi0"),
                                              ("pi/3", "sweep_1e5_pi3")])
def test_criterion_06_mean_square_main_term(phi_name, phi_fix, request):
    holder = request.getfixturevalue(phi_fix)
    rep1 = compute_S2(holder.sweep, ONE)
    rep2 = compute_S2(holder.sweep, ONE_ONE)
    report(6, f"mean square main term phi={phi_name}",
           rep1.rel_error <= 0.02 and rep2.rel_error <= 0.05,
           f"rel[1]={rep1.rel_error:.2e}<=0.02, rel[1,1]={rep2.rel_error:.2e}<=0.05")


def test_criterion_07_twisted_mean_value(sweep_1e5_phi0, sweep_1e5_pi2):
    rep_a = compute_S1(sweep_1e5_phi0.sweep, ONE, ONE)
    rep_b = compute_S1(sweep_1e5_phi0.sweep, ONE_ONE, ONE)
    rep_c = compute_S1(sweep_1e5_pi2.sweep, ONE, ONE)
    degenerate_frac = abs(rep_c.computed) / abs(rep_a.computed)
    report(7, "twisted mean value",
           rep_a.rel_error <= 0.05 and rep_b.rel_error <= 0.05
           and degenerate_frac <= 0.05,
           f"rel[1|1]={rep_a.rel_error:.2e}<=0.05, rel[1,1|1]={rep_b.rel_error:.2e}"
           f"<=0.05, degenerate |S1(pi/2)|/|S1(0)|={degenerate_frac:.2e}<=0.05")


def test_criterion_08_rational_lower_bound_pipeline(sweep_1e5_phi0):
    details = []
    ok = True
    for p, q in ((1, 1), (3, 2), (2, 1)):
        kexp = RationalExponent(p, q)
        rep = theorem1_pipeline(sweep_1e5_phi0.sweep, kexp)
        holder_margin = rep.moment * rep.s2.computed.real ** (2 * kexp.k - 1) \
            / max(abs(rep.s1.computed) ** (2 * kexp.k), 1e-300)
        case_ok = holder_margin >= 1 - 1e-9 and rep.sigma2 >= rep.sigma1
        # truncated-convolution invariants at the constructed cutoff
        for m in (kexp.p, kexp.r):
            tr = divisor_mod.convolve_truncated(kexp.kappa, m, rep.xi)
            if m:
                full = divisor_mod.build_table(kexp.kappa * m, tr.limit)
                below = int(math.floor(tr.xi))
                case_ok &= bool(np.allclose(tr.values[1:below + 1],
                                            full.values[1:below + 1], rtol=1e-12))
                case_ok &= bool(np.all(tr.values <= full.values[:tr.limit + 1]
                                       * (1 + 1e-12) + 1e-12))
        ok &= case_ok
        details.append(f"k={p}/{q}: holder_margin={holder_margin:.3f}, "
                       f"sigma2-sigma1={rep.sigma2 - rep.sigma1:.4f}")
    report(8, "rational lower-bound pipeline", ok, "; ".join(details))


def test_criterion_09_sign_classes(sweep_1e4_phi0, sweep_1e5_phi0, sweep_1e3_phi0):
    n_plus = int(sweep_1e4_phi0.sweep.plus_mask.sum())
    n_minus = int(sweep_1e4_phi0.sweep.minus_mask.sum())
    scan3 = max_scan(sweep_1e3_phi0.sweep)
    scan5 = max_scan(sweep_1e5_phi0.sweep)
    grown = scan5.max_plus > scan3.max_plus and scan5.max_minus > scan3.max_minus
    # identity route vs direct route, relative agreement
    sw = sweep_1e4_phi0.sweep
    plus, minus = signed_odd_moment(sw, 1)
    value = sw.parity * sw.z
    absv = np.abs(value) ** 3
    plus_ident = 0.5 * (blocked_fsum(absv) + blocked_fsum(value ** 3))
    agree = abs(plus_ident - plus) <= 1e-6 * max(plus, 1e-300)
    logt = math.log(1e5)
    report(9, "sign classes and signed moments",
           n_plus > 0 and n_minus > 0 and grown and agree,
           f"classes@1e4: +{n_plus}/-{n_minus}, max growth 1e3->1e5: "
           f"plus {scan3.max_plus:.2f}->{scan5.max_plus:.2f}, "
           f"minus {scan3.max_minus:.2f}->{scan5.max_minus:.2f}, "
           f"identity agreement={agree}; comparator ratios (reported only): "
           f"max+/(logT)^(5/4)={scan5.max_plus / logt ** 1.25:.3f}, "
           f"max+/(logT)^(3/2)={scan5.max_plus / logt ** 1.5:.3f}")


def test_criterion_10_resonator_certificate(sweep_1e5_phi0):
    builds = [build_resonator(x) for x in (1e3, 1e4, 1e5, 1e6)]
    ratios = [resonator_ratio(res) for res in builds]
    sums = [res.sum_f_squared for res in builds]
    increasing = all(a < b for a, b in zip(ratios, ratios[1:]))
    below_e = all(s < math.e for s in sums)
    cert_ok = True
    margins = []
    for cutoff in (1e3, 1e4):
        res = build_resonator(cutoff)
        cert = certify_lower_bound(sweep_1e5_phi0.sweep, res)
        cert_ok &= cert.scanned_max >= cert.certified_bound * (1 - 1e-9)
        margins.append(f"X={cutoff:.0e}: bound={cert.certified_bound:.3f}"
                       f"<=max={cert.scanned_max:.3f}")
    report(10, "resonator certificate",
           increasing and below_e and cert_ok,
           f"ratios={['%.5f' % r for r in ratios]} strictly increasing, "
           f"max sum_f2={max(sums):.4f}<e, certificates: {'; '.join(margins)}")


def test_criterion_11_divisor_asymptotics():
    total, pred = divisor_partial_sum(3, 1e6)
    rel = abs(total - pred) / total
    grid = (1e4, 1e5, 1e6, 1e7)
    loglog = np.log(np.log(np.array(grid)))
    slopes = {}
    for lam, mu in ((1.0, 1.0), (2.0, 1.0), (0.5, 0.5)):
        sums = divisor_ratio_sums_at(lam, mu, grid)
        slopes[(lam, mu)] = float(np.polyfit(loglog, np.log(np.array(sums)), 1)[0])
    slopes_ok = all(abs(s - lam * mu) <= 0.3 for (lam, mu), s in slopes.items())
    p2 = p2_polynomial()
    p3 = p3_polynomial()
    a0, a1, a2 = p2.coefficients
    b0, b1, b2, b3 = p3.coefficients
    ident = (b3 == a2 and b2 == a1 - a2 and b1 == a0 - a1 + 2 * a2 and b0 == -b1)
    d1 = p2.derivative()
    d2 = d1.derivative()
    abel = max(abs(p3(u) - (u * p2(u) - p2(u) + d1(u) - d2(u)))
               / max(1.0, abs(p3(u))) for u in (1.7, 5.0, 12.0))
    report(11, "divisor asymptotics",
           rel <= 0.005 and slopes_ok and ident and abel <= 1e-14,
           f"d3 rel={rel:.2e}<=0.005, slopes="
           + ", ".join(f"{k}:{v:.3f}" for k, v in slopes.items())
           + f" (within +-0.3), coefficient identities exact, abel={abel:.1e}")


def test_criterion_12_determinism_and_budget(tmp_path):
    start = time.perf_counter()
    outs = []
    for name, threads in (("a", 1), ("b", 1), ("c", 8)):
        out = tmp_path / f"verify_{name}.json"
        code = cli.main(["verify", "all", "--phi", "0", "--t-max", "1e4",
                         "--threads", str(threads), "--format", "json",
                         "--output", str(out)])
        assert code == 0
        outs.append(out.read_bytes())
    elapsed = time.perf_counter() - start
    identical = outs[0] == outs[1] == outs[2]
    report(12, "determinism and runtime budget",
           identical and elapsed < 120.0,
           f"bytes identical across reruns and threads 1/8: {identical}, "
           f"3x verify-all runtime={elapsed:.1f}s (budget 120s per run)")
