import gc
import math
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetagram import moments, special
from zetagram.grampoints import bulk_hardy_z, classify
from zetagram.moments import (
    DirichletPolynomial,
    GramSweep,
    MomentReport,
    PreconditionError,
    RationalExponent,
    class_maxima,
    compute_S1,
    compute_S2,
    max_scan,
    moment_abs_2k,
    moment_cubed,
    s1_predicted_coefficient,
    signed_odd_moment,
    theorem1_pipeline,
    _cross_sum,
)
from zetagram.resonator import build_resonator, certify_lower_bound
from zetagram.special import DomainError, theta

ONE = DirichletPolynomial({1: 1.0}, 1)
ONE_ONE = DirichletPolynomial({1: 1.0, 2: 1.0}, 2)


def cfsum(values) -> complex:
    """Exactly rounded sum of a complex array, component-wise."""
    arr = np.asarray(values, dtype=complex)
    if not arr.size:
        return 0.0 + 0.0j
    return complex(math.fsum(arr.real.tolist()), math.fsum(arr.imag.tolist()))


def test_cfsum():
    vals = np.array([1 + 1j, 1e15 + 0j, -1e15 + 0j, -1 + 0j])
    assert cfsum(vals) == 1j
    assert cfsum([]) == 0.0 + 0.0j


@pytest.fixture(scope="module")
def sweep_2k():
    return GramSweep(0.0, 2000.0)


# ----------------------------------------------------------------------
# Dirichlet polynomials
# ----------------------------------------------------------------------

def test_polynomial_evaluation_against_loop():
    poly = DirichletPolynomial({1: 1.0, 2: 0.5 - 0.25j, 7: 2.0}, 7)
    ts = np.array([3.7, 55.0])
    got = poly.evaluate_half_line(ts)
    for i, t in enumerate(ts):
        want = sum(v * n ** (-0.5 - 1j * t) for n, v in poly.coefficients.items())
        assert abs(got[i] - want) < 1e-12
    got_conj = poly.evaluate_half_line(ts, conj_arg=True)
    for i, t in enumerate(ts):
        want = sum(v * n ** (-0.5 + 1j * t) for n, v in poly.coefficients.items())
        assert abs(got_conj[i] - want) < 1e-12


def test_polynomial_evaluation_memory_is_bounded():
    # a dense points x support phase matrix would take 160 MB here
    rng = np.random.default_rng(7)
    poly = DirichletPolynomial.from_values(rng.standard_normal(2000))
    ts = np.linspace(100.0, 1e4, 5000)
    tracemalloc.start()
    try:
        poly.evaluate_half_line(ts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16 * ts.size * 16


COEFFS = st.dictionaries(
    st.integers(1, 60),
    st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
    max_size=12)


@settings(max_examples=60, deadline=None)
@given(COEFFS, st.lists(st.floats(0.0, 1e3), min_size=1, max_size=5))
def test_polynomial_evaluation_property(coeffs, ts):
    poly = DirichletPolynomial(coeffs, 60)
    for conj_arg, sgn in ((False, -1.0), (True, 1.0)):
        got = poly.evaluate_half_line(np.array(ts), conj_arg=conj_arg)
        for i, t in enumerate(ts):
            want = sum(v * n ** (-0.5 + sgn * 1j * t) for n, v in coeffs.items())
            assert abs(got[i] - want) <= 1e-12


REAL_COEFFS = st.dictionaries(
    st.integers(1, 60), st.floats(-1.0, 1.0, allow_nan=False), max_size=12)


@settings(max_examples=60, deadline=None)
@given(REAL_COEFFS, st.lists(st.floats(0.0, 1e4), min_size=1, max_size=5))
def test_real_polynomial_reflection_is_conjugate(coeffs, ts):
    # X(1/2 - it) == conj(X(1/2 + it)) bit for bit when every x_n is real
    poly = DirichletPolynomial(coeffs, 60)
    ts = np.array(ts)
    assert np.array_equal(poly.evaluate_half_line(ts, conj_arg=True),
                          np.conj(poly.evaluate_half_line(ts)))


def test_resonator_reflection_is_conjugate(sweep_2k):
    poly = build_resonator(5e4).coefficient_polynomial()
    ts = sweep_2k.points.t
    assert np.array_equal(poly.evaluate_half_line(ts, conj_arg=True),
                          np.conj(poly.evaluate_half_line(ts)))


def test_sweep_evaluates_each_polynomial_once(monkeypatch):
    calls = []
    evaluate = DirichletPolynomial.evaluate_half_line

    def counting(self, t, conj_arg=False):
        calls.append((self, conj_arg))
        return evaluate(self, t, conj_arg)

    monkeypatch.setattr(DirichletPolynomial, "evaluate_half_line", counting)
    sweep = GramSweep(0.0, 2000.0)
    real = DirichletPolynomial({1: 1.0, 2: -0.5, 5: 0.25}, 5)
    cplx = DirichletPolynomial({1: 1.0, 3: 0.5j}, 5)
    compute_S1(sweep, real, real, enforce_limits=False)
    compute_S2(sweep, real, enforce_limits=False)
    assert calls == [(real, False)]
    compute_S1(sweep, real, cplx, enforce_limits=False)
    compute_S2(sweep, cplx, enforce_limits=False)
    assert calls == [(real, False), (cplx, True), (cplx, False)]
    ts = sweep.points.t
    for poly in (real, cplx):
        for conj_arg in (False, True):
            assert np.array_equal(sweep.half_line(poly, conj_arg),
                                  evaluate(poly, ts, conj_arg))
    assert len(calls) == 3


def test_sweep_keeps_no_polynomial_values(sweep_2k, monkeypatch):
    """Once theorem1_pipeline returns, the values of its X and Y are gone
    with the polynomials: the sweep holds none of them."""
    refs = []
    evaluate = DirichletPolynomial.evaluate_half_line

    def tracking(self, t, conj_arg=False):
        values = evaluate(self, t, conj_arg)
        refs.append(weakref.ref(values))
        return values

    monkeypatch.setattr(DirichletPolynomial, "evaluate_half_line", tracking)
    assert theorem1_pipeline(sweep_2k, RationalExponent(3, 2)).holder_satisfied
    gc.collect()
    assert len(refs) == 2 and all(r() is None for r in refs)


def test_polynomial_index_bounds():
    with pytest.raises(ValueError):
        DirichletPolynomial({3: 1.0}, 2)


def test_rational_exponent():
    k = RationalExponent(3, 2)
    assert k.k == 1.5 and k.kappa == 0.5 and k.r == 1
    with pytest.raises(ValueError):
        RationalExponent(2, 4)
    with pytest.raises(ValueError):
        RationalExponent(1, 2)


# ----------------------------------------------------------------------
# predicted coefficients for S1
# ----------------------------------------------------------------------

def test_s1_coefficient_single():
    # X = Y = {1}: both double sums are 1, so e^{-2i phi} + 1
    for phi in (0.0, 0.4, math.pi / 2):
        want = np.exp(-2j * phi) + 1.0
        assert abs(s1_predicted_coefficient(phi, ONE, ONE) - want) < 1e-15


def test_s1_coefficient_example_five_halves():
    got = s1_predicted_coefficient(0.0, ONE_ONE, ONE)
    assert abs(got - 2.5) < 1e-15


def test_s1_coefficient_cancellation():
    got = s1_predicted_coefficient(math.pi / 2, ONE, ONE)
    assert abs(got) < 1e-15


def _double_loop(a: DirichletPolynomial, b: DirichletPolynomial):
    """Brute-force oracle: (exactly rounded cross-sum, sum of |terms|)."""
    out = [am * bk / kk for m, am in a.coefficients.items()
           for kk, bk in b.coefficients.items() if kk % m == 0]
    value = complex(math.fsum(v.real for v in out), math.fsum(v.imag for v in out))
    return value, math.fsum(abs(v) for v in out)


def _s1_oracle(phi, x_poly, y_poly):
    xy, xy_scale = _double_loop(x_poly, y_poly)
    yx, yx_scale = _double_loop(y_poly, x_poly)
    return complex(np.exp(-2j * phi)) * xy + yx, xy_scale + yx_scale


@settings(max_examples=60, deadline=None)
@given(COEFFS, COEFFS, st.floats(0.0, math.pi, exclude_max=True))
def test_s1_coefficient_matches_double_loop(x_coeffs, y_coeffs, phi):
    x_poly = DirichletPolynomial(x_coeffs, 60)
    y_poly = DirichletPolynomial(y_coeffs, 60)
    want, scale = _s1_oracle(phi, x_poly, y_poly)
    assert abs(s1_predicted_coefficient(phi, x_poly, y_poly) - want) <= 1e-15 * scale


def test_s1_coefficient_resonator_bit_for_bit():
    poly = build_resonator(5e4).coefficient_polynomial()
    for phi in (0.0, 0.7):
        want, _ = _s1_oracle(phi, poly, poly)
        assert s1_predicted_coefficient(phi, poly, poly) == want


# ----------------------------------------------------------------------
# moments at moderate height (smoke level; acceptance runs 1e5)
# ----------------------------------------------------------------------

def test_moment_abs_2k_zero_is_count(sweep_2k):
    rep = moment_abs_2k(sweep_2k, 0.0)
    assert rep.computed.real == len(sweep_2k.points)


def test_moment_abs_2k_monotone_in_height(sweep_2k):
    small = moment_abs_2k(GramSweep(0.0, 1000.0), 1.0)
    large = moment_abs_2k(sweep_2k, 1.0)
    assert large.computed.real > small.computed.real


def test_moment_abs2k_band(sweep_2k):
    rep = moment_abs_2k(sweep_2k, 1.0)
    ratio = rep.computed.real / rep.predicted.real
    assert 0.05 <= ratio <= 20.0


def test_moment_abs2k_band_at_1e4(sweep_1e4_phi0):
    rep = moment_abs_2k(sweep_1e4_phi0.sweep, 1.0)
    ratio = rep.computed.real / rep.predicted.real
    assert 0.05 <= ratio <= 20.0


def test_moment_cubed_identity_route_vs_direct(sweep_2k):
    """Direct zeta^3 sum through e^{-3 i theta} Z^3 against the exact
    parity form; validates the solver-residual propagation."""
    rep = moment_cubed(sweep_2k)
    pts = sweep_2k.points
    zetas = np.exp(-1j * theta(pts.t)) * sweep_2k.z
    direct = cfsum(zetas ** 3)
    assert abs(direct - rep.computed) <= 1e-9 * abs(rep.computed)


def test_moment_cubed_real_at_phi_zero(sweep_2k):
    rep = moment_cubed(sweep_2k)
    assert rep.computed.imag == 0.0
    assert rep.rel_error < 0.10


def test_moment_requires_height():
    with pytest.raises(DomainError):
        moment_cubed(GramSweep(0.0, 50.0))


@pytest.mark.parametrize("k", [19.0, 1e300, math.inf, math.nan])
def test_moment_abs_2k_rejects_k_whose_comparator_overflows(sweep_2k, k):
    # (log 2000)^(k^2+1) exceeds the largest double from k = 18.6 on
    with pytest.raises(DomainError, match="too large"):
        moment_abs_2k(sweep_2k, k)


def test_s2_single_coefficient_is_count(sweep_2k):
    rep = compute_S2(sweep_2k, ONE)
    assert rep.computed.real == len(sweep_2k.points)
    assert rep.rel_error < 0.05


def test_s2_nonnegative_and_two_coefficients(sweep_2k):
    rep = compute_S2(sweep_2k, ONE_ONE)
    assert rep.computed.real >= 0.0
    assert rep.rel_error < 0.10


def test_s1_single(sweep_2k):
    rep = compute_S1(sweep_2k, ONE, ONE)
    assert rep.rel_error < 0.10
    # computed = sum (-1)^n Z; the imaginary part vanishes identically at phi=0
    assert rep.computed.imag == 0.0


def test_s1_limit_precondition(sweep_2k):
    big = DirichletPolynomial({1: 1.0, 50: 1.0}, 50)
    with pytest.raises(PreconditionError):
        compute_S1(sweep_2k, big, ONE)
    with pytest.raises(PreconditionError):
        compute_S2(sweep_2k, big)


def test_report_fields(sweep_2k):
    rep = compute_S2(sweep_2k, ONE)
    assert isinstance(rep, MomentReport)
    assert rep.n_points == len(sweep_2k.points)
    expected_rel = abs(rep.computed - rep.predicted) / abs(rep.predicted)
    assert abs(rep.rel_error - expected_rel) < 1e-15


# ----------------------------------------------------------------------
# rational pipeline
# ----------------------------------------------------------------------

def test_pipeline_integer_k_degenerates_to_unit_y(sweep_2k):
    rep = theorem1_pipeline(sweep_2k, RationalExponent(1, 1))
    assert rep.holder_satisfied
    assert rep.lower_bound > 0.0
    assert rep.moment >= rep.lower_bound * (1 - 1e-9)
    # r = 0: Y is the empty product {1}
    assert rep.s1.parameter >= 1.0


def test_pipeline_three_halves(sweep_2k):
    rep = theorem1_pipeline(sweep_2k, RationalExponent(3, 2))
    assert rep.holder_satisfied
    assert rep.sigma2 >= rep.sigma1
    assert rep.moment > 0.0


@pytest.mark.parametrize("p,q", [(1, 1), (3, 2), (2, 1)])
def test_pipeline_sigmas_are_exact_cross_sums(sweep_2k, p, q):
    rep = theorem1_pipeline(sweep_2k, RationalExponent(p, q))
    x_poly = DirichletPolynomial.from_values(rep.x_coeffs.values[1:])
    y_poly = DirichletPolynomial.from_values(rep.y_coeffs.values[1:])
    assert rep.sigma1 == _cross_sum(x_poly, y_poly).real == _double_loop(x_poly, y_poly)[0].real
    assert rep.sigma2 == _cross_sum(y_poly, x_poly).real == _double_loop(y_poly, x_poly)[0].real


def test_pipeline_rejects_overflowing_holder_powers(sweep_2k, monkeypatch):
    # S2 = 1e300 makes S2^(2k-1) overflow while the comparator of k = 3
    # stays finite
    real = moments.compute_S2

    def huge(sw, x_poly, enforce_limits=True):
        rep = real(sw, x_poly, enforce_limits)
        rep.computed = complex(1e300)
        return rep

    monkeypatch.setattr(moments, "compute_S2", huge)
    with pytest.raises(DomainError, match="Hoelder powers"):
        theorem1_pipeline(sweep_2k, RationalExponent(3, 1))


def test_pipeline_holder_tightness(sweep_2k):
    # the Hoelder chain is an inequality between computed sums: check the
    # normalized gap is sane (>= 1, and finite)
    rep = theorem1_pipeline(sweep_2k, RationalExponent(2, 1))
    assert rep.moment / rep.lower_bound >= 1.0 - 1e-9
    assert np.isfinite(rep.moment / rep.lower_bound)


# ----------------------------------------------------------------------
# signed moments and maxima
# ----------------------------------------------------------------------

def test_signed_moment_partition(sweep_2k):
    plus, minus = signed_odd_moment(sweep_2k, 1)
    total = moment_abs_2k(sweep_2k, 1.5).computed.real
    assert abs((plus + minus) - total) <= 1e-9 * total


def test_signed_moment_identity_other_angle():
    plus, minus = signed_odd_moment(GramSweep(math.pi / 3, 1500.0), 1)
    assert plus > 0.0 and minus >= 0.0


def test_signed_moment_both_classes_present(sweep_2k):
    plus, minus = signed_odd_moment(sweep_2k, 0)
    assert plus > 0.0 and minus > 0.0


def test_max_scan_nested(sweep_2k):
    small = max_scan(GramSweep(0.0, 1000.0))
    large = max_scan(sweep_2k)
    assert large.max_plus >= small.max_plus
    assert large.max_minus >= small.max_minus
    assert large.argmax_plus <= 2000.0


def test_max_scan_empty_minus_class_at_low_height():
    # below the first violation of the classical sign pattern every
    # point is in the plus class
    scan = max_scan(GramSweep(0.0, 150.0))
    assert scan.max_plus is not None
    assert scan.max_minus is None
    assert scan.argmax_minus is None


def test_sweep_cut_height_is_midpoint(sweep_2k):
    big_t = sweep_2k.cut_height
    last = float(sweep_2k.points.t[-1])
    assert big_t > last
    assert big_t > 2000.0 or abs(big_t - 2000.0) < 5.0


# ----------------------------------------------------------------------
# One sweep pipeline
# ----------------------------------------------------------------------

def _certify(sweep):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return certify_lower_bound(sweep, build_resonator(1e3))


REPORTING_ENGINES = {
    "compute_S1": lambda sw: compute_S1(sw, ONE, ONE),
    "compute_S2": lambda sw: compute_S2(sw, ONE),
    "moment_abs_2k": lambda sw: moment_abs_2k(sw, 1.0),
    "moment_cubed": moment_cubed,
    "theorem1_pipeline": lambda sw: theorem1_pipeline(sw, RationalExponent(1, 1)),
    "certify_lower_bound": _certify,
}


@pytest.mark.parametrize("engine", sorted(REPORTING_ENGINES))
def test_report_takes_its_request_from_the_sweep(engine):
    sweep = GramSweep(0.3, 1500.0)
    rep = REPORTING_ENGINES[engine](sweep)
    assert (rep.phi, rep.t_max) == (0.3, 1500.0)
    assert getattr(rep, "n_points", len(sweep.points)) == len(sweep.points)


@settings(max_examples=20, deadline=None)
@given(phi=st.floats(0.0, math.pi, exclude_max=True), height=st.floats(100.0, 2000.0))
def test_class_maxima_prefix_is_max_scan_of_lower_sweep(phi, height):
    # a lower sweep is a prefix of a higher one, so its maxima are the
    # higher sweep's maxima below its height, field for field
    below = class_maxima(GramSweep(phi, 2000.0), (height,))[0]
    assert below == max_scan(GramSweep(phi, height))


@pytest.mark.parametrize("threads", [1, 2])
def test_sweep_is_classify_bit_for_bit(threads):
    # 22,491 points: more than one BLOCK_POINTS block, so two threads use the pool
    sweep = GramSweep(0.3, 2e4, threads=threads)
    assert len(sweep.points) > special.BLOCK_POINTS
    z, parity, value, plus = classify(sweep.points, threads=threads)
    for got, ref in ((sweep.z, z), (sweep.parity, parity), (sweep.value, value),
                     (sweep.plus_mask, plus), (sweep.minus_mask, ~plus)):
        assert got.tobytes() == ref.tobytes()
    assert sweep.z.tobytes() == bulk_hardy_z(sweep.points.t, threads=threads).tobytes()
    assert sweep.value.tobytes() == (sweep.parity * sweep.z).tobytes()


def test_sweep_rejects_non_finite_z(monkeypatch):
    real = special.hardy_z

    def one_nan(t):
        z = real(t)
        z[z.size // 2] = np.nan
        return z

    monkeypatch.setattr(special, "hardy_z", one_nan)
    with pytest.raises(RuntimeError, match="not finite"):
        GramSweep(0.0, 100.0)
