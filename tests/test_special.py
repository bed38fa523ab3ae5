import math
import sys
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zetagram import special
from zetagram.divisor import _dd_add, _dd_div, _dd_mul, _two_sum, primes_up_to
from zetagram.grampoints import bulk_hardy_z, enumerate_points, solve_gram
from zetagram.special import (
    BLOCK_POINTS,
    RS_MIN_T,
    SERIES_MIN_T,
    THETA_SWITCH_T,
    DomainError,
    delta,
    delta_critical,
    hardy_z,
    log_delta,
    log_gamma,
    rs_psi,
    theta,
    theta_deriv,
    zeta_euler_maclaurin,
    _RS_NODES,
    _RS_WEIGHTS,
    _TABLE_BANDS,
    _TABLE_NODES,
    _TABLE_P,
    _remainder_table,
    _rs_main_sum,
    _rs_quadrature_remainder,
    _rs_series_remainder,
    _rs_table_remainder,
)

TWO_PI = 2.0 * math.pi


def _band(t):
    """(a, N) with a = sqrt(t/2pi) and N = floor(a): the band of each
    height, as hardy_z derives it for the main sum and the remainders."""
    a = np.sqrt(t / TWO_PI)
    return a, np.floor(a)


# ----------------------------------------------------------------------
# independent oracles
# ----------------------------------------------------------------------

def _bernoulli(m: int) -> Fraction:
    row = [Fraction(0)] * (m + 1)
    for j in range(m + 1):
        row[j] = Fraction(1, j + 1)
        for i in range(j, 0, -1):
            row[i - 1] = i * (row[i - 1] - row[i])
    return row[0]


def stirling_log_gamma(s: complex, terms: int = 12, min_mod: float = 24.0) -> complex:
    """Oracle: Stirling series with >= 10 Bernoulli terms plus upward
    recursion, written independently of the library implementation."""
    s = complex(s)
    acc = 0.0 + 0.0j
    while abs(s) < min_mod:
        acc -= np.log(s)
        s = s + 1.0
    out = (s - 0.5) * np.log(s) - s + 0.5 * math.log(TWO_PI)
    for k in range(1, terms + 1):
        b2k = float(_bernoulli(2 * k))
        out += b2k / ((2 * k) * (2 * k - 1) * s ** (2 * k - 1))
    return complex(out + acc)


def theta_oracle(t: float) -> float:
    return (stirling_log_gamma(0.25 + 0.5j * t)).imag - 0.5 * t * math.log(math.pi)


def _whole_array_quadrature(t, th):
    """Oracle: the quadrature remainder as one (points x nodes) expression."""
    n_main = np.floor(np.sqrt(t / TWO_PI))
    x = (n_main + 0.5)[:, None] + _RS_NODES[None, :]
    s = 0.5 + 1j * t
    expo = (1j * math.pi) * x * x - s[:, None] * np.log(x) + 1j * th[:, None]
    integral = (np.exp(expo) * _RS_WEIGHTS).sum(axis=1)
    return np.where(np.mod(n_main, 2.0) == 0.0, -2.0, 2.0) * integral.real


# ----------------------------------------------------------------------
# log_gamma
# ----------------------------------------------------------------------

def test_log_gamma_at_one_and_half():
    assert abs(log_gamma(1.0)) < 1e-14
    assert abs(log_gamma(0.5) - math.log(math.pi) / 2) < 1e-14


def test_log_gamma_matches_stirling_oracle():
    s = 0.25 + 7.0671j  # 1/4 + i*14.1347/2
    assert abs(log_gamma(s) - stirling_log_gamma(s)) < 1e-10


def test_log_gamma_recurrence():
    s = 0.25 + 7.0671j
    assert abs(log_gamma(s + 1) - log_gamma(s) - np.log(complex(s))) < 1e-12


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-40.0, max_value=40.0), st.floats(min_value=-40.0, max_value=40.0))
def test_log_gamma_recurrence_on_random_points(x, y):
    # log Gamma(s + 1) - log Gamma(s) = log s up to a multiple of 2 pi i;
    # through every branch of log_gamma, and the same as arrays
    s = complex(x, y)
    assume(abs(y) > 0.05 or x > 0.05)
    step = log_gamma(s + 1) - log_gamma(s) - np.log(s)
    turns = round(step.imag / TWO_PI)
    assert abs(step - 2j * math.pi * turns) <= 1e-12 * max(1.0, abs(log_gamma(s)), abs(np.log(s)))
    assert log_gamma(np.array([s, s + 1])).tolist() == [log_gamma(s), log_gamma(s + 1)]


def test_log_gamma_pole():
    with pytest.raises(DomainError):
        log_gamma(0.0)
    with pytest.raises(DomainError):
        log_gamma(-3.0)


# ----------------------------------------------------------------------
# theta and its derivative
# ----------------------------------------------------------------------

def test_theta_zero_at_origin():
    assert theta(0.0) == 0.0


def test_theta_global_minimum_region():
    # theta(2 pi) = -3.530971..., the bottom of the decreasing branch
    val = theta(TWO_PI)
    assert abs(val - theta_oracle(TWO_PI)) < 1e-9
    assert abs(val + 3.5310) < 2e-3


def test_theta_vanishes_at_first_gram_point():
    assert abs(theta(17.8455995405)) < 1e-9


def test_theta_negative_raises():
    with pytest.raises(DomainError):
        theta(-1.0)


def test_theta_branch_overlap():
    # log-Gamma branch vs Stirling branch around the switch at t = 30
    for t in np.linspace(25.0, 35.0, 21):
        assert abs(theta(t) - theta_oracle(t)) < 1e-10


def test_theta_same_bits_as_scalar_single_and_mixed_array():
    # theta's t <= 30 branch runs per element on floats: a height must get
    # the same bits alone, in a 1-element array and among Stirling heights,
    # and the bits of the array log-Gamma port, signed zero and subnormals too
    seams = [0.0, -0.0, 5e-324, 1e-323, 1e-310, np.nextafter(14.0, 0.0), 14.0, np.nextafter(14.0, 30.0),
             17.8455995405, np.nextafter(THETA_SWITCH_T, 0.0), THETA_SWITCH_T,
             np.nextafter(THETA_SWITCH_T, 31.0), 31.0, 1e4]
    rng = np.random.default_rng(59)
    t = np.concatenate([seams, rng.uniform(0.0, 30.0, 200), rng.uniform(30.0, 1e3, 50)])
    mixed = theta(t)
    for ti, mi in zip(t.tolist(), mixed.tolist()):
        assert np.array([theta(ti), theta(np.array([ti]))[0]]).tobytes() == np.array([mi, mi]).tobytes()
    y = 0.5 * t[t <= THETA_SWITCH_T]
    port = special._log_gamma(np.full(y.size, 0.25), y)[1]
    assert np.array([special._im_log_gamma_quarter(v) for v in y.tolist()]).tobytes() == port.tobytes()
    assert mixed[t <= THETA_SWITCH_T].tobytes() == (port - y * math.log(math.pi)).tobytes()


def test_theta_strictly_increasing_above_ten():
    rng = np.random.default_rng(5)
    grid = np.sort(rng.uniform(10.0, 1e5, 1000))
    vals = theta(grid)
    assert np.all(np.diff(vals) > 0.0)


def test_theta_deriv_values():
    assert abs(theta_deriv(TWO_PI)) <= 1e-3
    assert abs(theta_deriv(TWO_PI * math.e) - 0.5) <= 1e-3


def test_theta_deriv_central_difference():
    t, h = 100.0, 1e-4
    fd = (theta(t + h) - theta(t - h)) / (2 * h)
    assert abs(theta_deriv(t) - fd) <= 1e-6


def test_theta_deriv_domain():
    with pytest.raises(DomainError):
        theta_deriv(0.5)


# ----------------------------------------------------------------------
# the functional-equation factor
# ----------------------------------------------------------------------

def test_delta_product_form_equivalence():
    # the log-space form must equal 2^s pi^{s-1} Gamma(1-s) sin(pi s/2)
    for s in (0.3 + 5j, -0.7 + 2.2j, 0.5 + 11j, 1.4 - 3j):
        direct = 2.0 ** s * math.pi ** (s - 1) * complex(mpmath.gamma(1 - s)) * np.sin(math.pi * s / 2)
        assert abs(delta(s) - direct) <= 1e-12 * abs(direct)


def test_delta_reflection_identity():
    s = 0.3 + 5j
    assert abs(delta(s) * delta(1 - s) - 1.0) <= 1e-10


def test_delta_unimodular_on_line():
    assert abs(abs(delta(0.5 + 50j)) - 1.0) <= 1e-10


def test_delta_argument_is_minus_two_theta():
    t = 30.0
    want = np.exp(-2j * theta(t))
    assert abs(delta(0.5 + 1j * t) - want) <= 1e-8


def test_delta_reflection_on_random_box():
    rng = np.random.default_rng(17)
    checked = 0
    while checked < 20:
        s = complex(rng.uniform(-2, 3), rng.uniform(-50, 50))
        if abs(s.imag) < 0.3:
            continue  # stay clear of the real-axis poles/zeros
        assert abs(delta(s) * delta(1 - s) - 1.0) <= 1e-9
        checked += 1


def test_delta_unimodular_randomized():
    rng = np.random.default_rng(23)
    ts = rng.uniform(1.0, 1e5, 1000)
    assert np.max(np.abs(np.abs(delta_critical(ts)) - 1.0)) <= 1e-9


def test_delta_pole_and_zero():
    with pytest.raises(DomainError):
        delta(1.0)
    with pytest.raises(DomainError):
        delta(3.0)
    assert delta(0.0) == 0.0
    assert delta(-2.0) == 0.0
    with pytest.raises(DomainError):
        log_delta(0.0)


# ----------------------------------------------------------------------
# Euler-Maclaurin zeta
# ----------------------------------------------------------------------

def test_zeta_em_basel():
    assert abs(zeta_euler_maclaurin(2.0 + 0j) - math.pi ** 2 / 6) <= 1e-10


def test_zeta_em_half_matches_mpmath():
    assert abs(zeta_euler_maclaurin(0.5 + 0j) - complex(mpmath.zeta(0.5))) <= 1e-10


def test_zeta_em_first_zero():
    val = zeta_euler_maclaurin(0.5 + 14.134725142j)
    assert abs(val) <= 1e-6
    # the zero is bracketed by a sign change of Z
    assert hardy_z(14.10) * hardy_z(14.17) < 0.0


def test_zeta_em_pole():
    with pytest.raises(DomainError):
        zeta_euler_maclaurin(1.0 + 0j)


def test_zeta_em_laurent_leading_behavior():
    h = 1e-3
    gamma = 0.5772156649015329
    assert abs(zeta_euler_maclaurin(1.0 + h + 0j) - 1.0 / h - gamma) <= 1e-3


def _em_truncation_with_bumps(s: complex) -> int:
    """The truncation point as it was chosen before the domain was stated:
    the start value, raised until the first omitted term's estimate
    clears EM_ABS_TOL e^-1.5."""
    k, n = special.EM_TERMS, max(16, math.ceil(1.25 * abs(s.imag)) + 24)
    b = abs(special._bern_over_fact(k + 1))
    while n < 10_000_000:
        logterm = math.log(b) + (2 * k + 1) * math.log(abs(s) + 2 * k + 2) \
            - (s.real + 2 * k + 1) * math.log(n)
        if logterm < math.log(special.EM_ABS_TOL) - 1.5:
            break
        n = int(n * 1.3) + 8
    return n


def test_zeta_em_truncation_is_the_start_value_on_its_domain():
    # the corners and edges of the domain and a grid inside it: the start
    # value already met the tolerance, so no value changed its bits
    res = (special.EM_MIN_RE, -1.999, -1.5, -1.0, 0.0, 0.5, 1.0, 2.0, 10.0, 1e3, special.EM_MAX_PART)
    ims = np.concatenate([[0.0, 1e-3, 0.5, 59.0, 60.0, 61.0, special.EM_MAX_PART],
                          np.geomspace(1.0, special.EM_MAX_PART, 200),
                          np.linspace(9e5, special.EM_MAX_PART, 2001)])
    for re in res:
        for im in ims.tolist():
            for s in (complex(re, im), complex(re, -im)):
                n = special._em_truncation(s)
                assert n == max(16, math.ceil(1.25 * abs(im)) + 24) == _em_truncation_with_bumps(s), s
    # just outside the domain the bump loop ran: there the start value did
    # not meet the tolerance
    assert _em_truncation_with_bumps(complex(-2.05, 1e6)) > special._em_truncation(complex(-2.05, 1e6))


@pytest.mark.parametrize("s", [
    -2.0001, -10.0, -24 + 5j, -2.5 + 1e6j, 0.5 + 1.0000001e6j, 0.5 - 2e6j, 1e6 + 1.0, 1e14,
    complex(math.nan, 0.0), complex(0.5, math.nan), complex(math.inf, 0.0),
    complex(-math.inf, 0.0), complex(0.5, math.inf), complex(0.5, -math.inf)])
def test_zeta_em_outside_its_domain_raises_at_once(s):
    start = time.perf_counter()
    with pytest.raises(DomainError, match="zeta_euler_maclaurin requires -2.0 <= Re s <= 1e"):
        zeta_euler_maclaurin(s)
    assert time.perf_counter() - start < 0.01


def test_zeta_em_at_the_corners_of_its_domain():
    assert abs(zeta_euler_maclaurin(-2.0 + 0j)) <= 1e-10  # a trivial zero
    assert zeta_euler_maclaurin(1e6 + 0j) == 1.0
    for s in (complex(special.EM_MIN_RE, special.EM_MAX_PART), complex(0.5, -special.EM_MAX_PART)):
        assert np.isfinite(zeta_euler_maclaurin(s))


def test_functional_equation_closure():
    rng = np.random.default_rng(29)
    pts = [0.3 + 20j]
    while len(pts) < 21:
        s = complex(rng.uniform(-1.0, 2.0), rng.uniform(5.0, 60.0))
        pts.append(s)
    for s in pts:
        lhs = zeta_euler_maclaurin(s)
        rhs = delta(s) * zeta_euler_maclaurin(1 - s)
        assert abs(lhs - rhs) <= 1e-8


# ----------------------------------------------------------------------
# Hardy Z
# ----------------------------------------------------------------------

def test_hardy_z_at_first_zero():
    assert abs(hardy_z(14.134725142)) <= 1e-5


def test_hardy_z_positive_at_first_gram_point():
    val = hardy_z(17.8455995405)
    assert val > 0.0
    em = (np.exp(1j * theta(17.8455995405))
          * zeta_euler_maclaurin(0.5 + 17.8455995405j)).real
    assert abs(val - em) <= 1e-9


def test_hardy_z_cross_validation_at_100():
    em = (np.exp(1j * theta(100.0)) * zeta_euler_maclaurin(0.5 + 100j)).real
    assert abs(hardy_z(100.0) - em) <= 1e-6


def test_hardy_z_cross_validation_grid():
    rng = np.random.default_rng(41)
    ts = rng.uniform(50.0, 500.0, 100)
    zs = hardy_z(ts)
    for t, z in zip(ts, zs):
        em = (np.exp(1j * theta(t)) * zeta_euler_maclaurin(0.5 + 1j * t)).real
        assert abs(z - em) <= 1e-6


def test_hardy_z_near_main_sum_breakpoints():
    # fractional part of sqrt(t/2pi) close to 0 and to 1
    for k in range(2, 9):
        for eps in (1e-4, 0.9995):
            t = TWO_PI * (k + eps) ** 2
            em = (np.exp(1j * theta(t)) * zeta_euler_maclaurin(0.5 + 1j * t)).real
            assert abs(float(hardy_z(t)) - em) <= 1e-9


def test_hardy_z_low_t_routes_through_em():
    for t in (0.0, 3.5, 9.9):
        em = (np.exp(1j * theta(t)) * zeta_euler_maclaurin(0.5 + 1j * t)).real
        assert abs(float(hardy_z(t)) - em) <= 1e-12


def test_hardy_z_negative_raises():
    with pytest.raises(DomainError):
        hardy_z(-1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("fn", [hardy_z, theta, theta_deriv])
def test_non_finite_height_raises(fn, bad):
    with pytest.raises(DomainError):
        fn(bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("fn", [hardy_z, theta, theta_deriv])
def test_non_finite_height_in_array_raises(fn, bad):
    with pytest.raises(DomainError):
        fn(np.array([20.0, bad, 30.0]))


def test_rs_psi_series_matches_direct_formula():
    ps = np.linspace(0.01, 0.99, 37)
    direct = np.cos(2 * math.pi * (ps * ps - ps - 1.0 / 16.0)) / np.cos(2 * math.pi * ps)
    series = rs_psi(ps)
    # exclude the removable singularities of the direct formula
    ok = np.abs(np.cos(2 * math.pi * ps)) > 1e-2
    assert np.max(np.abs(series[ok] - direct[ok])) < 1e-11


def test_rs_psi_removable_points_are_finite():
    for p in (0.25, 0.75):
        left = rs_psi(p - 1e-5)
        mid = rs_psi(p)
        right = rs_psi(p + 1e-5)
        assert np.isfinite(mid)
        assert abs(mid - 0.5 * (left + right)) < 1e-6


def _horner_allocating(coef, z):
    """Horner's rule with a new array at every step."""
    out = np.zeros(np.broadcast_shapes(coef.shape[1:], z.shape))
    for c in coef[::-1]:
        out = out * z + c
    return out


def test_in_place_horner_keeps_the_bits(monkeypatch):
    # the series remainder at the 1e5 sweep's heights from SERIES_MIN_T
    # (phi = 0.7) in blocks of BLOCK_POINTS, and Psi and 12 derivatives
    t = enumerate_points(0.7, 1e5).t
    t = t[t >= SERIES_MIN_T]
    blocks = [t[a:a + BLOCK_POINTS] for a in range(0, t.size, BLOCK_POINTS)]
    ps = np.append(np.random.default_rng(61).uniform(0.0, 1.0, 2000), [0.0, 0.25, 0.75])
    in_place = ([_rs_series_remainder(b, *_band(b), 4) for b in blocks]
                + [rs_psi(ps, deriv) for deriv in range(13)])
    monkeypatch.setattr(special, "_horner", _horner_allocating)
    allocating = ([_rs_series_remainder(b, *_band(b), 4) for b in blocks]
                  + [rs_psi(ps, deriv) for deriv in range(13)])
    assert len(blocks) == 9
    for got, expected in zip(in_place, allocating, strict=True):
        assert np.array_equal(got, expected)


def test_series_remainder_orders():
    """The asymptotic mode against the quadrature: the C0-only error is
    reproduced by the C1 term -Psi'''(p) tau^{-1/2} / (96 pi^2), and the
    mean error falls with each order up to C4."""
    ts = np.linspace(3e4, 9e4, 25)
    exact = _whole_array_quadrature(ts, theta(ts))
    errs = [exact - _rs_series_remainder(ts, *_band(ts), order) for order in range(5)]
    for t, err0 in zip(ts, errs[0]):
        tau = t / TWO_PI
        a = math.sqrt(tau)
        n = math.floor(a)
        p = a - n
        sgn = (-1.0) ** (n - 1)
        c1_pred = -sgn * tau ** (-0.75) * rs_psi(p, deriv=3) / (96 * math.pi ** 2)
        if abs(c1_pred) > 1e-6:
            # C0-only error is dominated by the C1 term
            assert abs(err0 - c1_pred) < 0.35 * abs(c1_pred)
    means = [float(np.mean(np.abs(e))) for e in errs]
    assert all(lo < hi for lo, hi in zip(means[1:], means))
    assert means[1] < 0.1 * means[0]
    assert np.max(np.abs(errs[1])) < 1e-6
    assert np.max(np.abs(errs[4])) <= 1e-11


def test_quadrature_mesh_matches_wide_fine_mesh():
    # the derived mesh against one of half the step and 4.5 half-width
    ts = np.random.default_rng(53).uniform(RS_MIN_T, SERIES_MIN_T, 400)
    th = theta(ts)
    rot = np.exp(1j * math.pi / 4.0)
    x = np.floor(np.sqrt(ts / TWO_PI))[:, None] + 0.5 + rot * (np.arange(-144, 145) / 32.0)
    f = np.exp(1j * math.pi * x * x - (0.5 + 1j * ts[:, None]) * np.log(x) + 1j * th[:, None])
    ref = -2.0 * ((rot / 32.0) * (f / (2j * np.sin(math.pi * x))).sum(axis=1)).real
    assert np.max(np.abs(_whole_array_quadrature(ts, th) - ref)) <= 2e-13


def test_series_matches_quadrature_above_switch():
    ts = np.random.default_rng(43).uniform(SERIES_MIN_T, 1e5, 2000)
    th = theta(ts)
    by_quadrature = _rs_main_sum(ts, th, _band(ts)[1]) + _whole_array_quadrature(ts, th)
    assert np.max(np.abs(hardy_z(ts) - by_quadrature)) <= 1e-11


# every seam of hardy_z: the route switches and the main-sum
# breakpoints t = 2 pi k^2, where N(t) steps
_SEAMS = (RS_MIN_T, THETA_SWITCH_T, SERIES_MIN_T) + tuple(TWO_PI * k * k for k in range(2, 127))
_heights = st.one_of(
    st.floats(0.0, 1e5),
    st.builds(lambda seam, off: max(0.0, seam + off),
              st.sampled_from(_SEAMS), st.floats(-1e-3, 1e-3)),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_heights, min_size=1, max_size=12))
def test_hardy_z_is_a_function_of_each_height(ts):
    arr = np.array(ts)
    one_by_one = np.array([hardy_z(t) for t in arr])
    assert hardy_z(arr).tobytes() == one_by_one.tobytes()


def test_hardy_z_keeps_the_shape_of_2d_input():
    # heights on both sides of RS_MIN_T (the Euler-Maclaurin route) and
    # of SERIES_MIN_T
    arr = np.array([[5.0, 30.0, RS_MIN_T - 0.5], [RS_MIN_T, 6000.0, 12.0]])
    z = hardy_z(arr)
    assert z.shape == arr.shape
    assert z.tobytes() == hardy_z(arr.ravel()).reshape(arr.shape).tobytes()


def test_quadrature_of_a_band_keeps_the_whole_array_bits():
    # at the table's heights of every band, where the quadrature is given N
    for n in range(1, _TABLE_BANDS + 1):
        ts = TWO_PI * (n + _TABLE_P) ** 2
        th = theta(ts)
        assert _rs_quadrature_remainder(ts, th, n).tobytes() == _whole_array_quadrature(ts, th).tobytes()


# the table's range, RS_MIN_T and both sides of the breakpoints
# t = 2 pi k^2 below SERIES_MIN_T, where N(t) steps
_TABLE_SEAMS = (RS_MIN_T,) + tuple(TWO_PI * k * k for k in range(2, _TABLE_BANDS + 1))
_table_heights = st.one_of(
    st.floats(RS_MIN_T, SERIES_MIN_T, exclude_max=True),
    st.builds(lambda seam, off: min(max(seam + off, RS_MIN_T), SERIES_MIN_T - 1e-9),
              st.sampled_from(_TABLE_SEAMS), st.floats(-1e-3, 1e-3)),
)

#: Bound on |table - quadrature| below SERIES_MIN_T: the quadrature's own
#: rounding, about t 2^-53, is up to 5e-13 there (measured at most 4.5e-13
#: over 20,000 random heights and every seam).
TABLE_TOL = 1e-12


@settings(max_examples=80, deadline=None)
@given(st.lists(_table_heights, min_size=1, max_size=40))
def test_table_remainder_matches_the_quadrature(ts):
    ts = np.array(ts)
    assert np.max(np.abs(_rs_table_remainder(*_band(ts)) - _whole_array_quadrature(ts, theta(ts)))) <= TABLE_TOL


def test_table_remainder_matches_the_quadrature_at_every_seam():
    ts = np.array([RS_MIN_T, SERIES_MIN_T - 1e-9]
                  + [seam + off for seam in _TABLE_SEAMS[1:] for off in (-1e-3, 0.0, 1e-3)])
    assert np.max(np.abs(_rs_table_remainder(*_band(ts)) - _whole_array_quadrature(ts, theta(ts)))) <= TABLE_TOL


def test_table_nodes_follow_the_coefficient_decay():
    # in every band the last four Chebyshev coefficients are at the
    # quadrature's rounding (enough nodes), and in some band the sixth
    # from the end is still above it (no more than needed)
    coef = np.array([_remainder_table(n) for n in range(1, _TABLE_BANDS + 1)])
    assert coef.shape == (_TABLE_BANDS, _TABLE_NODES) == (28, 24)
    assert np.max(np.abs(coef[:, -4:])) <= 1e-13
    assert np.max(np.abs(coef[:, -6])) > 1e-13
    # every caller shares the cached arrays
    assert not _remainder_table(1).flags.writeable


def test_quadrature_and_hardy_z_take_empty_input():
    empty = np.empty(0)
    assert _rs_quadrature_remainder(empty, empty, 1).shape == (0,)
    assert _rs_table_remainder(empty, empty).shape == (0,)
    assert hardy_z(empty).shape == (0,)
    # blocks with no height in [RS_MIN_T, SERIES_MIN_T): series only,
    # Euler-Maclaurin only, and both
    for ts in ([SERIES_MIN_T, 6000.0, 9e4], [0.0, 3.5, 9.9], [5.0, 2e4]):
        arr = np.array(ts)
        z = hardy_z(arr)
        assert np.all(np.isfinite(z))
        assert z.tobytes() == np.array([hardy_z(t) for t in arr]).tobytes()


@pytest.mark.parametrize("lo, hi", [(RS_MIN_T, SERIES_MIN_T),
                                    (TWO_PI * 20 ** 2, TWO_PI * 21 ** 2)])
def test_hardy_z_quadrature_memory_is_bounded(lo, hi):
    # 2^14 heights, one block, all below SERIES_MIN_T, where the remainder
    # comes from the table: across every N, and all of one N.  The
    # quadrature at every height as one expression peaks near 90 MiB here;
    # the table's Clenshaw steps hold a few arrays of one float per height,
    # and the block peaks near 2 MiB
    ts = np.random.default_rng(59).uniform(lo, hi, 1 << 14)
    tracemalloc.start()
    try:
        hardy_z(ts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2 ** 20


def test_bulk_hardy_z_same_bytes_at_one_and_two_threads():
    # three blocks of bulk_hardy_z, unsorted, on both sides of the switch,
    # each run on a cold table: both pool threads may build a band at once
    ts = np.random.default_rng(47).uniform(SERIES_MIN_T - 3000.0, SERIES_MIN_T + 3000.0, 40_000)
    _remainder_table.cache_clear()
    one = bulk_hardy_z(ts, threads=1)
    _remainder_table.cache_clear()
    assert one.tobytes() == bulk_hardy_z(ts, threads=2).tobytes()


def test_cold_table_built_by_many_threads_at_once():
    # eight threads, more than the cores, evaluate the same heights in
    # every band on a cold table with a short switch interval, so several
    # build one band at once; each must get the bytes of one thread
    ts = np.random.default_rng(67).uniform(RS_MIN_T, SERIES_MIN_T, 2000)
    _remainder_table.cache_clear()
    want = hardy_z(ts).tobytes()
    _remainder_table.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = [f.result(timeout=60) for f in [pool.submit(hardy_z, ts) for _ in range(8)]]
    finally:
        sys.setswitchinterval(interval)
    assert [z.tobytes() for z in got] == [want] * 8


# ----------------------------------------------------------------------
# mpmath as an independent high-precision oracle
# ----------------------------------------------------------------------

# the origin, where Z(0) = zeta(1/2), both sides of the RS_MIN_T = 10,
# THETA_SWITCH_T = 30 and SERIES_MIN_T seams, and the height with the
# largest measured deviation (|Z| about 12)
ORACLE_HEIGHTS = (0.0, 6.5, 9.999, 10.0, 10.001, 29.999, 30.0, 30.001, 100.0,
                  SERIES_MIN_T - 0.001, SERIES_MIN_T, SERIES_MIN_T + 0.001,
                  1e4, 1e5, 74955.5)


@pytest.mark.parametrize("t", ORACLE_HEIGHTS)
def test_hardy_z_matches_mpmath_siegelz(t):
    """Z within 1e-10 max(1, |Z|) of mpmath at these fixed heights only:
    elsewhere near t = 1e5 the error reaches several 1e-10 at |Z| below
    1, so the bound for every height is the error model, which grows
    with t (test_hardy_z_within_its_error_model*)."""
    ref = float(mpmath.siegelz(t))
    assert abs(float(hardy_z(t)) - ref) <= 1e-10 * max(1.0, abs(ref))


@pytest.mark.parametrize("t", ORACLE_HEIGHTS)
def test_theta_matches_mpmath_siegeltheta(t):
    assert abs(theta(t) - float(mpmath.siegeltheta(t))) <= 2e-11


# three fixed random heights in [0.9 T, T] for each T
_ERROR_MODEL_HEIGHTS = tuple(
    float(t) for T in (1e3, 1e4, 1e5)
    for t in np.random.default_rng(int(T)).uniform(0.9 * T, T, 3))


@pytest.mark.parametrize("t", _ERROR_MODEL_HEIGHTS)
def test_hardy_z_within_its_error_model(t):
    # the binary64 phases theta - t log n carry errors of about t 2^-53,
    # so the stated bound grows with t: |error| <= 1e-14 t (1 + |Z|)
    with mpmath.workdps(30):
        ref = float(mpmath.siegelz(t))
    assert abs(float(hardy_z(t)) - ref) <= 1e-14 * t * (1.0 + abs(ref))


def _within_error_model(t: float) -> bool:
    with mpmath.workdps(30):
        ref = float(mpmath.siegelz(t))
    return abs(float(hardy_z(t)) - ref) <= 1e-14 * t * (1.0 + abs(ref))


@settings(max_examples=25, deadline=None)
@given(st.floats(10.0, 1e5))
def test_hardy_z_within_its_error_model_at_random_heights(t):
    assert _within_error_model(t)


def test_hardy_z_within_its_error_model_above_the_theta_switch():
    # every 0.1 on [30, 70], where theta's Stirling series took over
    # before its t^-5 and t^-7 terms were added (2.6e-11 at t = 30.5)
    for t in np.linspace(THETA_SWITCH_T, 70.0, 401).tolist():
        assert _within_error_model(t), t


@pytest.mark.parametrize("n", (0, 1, 100, 10_000))
def test_solve_gram_equals_mpmath_grampoint(n):
    assert solve_gram(n, 0.0).t == float(mpmath.grampoint(n))


# ----------------------------------------------------------------------
# The exact primitives, against fractions.Fraction
# ----------------------------------------------------------------------

#: Doubles m 2^(e - 53) with |m| < 2^53 and |e| <= 300: zero and normal
#: values far from overflow, whose products and errors stay normal too.
_BOUNDED = st.builds(lambda m, e: math.ldexp(float(m), e - 53),
                     st.integers(-(2 ** 53 - 1), 2 ** 53 - 1), st.integers(-300, 300))


def _significant_bits(x: float) -> int:
    n = abs(Fraction(x).numerator)
    return (n >> ((n & -n).bit_length() - 1)).bit_length() if n else 0


def _dd(hi: float, lo: float) -> tuple:
    """A normalized double-double, _two_sum(hi, lo), and its exact value."""
    x = _two_sum(hi, lo)
    return x, Fraction(x[0]) + Fraction(x[1])


@settings(max_examples=300, deadline=None)
@given(_BOUNDED)
def test_split_halves_sum_exactly_in_26_bits(a):
    h, lo = special._split(a)
    assert Fraction(h) + Fraction(lo) == Fraction(a)
    assert _significant_bits(h) <= 26 and _significant_bits(lo) <= 26


@settings(max_examples=300, deadline=None)
@given(_BOUNDED, _BOUNDED)
def test_two_prod_and_two_sum_are_exact(a, b):
    p, e = special._two_prod(a, b)
    assert p == a * b and Fraction(p) + Fraction(e) == Fraction(a) * Fraction(b)
    s, e = _two_sum(a, b)
    assert s == a + b and Fraction(s) + Fraction(e) == Fraction(a) + Fraction(b)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_BOUNDED, _BOUNDED, _BOUNDED), min_size=1, max_size=8))
def test_fma_is_correctly_rounded(abc):
    a, b, c = (np.array(v) for v in zip(*abc))
    expected = [float(Fraction(x) * Fraction(y) + Fraction(z)) for x, y, z in abc]
    assert special._fma(a, b, c).tolist() == expected


@settings(max_examples=300, deadline=None)
@given(_BOUNDED, _BOUNDED, _BOUNDED, _BOUNDED)
def test_double_double_operations_within_2_to_the_minus_100(a, b, c, d):
    # relative to the larger operand for the sum, whose cancellation is exact
    # only up to the operands' own low parts
    (x, fx), (y, fy) = _dd(a, b), _dd(c, d)
    tol = Fraction(1, 2 ** 100)
    for got, exact, scale in ((_dd_add(x, y), fx + fy, max(abs(fx), abs(fy))),
                              (_dd_mul(x, y), fx * fy, abs(fx * fy))):
        assert abs(Fraction(got[0]) + Fraction(got[1]) - exact) <= tol * scale
    assume(c != 0.0)
    got = _dd_div(x, c)
    assert abs(Fraction(got[0]) + Fraction(got[1]) - fx / Fraction(c)) <= tol * abs(fx / Fraction(c))


def test_c99_log_is_math_log_on_every_prime_to_a_million():
    # the resonator's prime weights L / (p log p) take their logs this way
    p = primes_up_to(10 ** 6)
    expected = np.fromiter(map(math.log, p.tolist()), float, p.size)
    assert np.array_equal(special._c99(np.log, p)[0], expected)


def test_bernoulli_numbers_match_the_oracle():
    assert special._bernoulli(14) == [_bernoulli(2 * k) for k in range(1, 15)]
    assert [special._bern_over_fact(k) for k in range(1, 14)] == [
        float(_bernoulli(2 * k) / math.factorial(2 * k)) for k in range(1, 14)]
