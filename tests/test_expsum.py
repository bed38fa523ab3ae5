"""The gridded exponential-sum path against the term-by-term loop."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zetagram import expsum
from zetagram.moments import DirichletPolynomial, GramSweep
from zetagram.resonator import build_resonator


def _freqs_weights(poly):
    return np.log(poly.ns), poly.cs / np.sqrt(poly.ns)


def _scale(poly):
    """sum |x_n| n^{-1/2}: the error unit of the gridded path."""
    return float(np.sum(np.abs(_freqs_weights(poly)[1])))


def _random_poly(rng, terms, limit, complex_coefficients):
    ns = rng.choice(np.arange(1, limit + 1), terms, replace=False)
    xs = rng.standard_normal(terms)
    if complex_coefficients:
        xs = xs + 1j * rng.standard_normal(terms)
    order = np.argsort(ns)
    return DirichletPolynomial(ns[order], xs[order], limit)


def _term_loop(poly, t, reflected=False):
    """The reference: one term per pass, X(1/2 - it) when reflected."""
    phase = 1j if reflected else -1j
    out = np.zeros(t.shape, dtype=complex)
    for logn, w in zip(np.log(poly.ns).tolist(), (poly.cs / np.sqrt(poly.ns)).tolist()):
        out += w * np.exp(phase * (t * logn))
    return out


def _reflected(poly, t):
    """X(1/2 - it) through the conjugate polynomial."""
    return np.conj(poly.conjugate().evaluate_half_line(t))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), terms=st.integers(300, 1500),
       spread=st.integers(1, 4), lo=st.floats(0.0, 1e5), width=st.floats(1.0, 5e3),
       points=st.integers(1500, 3000), aligned=st.integers(0, 300),
       complex_coefficients=st.booleans())
def test_gridded_matches_direct(seed, terms, spread, lo, width, points, aligned,
                                complex_coefficients):
    rng = np.random.default_rng(seed)
    poly = _random_poly(rng, terms, spread * terms, complex_coefficients)
    t = rng.uniform(lo, lo + width, points)
    freqs, weights = _freqs_weights(poly)
    step = expsum._layout(freqs)[2]
    t[:aligned] = np.rint(t[:aligned] / step) * step   # some heights on grid samples
    assume(expsum.grid_is_cheaper(freqs, t))
    tol = 1e-10 * _scale(poly)
    assert np.max(np.abs(poly.evaluate_half_line(t) - _term_loop(poly, t))) <= tol
    assert np.max(np.abs(_reflected(poly, t) - _term_loop(poly, t, True))) <= tol


def test_gridded_resonator_certificate_size():
    # the resonate --x 5e4 --certificate --t-max 1e4 evaluation, every point
    poly = build_resonator(5e4).coefficient_polynomial()
    t = GramSweep(0.0, 1e4).points.t
    freqs, weights = _freqs_weights(poly)
    assert expsum.grid_is_cheaper(freqs, t)
    got = poly.evaluate_half_line(t)
    assert np.max(np.abs(got - expsum.direct(freqs, weights, t))) <= 1e-10 * _scale(poly)


def test_heights_on_grid_samples():
    # multiples of the grid step, and steps from each tile's anchor: many
    # land exactly on a sample (v = 0) or an ulp below one (v -> 1), where
    # sinc(v - k) is 0/0 or nearly so for the taps k = 0, 1
    rng = np.random.default_rng(17)
    poly = _random_poly(rng, 600, 1800, complex_coefficients=True)
    freqs, weights = _freqs_weights(poly)
    _, owned, step = expsum._layout(freqs)
    anchors = (np.arange(3) * owned + owned // 2) * step
    t = np.concatenate([np.arange(3 * owned) * step,
                        (anchors[:, None] + np.arange(-owned // 2, owned // 2) * step).ravel()])
    got = expsum.gridded(freqs, weights, t)
    assert np.all(np.isfinite(got))
    assert np.max(np.abs(got - expsum.direct(freqs, weights, t))) <= 1e-10 * _scale(poly)


@pytest.mark.parametrize("name", ("certify polynomial", "400 random weights"))
def test_window_error_where_phase_rounding_is_negligible(name):
    # below t = 2000 the phases t f_k round to about 2e-12, so what is
    # left is the error of the gridding and the interpolation window
    rng = np.random.default_rng(23)
    if name == "certify polynomial":
        freqs, weights = _freqs_weights(build_resonator(5e4).coefficient_polynomial())
    else:
        freqs = np.log(np.arange(1.0, 401.0))
        weights = rng.standard_normal(400) + 1j * rng.standard_normal(400)
    t = np.append(rng.uniform(0.0, 2000.0, 3000), [0.0, 2000.0])
    err = np.max(np.abs(expsum.gridded(freqs, weights, t) - expsum.direct(freqs, weights, t)))
    assert err <= 1e-11 * float(np.sum(np.abs(weights)))


def test_gridded_value_does_not_depend_on_the_batch():
    rng = np.random.default_rng(5)
    poly = _random_poly(rng, 1000, 3000, complex_coefficients=True)
    t = np.sort(rng.uniform(0.0, 3e4, 6000))
    freqs = _freqs_weights(poly)[0]
    whole = poly.evaluate_half_line(t)
    prefix = t[:2500]
    shuffle = rng.permutation(t.size)
    for part, expected in ((prefix, whole[:2500]), (t[shuffle], whole[shuffle])):
        assert expsum.grid_is_cheaper(freqs, part)
        assert np.array_equal(poly.evaluate_half_line(part), expected)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), terms=st.integers(1, expsum.COST_POINT),
       lo=st.floats(0.0, 1e6), points=st.integers(1, 400))
def test_small_supports_keep_the_direct_bits(seed, terms, lo, points):
    rng = np.random.default_rng(seed)
    poly = _random_poly(rng, terms, 4 * terms, complex_coefficients=bool(seed % 2))
    t = rng.uniform(lo, 2.0 * lo + 1.0, points)
    assert np.array_equal(poly.evaluate_half_line(t), _term_loop(poly, t))
    assert np.array_equal(_reflected(poly, t), _term_loop(poly, t, True))


def test_cost_model_leaves_odd_inputs_to_the_direct_loop():
    freqs = np.log(np.arange(1.0, 2001.0))
    dense = np.linspace(100.0, 1e4, 5000)
    assert expsum.grid_is_cheaper(freqs, dense)
    assert not expsum.grid_is_cheaper(freqs, dense[:10])           # few points
    assert not expsum.grid_is_cheaper(freqs[:40], dense)           # few terms
    assert not expsum.grid_is_cheaper(freqs, np.empty(0))
    for bad in (math.inf, math.nan, 1e300):
        assert not expsum.grid_is_cheaper(freqs, np.append(dense, bad))
