"""Bit identity of the ported Lambert W and log-Gamma with scipy.special.

The Gram points are Newton roots seeded by Lambert W and driven by
theta, whose low branch is log-Gamma; a last-bit change in either moves
some of them.  So the ports must repeat scipy's bits, not merely its
accuracy.  These are the only tests that need scipy.
"""

import math

import numpy as np
import pytest

from zetagram import grampoints
from zetagram.grampoints import _initial_guess, _lambertw
from zetagram.special import THETA_SWITCH_T, delta_critical, log_gamma, theta

sc = pytest.importorskip("scipy.special")

EXPN1 = 0.36787944117144232159553


def assert_same_bits(mine, ref):
    mine, ref = np.asarray(mine), np.asarray(ref)
    if np.iscomplexobj(ref):
        assert_same_bits(mine.real, ref.real)
        assert_same_bits(mine.imag, ref.imag)
        return
    bad = mine.view(np.int64) != ref.view(np.int64)
    assert not bad.any(), f"{bad.sum()} of {bad.size} differ, first at {np.flatnonzero(bad)[:5]}"


def scipy_initial_guess(targets):
    """_initial_guess as it was written on scipy.special.lambertw."""
    beta = (targets + math.pi / 8.0) / (math.pi * math.e)
    guess = np.full_like(targets, 8.5)
    ok = beta > -0.3555
    b = beta[ok]
    with np.errstate(invalid="ignore"):
        y = np.where(np.abs(b) < 1e-12, 1.0, b / np.real(sc.lambertw(b)))
    guess[ok] = grampoints.TWO_PI * math.e * np.maximum(y, 0.2)
    return np.maximum(guess, grampoints.TWO_PI + 0.05)


# ----------------------------------------------------------------------
# Lambert W
# ----------------------------------------------------------------------

@pytest.mark.parametrize("phi", [0.0, math.pi / 8, 0.3, 1.1, 2.9, 3.1])
def test_newton_seeds_match_scipy(phi):
    targets = math.pi * np.arange(0, 200_001) - phi
    assert_same_bits(_initial_guess(targets), scipy_initial_guess(targets))


def test_lambertw_matches_scipy_at_random_arguments():
    rng = np.random.default_rng(41)
    b = np.concatenate([rng.uniform(-0.3555, 2.0, 20_000),
                        np.exp(rng.uniform(0.0, math.log(1e7), 20_000))])
    assert_same_bits(_lambertw(b), np.real(sc.lambertw(b)))


def test_lambertw_matches_scipy_at_its_seam_points():
    edge = 0.3 - EXPN1  # where the branch-point series hands over to the Pade seed
    b = np.array([0.0, -0.0, 0.5, 1.0, 1.5, 2.0, math.e, math.e ** 2, 7.5, -0.2, -0.3555,
                  edge, np.nextafter(edge, -1.0), np.nextafter(edge, 1.0),
                  np.nextafter(1.5, 0.0), np.nextafter(1.5, 2.0), np.nextafter(-0.2, 0.0)])
    assert_same_bits(_lambertw(b), np.real(sc.lambertw(b)))


# ----------------------------------------------------------------------
# log-Gamma
# ----------------------------------------------------------------------

#: theta's seams: t = 0; t = 14, where log-Gamma at y = t/2 = 7 turns from
#: the recurrence to Stirling; and THETA_SWITCH_T, each with its two
#: neighbouring doubles.
THETA_SEAMS = [0.0, np.nextafter(0.0, 1.0),
               np.nextafter(14.0, 0.0), 14.0, np.nextafter(14.0, 30.0),
               np.nextafter(THETA_SWITCH_T, 0.0), THETA_SWITCH_T, np.nextafter(THETA_SWITCH_T, 31.0)]


def theta_line():
    t = np.concatenate([np.linspace(0.0, 30.0, 60_001),
                        np.random.default_rng(43).uniform(0.0, 30.0, 20_000), THETA_SEAMS])
    return t, 0.25 + 0.5j * t


def test_log_gamma_matches_scipy_on_the_theta_line():
    t, s = theta_line()
    assert_same_bits(log_gamma(s), sc.loggamma(s))
    assert_same_bits(log_gamma(np.conj(s)), sc.loggamma(np.conj(s)))


def test_theta_low_branch_matches_scipy():
    t, s = theta_line()
    low = t <= THETA_SWITCH_T
    t, s = t[low], s[low]
    assert_same_bits(theta(t), np.imag(sc.loggamma(s)) - 0.5 * t * math.log(math.pi))


def test_delta_critical_matches_scipy():
    t = np.random.default_rng(47).uniform(0.0, 1e4, 5_000)
    s = 0.5 + 1j * t
    ld = (s - 0.5) * math.log(math.pi) + sc.loggamma((1.0 - s) / 2.0) - sc.loggamma(s / 2.0)
    assert_same_bits(delta_critical(t), np.exp(ld))


def random_disc(rng, centre, radius, n):
    return centre + radius * np.sqrt(rng.uniform(0, 1, n)) * np.exp(2j * math.pi * rng.uniform(0, 1, n))


@pytest.mark.parametrize("region", ["stirling", "recurrence", "taylor", "reflection"])
def test_log_gamma_matches_scipy_by_region(region):
    rng = np.random.default_rng(53)
    n = 10_000
    sign = rng.choice([-1.0, 1.0], n)
    s = {
        "stirling": np.concatenate([rng.uniform(7.0, 1e3, n) + 1j * rng.uniform(-1e3, 1e3, n),
                                    rng.uniform(-50.0, 7.0, n) + 1j * sign * rng.uniform(7.0, 60.0, n)]),
        "recurrence": rng.uniform(0.1, 7.0, n) + 1j * sign * rng.uniform(0.0, 7.0, n),
        "taylor": np.concatenate([random_disc(rng, 1.0, 0.2, n), random_disc(rng, 2.0, 0.2, n)]),
        "reflection": np.concatenate([rng.uniform(-30.0, 0.1, n) + 1j * rng.uniform(-7.0, 7.0, n),
                                      rng.uniform(-3.0, 0.1, n) + 1j * rng.uniform(-0.5, 0.5, n)]),
    }[region]
    assert_same_bits(log_gamma(s), sc.loggamma(s))


def test_log_gamma_scalar_matches_scipy():
    for s in (0.5, 1.0, 2.5, 0.25 + 7.0671j, -0.7 + 2.2j, 3.0 - 1e-3j):
        assert_same_bits(np.complex128(log_gamma(s)), sc.loggamma(complex(s)))
