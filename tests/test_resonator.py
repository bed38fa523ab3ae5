import math
import warnings

import numpy as np
import pytest

from zetagram.divisor import ConfigurationError
from zetagram.moments import GramSweep
from zetagram.resonator import (
    ResonatorConfig,
    _enumerate_support,
    build_resonator,
    certify_lower_bound,
    resonator_ratio,
)


def small_resonator(x=30.0, primes=(2, 3, 5), weight=0.5):
    """Synthetic multi-prime resonator for exercising the DFS and the
    divisor-pair numerator."""
    cfg = ResonatorConfig(X=x, L=2.0, prime_lo=2.0, prime_hi=30.0)
    return _enumerate_support(cfg, list(primes), {p: weight for p in primes})


def test_config_parameters():
    cfg = ResonatorConfig.for_cutoff(1e4)
    assert abs(cfg.L - math.exp(math.sqrt(math.log(1e4) * math.log(math.log(1e4))))) < 1e-9
    assert cfg.prime_lo == cfg.L ** 2
    assert cfg.prime_hi == math.exp(math.log(cfg.L) ** 2)
    assert cfg.prime_lo < cfg.prime_hi


def test_config_rejects_small_cutoff():
    with pytest.raises(ConfigurationError):
        ResonatorConfig.for_cutoff(500.0)


@pytest.mark.parametrize("x", (math.inf, math.nan, -math.inf))
def test_config_rejects_non_finite_cutoff(x):
    with pytest.raises(ConfigurationError, match="finite and >= 1e3"):
        ResonatorConfig.for_cutoff(x)


def test_empty_window_warns_and_degrades():
    with pytest.warns(RuntimeWarning):
        res = build_resonator(1e3)
    assert list(res.support) == [1]
    assert resonator_ratio(res) == 1.0


def test_support_structure_real_build():
    res = build_resonator(1e4)
    assert res.support[0] == 1
    # at desk scale only single primes fit in the window
    assert all(len(f) <= 1 for f in res.factors)
    lo, hi = res.config.prime_lo, res.config.effective_hi
    for n, facs in zip(res.support[1:], res.factors[1:]):
        (p,) = facs
        assert n == p
        assert lo <= p <= hi


def test_prime_weight_formula():
    res = build_resonator(1e4)
    cfg = res.config
    for n, w in zip(res.support[1:6], res.weights[1:6]):
        p = float(n)
        assert abs(w - cfg.L / (p * math.log(p))) < 1e-15
    # just above L^2 the weight is about 1 / (2 L log L)
    p0 = float(res.support[1])
    assert abs(res.weights[1] - 1.0 / (2.0 * cfg.L * math.log(cfg.L))) \
        < 0.15 / (2.0 * cfg.L * math.log(cfg.L))


def test_weights_do_not_exceed_one():
    res = build_resonator(1e6)
    assert np.all(res.weights <= 1.0)


def test_coefficient_bound_x0():
    # max sqrt(n) f(n) <= sqrt(X), exactly on the built support
    for x in (1e4, 1e5):
        res = build_resonator(x)
        x0 = np.max(np.sqrt(res.support.astype(float)) * res.weights)
        assert x0 <= math.sqrt(x)


def test_multiplicativity_on_synthetic_support():
    res = small_resonator()
    wmap = res.weight_map()
    assert wmap[6] == pytest.approx(wmap[2] * wmap[3])
    assert wmap[30] == pytest.approx(wmap[2] * wmap[3] * wmap[5])
    assert 4 not in wmap  # squares excluded
    assert set(wmap) == {1, 2, 3, 5, 6, 10, 15, 30}


def test_ratio_against_brute_force():
    res = small_resonator()
    wmap = res.weight_map()
    x = res.config.X
    num = 0.0
    for m, fm in wmap.items():
        for n in range(1, int(x) + 1):
            fmn = wmap.get(m * n)
            if fmn is not None and m * n <= x:
                num += fm * fmn / math.sqrt(n)
    den = sum(f * f for f in wmap.values())
    assert resonator_ratio(res) == pytest.approx(num / den, rel=1e-12)


def test_ratio_degenerate_is_one():
    res = small_resonator(primes=())
    assert resonator_ratio(res) == 1.0


def test_diagonal_weight_below_e():
    for x in (1e4, 1e5, 1e6):
        res = build_resonator(x)
        assert res.sum_f_squared < math.e


def test_ratio_grid_monotone():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        ratios = [resonator_ratio(build_resonator(x)) for x in (1e3, 1e4, 1e5, 1e6)]
    assert all(a < b for a, b in zip(ratios, ratios[1:]))


def test_certificate_small_height():
    sweep = GramSweep(0.0, 2000.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        res = build_resonator(1e3)
        cert = certify_lower_bound(0.0, 2000.0, res, sweep=sweep)
    assert cert.scanned_max >= cert.certified_bound * (1 - 1e-9)
    assert cert.certified_bound >= 0.0
    assert not cert.degenerate_direction


def test_certificate_flags_quarter_turn():
    sweep = GramSweep(math.pi / 2, 2000.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        res = build_resonator(1e3)
        cert = certify_lower_bound(math.pi / 2, 2000.0, res, sweep=sweep)
    assert cert.degenerate_direction


def test_certificate_warns_on_oversized_cutoff():
    sweep = GramSweep(0.0, 2000.0)
    res = build_resonator(1e4)
    with pytest.warns(RuntimeWarning):
        cert = certify_lower_bound(0.0, 2000.0, res, sweep=sweep)
    assert cert.cutoff_warning
    assert cert.scanned_max >= cert.certified_bound * (1 - 1e-9)
