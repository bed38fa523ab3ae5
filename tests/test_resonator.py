import math

import numpy as np
import pytest

from zetagram import moments
from zetagram.moments import GramSweep
from zetagram.resonator import (
    Resonator,
    ResonatorConfig,
    build_resonator,
    certify_lower_bound,
    resonator_ratio,
)
from zetagram.special import DomainError


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_config_parameters():
    cfg = ResonatorConfig.for_cutoff(1e4)
    assert abs(cfg.L - math.exp(math.sqrt(math.log(1e4) * math.log(math.log(1e4))))) < 1e-9
    assert cfg.prime_lo == cfg.L ** 2
    assert cfg.prime_hi == math.exp(math.log(cfg.L) ** 2)
    assert cfg.prime_lo < cfg.prime_hi


def test_config_rejects_small_cutoff():
    with pytest.raises(DomainError):
        ResonatorConfig.for_cutoff(500.0)


def test_config_rejects_cutoff_with_product_support():
    # L^4 > X keeps products of two window primes (each >= L^2) above X
    cfg = ResonatorConfig.for_cutoff(1e29)
    assert cfg.L ** 4 > cfg.X
    with pytest.raises(DomainError, match="L\\^4 <= X"):
        ResonatorConfig.for_cutoff(1e30)


@pytest.mark.parametrize("x", (math.inf, math.nan, -math.inf))
def test_config_rejects_non_finite_cutoff(x):
    with pytest.raises(DomainError, match="finite and >= 1e3"):
        ResonatorConfig.for_cutoff(x)


def test_empty_window_warns_and_degrades():
    res = build_resonator(1e3)
    assert list(res.support) == [1]
    assert resonator_ratio(res) == 1.0


def test_support_structure_real_build():
    # the support is 1 and every prime of the window, ascending
    for x in (1e4, 5e4):
        res = build_resonator(x)
        lo, hi = res.config.prime_lo, res.config.effective_hi
        window = [n for n in range(math.ceil(lo), math.floor(hi) + 1) if is_prime(n)]
        assert res.support.tolist() == [1] + window
        assert res.weights[0] == 1.0


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


def test_ratio_against_brute_force():
    # every pair (m, mn) with f(m) f(mn) != 0 and mn <= X, by trial
    for x in (1e4, 5e4):
        res = build_resonator(x)
        f = dict(zip(res.support.tolist(), res.weights.tolist()))
        terms = [fm * f[m * n] / math.sqrt(n) for m, fm in f.items()
                 for n in range(1, int(x) // m + 1) if m * n in f]
        assert resonator_ratio(res) == math.fsum(terms) / math.fsum(w * w for w in f.values())


def test_ratio_degenerate_is_one():
    res = Resonator(ResonatorConfig.for_cutoff(1e4), np.array([1]), np.array([1.0]))
    assert resonator_ratio(res) == 1.0


def test_diagonal_weight_below_e():
    for x in (1e4, 1e5, 1e6):
        res = build_resonator(x)
        assert res.sum_f_squared < math.e


def test_ratio_grid_monotone():
    ratios = [resonator_ratio(build_resonator(x)) for x in (1e3, 1e4, 1e5, 1e6)]
    assert all(a < b for a, b in zip(ratios, ratios[1:]))


def test_certificate_small_height():
    sweep = GramSweep(0.0, 2000.0)
    res = build_resonator(1e3)
    cert = certify_lower_bound(sweep, res)
    assert cert.scanned_max >= cert.certified_bound * (1 - 1e-9)
    assert cert.certified_bound >= 0.0
    assert not cert.degenerate_direction


def test_certificate_flags_quarter_turn():
    sweep = GramSweep(math.pi / 2, 2000.0)
    res = build_resonator(1e3)
    cert = certify_lower_bound(sweep, res)
    assert cert.degenerate_direction


def test_certificate_warns_on_oversized_cutoff():
    sweep = GramSweep(0.0, 2000.0)
    res = build_resonator(1e4)
    cert = certify_lower_bound(sweep, res)
    assert cert.scanned_max >= cert.certified_bound * (1 - 1e-9)


def test_certificate_sums_no_cross_sum(monkeypatch):
    # the certificate needs |S1| and S2 alone, not S1's predicted coefficient
    calls = []
    cross_sum = moments._cross_sum

    def counted(a, b):
        calls.append((a, b))
        return cross_sum(a, b)

    monkeypatch.setattr(moments, "_cross_sum", counted)
    cert = certify_lower_bound(GramSweep(0.3, 2000.0), build_resonator(5e4))
    assert cert.scanned_max >= cert.certified_bound * (1 - 1e-9)
    assert calls == []
