import math
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetagram import divisor
from zetagram.divisor import (
    SEG,
    SizeBudgetError,
    build_table,
    convolve_truncated,
    d_kappa,
    divisor_partial_sum,
    divisor_ratio_sum,
    divisor_ratio_sums_at,
    p2_polynomial,
    p3_polynomial,
    primes_up_to,
    stieltjes,
)

GAMMA_REF = 0.5772156649015329
GAMMA1_REF = -0.0728158454836767


# ----------------------------------------------------------------------
# brute-force oracles
# ----------------------------------------------------------------------

def divisor_count(n: int) -> int:
    return sum(1 for d in range(1, n + 1) if n % d == 0)


def d3_brute(n: int) -> int:
    return sum(1 for a, b in product(range(1, n + 1), repeat=2)
               if n % a == 0 and (n // a) % b == 0)


def convolution_brute(kappa: float, j: int, n: int) -> float:
    """d_{kappa j}(n) = sum over ordered factorizations into j parts."""
    if j == 0:
        return 1.0 if n == 1 else 0.0
    total = 0.0
    for d in range(1, n + 1):
        if n % d == 0:
            total += d_kappa(d, kappa) * convolution_brute(kappa, j - 1, n // d)
    return total


def reference_table(kappa: float, limit: int) -> np.ndarray:
    """The plain sieve: every prime, every exponent, one strided
    multiply each, primes ascending then exponents ascending."""
    vals = np.ones(limit + 1, dtype=float)
    vals[0] = 0.0
    if kappa != 1.0:
        for p in primes_up_to(limit).tolist():
            pe = p
            e = 1
            while pe <= limit:
                vals[pe::pe] *= (kappa + e - 1.0) / e
                pe *= p
                e += 1
    return vals


def reference_ratio_sums(lam: float, mu: float, xs) -> list:
    """The one-array formula: every term d_lam(n) d_mu(n) / n in one
    array, then math.fsum of each whole prefix."""
    n = max(xs)
    ns = np.arange(0, n + 1, dtype=float)
    ns[0] = 1.0
    terms = build_table(lam, n).values * build_table(mu, n).values / ns
    return [math.fsum(terms[1:1 + x].tolist()) for x in xs]


# ----------------------------------------------------------------------
# pointwise d_kappa
# ----------------------------------------------------------------------

def test_d_kappa_on_primes():
    assert d_kappa(2, 0.5) == 0.5
    assert d_kappa(97, 3.0) == 3.0


def test_d_kappa_prime_power():
    # Gamma(5) / (Gamma(3) 2!) = 24 / 4 = 6 at p^2 with kappa = 3
    assert abs(d_kappa(4, 3.0) - 6.0) < 1e-12


def test_d_kappa_classical_divisor_count():
    for n in (1, 6, 12, 37, 360):
        assert abs(d_kappa(n, 2.0) - divisor_count(n)) < 1e-9


def test_d_kappa_multiplicative():
    rng = np.random.default_rng(2)
    done = 0
    while done < 50:
        m, n = int(rng.integers(2, 900)), int(rng.integers(2, 900))
        if math.gcd(m, n) != 1:
            continue
        assert abs(d_kappa(m * n, 0.5) - d_kappa(m, 0.5) * d_kappa(n, 0.5)) < 1e-10
        done += 1


def test_d_kappa_rejects_zero():
    with pytest.raises(ValueError):
        d_kappa(0, 1.0)


# ----------------------------------------------------------------------
# sieve table
# ----------------------------------------------------------------------

def test_table_kappa_one_is_ones():
    table = build_table(1.0, 50)
    assert np.all(table.values[1:] == 1.0)


def test_table_kappa_two_first_ten():
    table = build_table(2.0, 10)
    assert np.allclose(table.values[1:11], [1, 2, 2, 3, 2, 4, 2, 4, 3, 4], atol=1e-12)


def test_table_spot_equality_large():
    table = build_table(0.5, 10 ** 6)
    rng = np.random.default_rng(7)
    for n in rng.integers(1, 10 ** 6, 1000):
        n = int(n)
        assert abs(table.values[n] - d_kappa(n, 0.5)) <= 1e-10 * max(1.0, abs(table.values[n]))


def test_table_monotone_in_kappa():
    t1 = build_table(0.5, 10 ** 4)
    t2 = build_table(1.5, 10 ** 4)
    assert np.all(t1.values[1:] <= t2.values[1:] + 1e-12)


def test_table_growth_bound():
    # d_kappa(n) / n^0.2 stays bounded for kappa <= 3
    table = build_table(3.0, 10 ** 6)
    ns = np.arange(1, 10 ** 6 + 1, dtype=float)
    assert np.max(table.values[1:] / ns ** 0.2) <= 1e3


KAPPA_GRID = (0.1, 0.25, 1 / 3, 0.5, 2 / 3, 4 / 3, 1.5, 2.0, 2.7, 3.0)
# p^2 - 1, p^2, p^2 + 1 sit on the seam where p joins the primes <= sqrt(limit);
# SEG - 1 .. 2 SEG + 1 on the seams between sieve segments
SEAM_LIMITS = (1, 2, 3, 4, 8, 9, 10, 10_200, 10_201, 10_202, 65_537, 10 ** 6,
               SEG - 1, SEG, SEG + 1, 2 * SEG + 1)


@pytest.mark.parametrize("kappa", KAPPA_GRID)
def test_table_equals_reference_sieve(kappa):
    for limit in SEAM_LIMITS:
        assert np.array_equal(build_table(kappa, limit).values,
                              reference_table(kappa, limit)), limit


@settings(max_examples=60, deadline=None)
@given(st.floats(0.0, 4.0, exclude_min=True), st.integers(1, 50_000))
def test_table_equals_reference_sieve_property(kappa, limit):
    assert np.array_equal(build_table(kappa, limit).values,
                          reference_table(kappa, limit))


@settings(max_examples=40, deadline=None)
@given(st.floats(0.0, 4.0, exclude_min=True), st.integers(1, 5_000), st.integers(1, 300))
def test_table_equals_reference_sieve_short_segments(kappa, limit, seg):
    # segments of a few entries put prime powers on both sides of many seams
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(divisor, "SEG", seg)
        assert np.array_equal(build_table(kappa, limit).values,
                              reference_table(kappa, limit))


def test_sieve_segments_layout():
    sizes = [seg.size for seg in divisor._sieve_segments(0.5, 2 * SEG + 1)]
    assert sizes == [SEG, SEG, 1]


BAD_KAPPAS = (0.0, -1.0, math.nan, math.inf, -math.inf)


@pytest.mark.parametrize("kappa,limit,error,message", (
    *((k, 10, ValueError, "finite and positive") for k in BAD_KAPPAS),
    (2.0, 0, ValueError, "limit must be >= 1"),
    (2.0, 200_000_000, SizeBudgetError, "table of size 200000000 exceeds budget"),
))
def test_sieve_segments_checks_at_the_call(kappa, limit, error, message):
    # a generator body would run only at the first next()
    with pytest.raises(error, match=message):
        divisor._sieve_segments(kappa, limit)


@pytest.mark.parametrize("kappa", BAD_KAPPAS)
def test_table_rejects_bad_kappa(kappa):
    with pytest.raises(ValueError, match="finite and positive"):
        build_table(kappa, 10)
    with pytest.raises(ValueError, match="finite and positive"):
        d_kappa(6, kappa)


def test_table_budget():
    with pytest.raises(SizeBudgetError):
        build_table(1.0, 200_000_000)


# ----------------------------------------------------------------------
# truncated convolutions
# ----------------------------------------------------------------------

def test_convolve_m0_is_identity():
    tr = convolve_truncated(1.0, 0, 5.0)
    assert tr.values[1] == 1.0
    assert tr.values.sum() == 1.0


def test_convolve_power_of_one_term_is_immediate():
    # floor(xi) = 1: every power of the polynomial 1 is 1, so a huge m
    # returns at once; m = 3 still takes the folding path's answer
    for m in (3, 10 ** 300):
        tr = convolve_truncated(0.5, m, 1.9)
        assert (tr.m, tr.values.tolist()) == (m, [0.0, 1.0])


def test_convolve_square_example():
    tr = convolve_truncated(1.0, 2, 3.0)
    assert np.allclose(tr.values[1:10], [1, 2, 2, 1, 0, 2, 0, 0, 1])


def test_convolve_against_brute():
    for kappa, m, xi in ((0.5, 2, 4.0), (1.0, 3, 3.0), (1.5, 2, 5.0)):
        tr = convolve_truncated(kappa, m, xi)
        base = int(math.floor(xi))
        for n in range(1, base ** m + 1):
            # brute double/triple loop over factors bounded by xi
            total = 0.0
            def rec(rem, parts_left, acc):
                nonlocal total
                if parts_left == 0:
                    if rem == 1:
                        total += acc
                    return
                for d in range(1, base + 1):
                    if rem % d == 0:
                        rec(rem // d, parts_left - 1, acc * d_kappa(d, kappa))
            rec(n, m, 1.0)
            assert abs(tr.values[n] - total) < 1e-10


def test_convolve_matches_full_below_truncation():
    kappa, m, xi = 0.5, 2, 12.0
    tr = convolve_truncated(kappa, m, xi)
    full = build_table(kappa * m, tr.limit)
    below = int(math.floor(xi))
    assert np.allclose(tr.values[1:below + 1], full.values[1:below + 1], rtol=1e-12)
    assert np.all(tr.values <= full.values[:tr.limit + 1] * (1 + 1e-12) + 1e-12)


def test_convolution_identity_brute_force():
    # d_{kappa j}(n) equals the j-fold convolution of d_kappa, brute force
    for kappa in (0.5, 1.0, 1.5):
        for j in (2, 3):
            for n in list(range(1, 30)) + [64, 210, 500]:
                assert abs(convolution_brute(kappa, j, n) - d_kappa(n, kappa * j)) < 1e-9


def test_convolve_budget():
    with pytest.raises(SizeBudgetError):
        convolve_truncated(1.0, 9, 10.0)


# ----------------------------------------------------------------------
# partial sums
# ----------------------------------------------------------------------

def test_d3_partial_sum_small():
    total, _ = divisor_partial_sum(3, 10.0)
    assert abs(total - 53.0) < 1e-9
    assert sum(d3_brute(n) for n in range(1, 11)) == 53


def test_d3_partial_sum_asymptotic():
    total, pred = divisor_partial_sum(3, 1e6)
    assert pred is not None
    assert abs(total - pred) / total <= 0.005


@pytest.mark.parametrize("kappa", BAD_KAPPAS)
def test_partial_sum_and_ratio_sums_reject_bad_kappa(kappa):
    with pytest.raises(ValueError, match="finite and positive"):
        divisor_partial_sum(kappa, 100.0)
    with pytest.raises(ValueError, match="finite and positive"):
        divisor_ratio_sums_at(kappa, 1.0, (100,))
    with pytest.raises(ValueError, match="finite and positive"):
        divisor_ratio_sums_at(2.0, kappa, (100,))
    with pytest.raises(ValueError, match="finite and positive"):
        divisor_ratio_sums_at(kappa, kappa, (100,))


def test_partial_sum_budget():
    with pytest.raises(SizeBudgetError, match="table of size 150000000 exceeds budget"):
        divisor_partial_sum(3, 1.5e8)


def test_partial_sum_equals_blocked_sum_of_table():
    for kappa, x in ((3, 10.0), (0.5, SEG + 1.5), (2.7, 2 * SEG + 1.0)):
        table = build_table(float(kappa), int(x))
        assert divisor_partial_sum(kappa, x)[0] == math.fsum(table.values[1:].tolist())


def test_d2_partial_sum_hyperbola():
    x = 5000
    total, pred = divisor_partial_sum(2, float(x))
    assert pred is None
    hyperbola = sum(x // d for d in range(1, x + 1))
    assert abs(total - hyperbola) < 1e-6


def test_ratio_sum_harmonic():
    val = divisor_ratio_sum(1.0, 1.0, 100.0)
    harmonic = sum(1.0 / n for n in range(1, 101))
    assert abs(val - harmonic) < 1e-12
    assert abs(val - 5.1873775) < 1e-6


def test_ratio_sum_monotone():
    vals = [divisor_ratio_sum(2.0, 1.0, x) for x in (100.0, 1000.0, 5000.0)]
    assert vals[0] < vals[1] < vals[2]


def test_ratio_sums_at_matches_single_calls():
    # several checkpoints inside one segment
    for lam, mu, xs in ((2.0, 1.0, (100, 1000, 100_000)),
                        (0.5, 0.5, (150_000, 200_000))):
        batch = divisor_ratio_sums_at(lam, mu, xs)
        singles = [divisor_ratio_sum(lam, mu, float(x)) for x in xs]
        assert batch == singles == reference_ratio_sums(lam, mu, xs)


@pytest.mark.parametrize("lam,mu", ((1.0, 1.0), (2.0, 1.0), (0.5, 0.5), (1 / 3, 2.7)))
def test_ratio_sums_at_block_seams_equal_reference(lam, mu):
    # ends inside the first segment and on both sides of its end
    xs = (2, 1 << 16, (1 << 16) + 1, 1 << 17, (1 << 17) + 1, 150_000, SEG, SEG + 1)
    assert divisor_ratio_sums_at(lam, mu, xs) == reference_ratio_sums(lam, mu, xs)


@settings(max_examples=25, deadline=None)
@given(st.floats(0.0, 4.0, exclude_min=True), st.floats(0.0, 4.0, exclude_min=True),
       st.lists(st.integers(2, 200_000), min_size=1, max_size=4))
def test_ratio_sums_at_equal_reference_property(lam, mu, xs):
    assert divisor_ratio_sums_at(lam, mu, xs) == reference_ratio_sums(lam, mu, xs)


@pytest.mark.parametrize("checkpoints", ((-3, 100), (100, 1.5), (), (math.nan,),
                                         (math.inf,), (100, -math.inf)))
def test_ratio_sums_at_rejects_bad_checkpoints(checkpoints):
    with pytest.raises(ValueError, match="finite and >= 2"):
        divisor_ratio_sums_at(2.0, 1.0, checkpoints)


def test_ratio_sums_at_keeps_checkpoint_order():
    assert divisor_ratio_sums_at(2.0, 1.0, (1000, 100)) == \
        divisor_ratio_sums_at(2.0, 1.0, (100, 1000))[::-1]


def test_ratio_sum_exponent_band():
    xs = (1e4, 1e5, 1e6)
    sums = divisor_ratio_sums_at(2.0, 1.0, xs)
    slope = np.polyfit(np.log(np.log(xs)), np.log(sums), 1)[0]
    assert 1.7 <= slope <= 2.3


# ----------------------------------------------------------------------
# Stieltjes constants and polynomials
# ----------------------------------------------------------------------

def test_stieltjes_against_references():
    gamma, gamma1 = stieltjes()
    assert abs(gamma - GAMMA_REF) <= 1e-12
    assert abs(gamma1 - GAMMA1_REF) <= 1e-14
    assert gamma1 < 0


def test_stieltjes_bits_are_pinned():
    gamma, gamma1 = stieltjes()
    assert gamma.hex() == "0x1.2788cfc6fb61bp-1"
    assert gamma1.hex() == "-0x1.2a40f2afba45bp-4"


def test_stieltjes_against_raw_limit():
    # raw limit definition at N = 2^15, correct to O(1/N): coarse check
    n = 1 << 15
    ns = np.arange(1, n + 1, dtype=float)
    gamma_raw = float(np.sum(1.0 / ns)) - math.log(n)
    gamma1_raw = float(np.sum(np.log(ns) / ns)) - 0.5 * math.log(n) ** 2
    gamma, gamma1 = stieltjes()
    assert abs(gamma - gamma_raw) < 1e-4
    assert abs(gamma1 - gamma1_raw) < 1e-3


def test_p2_coefficients():
    a0, a1, a2 = p2_polynomial().coefficients
    assert a2 == 0.5
    assert abs(a1 - 0.7316469947) < 1e-9
    # residue of x^s zeta(s)^3 / s at s = 1, with the Laurent coefficient
    # convention: A0 = 1 + 3 (gamma^2 - gamma - gamma1_limit)
    assert abs(a0 - (1 + 3 * (GAMMA_REF ** 2 - GAMMA_REF - GAMMA1_REF))) < 1e-10
    assert abs(a0 - 0.4863343132) < 1e-9


def test_p2_constant_term_against_exact_sums():
    """Independent check of A0: fit the constant from exact d3 sums."""
    p2 = p2_polynomial()
    for x in (3e5, 1e6):
        total, _ = divisor_partial_sum(3, x)
        u = math.log(x)
        a0_emp = total / x - 0.5 * u * u - p2.coefficients[1] * u
        assert abs(a0_emp - p2.coefficients[0]) < 0.05


def test_p3_coefficients_and_identities():
    p2 = p2_polynomial()
    p3 = p3_polynomial()
    a0, a1, a2 = p2.coefficients
    b0, b1, b2, b3 = p3.coefficients
    assert b3 == 0.5
    assert abs(b2 - 0.2316469947) < 1e-9
    assert b0 == -b1
    assert b2 == a1 - a2
    assert b1 == a0 - a1 + 2 * a2
    d1 = p2.derivative()
    d2 = d1.derivative()
    for u in (1.7, 0.0, -2.3, 11.1):
        lhs = p3(u)
        rhs = u * p2(u) - p2(u) + d1(u) - d2(u)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_zeta_laurent_connects_to_gamma():
    from zetagram.special import zeta_euler_maclaurin
    h = 1e-3
    gamma, _ = stieltjes()
    assert abs(zeta_euler_maclaurin(1 + h + 0j).real - 1 / h - gamma) <= 1e-3


def test_primes_up_to():
    assert list(primes_up_to(20)) == [2, 3, 5, 7, 11, 13, 17, 19]
    assert primes_up_to(1).size == 0


def test_primes_up_to_respects_index_budget(monkeypatch):
    monkeypatch.setattr(divisor, "INDEX_BUDGET", 100)
    assert primes_up_to(99)[-1] == 97
    with pytest.raises(SizeBudgetError, match="sieve of size 100"):
        primes_up_to(100)


# ----------------------------------------------------------------------
# memory: no d_kappa table or 1/n array is held whole
# ----------------------------------------------------------------------

def traced_peak_mb(fn, *args) -> float:
    stieltjes()  # P2 needs it; its own peak is measured on its own
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def test_ratio_sums_memory_is_bounded():
    # two whole tables at 4e6 take 64 MB
    assert traced_peak_mb(divisor_ratio_sums_at, 2.0, 0.5, (4_000_000,)) <= 24


def test_stieltjes_memory_is_bounded():
    # three 2^22-entry arrays take 96 MB
    assert traced_peak_mb(stieltjes.__wrapped__) <= 8


def test_partial_sum_memory_is_bounded():
    # a whole table at 4e6 takes 32 MB
    assert traced_peak_mb(divisor_partial_sum, 3, 4e6) <= 16
