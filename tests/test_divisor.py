import itertools
import math
import tracemalloc
from fractions import Fraction
from itertools import product

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetagram import divisor
from zetagram.special import DomainError
from zetagram.summation import ExactSum
from zetagram.verify import DIVISOR_EXPONENT_CASES, DIVISOR_REGRESSION_GRID
from zetagram.divisor import (
    INDEX_BUDGET,
    KAPPA_MAX,
    SEG,
    build_table,
    convolve_truncated,
    d_kappa,
    divisor_partial_sum,
    divisor_ratio_sum,
    divisor_ratio_sums_at,
    divisor_ratio_sums_by_case,
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
    array, then math.fsum of each whole prefix.  It sums the sieve's
    rounded d_kappa, so it can miss the exact sum by an ulp or two."""
    n = max(xs)
    ns = np.arange(0, n + 1, dtype=float)
    ns[0] = 1.0
    terms = reference_table(lam, n) * reference_table(mu, n) / ns
    return [math.fsum(terms[1:1 + x].tolist()) for x in xs]


def exact_table(kappa: float, limit: int) -> list:
    """d_kappa(0..limit) as fractions, d_kappa(0) = 1 unused."""
    vals = [Fraction(1)] * (limit + 1)
    for p in primes_up_to(limit).tolist():
        pe, e = p, 1
        while pe <= limit:
            ratio = (Fraction(kappa) + e - 1) / e
            for m in range(pe, limit + 1, pe):
                vals[m] *= ratio
            pe, e = pe * p, e + 1
    return vals


def exact_ratio_sums(lam: float, mu: float, xs) -> list:
    """float() of the exact sum_{n<=x} d_lam(n) d_mu(n) / n, which rounds
    it correctly."""
    top = max(xs)
    a, b = exact_table(lam, top), exact_table(mu, top)
    acc, prefix = Fraction(0), [Fraction(0)]
    for n in range(1, top + 1):
        acc += a[n] * b[n] / n
        prefix.append(acc)
    return [float(prefix[x]) for x in xs]


def streamed_ratio_sums(lam: float, mu: float, xs) -> list:
    """reference_ratio_sums with no whole table: the same terms, from the
    package's sieve (equal to reference_table, see the table tests),
    segment by segment, summed exactly by ExactSum and read where each
    prefix ends."""
    top = max(xs)
    acc, at, lo = ExactSum(), {}, 1
    for a, b in zip(divisor._sieve_segments(lam, top), divisor._sieve_segments(mu, top)):
        terms = a * b / np.arange(lo, lo + a.size)
        done = 0
        for x in sorted(x for x in set(xs) if lo <= x < lo + a.size):
            acc.add(terms[done:x - lo + 1])
            done = x - lo + 1
            at[x] = acc.value()
        acc.add(terms[done:])
        lo += a.size
    return [at[x] for x in xs]


def exact_partial_sums(kappa: float, xs) -> list:
    """The exact sum_{n<=x} d_kappa(n), as a Fraction, for each x."""
    table = exact_table(kappa, max(xs))
    acc, prefix = Fraction(0), [Fraction(0)]
    for n in range(1, max(xs) + 1):
        acc += table[n]
        prefix.append(acc)
    return [prefix[x] for x in xs]


def assert_close_to_reference(got, lam, mu, xs):
    want = reference_ratio_sums(lam, mu, xs)
    assert all(abs(g - r) <= 1e-14 * r for g, r in zip(got, want)), (lam, mu, xs, got, want)


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
    with pytest.raises(DomainError, match="d_kappa requires n >= 1"):
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
    for kappa in (0.5, 1.0):
        sizes = [v.size for v in divisor._sieve_segments(kappa, 2 * SEG + 1)]
        assert sizes == [SEG, SEG, 1]


def sieved_tables(kappas, limit) -> list:
    """One whole table per kappa, each from its own pass of the sieve,
    each segment copied before the next is asked for."""
    return [np.concatenate([np.zeros(1)] + [v.copy() for v in divisor._sieve_segments(kappa, limit)])
            for kappa in kappas]


PRIME_SQUARES = tuple(p * p for p in primes_up_to(700).tolist())
#: Sets of kappa, each sieved in its own pass.
KAPPA_SETS = ((1.0,), (1.0, 2.0), (2.0, 2.0), (3.0, 0.5), (0.5, 1.0, 0.5, 3.0), (1.0, 1.0))


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.sampled_from(KAPPA_SETS),
                 st.lists(st.one_of(st.sampled_from((1.0, 3.0, 0.5)),
                                    st.floats(0.0, 4.0, exclude_min=True)),
                          min_size=1, max_size=4)),
       st.one_of(st.integers(2, 300), st.sampled_from(PRIME_SQUARES),
                 st.sampled_from((SEG - 1, SEG, SEG + 1, 2 * SEG + 1))))
def test_multi_kappa_sieve_equals_reference_property(kappas, limit):
    for kappa, got in zip(kappas, sieved_tables(kappas, limit)):
        assert np.array_equal(got, reference_table(kappa, limit)), (kappa, limit)


@pytest.mark.parametrize("kappas", KAPPA_SETS)
def test_multi_kappa_sieve_equals_reference_at_seams(kappas):
    for limit in (2, 300, 10_201, SEG - 1, SEG, SEG + 1, 2 * SEG + 1):
        for kappa, got in zip(kappas, sieved_tables(kappas, limit)):
            assert np.array_equal(got, reference_table(kappa, limit)), (kappa, limit)


def smooth_and_count(lo: int, size: int, limit: int):
    """For n = lo .. lo + size - 1, the int64 product of the prime powers
    p^e | n, p <= sqrt(limit), and the number of its divisors, prod (e + 1)."""
    smooth = np.ones(size, np.int64)
    count = np.ones(size, np.int64)
    for p in primes_up_to(math.isqrt(limit)).tolist():
        e = np.zeros(size, np.int64)
        pe = p
        while pe < lo + size:
            smooth[-lo % pe::pe] *= p
            e[-lo % pe::pe] += 1
            pe *= p
        count *= e + 1
    return smooth, count


def rough_segments(limit: int, seg: int, skip: int = 0, take: int = 40):
    """Each sieved segment of d_2 (segments of seg entries) and, beside
    it, whether the sieve gave its n the rough ratio: d_2 of the sieved
    part is the count of its divisors, and the rough ratio doubles it."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(divisor, "SEG", seg)
        segments = zip(range(1, limit + 1, seg), divisor._sieve_segments(2.0, limit))
        for lo, v in itertools.islice(segments, skip, skip + take):
            smooth, count = smooth_and_count(lo, v.size, limit)
            yield lo, v > 1.5 * count, smooth != np.arange(lo, lo + v.size)


@pytest.mark.parametrize("limit", (1, 2, 3, 4, 8, 9, 10, 300, 10_200, 10_201, 65_537,
                                   SEG - 1, SEG + 1, 2 * SEG + 1, 10 ** 6))
@pytest.mark.parametrize("seg", (1, 7, 300, SEG))
def test_rough_mark_equals_exact_smoothness(limit, seg):
    # tiny segments put rough n on both sides of many seams
    for lo, rough, exact in rough_segments(limit, seg):
        assert np.array_equal(rough, exact), lo


def test_rough_mark_far_from_the_first_block():
    limit = 10 ** 7
    last = (limit - 1) // SEG
    [(lo, rough, exact)] = rough_segments(limit, SEG, skip=last, take=1)
    assert lo + rough.size - 1 == limit
    assert exact.any() and not exact.all()
    assert np.array_equal(rough, exact)


BAD_KAPPAS = (0.0, -1.0, math.nan, math.inf, -math.inf, math.nextafter(KAPPA_MAX, math.inf), 1e300)


def test_kappa_bound_keeps_values_products_and_sums_finite():
    # Omega(n) <= 26 below the budget, and d_kappa(n) <= kappa^Omega(n)
    assert 2 ** 26 < INDEX_BUDGET < 2 ** 27
    top = d_kappa(2 ** 26, KAPPA_MAX)
    assert top == pytest.approx(math.comb(int(KAPPA_MAX) + 25, 26), rel=1e-12)
    assert top <= KAPPA_MAX ** 26 <= 1e130
    assert (KAPPA_MAX ** 26) ** 2 * INDEX_BUDGET < 1e269
    table = build_table(KAPPA_MAX, 1 << 12)
    assert table[1 << 12] == pytest.approx(d_kappa(1 << 12, KAPPA_MAX), rel=1e-14)
    assert math.isfinite(divisor_ratio_sum(KAPPA_MAX, KAPPA_MAX, 1 << 12))
    assert math.isfinite(divisor_partial_sum(KAPPA_MAX, 1 << 12)[0])


@pytest.mark.parametrize("kappa,limit,error,message", (
    *((k, 10, ValueError, "finite and positive") for k in BAD_KAPPAS),
    (2.0, 0, ValueError, "limit must be >= 1"),
    (2.0, 200_000_000, DomainError, "table of size 200000000 exceeds budget"),
))
def test_sieve_segments_checks_at_the_call(kappa, limit, error, message):
    # a generator body would run only at the first next(); every row is a
    # DomainError, whichever base class its id names
    with pytest.raises(error, match=message) as info:
        divisor._sieve_segments(kappa, limit)
    assert info.type is DomainError


@pytest.mark.parametrize("kappa", BAD_KAPPAS)
def test_table_rejects_bad_kappa(kappa):
    with pytest.raises(DomainError, match="finite and positive"):
        build_table(kappa, 10)
    with pytest.raises(DomainError, match="finite and positive"):
        d_kappa(6, kappa)


def test_table_budget():
    with pytest.raises(DomainError, match="table of size 200000000 exceeds budget"):
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
    with pytest.raises(DomainError, match="convolution length 1000000000 exceeds budget"):
        convolve_truncated(1.0, 9, 10.0)


def test_convolve_rejects_a_negative_power_and_xi_below_one():
    with pytest.raises(DomainError, match="m must be >= 0"):
        convolve_truncated(1.0, -1, 10.0)
    with pytest.raises(DomainError, match="xi must be >= 1"):
        convolve_truncated(1.0, 2, 0.5)


def test_truncated_coefficients_by_index():
    # tr[n] is values[n] as a float: below xi = 10, d_2(n), the divisor count
    tr = convolve_truncated(1.0, 2, 10.0)
    assert [tr[n] for n in range(1, 11)] == [1.0, 2.0, 2.0, 3.0, 2.0, 4.0, 2.0, 4.0, 3.0, 4.0]
    assert type(tr[6]) is float and tr[tr.limit] == float(tr.values[-1]) == 1.0


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
    with pytest.raises(DomainError, match="finite and positive"):
        divisor_partial_sum(kappa, 100.0)
    with pytest.raises(DomainError, match="finite and positive"):
        divisor_ratio_sums_at(kappa, 1.0, (100,))
    with pytest.raises(DomainError, match="finite and positive"):
        divisor_ratio_sums_at(2.0, kappa, (100,))
    with pytest.raises(DomainError, match="finite and positive"):
        divisor_ratio_sums_at(kappa, kappa, (100,))


def test_partial_sum_budget():
    with pytest.raises(DomainError, match="table of size 150000000 exceeds budget"):
        divisor_partial_sum(3, 1.5e8)


def test_partial_sum_equals_blocked_sum_of_table():
    for kappa, x in ((3, 10.0), (0.5, SEG + 1.5), (2.7, 2 * SEG + 1.0)):
        table = build_table(float(kappa), int(x))
        assert divisor_partial_sum(kappa, x)[0] == math.fsum(table.values[1:].tolist())


#: x around the cubes of 7 and 11, where the engine's least large prime
#: changes (the primes p with p^3 <= x take a step of their own).
CUBE_EDGES = (10, 342, 343, 1330, 1331, 2999)


@pytest.mark.parametrize("kappa", (1, 2, 3, 4))
def test_partial_sum_of_integer_kappa_is_exact(kappa):
    want = exact_partial_sums(kappa, CUBE_EDGES)
    assert all(w.denominator == 1 for w in want)
    assert [divisor_partial_sum(kappa, float(x))[0] for x in CUBE_EDGES] == want


@settings(max_examples=30, deadline=None)
@given(st.floats(0.0, 4.0, exclude_min=True).filter(lambda k: k != int(k)),
       st.integers(2, 3000))
def test_partial_sum_is_correctly_rounded_property(kappa, x):
    assert divisor_partial_sum(kappa, float(x))[0] == float(exact_partial_sums(kappa, (x,))[0])


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
    # several checkpoints from one call, and each from a call of its own
    for lam, mu, xs in ((2.0, 1.0, (100, 1000, 100_000)),
                        (0.5, 0.5, (150_000, 200_000))):
        batch = divisor_ratio_sums_at(lam, mu, xs)
        assert batch == [divisor_ratio_sum(lam, mu, float(x)) for x in xs]
        assert_close_to_reference(batch, lam, mu, xs)


@pytest.mark.parametrize("lam,mu", ((1.0, 1.0), (2.0, 1.0), (0.5, 0.5), (1 / 3, 2.7)))
def test_ratio_sums_at_block_seams_equal_reference(lam, mu):
    # the old sieve's block and segment seams, and the harmonic table's end
    xs = (2, 1 << 12, (1 << 12) + 1, 1 << 16, (1 << 16) + 1, 1 << 17, (1 << 17) + 1, 150_000,
          SEG, SEG + 1)
    assert_close_to_reference(divisor_ratio_sums_at(lam, mu, xs), lam, mu, xs)


@settings(max_examples=25, deadline=None)
@given(st.floats(0.0, 4.0, exclude_min=True), st.floats(0.0, 4.0, exclude_min=True),
       st.lists(st.integers(2, 200_000), min_size=1, max_size=4))
def test_ratio_sums_at_equal_reference_property(lam, mu, xs):
    assert_close_to_reference(divisor_ratio_sums_at(lam, mu, xs), lam, mu, xs)


EXACT_CASES = ((1 / 3, 2.7), (2.0, 1.0), (0.5, 0.5), (2.53, 2.99), (3.0, 3.0))


@pytest.mark.parametrize("lam,mu", EXACT_CASES)
def test_ratio_sums_are_correctly_rounded(lam, mu):
    # the sieve's sums miss the correctly rounded value at 4 of these 10
    xs = (3000, 10_000)
    assert divisor_ratio_sums_at(lam, mu, xs) == exact_ratio_sums(lam, mu, xs)


@settings(max_examples=30, deadline=None)
@given(st.floats(0.0, 4.0, exclude_min=True), st.floats(0.0, 4.0, exclude_min=True),
       st.lists(st.integers(2, 3000), min_size=1, max_size=4))
def test_ratio_sums_are_correctly_rounded_property(lam, mu, xs):
    assert divisor_ratio_sums_at(lam, mu, xs) == exact_ratio_sums(lam, mu, xs)


@pytest.mark.parametrize("checkpoints", ((-3, 100), (100, 1.5), (), (math.nan,),
                                         (math.inf,), (100, -math.inf)))
def test_ratio_sums_at_rejects_bad_checkpoints(checkpoints):
    with pytest.raises(DomainError, match="finite and >= 2"):
        divisor_ratio_sums_at(2.0, 1.0, checkpoints)


def test_ratio_sums_at_keeps_checkpoint_order():
    assert divisor_ratio_sums_at(2.0, 1.0, (1000, 100)) == \
        divisor_ratio_sums_at(2.0, 1.0, (100, 1000))[::-1]


def test_ratio_sums_budget():
    with pytest.raises(DomainError, match="table of size 150000000 exceeds budget"):
        divisor_ratio_sums_at(2.0, 1.0, (100, 1.5e8))


RATIO_CASES = DIVISOR_EXPONENT_CASES + ((1 / 3, 2.7), (2.0, 1.0), (0.5, 2.0))


def test_ratio_sums_by_case_equal_reference():
    # unsorted and repeated, with 2, and 700_001 and 999_999, which are
    # no floor(10^6 / k)
    xs = (SEG + 1, 100, 10 ** 6, 700_001, 100, 2, 999_999, 150_000)
    got = divisor_ratio_sums_by_case(RATIO_CASES, xs)
    assert len(got) == len(RATIO_CASES)
    for (lam, mu), sums in zip(RATIO_CASES, got):
        assert_close_to_reference(sums, lam, mu, xs)


@settings(max_examples=15, deadline=None)
@given(st.lists(st.tuples(st.sampled_from((1.0, 2.0, 0.5, 3.0)),
                          st.floats(0.0, 4.0, exclude_min=True)), min_size=1, max_size=4),
       st.lists(st.integers(2, 70_000), min_size=1, max_size=4))
def test_ratio_sums_by_case_equal_reference_property(cases, xs):
    got = divisor_ratio_sums_by_case(cases, xs)
    assert got == [divisor_ratio_sums_at(lam, mu, xs) for lam, mu in cases]
    for (lam, mu), sums in zip(cases, got):
        assert_close_to_reference(sums, lam, mu, xs)


@pytest.mark.parametrize("p", (7, 11, 211))
def test_ratio_sums_at_cubes_equal_reference(p):
    # top = p^3 makes p the largest prime with a step of its own, and
    # top = p^3 - 1 folds it in with the primes above it
    cases = ((2.0, 1.0), (1 / 3, 2.7))
    reference = reference_ratio_sums if p < 100 else streamed_ratio_sums
    want = [reference(lam, mu, (p ** 3 - 1, p ** 3, 100)) for lam, mu in cases]
    for i, top in enumerate((p ** 3 - 1, p ** 3)):
        got = divisor_ratio_sums_by_case(cases, (top, 100))
        for (lam, mu), sums, ref in zip(cases, got, want):
            close = [abs(g - r) <= 1e-14 * r for g, r in zip(sums, (ref[i], ref[2]))]
            assert all(close), (lam, mu, top)


def test_harmonic_sums_match_mpmath():
    # the prefix table below 2^12, and the expansion from the top 12 bits
    # of v above it, up to the index budget
    vs = np.unique(np.concatenate((divisor._quotients([10 ** 7, 99_999_999]),
                                   [4095, 4096, 4097, 8191, 8192])))
    hi, lo = divisor._harmonic_minus_one(vs)
    with mpmath.workdps(40):
        for v, h, low in zip(vs.tolist(), hi, lo):
            want = mpmath.harmonic(v) - 1
            assert abs(mpmath.mpf(h) + low - want) <= 2.0 ** -96 * max(want, 1), v


def test_quotients_are_every_floor_and_closed():
    xs = [2, 17, 100, 1000, 999]
    vs = divisor._quotients(xs)
    assert vs.tolist() == sorted({x // k for x in xs for k in range(1, x + 1)})
    assert set((vs[:, None] // np.arange(1, 40)).ravel().tolist()) - {0} <= set(vs.tolist())


#: The regression grid's ratio sums and the d3 partial sum at x = 1e6, as
#: float.hex, from the three-pass sieve that came before the prime sums.
PINNED_RATIO_SUMS = {
    (1.0, 1.0): ["0x1.39341192de2b9p+3", "0x1.82e27a22f3fb0p+3",
                 "0x1.cc9137a1df274p+3", "0x1.0b1ffecf8e7b8p+4"],
    (2.0, 1.0): ["0x1.ac3ac86c3bc73p+5", "0x1.402c9a9f8cbd5p+6",
                 "0x1.bf72d113a9582p+6", "0x1.29f711c082d00p+7"],
    (0.5, 0.5): ["0x1.e8af5a7a2a11cp+0", "0x1.02189044a5925p+1",
                 "0x1.0df3b9628d8a0p+1", "0x1.186d7bfeaa60ep+1"],
}
PINNED_D3_SUM = "0x1.9479808000000p+26"


def test_divisor_check_sums_are_pinned():
    got = divisor_ratio_sums_by_case(DIVISOR_EXPONENT_CASES, DIVISOR_REGRESSION_GRID)
    assert {case: [s.hex() for s in sums]
            for case, sums in zip(DIVISOR_EXPONENT_CASES, got)} == PINNED_RATIO_SUMS
    assert divisor_partial_sum(3, 1e6)[0].hex() == PINNED_D3_SUM


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
    # mpmath's constants at 40 digits, rounded to binary64
    gamma, gamma1 = stieltjes()
    with mpmath.workdps(40):
        assert (gamma, gamma1) == (float(mpmath.euler), float(mpmath.stieltjes(1)))
    assert gamma.hex() == "0x1.2788cfc6fb619p-1"
    assert gamma1.hex() == "-0x1.2a40f2afba4a2p-4"


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


def boolean_sieve(n: int) -> np.ndarray:
    """Primes <= n by a boolean sieve over every integer to n."""
    mask = np.ones(n + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if mask[p]:
            mask[p * p::p] = False
    return np.flatnonzero(mask).astype(np.int64)


def test_primes_up_to():
    assert list(primes_up_to(20)) == [2, 3, 5, 7, 11, 13, 17, 19]
    assert primes_up_to(1).size == 0
    trial = [m for m in range(2, 3001) if all(m % d for d in range(2, math.isqrt(m) + 1))]
    for n in range(3001):
        assert primes_up_to(n).tolist() == [p for p in trial if p <= n]
    for n in (10**6 - 1, 10**6, 10**6 + 1, 997**2 - 1, 997**2, 997**2 + 1):
        got = primes_up_to(n)
        assert got.dtype == np.int64 and np.array_equal(got, boolean_sieve(n))


def test_primes_up_to_respects_index_budget(monkeypatch):
    monkeypatch.setattr(divisor, "INDEX_BUDGET", 100)
    assert primes_up_to(99)[-1] == 97
    with pytest.raises(DomainError, match="sieve of size 100"):
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
    assert traced_peak_mb(divisor_ratio_sums_by_case, DIVISOR_EXPONENT_CASES,
                          (4_000_000,)) <= 24


def test_stieltjes_memory_is_bounded():
    # three 2^22-entry arrays take 96 MB
    assert traced_peak_mb(stieltjes.__wrapped__) <= 8


def test_partial_sum_memory_is_bounded():
    # a whole table at 4e6 takes 32 MB
    assert traced_peak_mb(divisor_partial_sum, 3, 4e6) <= 16
