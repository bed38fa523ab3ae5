import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetagram import summation
from zetagram.summation import BLOCK, _CHUNK, _exact_sum, blocked_fsum, blocked_prefix_fsums, fsum


def test_fsum_exact_on_cancellation():
    vals = [1e16, 1.0, -1e16, 1.0]
    assert fsum(vals) == 2.0


def test_blocked_matches_fsum():
    rng = np.random.default_rng(11)
    vals = rng.standard_normal(200_001) * 10.0 ** rng.integers(-8, 8, 200_001)
    a = fsum(vals)
    b = blocked_fsum(vals)
    assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


def test_empty():
    assert fsum([]) == 0.0


def block_partials_sum(values) -> float:
    """Exact partial of each BLOCK-long run in index order, then fsum."""
    return math.fsum([math.fsum(values[i:i + BLOCK].tolist())
                      for i in range(0, len(values), BLOCK)])


SEAMS = (0, 1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK, 2 * BLOCK + 1, 150_000)


@pytest.mark.parametrize("n", SEAMS)
def test_blocked_fsum_equals_block_partials(n):
    vals = np.random.default_rng(n).standard_normal(n) * 1e6
    assert blocked_fsum(vals) == block_partials_sum(vals)


def test_prefix_fsums_equal_blocked_fsum_of_each_prefix():
    vals = np.random.default_rng(5).standard_normal(150_000) * 1e6
    held = []

    def block_values(a, b):
        held.append(b - a)
        return vals[a:b]

    ends = SEAMS[::-1]  # any order
    assert blocked_prefix_fsums(block_values, ends) == [blocked_fsum(vals[:e]) for e in ends]
    # one pass over the longest prefix, never more than a block at a time
    assert sum(held) == max(ends) and max(held) <= BLOCK


# ----------------------------------------------------------------------
# _exact_sum against math.fsum, bit for bit
# ----------------------------------------------------------------------

def outcome(sum_fn, values):
    """The bits of the sum, 'nan', or the type of the exception."""
    try:
        r = sum_fn(values)
    except (ValueError, OverflowError) as exc:
        return type(exc)
    return "nan" if math.isnan(r) else np.float64(r).tobytes()


def assert_same_as_fsum(arr):
    assert outcome(_exact_sum, arr) == outcome(math.fsum, arr.tolist())


_doubles = st.one_of(
    # the whole finite range: subnormals, +-0.0, values past the bucket
    # path's exponent limit
    st.floats(allow_nan=False, allow_infinity=False),
    # full 53-bit mantissas at spread exponents, subnormal ones included
    st.builds(math.ldexp, st.integers(-(1 << 53) + 1, (1 << 53) - 1), st.integers(-1130, 960)),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, 1e16]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_doubles, max_size=40), st.integers(0, 40), st.integers(0, 3), st.randoms())
def test_exact_sum_is_fsum_bit_for_bit(xs, cancel, repeat, rnd):
    # some values cancel exactly against their negations, and repeats
    # fill buckets with more than one element
    vals = xs * (repeat + 1) + [-x for x in xs[:cancel]]
    rnd.shuffle(vals)
    assert_same_as_fsum(np.array(vals, dtype=float))


@pytest.mark.parametrize("n", (1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 7, BLOCK))
def test_exact_sum_across_chunks(n):
    rng = np.random.default_rng(n)
    spread = rng.standard_normal(n) * 10.0 ** rng.uniform(-300, 280, n)
    assert_same_as_fsum(spread)
    # one exponent, full mantissas: each bucket takes n halves of 27 bits
    assert_same_as_fsum(1.0 + rng.random(n))
    assert_same_as_fsum(-(1.0 + rng.random(n)))
    # subnormals only
    assert_same_as_fsum(rng.integers(-(1 << 52), 1 << 52, n) * 5e-324)
    # near-cancelling mirrored halves
    half = spread[: n // 2]
    assert_same_as_fsum(np.concatenate([half, -half * (1 + 2.0 ** -52), [1e-300]]))


def test_exact_sum_of_strided_views_lists_and_empty():
    z = np.random.default_rng(3).standard_normal(3001) * 1e5 + 1j * np.geomspace(1e-200, 1e200, 3001)
    for view in (z.real, z.imag, z.real[::3], z.imag[::-2]):
        assert not view.flags.c_contiguous
        assert fsum(view) == math.fsum(view.tolist())
    assert fsum([0.1] * 10) == math.fsum([0.1] * 10) == 1.0
    assert fsum([]) == 0.0 and fsum(np.empty(0)) == 0.0
    assert math.copysign(1.0, fsum([-0.0, -0.0])) == math.copysign(1.0, math.fsum([-0.0, -0.0]))


@pytest.mark.parametrize("vals", [
    [math.inf, 1.0], [1.0, -math.inf], [math.inf, -math.inf], [math.nan], [2.0, math.nan, math.inf],
    [1e308, 1e308], [-1e308, -1e308], [1e308, -1e308, 1e308], [1e290, 1.0], [-1e290, 1.0],
])
def test_non_finite_and_overflow_as_fsum(vals):
    arr = np.array(vals + [0.5] * 100)
    assert_same_as_fsum(arr)
    assert_same_as_fsum(arr[::-1])


def test_blocked_prefix_fsums_non_finite_as_fsum():
    vals = np.ones(BLOCK + 10)
    vals[BLOCK + 3] = math.inf
    assert blocked_fsum(vals) == math.inf
    vals[5] = -math.inf
    with pytest.raises(ValueError):
        blocked_fsum(vals)


def test_length_fallback(monkeypatch):
    """Arrays of _MAX_EXACT_LEN elements or more never reach the buckets,
    whose exactness needs fewer than 2**26 halves per bucket."""
    def no_buckets(*args, **kwargs):
        raise AssertionError("bucket path taken")

    vals = np.random.default_rng(9).standard_normal(40) * 1e10
    monkeypatch.setattr(summation, "_MAX_EXACT_LEN", 20)
    monkeypatch.setattr(summation.np, "bincount", no_buckets)
    assert_same_as_fsum(vals)
    assert_same_as_fsum(vals[::2])
    with pytest.raises(AssertionError, match="bucket path"):
        _exact_sum(vals[:19])
