import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetagram import summation
from zetagram.summation import _CHUNK, ExactSum, blocked_fsum, fsum


def test_fsum_exact_on_cancellation():
    vals = [1e16, 1.0, -1e16, 1.0]
    assert fsum(vals) == 2.0


def test_blocked_matches_fsum():
    rng = np.random.default_rng(11)
    vals = rng.standard_normal(200_001) * 10.0 ** rng.integers(-8, 8, 200_001)
    assert blocked_fsum(vals) == fsum(vals) == math.fsum(vals.tolist())


def test_empty():
    assert fsum([]) == 0.0


SEAMS = (0, 1, 2, 65_535, 65_536, 65_537, 131_072, 131_073, 150_000)


@pytest.mark.parametrize("n", SEAMS)
def test_blocked_fsum_equals_block_partials(n):
    """blocked_fsum is fsum: one rounding over the whole array, on both
    sides of 2^16 and 2^17 elements."""
    vals = np.random.default_rng(n).standard_normal(n) * 1e6
    assert blocked_fsum(vals) == math.fsum(vals.tolist())


def prefix_values(chunks, ends) -> list:
    """ExactSum's value() read in place at each end e of the stream of
    chunks: a chunk in which an end falls is added in pieces cut there,
    and an end past the stream reads the total."""
    acc, n, read = ExactSum(), 0, {}
    for chunk in chunks:
        for piece in np.split(chunk, sorted({e - n for e in ends if n < e < n + chunk.size})):
            if n in ends:
                read[n] = acc.value()
            acc.add(piece)
            n += piece.size
    read[n] = acc.value()
    return [read[min(e, n)] for e in ends]


def test_exact_sum_read_between_adds_is_fsum_of_each_prefix():
    vals = np.random.default_rng(5).standard_normal(150_000) * 1e6

    def chunks(size):
        return (vals[a:a + size] for a in range(0, vals.size, size))

    ends = SEAMS[::-1]  # any order
    expected = [math.fsum(vals[:e].tolist()) for e in ends]
    assert expected == [blocked_fsum(vals[:e]) for e in ends]
    for size in (1000, 1 << 16, 1 << 20):
        assert prefix_values(chunks(size), ends) == expected
    # an end past the stream gets its total
    assert prefix_values([vals[:5], vals[5:10]], (3, 10, 99)) == \
        [math.fsum(vals[:3].tolist()), *[math.fsum(vals[:10].tolist())] * 2]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 3000), max_size=6), st.lists(st.integers(0, 12_000), max_size=5),
       st.integers(0, 2 ** 32 - 1))
def test_exact_sum_prefixes_are_fsum_of_each_prefix(lengths, ends, seed):
    rng = np.random.default_rng(seed)
    chunks = [rng.standard_normal(n) * 10.0 ** rng.uniform(-200, 200, n) for n in lengths]
    vals = np.concatenate(chunks) if chunks else np.empty(0)
    got = prefix_values(chunks, ends)
    assert [np.float64(g).tobytes() for g in got] == \
        [np.float64(math.fsum(vals[:e].tolist())).tobytes() for e in ends]


# ----------------------------------------------------------------------
# fsum against math.fsum, bit for bit
# ----------------------------------------------------------------------

def outcome(sum_fn, values):
    """The bits of the sum, 'nan', or the type of the exception."""
    try:
        r = sum_fn(values)
    except (ValueError, OverflowError) as exc:
        return type(exc)
    return "nan" if math.isnan(r) else np.float64(r).tobytes()


def assert_same_as_fsum(arr):
    assert outcome(fsum, arr) == outcome(math.fsum, arr.tolist())


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


@pytest.mark.parametrize("n", (1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 7, 4 * _CHUNK))
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


def test_exact_sum_prefixes_non_finite_as_fsum():
    vals = np.ones(70_000)
    vals[65_539] = math.inf

    def stream():
        return (vals[a:a + 4096] for a in range(0, vals.size, 4096))

    assert prefix_values(stream(), (65_539, 65_540, vals.size)) == [65_539.0, math.inf, math.inf]
    assert blocked_fsum(vals) == math.inf
    vals[5] = -math.inf
    with pytest.raises(ValueError):
        prefix_values(stream(), (vals.size,))
    with pytest.raises(ValueError):
        blocked_fsum(vals)
    vals[5] = math.nan
    assert math.isnan(prefix_values(stream(), (vals.size,))[0])
    # finite values past the buckets' range, after chunks that went to them
    vals[5], vals[65_539], vals[65_540] = 1.0, 1e300, -1e300
    assert prefix_values(stream(), (65_539, vals.size)) == [65_539.0, 69_998.0]


def test_carry_keeps_sums_exact(monkeypatch):
    """A bucket of more than 2**26 halves could round, so every _FILL
    elements the bucket sums move to the carry list; with _FILL = 20 an
    array of 1,000 carries many times and its sums stay exact."""
    monkeypatch.setattr(summation, "_FILL", 20)
    monkeypatch.setattr(summation, "_CHUNK", 7)
    rng = np.random.default_rng(9)
    vals = rng.standard_normal(1000) * 10.0 ** rng.uniform(-20, 20, 1000)
    acc = ExactSum()
    acc.add(vals)
    assert acc.held <= 20 and len(acc.carry) > 100
    assert acc.value() == math.fsum(vals.tolist())
    assert_same_as_fsum(vals)
    assert_same_as_fsum(vals[::3])
    ends = (0, 19, 20, 21, 333, 1000)
    chunks = (vals[a:a + 45] for a in range(0, 1000, 45))
    assert prefix_values(chunks, ends) == [math.fsum(vals[:e].tolist()) for e in ends]
    # a value out of the buckets' range after many carries
    for bad in (math.inf, math.nan, 1e300):
        assert_same_as_fsum(np.append(vals, [bad, -bad]))
