import math

import numpy as np
import pytest

from zetagram.summation import BLOCK, blocked_fsum, blocked_prefix_fsums, fsum


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
