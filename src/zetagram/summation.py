"""Deterministic compensated summation helpers.

All long reductions in this package go through these functions so that
results are bit-identical across runs and across worker counts: the
block layout is fixed by the constant BLOCK, never by the pool size.
:func:`blocked_fsum` and :func:`blocked_prefix_fsums` share that layout,
so a prefix sum of the latter equals the former over the same prefix.
"""

from __future__ import annotations

import math

import numpy as np

#: Fixed block length for chunked reductions.  Must not depend on the
#: number of workers, otherwise determinism across thread counts breaks.
BLOCK = 1 << 16


def fsum(values) -> float:
    """Exactly rounded sum of a 1-d float array (Shewchuk)."""
    arr = np.asarray(values, dtype=float)
    return math.fsum(arr.tolist()) if arr.size else 0.0


def blocked_fsum(values) -> float:
    """Compensated sum of block-wise exact partials, in index order.

    Equivalent to :func:`fsum` up to one rounding per block; used for
    very long arrays where a single fsum pass is unnecessarily slow.
    """
    arr = np.asarray(values, dtype=float)
    return blocked_prefix_fsums(lambda a, b: arr[a:b], (arr.size,))[0]


def blocked_prefix_fsums(block_values, ends) -> list:
    """blocked_fsum(v[:e]) for each e in ends, with v given a block at a
    time: block_values(a, b) returns v[a:b] for b - a <= BLOCK.

    The exact partial of each full block is computed once and shared by
    every end past it, so at most one block of v is held at a time.
    """
    ends = [int(e) for e in ends]
    top = max(ends, default=0)
    full, tails = [], {}
    for a in range(0, top, BLOCK):
        vals = block_values(a, min(a + BLOCK, top)).tolist()
        if len(vals) == BLOCK:
            full.append(math.fsum(vals))
        for e in ends:
            if a < e < a + BLOCK:
                tails[e] = math.fsum(vals[:e - a])
    return [math.fsum(full[:e // BLOCK] + ([tails[e]] if e in tails else [])) for e in ends]

