"""Deterministic exactly rounded summation.

All long reductions in this package go through these functions so that
results are bit-identical across runs and across worker counts: the
block layout is fixed by the constant BLOCK, never by the pool size.
:func:`blocked_fsum` and :func:`blocked_prefix_fsums` share that layout,
so a prefix sum of the latter equals the former over the same prefix.

Every exact sum of an array goes through :func:`_exact_sum`, which
returns the bits of ``math.fsum(arr.tolist())`` without building the
list.  It splits each double x into a high half, x with the low 26 bits
of its mantissa cleared, and a low half x - high, which is exact.  Both
halves keep the sign, the scale and (for normal x) the implicit bit of
x, so each is a signed integer in units of 2**(e - 1075), e being the
exponent field of x (1 for subnormals): a high half is below 2**53 units
in steps of 2**26, a low half below 2**26 units.  ``np.bincount`` adds
the halves per sign and exponent field, and a bucket of fewer than
2**26 halves stays below 2**53 of its step, so it adds up without
rounding.  ``math.fsum`` (Shewchuk) then rounds the nonzero bucket sums
once; their exact sum is the exact sum of the input, so the result is
the correctly rounded sum, bit for bit that of ``math.fsum``.

Arrays of 2**26 elements or more, and arrays holding inf, nan or a
value with an exponent field of 0x7FF - 60 or more (about 2**964), go
to ``math.fsum(arr.tolist())`` itself, so inf, nan, ValueError
(-inf + inf) and OverflowError come out exactly as from ``math.fsum``.
"""

from __future__ import annotations

import math

import numpy as np

#: Fixed block length for chunked reductions.  Must not depend on the
#: number of workers, otherwise determinism across thread counts breaks.
BLOCK = 1 << 16

#: The high half of a double keeps its sign, its exponent and the top
#: 53 - _SPLIT = 27 bits of its mantissa; the low half is the rest.
_SPLIT = 26
_HIGH = np.int64(-1 << _SPLIT)
#: Each half is below 2**27 steps of its bucket, so a bucket of fewer
#: than 2**26 halves stays below 2**53 steps and adds up exactly.
_MAX_EXACT_LEN = 1 << _SPLIT
#: Exponent fields at or above this go to math.fsum: inf and nan (0x7FF),
#: and values whose bucket sums, up to 2**26 * 2**(e - 1022), could
#: overflow, so that math.fsum raises OverflowError exactly as before.
_EXP_LIMIT = 0x7FF - 60
#: One bucket per sign and exponent field.
_BUCKETS = 0x1000
#: Elements per bincount pass: the two work arrays stay small enough to
#: be reused from the allocator's heap and the cache, not mapped afresh.
_CHUNK = 1 << 14


def _exact_sum(arr: np.ndarray) -> float:
    """``math.fsum(arr.tolist())`` of a 1-d float64 array, by exponent
    buckets; the same value, or the same inf, nan or exception."""
    n = arr.size
    if n >= _MAX_EXACT_LEN:
        return math.fsum(arr.tolist())
    bits = arr.view(np.int64)
    bucket = np.empty(min(n, _CHUNK), np.int64)
    half = np.empty(min(n, _CHUNK))
    s_hi = np.zeros(_BUCKETS)
    s_lo = np.zeros(_BUCKETS)
    for a in range(0, n, _CHUNK):
        b = min(a + _CHUNK, n)
        k, h = bucket[:b - a], half[:b - a]
        # bucket: sign and exponent field; h: the high halves
        np.right_shift(bits[a:b].view(np.uint64), 52, out=k.view(np.uint64))
        np.bitwise_and(bits[a:b], _HIGH, out=h.view(np.int64))
        part = np.bincount(k, weights=h, minlength=_BUCKETS)
        # the halves of one bucket share a sign and, above the subnormals,
        # hold the implicit bit, so a filled bucket's sum is never zero
        if part[_EXP_LIMIT:0x800].any() or part[0x800 + _EXP_LIMIT:].any():
            return math.fsum(arr.tolist())
        s_hi += part
        np.subtract(arr[a:b], h, out=h)
        s_lo += np.bincount(k, weights=h, minlength=_BUCKETS)
    return math.fsum(s_hi[s_hi != 0].tolist() + s_lo[s_lo != 0].tolist())


def fsum(values) -> float:
    """Exactly rounded sum of a 1-d float array: the value, inf, nan,
    ValueError or OverflowError of ``math.fsum`` over the same numbers,
    from exponent buckets for finite arrays below 2**26 elements and from
    ``math.fsum`` itself otherwise (see the module docstring)."""
    return _exact_sum(np.asarray(values, dtype=float))


def blocked_fsum(values) -> float:
    """Compensated sum of block-wise exact partials, in index order.

    Equivalent to :func:`fsum` up to one rounding per block; used for
    very long arrays where a single fsum pass is unnecessarily slow.
    """
    arr = np.asarray(values, dtype=float)
    return blocked_prefix_fsums(lambda a, b: arr[a:b], (arr.size,))[0]


def blocked_prefix_fsums(block_values, ends) -> list:
    """blocked_fsum(v[:e]) for each e in ends, with v given a block at a
    time: block_values(a, b) returns v[a:b] for b - a <= BLOCK, and is
    called once per block, in index order from a = 0.

    The exact partial of each full block is computed once and shared by
    every end past it, so at most one block of v is held at a time.
    """
    ends = [int(e) for e in ends]
    top = max(ends, default=0)
    full, tails = [], {}
    for a in range(0, top, BLOCK):
        vals = block_values(a, min(a + BLOCK, top))
        if len(vals) == BLOCK:
            full.append(_exact_sum(vals))
        for e in ends:
            if a < e < a + BLOCK:
                tails[e] = _exact_sum(vals[:e - a])
    return [math.fsum(full[:e // BLOCK] + ([tails[e]] if e in tails else [])) for e in ends]
