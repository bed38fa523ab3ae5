"""Deterministic exactly rounded summation: every sum is that of
``math.fsum`` over its whole input, bit for bit, however the input is
cut into chunks and whatever the number of workers.

One accumulator, :class:`_ExactSum`, keeps the exact running sum.  It
splits each double x into a high half, x with the low 26 bits of its
mantissa cleared, and a low half x - high, which is exact.  Both halves
keep the sign, the scale and (for normal x) the implicit bit of x, so
each is a signed integer in units of 2**(e - 1075), e being the exponent
field of x (1 for subnormals): a high half is below 2**53 units in steps
of 2**26, a low half below 2**26 units.  ``np.bincount`` adds the halves
per sign and exponent field, and a bucket of at most 2**26 halves stays
below 2**53 of its step, so it adds up without rounding.  Every 2**26
elements the nonzero bucket sums move to a carry list and the buckets
start again, so inputs of any length stay exact.  ``math.fsum``
(Shewchuk) rounds once, when a sum is read, over the carry list and the
nonzero buckets; their exact sum is that of the input.

A value of inf, nan or an exponent field of 0x7FF - 60 or more (about
2**964) sends the accumulator to ``math.fsum`` over a list: the exact
parts of what came before the array that holds it, then every value from
that array on.  So inf, nan, ValueError (-inf + inf) and OverflowError
come out exactly as from ``math.fsum`` of a single array.
"""

from __future__ import annotations

import math

import numpy as np

#: The high half of a double keeps its sign, its exponent and the top
#: 53 - _SPLIT = 27 bits of its mantissa; the low half is the rest.
_SPLIT = 26
_HIGH = np.int64(-1 << _SPLIT)
#: Each half is below 2**27 steps of its bucket, so a bucket of at most
#: 2**26 halves stays below 2**53 steps and adds up exactly.
_FILL = 1 << _SPLIT
#: Exponent fields at or above this go to math.fsum: inf and nan (0x7FF),
#: and values whose bucket sums, up to 2**26 * 2**(e - 1022), could
#: overflow, so that math.fsum raises OverflowError exactly as before.
_EXP_LIMIT = 0x7FF - 60
#: One bucket per sign and exponent field.
_BUCKETS = 0x1000
#: Elements per bincount pass: the two work arrays stay small enough to
#: be reused from the allocator's heap and the cache, not mapped afresh.
_CHUNK = 1 << 14


class _ExactSum:
    """The exact sum of the 1-d float64 arrays added to it, in order."""

    def __init__(self):
        self.buckets = np.zeros((2, _BUCKETS))  # high halves, low halves
        self.held = 0     # elements in the buckets
        self.carry = []   # nonzero bucket sums moved out, each exact
        self.raw = None   # math.fsum's list, once a value out of range is seen

    def parts(self) -> list:
        return self.carry + self.buckets[self.buckets != 0].tolist()

    def value(self) -> float:
        return math.fsum(self.parts() if self.raw is None else self.raw)

    def add(self, arr: np.ndarray) -> None:
        if self.raw is not None:
            self.raw += arr.tolist()
            return
        before = self.parts()
        n = arr.size
        bits = arr.view(np.int64)
        bucket = np.empty(min(n, _CHUNK), np.int64)
        half = np.empty(min(n, _CHUNK))
        for a in range(0, n, _CHUNK):
            b = min(a + _CHUNK, n)
            if self.held + b - a > _FILL:
                self.carry = self.parts()
                self.buckets[:] = 0.0
                self.held = 0
            k, h = bucket[:b - a], half[:b - a]
            # bucket: sign and exponent field; h: the high halves
            np.right_shift(bits[a:b].view(np.uint64), 52, out=k.view(np.uint64))
            np.bitwise_and(bits[a:b], _HIGH, out=h.view(np.int64))
            part = np.bincount(k, weights=h, minlength=_BUCKETS)
            # the halves of one bucket share a sign and, above the subnormals,
            # hold the implicit bit, so a filled bucket's sum is never zero
            if part[_EXP_LIMIT:0x800].any() or part[0x800 + _EXP_LIMIT:].any():
                self.raw = before + arr.tolist()
                return
            self.buckets[0] += part
            np.subtract(arr[a:b], h, out=h)
            self.buckets[1] += np.bincount(k, weights=h, minlength=_BUCKETS)
            self.held += b - a


def fsum(values) -> float:
    """Exactly rounded sum of a 1-d float array: the value, inf, nan,
    ValueError or OverflowError of ``math.fsum`` over the same numbers
    (see the module docstring)."""
    return prefix_fsums((values,), (len(values),))[0]


def blocked_fsum(values) -> float:
    """:func:`fsum` under the name the moment engines call, which
    perfbench/spans.py wraps to count the elements of their sums."""
    return fsum(values)


def prefix_fsums(chunks, ends) -> list:
    """fsum(v[:e]) for each e >= 0 in ends, v being the concatenation of
    the 1-d float arrays in the iterable chunks, read in order, one at a
    time and none past the one that reaches the largest end.  An end in a
    chunk is read there, and one past the stream gets the total."""
    ends = [int(e) for e in ends]
    chunks, rest, a, acc, read = iter(chunks), np.empty(0), 0, _ExactSum(), {}
    for cut in sorted(set(ends)):
        while a < cut:
            if not rest.size:
                rest = next(chunks, None)
                if rest is None:
                    rest = np.empty(0)
                    break
                rest = np.asarray(rest, dtype=float)
            n = min(cut - a, rest.size)
            acc.add(rest[:n])
            a, rest = a + n, rest[n:]
        read[cut] = acc.value()
    return [read[e] for e in ends]
