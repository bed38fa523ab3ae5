"""Deterministic exactly rounded summation: every sum is that of
``math.fsum`` over its whole input, bit for bit, however the input is
cut into arrays and whatever the number of workers.

One accumulator, :class:`ExactSum`, keeps the exact running sum of the
arrays added to it.  It splits each double x into a high half, x with
the low 26 bits of its mantissa cleared, and a low half x - high, which
is exact.  Both halves keep the sign, the scale and (for normal x) the
implicit bit of x, so each is a signed integer in units of
2**(e - 1075), e being the exponent field of x (1 for subnormals): a
high half is below 2**53 units in steps of 2**26, a low half below 2**26
units.  ``np.bincount`` adds the halves per sign and exponent field, and
a bucket of at most 2**26 halves stays below 2**53 of its step, so it
adds up without rounding.  Every 2**26 elements the nonzero bucket sums
move to a carry list and the buckets start again, so inputs of any
length stay exact.  ``value()`` rounds once, with ``math.fsum``
(Shewchuk), over the carry list and the nonzero buckets, whose exact sum
is that of the input.  Reading it leaves the accumulator as it was, so
a value read between two adds is the sum of that prefix: a caller that
needs the sums of several prefixes of one stream adds the stream piece
by piece and reads where each prefix ends.

An array that holds inf, nan or a value of 2**964 or more in magnitude
(an exponent field of 0x7FF - 60 or more) sends the accumulator to
``math.fsum`` over a list: the exact parts of what came before that
array, then every value from that array on.  So inf, nan, ValueError
(-inf + inf) and OverflowError come out exactly as from ``math.fsum`` of
a single array.
"""

from __future__ import annotations

import math

import numpy as np

#: The high half of a double keeps its sign, its exponent and the top
#: 53 - _LOW_BITS = 27 bits of its mantissa; the low half is the rest.
_LOW_BITS = 26
_HIGH = np.int64(-1 << _LOW_BITS)
#: Each half is below 2**27 steps of its bucket, so a bucket of at most
#: 2**26 halves stays below 2**53 steps and adds up exactly.
_FILL = 1 << _LOW_BITS
#: Values of this magnitude or more (an exponent field e of 0x7FF - 60 or
#: more), inf and nan go to math.fsum: bucket sums of such values, up to
#: 2**26 * 2**(e - 1022), could overflow, where math.fsum raises
#: OverflowError.
_TOO_LARGE = 2.0 ** 964
#: One bucket per sign and exponent field.
_BUCKETS = 0x1000
#: Elements per bincount pass: the two work arrays stay small enough to
#: be reused from the allocator's heap and the cache, not mapped afresh.
_CHUNK = 1 << 14


class ExactSum:
    """The exact sum of the 1-d float arrays added to it, in order;
    ``value()`` rounds it once and may be read between adds."""

    def __init__(self):
        self.buckets = np.zeros((2, _BUCKETS))  # high halves, low halves
        self.held = 0     # elements in the buckets
        self.carry = []   # nonzero bucket sums moved out, each exact
        self.raw = None   # math.fsum's list, once a value out of range is seen

    def parts(self) -> list:
        return self.carry + self.buckets[self.buckets != 0].tolist()

    def value(self) -> float:
        return math.fsum(self.parts() if self.raw is None else self.raw)

    def add(self, arr) -> ExactSum:
        """Adds the values of arr and returns the accumulator."""
        arr = np.asarray(arr, dtype=float)
        # one range test per array, which nan fails
        if self.raw is None and arr.size and not (
                -_TOO_LARGE < arr.min() and arr.max() < _TOO_LARGE):
            self.raw = self.parts()
        if self.raw is not None:
            self.raw += arr.tolist()
            return self
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
            self.buckets[0] += np.bincount(k, weights=h, minlength=_BUCKETS)
            np.subtract(arr[a:b], h, out=h)
            self.buckets[1] += np.bincount(k, weights=h, minlength=_BUCKETS)
            self.held += b - a
        return self


def fsum(values) -> float:
    """Exactly rounded sum of a 1-d float array: the value, inf, nan,
    ValueError or OverflowError of ``math.fsum`` over the same numbers
    (see the module docstring)."""
    return ExactSum().add(values).value()


def blocked_fsum(values) -> float:
    """:func:`fsum` under the name the moment engines call, which
    perfbench/spans.py wraps to count the elements of their sums.  It
    sums on its own, so their time is booked to this name alone."""
    return ExactSum().add(values).value()
