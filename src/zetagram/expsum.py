"""Exponential sums X(t) = sum_k w_k e^{-i t f_k} at many real t.

`evaluate` adds the terms one at a time over the points (`direct`), or,
when its cost model finds that cheaper, evaluates X on a uniform t-grid
by a Gaussian-gridded type-1 nonuniform FFT and interpolates to the
points by a windowed sinc (`gridded`): the multi-evaluation step of
Odlyzko & Schoenhage (1988), with the gridding of Greengard & Lee (SIAM
Review 46, 2004) and the "exponential of semicircle" window of Barnett,
Magland & af Klinteberg (SIAM J. Sci. Comput. 41, 2019).
The choice depends only on the frequencies, the number of points and
their range.  On either path a point's value depends only on (f, w, t),
not on the other points of the call; the two paths differ by the
gridding error.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["evaluate", "direct", "gridded", "grid_is_cheaper"]

#: Oversampling in t: the grid step is 1/OVERSAMPLE of the Nyquist step
#: pi/B of a sum whose shifted frequencies lie in [-B, B].
OVERSAMPLE = 3
#: Frequency-grid cells spread on each side of a frequency; with the
#: 2x oversampled frequency grid this gives about 1e-12 (Greengard & Lee).
SPREAD = 12
#: Interpolation taps on each side of a point.
TAPS = 14
#: The sinc is windowed by exp(ES_BETA (sqrt(1 - (d/TAPS)^2) - 1)) at
#: d samples.  The window's transform lies essentially within |xi| <=
#: ES_BETA/TAPS, so the windowed sinc passes the samples' band |xi| <=
#: pi/OVERSAMPLE untouched while ES_BETA <= TAPS pi (1 - 1/OVERSAMPLE) =
#: 29.3; its truncation error falls like exp(-ES_BETA).  Measured at
#: t <= 2000, the error sits at the gridding floor, about 6e-12 sum |w|,
#: for ES_BETA from 25 to 29, and 27 is the middle of that flat range.
#: At 13 taps the range is 25 to 27, and at 12 only 25 (24 and 26 give
#: 1.7e-11 and 6.9e-10).
ES_BETA = 27.0
#: Grid samples per tile: the power of two at or above twice the number
#: of terms, within [MIN_TILE, MAX_TILE], so that a tile's FFT and its
#: spreading cost about the same.  A tile owns all but 2 TAPS + 2 of its
#: samples; the rest is its taps' margin.
MIN_TILE, MAX_TILE = 1 << 10, 1 << 18
#: The spreading Gaussian is exp(-SPREAD_ALPHA u^2) at u frequency cells
#: (Greengard & Lee's tau for a 2x oversampled grid), and its transform
#: is undone by DECONV exp(DECONV_BETA (j / tile)^2) at mode j.
SPREAD_ALPHA = 3.0 * math.pi / (4.0 * SPREAD)
DECONV, DECONV_BETA = 0.5 * math.sqrt(3.0 / SPREAD), math.pi * SPREAD / 3.0

#: Costs of the gridded path in units of one direct (point, term) entry,
#: measured with numpy on a shared 2-core x86-64 machine: each point's
#: taps; and in each tile, a fixed part, each term's spread cells and
#: each grid sample (the FFT).  COST_POINT is the slope of `gridded`'s
#: time from 500 to 5,000 points in one tile over `direct`'s time per
#: entry: medians 9.5-12.7 of 5 runs at 500 to 4,000 terms (the same
#: measure gives 39-50 for a 24-tap Gaussian-windowed sinc, which this
#: model priced at 45).
COST_POINT = 12
COST_TILE = 15000
COST_TERM = 8
COST_SAMPLE = 2


def direct(freqs: np.ndarray, weights: np.ndarray, t: np.ndarray) -> np.ndarray:
    """sum_k w_k e^{-i t f_k}, one term per pass into one accumulator:
    memory O(len(t) + len(f)), time about 20-40 ns per (point, term)."""
    out = np.zeros(t.shape, dtype=complex)
    for f, w in zip(freqs.tolist(), weights.tolist()):
        out += w * np.exp(-1j * (t * f))
    return out


def _layout(freqs: np.ndarray) -> tuple:
    """(tile, owned, step): the grid samples of a tile, the samples it
    owns, and the grid step pi / (OVERSAMPLE B), B the half-width of the
    frequency range."""
    tile = min(max(1 << (2 * freqs.size - 1).bit_length(), MIN_TILE), MAX_TILE)
    return tile, tile - 2 * TAPS - 2, 2.0 * math.pi / (OVERSAMPLE * float(np.ptp(freqs)))


def grid_is_cheaper(freqs: np.ndarray, t: np.ndarray) -> bool:
    """The cost model: gridded when its estimated cost, from the number
    of terms, the number of points and the tiles their range spans, is
    below that of `direct`.  Heights beyond 2^40 grid steps are left to
    `direct`, since a tile's anchor would lose its phase to rounding."""
    terms, points = freqs.size, t.size
    if terms <= COST_POINT or not points:   # the taps alone cost COST_POINT a point
        return False
    tile, owned, step = _layout(freqs)
    lo, hi = float(t.min()), float(t.max())
    if not max(-lo, hi) < step * 2.0 ** 40:
        return False
    tiles = min(points, math.floor(hi / (owned * step)) - math.floor(lo / (owned * step)) + 1)
    grid = tiles * (COST_TILE + COST_TERM * terms + COST_SAMPLE * tile)
    return grid + COST_POINT * points < terms * points


def gridded(freqs: np.ndarray, weights: np.ndarray, t: np.ndarray) -> np.ndarray:
    """sum_k w_k e^{-i t f_k} from a uniform t-grid, for at least two
    distinct frequencies.

    With c the centre and B the half-width of the frequency range,
    X(t0 + s) = e^{-i s c} F(s), where F(s) = sum_k a_k e^{-i s (f_k - c)}
    with a_k = w_k e^{-i t0 f_k} is band-limited to [-B, B].  The t-axis
    is cut into tiles of `owned` grid steps h = pi/(OVERSAMPLE B),
    anchored at t = 0, each centred at a grid point t0; the tile length
    depends only on the number of terms.  For each tile that holds a
    point, F at the `tile` grid samples around t0 comes from one type-1
    NUFFT: the a_k spread onto 2 x `tile` frequency cells by a Gaussian
    over +-SPREAD cells (its powers in the cell offset built by
    multiplication, as Greengard & Lee do), an FFT, and division by the
    Gaussian's transform.  F at each point is then the sinc interpolation
    over its 2 x TAPS nearest samples, windowed by the exponential of
    semicircle (see ES_BETA).  The sinc takes one sine per point; the
    taps run one at a time, each over all the tile's points.

    Error: about 6e-12 sum_k |w_k| from the gridding and the window
    together, plus the rounding of the phases t0 f_k and s c, of the same
    size as in `direct`.  Memory: O(points + terms + tile).
    """
    shape, t = t.shape, t.ravel()
    by_freq = np.argsort(freqs, kind="stable")
    freqs, weights = freqs[by_freq], weights[by_freq]
    tile, owned, step = _layout(freqs)
    centre = 0.5 * (float(freqs.max()) + float(freqs.min()))
    cell = step * (freqs - centre) * (tile / math.pi)   # within +-tile/OVERSAMPLE
    near = np.rint(cell)
    frac = cell - near
    # the spreading weight at offset q from the nearest cell is
    # exp(-alpha (frac - q)^2) = edge * ratio^q * exp(-alpha q^2)
    edge = weights * np.exp(-SPREAD_ALPHA * frac * frac)
    ratio = np.exp(2.0 * SPREAD_ALPHA * frac)
    cells, starts = np.unique(near.astype(np.intp), return_index=True)
    peaks = np.exp(-SPREAD_ALPHA * np.arange(SPREAD + 1) ** 2)
    modes = np.arange(-tile // 2, tile // 2)
    deconv = DECONV * np.exp(DECONV_BETA * (modes / tile) ** 2)
    shift = tile // 2

    index = np.floor(t / (owned * step))
    order = np.argsort(index, kind="stable")
    out = np.empty(t.shape, dtype=complex)
    for idx in np.split(order, np.flatnonzero(np.diff(index[order])) + 1):
        t0 = (index[idx[0]] * owned + owned // 2) * step
        grid = np.zeros(2 * tile, dtype=complex)
        up = down = edge * np.exp(-1j * (t0 * freqs))
        grid[cells] += np.add.reduceat(up, starts)
        for q in range(1, SPREAD + 1):
            up = up * ratio
            down = down / ratio
            grid[cells + q] += peaks[q] * np.add.reduceat(up, starts)
            grid[cells - q] += peaks[q] * np.add.reduceat(down, starts)
        samples = np.fft.fft(grid)[modes] * deconv
        s = t[idx] - t0
        v = s / step
        below = np.floor(v)
        base = below.astype(np.intp) + shift
        v -= below
        # sinc(v - k) = (-1)^k sin(pi v) / (pi (v - k)): one sine a point,
        # taken at the nearer of v and 1 - v (exact) so that it keeps its
        # relative accuracy at both ends, where the taps k = 0, 1 divide
        sine = np.sin(np.pi * np.minimum(v, 1.0 - v)) / np.pi
        signed = (sine, -sine)
        acc = np.zeros(s.shape, dtype=complex)
        for k in range(1 - TAPS, TAPS + 1):
            d = v - k
            if k:
                tap = signed[k % 2] / d
            else:   # 1 where the point is a grid sample, v = 0
                tap = np.divide(sine, d, out=np.ones(d.shape), where=d != 0.0)
            tap *= np.exp(ES_BETA / TAPS * np.sqrt(TAPS * TAPS - d * d) - ES_BETA)
            acc += samples[base + k] * tap
        out[idx] = np.exp(-1j * (s * centre)) * acc
    return out.reshape(shape)


def evaluate(freqs: np.ndarray, weights: np.ndarray, t: np.ndarray) -> np.ndarray:
    """sum_k w_k e^{-i t f_k} at every t, by `gridded` when
    `grid_is_cheaper`, else by `direct`."""
    t = np.asarray(t, dtype=float)
    if grid_is_cheaper(freqs, t):
        return gridded(freqs, weights, t)
    return direct(freqs, weights, t)
