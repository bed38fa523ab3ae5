import math

import numpy as np
import pytest

from zetagram.grampoints import (
    Angle,
    GramPoint,
    OutOfBranchError,
    classify,
    count_estimate,
    enumerate_points,
    solve_gram,
)
from zetagram.special import DomainError, delta, delta_critical, hardy_z, theta

TWO_PI = 2.0 * math.pi


# ----------------------------------------------------------------------
# oracle: dense sign scan of theta(t) - (pi n - phi)
# ----------------------------------------------------------------------

def scan_roots(phi: float, t_lo: float, t_hi: float) -> list:
    """Bisection on a dense grid; independent of the Newton solver."""
    grid = np.linspace(t_lo, t_hi, 20001)
    vals = theta(grid)
    roots = []
    for n in range(-2, 200):
        target = math.pi * n - phi
        sign = vals - target
        hits = np.nonzero(np.diff(np.sign(sign)) > 0)[0]
        for i in hits:
            lo, hi = grid[i], grid[i + 1]
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if theta(mid) < target:
                    lo = mid
                else:
                    hi = mid
            roots.append((n, 0.5 * (lo + hi)))
    return sorted(roots, key=lambda r: r[1])


def test_angle_validation_message():
    with pytest.raises(DomainError, match=r"phi must be in \[0, pi\)"):
        Angle(3.2)
    with pytest.raises(DomainError):
        Angle(-0.1)
    Angle(0.0)
    Angle(math.pi - 1e-9)


def test_solve_first_classical_gram_point():
    pt = solve_gram(0, 0.0)
    assert abs(pt.t - 17.8455995404) < 1e-8
    assert abs(theta(pt.t)) < 1e-10


def test_solve_negative_index_on_branch():
    pt = solve_gram(-1, 0.0)
    assert pt.t > TWO_PI
    assert abs(pt.t - 9.6669080561) < 1e-8
    assert abs(theta(pt.t) + math.pi) < 1e-10


def test_solve_quarter_turn():
    pt = solve_gram(0, math.pi / 2)
    assert abs(theta(pt.t) + math.pi / 2) < 1e-10
    assert abs(delta(0.5 + 1j * pt.t) - np.exp(1j * math.pi)) < 1e-8


def test_solve_below_branch_raises():
    with pytest.raises(OutOfBranchError):
        solve_gram(-2, 0.0)


def test_enumerate_matches_scan_oracle():
    pts = enumerate_points(0.0, 50.0)
    expected = [r for r in scan_roots(0.0, TWO_PI + 0.3, 50.0) if r[0] >= 0]
    assert len(pts) == 9
    assert [p for p, _ in expected] == list(pts.n)
    for (_, t_oracle), t_solver in zip(expected, pts.t):
        assert abs(t_oracle - t_solver) < 1e-8


def test_enumerate_indices_consecutive_and_increasing():
    pts = enumerate_points(0.7, 2000.0)
    assert np.all(np.diff(pts.n) == 1)
    assert np.all(np.diff(pts.t) > 0)
    assert pts.n[0] == 0


def test_enumerate_residual_and_delta_invariants():
    for phi in (0.0, math.pi / 4, 2.0):
        pts = enumerate_points(phi, 1e4)
        assert np.max(np.abs(pts.residuals())) <= 1e-10
        target = np.exp(2j * phi)
        assert np.max(np.abs(delta_critical(pts.t) - target)) <= 1e-8


def test_enumerate_count_identity():
    for phi in (0.0, 1.0):
        pts = enumerate_points(phi, 1e4)
        est = count_estimate(phi, 1e4)
        assert abs(len(pts) - est) <= 2


def test_enumerate_requires_minimum_height():
    with pytest.raises(DomainError):
        enumerate_points(0.0, 10.0)


def test_interleaving_with_rotated_line():
    base = enumerate_points(0.0, 1000.0)
    rotated = enumerate_points(math.pi / 4, 1000.0)
    # t_n(pi/4) lies strictly between t_{n-1}(0) and t_n(0)
    for n in range(1, min(len(base), len(rotated))):
        assert base.t[n - 1] < rotated.t[n] < base.t[n]


def test_angle_sweep_monotone():
    for n in (3, 40):
        ts = [solve_gram(n, phi).t for phi in np.linspace(0.0, math.pi * 0.9, 7)]
        assert all(a > b for a, b in zip(ts, ts[1:]))


def test_count_estimate_just_past_first_point():
    est = count_estimate(0.0, 17.85)
    pts = enumerate_points(0.0, 20.0)
    actual = int(np.sum(pts.t <= 17.85))
    assert actual == 1
    assert abs(est - actual) <= 2


def test_classify_first_point_positive():
    pts = enumerate_points(0.0, 50.0)
    signed = classify(pts)
    assert signed[0].sign == "+"
    em_val = hardy_z(float(pts.t[0]))
    assert em_val > 0


def test_classify_partition_and_identity():
    pts = enumerate_points(0.3, 3000.0)
    signed = classify(pts)
    n_plus = int(signed.plus_mask.sum())
    n_minus = int(signed.minus_mask.sum())
    assert n_plus + n_minus == len(pts)
    # value = (-1)^n Z(t_n) and e^{-i phi} zeta is real at the points
    z = hardy_z(pts.t)
    parity = np.where(pts.n % 2 == 0, 1.0, -1.0)
    assert np.max(np.abs(signed.value - parity * z)) == 0.0
    direct = np.exp(-1j * (0.3 + theta(pts.t))) * z
    assert np.max(np.abs(direct.imag)) <= 1e-6
    assert np.all((signed.value >= 0) == (signed.sign > 0))
    assert not signed.ambiguous.any()


def test_classify_threads_deterministic():
    pts = enumerate_points(0.0, 5000.0)
    a = classify(pts, threads=1)
    b = classify(pts, threads=4)
    assert np.array_equal(a.value, b.value)
    assert np.array_equal(a.sign, b.sign)


def test_getitem_scalar_and_slice():
    pts = enumerate_points(0.0, 100.0)
    assert isinstance(pts[0], GramPoint)
    assert pts[0].n == 0
    sub = pts[2:5]
    assert len(sub) == 3
    assert sub[0].n == 2


def test_cache_roundtrip(tmp_path):
    cache = str(tmp_path)
    cold = enumerate_points(0.0, 500.0, cache_dir=cache)
    files = list(tmp_path.iterdir())
    assert len(files) == 1
    first_bytes = files[0].read_bytes()
    warm = enumerate_points(0.0, 500.0, cache_dir=cache)
    assert np.array_equal(cold.t, warm.t)
    assert np.array_equal(cold.n, warm.n)
    assert files[0].read_bytes() == first_bytes


def test_cache_header_mismatch_recomputes(tmp_path):
    cache = str(tmp_path)
    enumerate_points(0.0, 500.0, cache_dir=cache)
    path = next(tmp_path.iterdir())
    path.write_text("# stale\n# header\nn,t\n0,bogus\n")
    pts = enumerate_points(0.0, 500.0, cache_dir=cache)
    assert abs(pts.t[0] - 17.8455995404) < 1e-8


CACHE_DAMAGE = {
    "truncated": lambda rows: rows[:len(rows) // 2],
    "truncated-mid-row": lambda rows: rows[:-1] + [rows[-1][:-4]],
    "garbled-huge": lambda rows: rows[:7] + ["7,1e308"] + rows[8:],
    "garbled-text": lambda rows: rows[:7] + ["7,abc"] + rows[8:],
    "garbled-nan": lambda rows: rows[:7] + ["7,nan"] + rows[8:],
    "negative-first": lambda rows: ["0,-5.0"] + rows[1:],
    # residual about 1.5e-8: off the Gram point, still in order
    "t-off-by-1e-9-relative": lambda rows: rows[:7] + [
        f"7,{float(rows[7].split(',')[1]) * (1 + 1e-9)!r}"] + rows[8:],
    "reordered": lambda rows: rows[:10] + [rows[11], rows[10]] + rows[12:],
    "extra-row": lambda rows: rows + [rows[-1]],
}


@pytest.mark.parametrize("damage", sorted(CACHE_DAMAGE))
def test_damaged_cache_is_rebuilt(tmp_path, damage):
    cold = enumerate_points(0.3, 2000.0)
    enumerate_points(0.3, 2000.0, cache_dir=str(tmp_path))
    path = next(tmp_path.iterdir())
    good = path.read_text()
    head, rows = good.split("\n")[:3], good.split("\n")[3:-1]
    assert len(rows) == len(cold)
    path.write_text("\n".join(head + CACHE_DAMAGE[damage](rows)) + "\n")
    pts = enumerate_points(0.3, 2000.0, cache_dir=str(tmp_path))
    assert pts.n.tobytes() == cold.n.tobytes()
    assert pts.t.tobytes() == cold.t.tobytes()
    assert path.read_text() == good


@pytest.mark.parametrize("t_max", (math.inf, math.nan, -math.inf, 19.9))
def test_enumerate_rejects_non_finite_or_low_height(t_max):
    with pytest.raises(DomainError, match="finite t_max >= 20"):
        enumerate_points(0.0, t_max)
