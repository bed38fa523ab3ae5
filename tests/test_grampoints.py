import hashlib
import math
import time
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetagram import grampoints, special
from zetagram.grampoints import (
    EVALUATOR_VERSION,
    NEAR_ZERO,
    POINT_BUDGET,
    Angle,
    GramPointSet,
    _initial_guess,
    _lambertw,
    classified_blocks,
    classify,
    count_estimate,
    enumerate_points,
    solve_gram,
)
from zetagram.moments import GramSweep
from zetagram.special import BLOCK_POINTS, DomainError, delta, delta_critical, hardy_z, theta

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


def test_solve_at_a_zero_seed_argument_is_silent():
    # pi n - phi = -pi/8 makes the Lambert W argument exactly 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pt = solve_gram(0, math.pi / 8)
        _initial_guess(np.array([-math.pi / 8, 1.0, 50.0]))
    assert abs(theta(pt.t) + math.pi / 8) < 1e-10


def test_seed_at_the_branch_cutoff_is_right_of_two_pi():
    # the seed grows with the target, so the cutoff's is the smallest: the
    # Newton solve needs no clamp to start on the increasing branch t > 2 pi
    cutoff = grampoints.THETA_MIN + grampoints.BRANCH_BUFFER
    targets = cutoff + np.array([0.0, 1e-9, 0.1, 1.0, 10.0])
    seeds = _initial_guess(targets)
    assert seeds[0] >= TWO_PI + 0.05 and np.all(np.diff(seeds) > 0.0)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-0.3555, max_value=1e7))
def test_lambertw_inverts_w_exp_w(b):
    w = float(_lambertw(np.array([b]))[0])
    assert abs(w * math.exp(w) - b) <= 1e-12 * max(1.0, abs(b))


def test_solve_below_branch_raises():
    with pytest.raises(DomainError, match="target -6.283185307179586 below the increasing-branch"):
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


def test_count_estimate_below_two_pi_raises():
    with pytest.raises(DomainError, match="count_estimate requires t_max > 2 pi"):
        count_estimate(0.0, 6.0)


def test_point_set_rejects_arrays_of_different_lengths():
    with pytest.raises(DomainError, match="index/abscissa length mismatch"):
        GramPointSet(Angle(0.0), [0, 1], [17.8])


def test_count_estimate_just_past_first_point():
    est = count_estimate(0.0, 17.85)
    pts = enumerate_points(0.0, 20.0)
    actual = int(np.sum(pts.t <= 17.85))
    assert actual == 1
    assert abs(est - actual) <= 2


def test_classify_first_point_positive():
    pts = enumerate_points(0.0, 50.0)
    plus = classify(pts)[3]
    assert plus[0]
    em_val = hardy_z(float(pts.t[0]))
    assert em_val > 0


def test_gram_law_first_failures():
    # at phi = 0 the minus class is where Gram's law fails; its first
    # index, 126, is Hutchinson's (1925; Edwards, Riemann's Zeta Function, 1974)
    sweep = GramSweep(0.0, 1e4)
    assert sweep.points.n[sweep.minus_mask][:5].tolist() == [126, 134, 195, 211, 232]
    assert (int(sweep.minus_mask.sum()), len(sweep.points)) == (839, 10_142)


def test_classify_partition_and_identity():
    pts = enumerate_points(0.3, 3000.0)
    z_cls, parity_cls, value, plus = classify(pts)
    n_plus = int(plus.sum())
    n_minus = int((~plus).sum())
    assert n_plus + n_minus == len(pts)
    # value = (-1)^n Z(t_n) and e^{-i phi} zeta is real at the points
    z = hardy_z(pts.t)
    parity = np.where(pts.n % 2 == 0, 1.0, -1.0)
    assert z_cls.tobytes() == z.tobytes() and parity_cls.tobytes() == parity.tobytes()
    assert np.max(np.abs(value - parity * z)) == 0.0
    direct = np.exp(-1j * (0.3 + theta(pts.t))) * z
    assert np.max(np.abs(direct.imag)) <= 1e-6
    assert np.all((value >= 0) == plus)
    assert not np.any(np.abs(value) < NEAR_ZERO)


def test_classify_threads_deterministic():
    # 22,491 points: more than one hardy_z block, so four threads use the pool
    pts = enumerate_points(0.0, 2e4)
    a = classify(pts, threads=1)
    b = classify(pts, threads=4)
    for x, y in zip(a, b):
        assert x.tobytes() == y.tobytes()


def test_solve_targets_guesses_once(monkeypatch):
    calls = []
    real = grampoints._initial_guess
    monkeypatch.setattr(grampoints, "_initial_guess",
                        lambda targets: calls.append(targets.size) or real(targets))
    pts = enumerate_points(0.3, 1000.0)
    assert len(calls) == 1 and len(pts) > 100


@pytest.mark.parametrize("phi, lo, hi", ((0.3, 39000, 42000), (0.0, 1733600, 1733625)))
def test_solve_takes_at_most_nine_theta_calls(monkeypatch, phi, lo, hi):
    # 3 or 4 Newton passes, then 5 polish passes, where steps are at the
    # rounding level: just above t = 2^15 (n = 39424 to 41721 at
    # phi = 0.3) and at n = 1,733,612, which 2-cycles by +-3 ulps unless
    # a step that does not shrink stops it
    calls = []
    real = grampoints.theta
    monkeypatch.setattr(grampoints, "theta", lambda t: calls.append(t.size) or real(t))
    grampoints._solve_targets(math.pi * np.arange(lo, hi) - phi)
    assert len(calls) <= 9


def test_gram_points_match_mpmath_grampoint():
    # n = 3 to 20 lie on both sides of THETA_SWITCH_T (t = 30), where
    # theta switches from log-Gamma to its Stirling series
    ns = [*range(21), 30, 100, 1000, 10_000]
    ns += np.random.default_rng(18).integers(39300, 41800, 100).tolist()
    with mpmath.workdps(30):
        for n in ns:
            t = solve_gram(n, 0.0).t
            assert abs(mpmath.mpf(t) - mpmath.grampoint(n)) <= 2 * math.ulp(t), n


def test_enumeration_memory_is_bounded():
    # t and n hold 16 bytes per point; the solve runs in blocks of
    # BLOCK_POINTS targets, so its temporaries do not grow with t_max
    tracemalloc.start()
    try:
        pts = enumerate_points(0.3, 3e5)
        assert pts.t.size == pts.n.size == len(pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40 * len(pts)


def test_points_without_a_cache_are_solved_as_their_blocks_are_used(monkeypatch):
    # 5 blocks: the last, up to the index floor(count_estimate), is solved
    # first, for the count, and kept; the others are solved one by one as
    # blocks() reaches them
    calls = []
    real = grampoints._solve_targets
    monkeypatch.setattr(grampoints, "_solve_targets",
                        lambda targets: calls.append(targets.size) or real(targets))
    pts = enumerate_points(0.3, 6e4)
    assert calls == [math.floor(count_estimate(0.3, 6e4)) % BLOCK_POINTS + 1]
    assert len(pts) > 4 * BLOCK_POINTS
    blocks = pts.blocks()
    first = next(blocks)
    assert len(calls) == 2 and first.size == BLOCK_POINTS
    sizes = [first.size] + [t.size for t in blocks]
    assert sizes == [BLOCK_POINTS] * 4 + [len(pts) - 4 * BLOCK_POINTS] and len(calls) == 5
    assert np.concatenate(list(pts.blocks())).tobytes() == pts.t.tobytes()


@pytest.mark.parametrize("threads", [2, 3])
def test_sweep_keeps_at_most_threads_plus_one_blocks_in_flight(monkeypatch, threads):
    # a slow consumer of 5 blocks: the pool may not run ahead of it
    started = []
    real = special.hardy_z
    monkeypatch.setattr(special, "hardy_z", lambda t: started.append(t.size) or real(t))
    pts = enumerate_points(0.3, 6e4)
    for k, blk in enumerate(classified_blocks(pts, threads)):
        assert len(started) <= k + 1 + threads
        time.sleep(0.03)
    assert len(started) == 5 and blk.n[-1] == len(pts) - 1


def test_enumeration_beyond_the_point_budget_raises():
    t_max = 1e6
    while count_estimate(0.0, t_max) < POINT_BUDGET:
        t_max *= 1.01
    with pytest.raises(DomainError, match="above the budget"):
        enumerate_points(0.0, t_max)
    with pytest.raises(DomainError, match="above the budget"):
        enumerate_points(0.0, 1e300)


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


def test_failed_cache_write_leaves_no_temporary_file(tmp_path, monkeypatch):
    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(grampoints.os, "replace", refuse)
    with pytest.raises(OSError, match="replace refused"):
        enumerate_points(0.0, 500.0, cache_dir=str(tmp_path))
    assert list(tmp_path.iterdir()) == []


def test_cache_header_mismatch_recomputes(tmp_path):
    cache = str(tmp_path)
    enumerate_points(0.0, 500.0, cache_dir=cache)
    path = next(tmp_path.iterdir())
    path.write_text("# stale\n# header\nn,t\n0,bogus\n")
    pts = enumerate_points(0.0, 500.0, cache_dir=cache)
    assert abs(pts.t[0] - 17.8455995404) < 1e-8


def cache_bytes(phi, t_max, tmp_path) -> bytes:
    """The file enumerate_points writes for (phi, t_max) into a fresh
    directory."""
    d = tmp_path / f"fresh-{phi!r}-{t_max!r}"
    enumerate_points(phi, t_max, cache_dir=str(d))
    (path,) = d.iterdir()
    return path.read_bytes()


def resign(data: bytes, edit_fields) -> bytes:
    """The file with its header fields edited and a matching checksum."""
    head, _, body = data.partition(b"\n")
    fields = edit_fields(head.partition(b" sha256=")[0])
    return fields + b" sha256=" + hashlib.sha256(fields + body).hexdigest().encode() + b"\n" + body


def edit_t(data: bytes, edit) -> bytes:
    """The file with its t values edited in place, checksum kept."""
    head, _, body = data.partition(b"\n")
    t = np.frombuffer(body, dtype="<f8").copy()
    edit(t)
    return head + b"\n" + t.astype("<f8").tobytes()


def put(t, i, value):
    t[i] = value


def flip_bit(data: bytes, pos: int) -> bytes:
    return data[:pos] + bytes([data[pos] ^ 1]) + data[pos + 1:]


def in_block(data: bytes, k: int) -> int:
    """A byte inside the sixth point of block k of the cache file data
    (k < 0 counts from the last block)."""
    body = data.index(b"\n") + 1
    blocks = -(-(len(data) - body) // (8 * BLOCK_POINTS))
    return body + 8 * ((k % blocks) * BLOCK_POINTS + 5) + 3


#: Height of the damaged caches: 49,401 points, 4 blocks.
DAMAGE_T_MAX = 4e4


CACHE_DAMAGE = {
    "truncated": lambda g, _: g[:g.index(b"\n") + 1 + 8 * 100],
    "truncated-mid-row": lambda g, _: g[:-4],
    "odd-length": lambda g, _: g[:-1],
    "garbled-huge": lambda g, _: edit_t(g, lambda t: put(t, 7, 1e308)),
    "garbled-text": lambda g, _: g[:-160] + b"7,abc\nn,t\n" * 16,
    "garbled-nan": lambda g, _: edit_t(g, lambda t: put(t, 7, math.nan)),
    "negative-first": lambda g, _: edit_t(g, lambda t: put(t, 0, -5.0)),
    "t-off-by-1e-9-relative": lambda g, _: edit_t(g, lambda t: put(t, 7, t[7] * (1 + 1e-9))),
    # theta residual about 1.5e-11 at t = 22.6: below any residual test
    "t-off-by-1e-12-relative": lambda g, _: edit_t(g, lambda t: put(t, 1, t[1] * (1 + 1e-12))),
    "reordered": lambda g, _: edit_t(g, lambda t: put(t, [10, 11], t[[11, 10]])),
    "extra-row": lambda g, _: g + g[-8:],
    "flipped-bit": lambda g, _: flip_bit(g, len(g) - 100),
    "flipped-bit-in-first-block": lambda g, _: flip_bit(g, in_block(g, 0)),
    "flipped-bit-in-block-before-last": lambda g, _: flip_bit(g, in_block(g, -2)),
    # "height=40000.0" becomes "height=50000.0"
    "flipped-bit-in-height": lambda g, _: flip_bit(g, g.index(b"height=") + 7),
    "foreign-phi": lambda g, tmp: cache_bytes(0.7, 2000.0, tmp),
    "foreign-version": lambda g, _: resign(g, lambda f: f.replace(
        b"evaluator=%d" % EVALUATOR_VERSION, b"evaluator=%d" % (EVALUATOR_VERSION - 1))),
}


@pytest.mark.parametrize("damage", sorted(CACHE_DAMAGE))
def test_damaged_cache_is_rebuilt(tmp_path, damage):
    cold = enumerate_points(0.3, DAMAGE_T_MAX)
    assert len(cold) > 3 * BLOCK_POINTS
    cache = tmp_path / "cache"
    enumerate_points(0.3, DAMAGE_T_MAX, cache_dir=str(cache))
    (path,) = cache.iterdir()
    good = path.read_bytes()
    assert good.endswith(b"\n" + cold.t.astype("<f8").tobytes())
    assert resign(good, lambda f: f) == good  # the checksum is sha256(fields + body)
    bad = CACHE_DAMAGE[damage](good, tmp_path)
    assert bad != good
    path.write_bytes(bad)
    pts = enumerate_points(0.3, DAMAGE_T_MAX, cache_dir=str(cache))
    assert pts.n.tobytes() == cold.n.tobytes()
    assert pts.t.tobytes() == cold.t.tobytes()
    assert list(cache.iterdir()) == [path]
    assert path.read_bytes() == good


def test_lower_height_reads_prefix_and_higher_height_extends(tmp_path):
    cache = str(tmp_path)
    enumerate_points(0.3, 2000.0, cache_dir=cache)
    (path,) = tmp_path.iterdir()
    before = path.read_bytes(), path.stat().st_mtime_ns
    for t_max in (20.0, 500.0, 1999.5, 2000.0):
        pts, cold = enumerate_points(0.3, t_max, cache_dir=cache), enumerate_points(0.3, t_max)
        assert (pts.t.tobytes(), pts.n.tobytes()) == (cold.t.tobytes(), cold.n.tobytes())
    assert (path.read_bytes(), path.stat().st_mtime_ns) == before
    pts = enumerate_points(0.3, 3000.0, cache_dir=cache)
    assert pts.t.tobytes() == enumerate_points(0.3, 3000.0).t.tobytes()
    assert list(tmp_path.iterdir()) == [path]
    assert path.read_bytes() == cache_bytes(0.3, 3000.0, tmp_path / "x")
    # across many blocks: 22,491 points copied a block at a time, then
    # 247,962 more solved, give the bytes of a fresh file
    big = tmp_path / "big"
    enumerate_points(0.3, 2e4, cache_dir=str(big))
    pts = enumerate_points(0.3, 2e5, cache_dir=str(big))
    assert len(pts) > 16 * BLOCK_POINTS
    (path,) = big.iterdir()
    assert path.read_bytes() == cache_bytes(0.3, 2e5, tmp_path / "y")


@pytest.mark.parametrize("phi", (0.0, 0.3, 2.9))
def test_t_max_on_a_gram_point_cold_warm_and_extended_agree(tmp_path, phi):
    t_max = solve_gram(200, phi).t
    cold = enumerate_points(phi, t_max)
    assert cold.t[-1] <= t_max
    for first in (30.0, t_max, 2 * t_max):  # extended, exact, prefix
        cache = str(tmp_path / repr(first))
        enumerate_points(phi, first, cache_dir=cache)
        pts = enumerate_points(phi, t_max, cache_dir=cache)
        assert pts.t.tobytes() == cold.t.tobytes()
        assert pts.n.tobytes() == cold.n.tobytes()


@pytest.mark.parametrize("phi", (0.0, 0.3, 1.0, 2.9))
def test_gram_point_is_a_function_of_n_and_phi(phi):
    e3, e4, e5 = (enumerate_points(phi, t) for t in (1e3, 1e4, 1e5))
    assert e3.t.tobytes() == e4.t[:len(e3)].tobytes()
    assert e4.t.tobytes() == e5.t[:len(e4)].tobytes()
    assert [solve_gram(n, phi).t for n in range(400)] == e3.t[:400].tolist()


PHI = st.one_of(st.floats(0.0, math.pi, exclude_max=True),
                st.floats(math.pi - 1e-6, math.pi, exclude_max=True),
                st.just(math.nextafter(math.pi, 0.0)))


@settings(max_examples=40, deadline=None)
@given(phi=PHI, t1=st.floats(20.0, 2000.0), dt=st.floats(0.0, 2000.0, exclude_min=True))
def test_enumeration_prefix_property(phi, t1, dt):
    small, big = enumerate_points(phi, t1), enumerate_points(phi, t1 + dt)
    assert big.t[:len(small)].tobytes() == small.t.tobytes()
    assert big.n[:len(small)].tobytes() == small.n.tobytes()
    assert np.all(small.t <= t1) and (len(small) == len(big) or big.t[len(small)] > t1)
    for n in {0, len(small) // 2, len(big) - 1}:
        assert solve_gram(n, phi).t == big.t[n]


@pytest.mark.parametrize("t_max", (math.inf, math.nan, -math.inf, 19.9))
def test_enumerate_rejects_non_finite_or_low_height(t_max):
    with pytest.raises(DomainError, match="finite t_max >= 20"):
        enumerate_points(0.0, t_max)
