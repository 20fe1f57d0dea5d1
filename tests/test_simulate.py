"""Sampler determinism, stop detection and batch generation."""

import dataclasses
import io
import math
import multiprocessing
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import kernel_reference as reference
from stopgain import simulate
from stopgain.cdf import ShorthandContext, stopping_time_cdf
from stopgain.errors import ParameterError, ResourceError
from stopgain.model import MarketParams, TradeSpec, g_star_t, gain
from stopgain.simulate import (
    _BLOCK_CELLS,
    _BRIDGE_CUT,
    _CSV_BLOCK_ROWS,
    DEFAULT_MEMORY_BUDGET_MB,
    PathGrid,
    TrajectoryStats,
    _draw_uniforms,
    _first_touch,
    _stream,
    _stream_keys,
    _write_rows,
    path_trajectory,
    run_batch,
    write_csv,
)

DEMO = MarketParams(mu=0.5, sigma=1.0, s0=1.0)
TRADE1 = TradeSpec(u0=1.0, k=1.0, v0=1.0, s_star=0.5)
TRADE2 = TradeSpec(u0=1.0, k=2.0, v0=0.5, s_star=0.5)
FREE1 = TradeSpec(u0=1.0, k=1.0, v0=1.0)


class TestPathGrid:
    def test_default_steps_per_unit_time(self):
        assert PathGrid(1.0).n_steps == 1024
        assert PathGrid(0.25).n_steps == 256
        assert PathGrid(2.5).n_steps == 2560
        assert PathGrid(1e-4).n_steps == 1  # never below one step

    def test_times_and_dt(self):
        grid = PathGrid(2.0, 8)
        assert grid.dt == 0.25
        assert grid.times[0] == 0.0
        assert grid.times[-1] == 2.0
        assert len(grid.times) == 9

    @pytest.mark.parametrize("kwargs", [
        dict(t_end=0.0, n_steps=4),
        dict(t_end=-1.0, n_steps=4),
        dict(t_end=1.0, n_steps=0),
        dict(t_end=1.0, n_steps=1.5),
        # t_end is checked before the default n_steps is derived from it
        dict(t_end=math.inf),
        dict(t_end=math.nan),
        dict(t_end=1e306),  # the default step count overflows
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ParameterError):
            PathGrid(**kwargs)


def _uniforms(master_seed, path_index, n_steps, stream=0):
    """One path's uniforms from the price (0) or bridge (1) stream."""
    return _draw_uniforms(_stream(_stream_keys(master_seed)[stream], path_index, n_steps), 1, n_steps)[0]


def _bits(x):
    """Bytes of float data, every NaN alike: NaN equals NaN and -0.0 differs from 0.0; None stays None."""
    if isinstance(x, TrajectoryStats):
        x = dataclasses.astuple(x)
    return None if x is None else np.where(np.isnan(x), np.nan, np.asarray(x, dtype=float)).tobytes()


def _check(m, tr, grid, n_paths, seed, bridge=True, sink=False, probes=(0,), want=None, **opts):
    """Assert that run_batch (given ``opts``) and path_trajectory give the reference ``want`` bit for bit.

    With a ``sink`` its rows are compared, else the terminal gains, stop
    times, free gains and the statistics (None unless asked for), and each
    path of ``probes`` from time 0 on.  Returns the batch (None with a sink) and ``want``.
    """
    want = want or reference.batch(m, tr, grid, n_paths, seed, bridge)
    got = None
    if sink:
        out = io.StringIO()
        assert run_batch(m, tr, grid, n_paths, seed, bridge, sink=out, **opts) is None
        assert out.getvalue().splitlines(keepends=True) == want.rows
    else:
        got = run_batch(m, tr, grid, n_paths, seed, bridge, **opts)
        for name in ("terminal_gain", "stop_time", "free_gain", "trajectory"):
            asked = name != "trajectory" or opts.get(name)
            assert _bits(getattr(got, name)) == _bits(getattr(want, name) if asked else None), name
    for i in probes:
        p, stop = path_trajectory(m, tr, grid, seed, i, bridge), int(want.stop[i])
        # from time 0 on, where the price is s0, the gain 0 and the investment u0
        assert _bits(p.times) == _bits(grid.times)
        assert _bits(p.prices) == _bits(m.s0 * np.exp(np.append(0.0, want.log_rel[i])))
        assert _bits(p.g) == _bits(np.append(0.0, want.g[i]))
        assert _bits(p.v) == _bits(tr.v0 + np.append(0.0, want.g[i]))
        assert _bits(p.u) == _bits(np.append(tr.u0, want.u[i]))
        assert p.stop_index == (stop if stop <= grid.n_steps else None)
    return got, want


# the second market has a nonzero log drift and s0 != 1
MARKETS = [DEMO, MarketParams(mu=0.1, sigma=0.6, s0=2.0)]


@st.composite
def _cases(draw):
    m = draw(st.sampled_from(MARKETS))
    k = draw(st.sampled_from([0.5, 1.0, 2.0]) | st.floats(math.log(0.1), math.log(20.0)).map(math.exp))
    tr = TradeSpec(u0=1.0, k=k, v0=draw(st.sampled_from([0.25, 1.0, 4.0])) / k,
                   s_star=draw(st.none() | st.floats(0.05, 0.95).map(lambda f: f * m.s0)))
    n_steps = draw(st.integers(1, 70) | st.sampled_from([256, 1024]))
    grid = PathGrid(draw(st.sampled_from([0.25, 1.0, 3.0])), n_steps)
    n_paths, sink = draw(st.integers(1, 300)), draw(st.booleans())
    # a 1 MiB budget makes chunks of 21 paths at 1024 steps and 85 at 256,
    # each of two row blocks, the second a partial one
    return dict(
        m=m, tr=tr, grid=grid, n_paths=n_paths, seed=draw(st.integers(0, 2**64 - 1)),
        bridge=draw(st.booleans()), sink=sink, trajectory=not sink and draw(st.booleans()),
        memory_budget_mb=draw(st.sampled_from([1, DEFAULT_MEMORY_BUDGET_MB])),
        probes=(draw(st.integers(0, n_paths - 1)),),
    )


@given(_cases())
@example(dict(m=DEMO, tr=TRADE2, grid=PathGrid(1.0, 256), n_paths=300, seed=99, trajectory=True,
              memory_budget_mb=1, n_workers=2, probes=(299,)))
@example(dict(m=MARKETS[1], tr=TradeSpec(u0=1.0, k=0.5, v0=2.0, s_star=1.5), grid=PathGrid(1.0, 1024),
              n_paths=50, seed=7, sink=True, memory_budget_mb=1, n_workers=2))
# at 1024 steps a row block is 16 rows and a draw group 64: a chunk that ends
# mid-group, one under a block, one row, and three 21-path chunks in 1 MiB
@example(dict(m=DEMO, tr=TRADE2, grid=PathGrid(1.0, 1024), n_paths=150, seed=5, trajectory=True, probes=(149,)))
@example(dict(m=MARKETS[1], tr=TradeSpec(u0=1.0, k=2.0, v0=0.5, s_star=1.0), grid=PathGrid(1.0, 1024),
              n_paths=5, seed=6, probes=(4,)))
@example(dict(m=DEMO, tr=TRADE1, grid=PathGrid(1.0, 1024), n_paths=1, seed=2**64 - 1, trajectory=True))
@example(dict(m=DEMO, tr=TRADE1, grid=PathGrid(1.0, 1024), n_paths=60, seed=10, bridge=False, trajectory=True,
              memory_budget_mb=1, probes=(59,)))
# one step and seven: a row block of 16384 and 2340 rows, and padded draws
@example(dict(m=MARKETS[1], tr=TradeSpec(u0=1.0, k=2.0, v0=0.5, s_star=1.0), grid=PathGrid(0.25, 1),
              n_paths=300, seed=8, trajectory=True, probes=(299,)))
@example(dict(m=DEMO, tr=TRADE2, grid=PathGrid(3.0, 7), n_paths=300, seed=9, trajectory=True, probes=(123,)))
# no stop order, so no bridge draws; at 256 steps a group is 256 rows
@example(dict(m=MARKETS[1], tr=TradeSpec(u0=1.0, k=0.5, v0=2.0), grid=PathGrid(1.0, 256), n_paths=300, seed=11,
              trajectory=True, probes=(257,)))
def test_run_batch_equals_reference(case):
    _check(**case)


class TestSeedSpec:
    """The random streams a (master seed, path index) pair addresses."""

    def test_validation(self):
        grid = PathGrid(1.0, 8)
        with pytest.raises(ParameterError):
            path_trajectory(DEMO, TRADE1, grid, -1, 0)
        with pytest.raises(ParameterError):
            path_trajectory(DEMO, TRADE1, grid, 2**64, 0)
        with pytest.raises(ParameterError):
            path_trajectory(DEMO, TRADE1, grid, 7, -1)
        with pytest.raises(ParameterError):
            run_batch(DEMO, TRADE1, grid, 10, 2**64)

    def test_streams_are_deterministic_and_distinct(self):
        u = _uniforms(987, 5, 32)
        assert np.array_equal(u, _uniforms(987, 5, 32))
        assert not np.array_equal(u, _uniforms(987, 5, 32, stream=1))
        assert not np.array_equal(u, _uniforms(987, 6, 32))
        assert not np.array_equal(u, _uniforms(988, 5, 32))
        # a block of paths is the rows of the paths drawn one at a time
        block = _draw_uniforms(_stream(_stream_keys(987)[0], 3, 32), 4, 32)
        assert np.array_equal(block[2], u)

    @pytest.mark.parametrize("n_steps", [7, 32])
    def test_successive_draws_continue_the_stream(self, n_steps):
        # a chunk draws its row blocks one after another from one stream, and
        # each block starts where a fresh stream at its first path would
        key = _stream_keys(987)[1]
        stream = _stream(key, 3, n_steps)
        first, second = _draw_uniforms(stream, 2, n_steps), _draw_uniforms(stream, 3, n_steps)
        assert np.array_equal(second[0], _uniforms(987, 5, n_steps, stream=1))
        whole = _draw_uniforms(_stream(key, 3, n_steps), 5, n_steps)
        assert np.array_equal(np.vstack([first, second]), whole)

    def test_prefix_stability_of_first_path(self):
        # path 0 owns counters from zero for any step count, so its draws nest;
        # later paths shift with the block size, which depends on n_steps
        assert np.array_equal(_uniforms(11, 0, 16), _uniforms(11, 0, 64)[:16])


class TestSamplePath:
    def test_deterministic(self):
        grid = PathGrid(1.0, 64)
        a = path_trajectory(DEMO, TRADE2, grid, 42, 0)
        b = path_trajectory(DEMO, TRADE2, grid, 42, 0)
        assert np.array_equal(a.prices, b.prices)
        assert np.array_equal(a.g, b.g)

    def test_starts_at_s0(self):
        grid = PathGrid(1.0, 16)
        p = path_trajectory(DEMO, FREE1, grid, 1, 0)
        assert p.prices[0] == 1.0
        assert len(p.prices) == 17
        assert np.array_equal(p.times, grid.times)
        assert (p.prices > 0).all()
        assert (p.g[0], p.u[0], p.v[0]) == (0.0, FREE1.u0, FREE1.v0)

    def test_matches_chunk_rows_bitwise(self):
        # the batched kernel reproduces per-path generation exactly,
        # including a step count that is not a multiple of four
        for n_steps in (7, 64):
            _check(DEMO, FREE1, PathGrid(1.0, n_steps), 20, 2024, bridge=False, probes=(0, 3, 17))

    def test_terminal_moments(self):
        # lognormal mean e^(mu t) and log-variance sigma^2 t, 3 sigma gates
        n = 100_000
        batch = run_batch(DEMO, FREE1, PathGrid(1.0, 64), n, 555)
        s_t = 1.0 + batch.terminal_gain  # k=1, no stop: g = S(t)/s0 - 1
        mean, se = s_t.mean(), s_t.std(ddof=1) / math.sqrt(n)
        assert abs(mean - math.exp(0.5)) <= 3 * se
        logs = np.log(s_t)
        var = logs.var(ddof=1)
        se_var = math.sqrt(2.0 / (n - 1)) * var
        assert abs(var - 1.0) <= 3 * se_var


LOG_BAR = math.log(0.5)


def _touch(prices, uniforms=None, dt=0.5):
    """First-touch index of one hand-built path of prices after the start, barrier 0.5."""
    log_rel = np.log(np.array([prices]))
    u = None if uniforms is None else np.array([uniforms], dtype=float)
    return int(_first_touch(log_rel, LOG_BAR, DEMO.sigma, dt, u)[0])


class TestDetectStop:
    def test_first_grid_touch(self):
        assert _touch([0.6, 0.4]) == 2
        assert _touch([0.4, 0.3, 0.45]) == 1  # the first of several touches

    def test_touch_counts_as_stop(self):
        assert _touch([0.5]) == 1
        assert _touch([0.7, 0.5, 0.9]) == 2

    def test_never_below_without_bridge(self):
        assert _touch([0.9, 1.1]) == 3  # n + 1

    def test_barrier_must_sit_below_start(self):
        with pytest.raises(ParameterError):
            path_trajectory(DEMO, TradeSpec(u0=1.0, k=1.0, v0=1.0, s_star=1.0), PathGrid(1.0, 2), 0, 0)

    def test_bridge_only_adds_earlier_stops(self):
        # hand-built: a draw under the crossing probability of a step that
        # starts and ends above the barrier stops the path at its right end
        assert _touch([0.55, 0.6, 0.4], [1.0, 0.0, 1.0]) == 2
        assert _touch([0.55, 0.6, 0.4], [0.0, 1.0, 1.0]) == 1
        assert _touch([0.55, 0.6, 0.4], [1.0, 1.0, 1.0]) == 3  # draws of 1 never cross
        assert _touch([0.55, 0.6, 0.4], [1.0, 1.0, 0.0]) == 3  # step 3 is a grid touch
        assert _touch([0.9, 1.1], [0.0, 0.0]) == 1

    def test_bridge_hit_lands_on_right_endpoint(self):
        grid = PathGrid(1.0, 32)
        plain = reference.batch(DEMO, TRADE1, grid, 200, 2718, bridge=False)
        bridged = reference.batch(DEMO, TRADE1, grid, 200, 2718).stop
        batch = run_batch(DEMO, TRADE1, grid, 200, 2718)
        hits = 0
        for i in range(200):
            if bridged[i] <= 32 and bridged[i] != plain.stop[i]:
                hits += 1
                assert batch.stop_time[i] == grid.times[bridged[i]]
                assert plain.log_rel[i, bridged[i] - 1] > LOG_BAR  # grid never saw the touch
        assert hits > 0  # the correction must actually fire sometimes


def _kernel_inputs(n_steps, n_paths, seed=4711):
    """Driftless log prices of unit volatility, bridge draws and dt of a random block, barrier 0.5."""
    rng = np.random.default_rng(seed)
    dt = 1.0 / n_steps
    log_rel = np.cumsum(rng.standard_normal((n_paths, n_steps)) * math.sqrt(dt), axis=1)
    return log_rel, rng.random((n_paths, n_steps)), dt


def _dense(log_rel, u, dt, sigma=DEMO.sigma):
    """The reference's first touch of each row, barrier 0.5: the oracle of the hand-built cases."""
    return reference.first_touch(log_rel, LOG_BAR, sigma, dt, u)


class TestFirstTouchKernel:
    """The candidate-only bridge search gives the reference's dense search's stops."""

    @pytest.mark.parametrize("n_steps", [1, 16, 1024])
    def test_matches_dense_reference(self, n_steps):
        # one call takes a block of any height: here that of two row blocks
        # of the chunk kernel and three rows more
        n_paths = 2 * max(1, _BLOCK_CELLS // n_steps) + 3
        log_rel, u, dt = _kernel_inputs(n_steps, n_paths)
        got = _first_touch(log_rel, LOG_BAR, DEMO.sigma, dt, u)
        assert np.array_equal(got, _dense(log_rel, u, dt))
        grid_only = _dense(log_rel, None, dt)
        assert (got < grid_only).any()  # the bridge fires
        assert np.array_equal(_first_touch(log_rel, LOG_BAR, DEMO.sigma, dt, None), grid_only)

    @pytest.mark.parametrize("k", [1.0, 2.0, 0.5])
    @pytest.mark.parametrize("n_steps", [1, 16, 1024])
    def test_batch_matches_dense_reference(self, k, n_steps):
        # neither path count is a multiple of the kernel's block rows, so the
        # last row block of the chunk is a partial one
        n_paths = 300 if n_steps == 1024 else 3000
        assert n_paths % max(1, _BLOCK_CELLS // n_steps)
        trade = TradeSpec(u0=1.0, k=k, v0=1.0 / k, s_star=0.5)
        batch, _ = _check(DEMO, trade, PathGrid(1.0, n_steps), n_paths, 808, trajectory=True)
        assert batch.stopped.any()

    def test_one_row(self):
        log_rel, u, dt = _kernel_inputs(1024, 64)
        want = _dense(log_rel, u, dt)
        for i in range(64):
            row = slice(i, i + 1)
            assert _first_touch(log_rel[row], LOG_BAR, DEMO.sigma, dt, u[row])[0] == want[i]

    def test_zero_draws_are_candidates(self):
        # a draw of exactly 0 crosses wherever exp of the exponent is positive,
        # however far below the cut the exponent lies
        log_rel, u, dt = _kernel_inputs(1024, 150)
        grid_only = _dense(log_rel, None, dt)
        rng = np.random.default_rng(5)
        rows = rng.choice(150, 50, replace=False)
        u[rows, rng.integers(0, 1024, 50)] = 0.0
        got = _first_touch(log_rel, LOG_BAR, DEMO.sigma, dt, u)
        assert np.array_equal(got, _dense(log_rel, u, dt))
        moved = got[rows] < grid_only[rows]
        assert moved.sum() >= 10

    DT = 1.0 / 64

    def _exponent(self, end):
        """Bridge exponent of a step from 0.6 to ``end``, in the kernel's operation order."""
        lhs, rhs = np.log(0.6) - LOG_BAR, np.log(end) - LOG_BAR
        return -2.0 * lhs * rhs / (DEMO.sigma**2 * self.DT)

    def _ends_around(self, target):
        """Adjacent end prices whose exponents lie above and at or below ``target``."""
        lo, hi = 0.6, 100.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if self._exponent(mid) > target:
                lo = mid
            else:
                hi = mid
        assert self._exponent(hi) <= target < self._exponent(lo)
        return lo, hi

    def _stop(self, end, draw):
        """Stop index of the path 0.6, ``end``, 0.4 with ``draw`` on step 2 and no other crossing."""
        log_rel = np.log(np.array([[0.6, end, 0.4]]))
        u = np.array([[1.0 - 2.0**-53, draw, 1.0 - 2.0**-53]])
        want = _dense(log_rel, u, self.DT)[0]
        assert _first_touch(log_rel, LOG_BAR, DEMO.sigma, self.DT, u)[0] == want
        return want

    @pytest.mark.parametrize("side", ["below", "above"])
    def test_exponent_either_side_of_the_cut(self, side):
        # step 2 ends where its exponent sits a few ulps below or above the
        # cut; only a draw of 0 crosses there, never the smallest positive
        # draw 2**-53
        above, end = self._ends_around(_BRIDGE_CUT)
        if side == "below":
            while self._exponent(end) >= _BRIDGE_CUT:
                end = np.nextafter(end, np.inf)
        else:
            end = above
        e = self._exponent(end)
        assert (e > _BRIDGE_CUT) == (side == "above")
        assert abs(e - _BRIDGE_CUT) < 1e-12
        assert [self._stop(end, draw) for draw in (0.0, 2.0**-53, 0.5)] == [2, 3, 3]

    def test_smallest_draw_crosses_above_its_log(self):
        # exp(-36) > 2**-53 > exp(-37): the cut must lie below ln(2**-53) = -36.7
        assert self._stop(self._ends_around(-36.0)[0], 2.0**-53) == 2
        assert self._stop(self._ends_around(-37.0)[0], 2.0**-53) == 3

    def test_variance_underflow_leaves_grid_touches(self):
        # sigma**2 dt is 0: no crossing, even on a draw of 0, and no division by 0
        log_rel = np.log(np.array([[0.6, 0.7, 0.4], [0.9, 0.8, 0.7]]))
        u = np.zeros_like(log_rel)
        got = _first_touch(log_rel, LOG_BAR, 1e-161, 1.0 / 1024, u)
        assert got.tolist() == _dense(log_rel, u, 1.0 / 1024, sigma=1e-161).tolist() == [3, 4]


class TestGainTrajectory:
    def test_unstopped_matches_closed_form(self):
        grid = PathGrid(1.0, 16)
        tr = TradeSpec(u0=1.0, k=2.0, v0=0.5, s_star=1e-6)
        p = path_trajectory(DEMO, tr, grid, 9, 4, bridge=False)
        assert p.stop_index is None
        for i in range(len(p.times)):
            expected = gain(tr, DEMO, np.log(p.prices[i] / DEMO.s0), p.times[i])
            assert p.g[i] == pytest.approx(expected, rel=1e-12)
            assert p.u[i] == pytest.approx(1.0 + 2.0 * expected, rel=1e-12)
            assert p.v[i] == pytest.approx(0.5 + expected, rel=1e-12)

    def _stopped_path(self, trade):
        grid = PathGrid(1.0, 64)
        for i in range(200):
            p = path_trajectory(DEMO, trade, grid, 77, i, bridge=False)
            if p.stop_index is not None and 0 < p.stop_index < 64:
                return p
        pytest.fail("no stopped path found")

    def test_buy_and_hold_freezes_at_g_star(self):
        p = self._stopped_path(TRADE1)
        assert (p.g[p.stop_index :] == g_star_t(TRADE1, DEMO, 0.0)).all()
        assert (p.u[p.stop_index :] == 0.0).all()
        assert p.u[p.stop_index - 1] > 0.0

    def test_bold_freezes_at_stop_time_level(self):
        p = self._stopped_path(TRADE2)
        frozen = g_star_t(TRADE2, DEMO, p.times[p.stop_index])
        assert (p.g[p.stop_index :] == frozen).all()  # constant after the stop
        assert (p.u[p.stop_index :] == 0.0).all()
        assert np.array_equal(p.v, TRADE2.v0 + p.g)
        assert (p.u[: p.stop_index] > 0.0).all()


class TestRunBatch:
    def test_repeatable(self):
        grid = PathGrid(1.0, 64)
        a = run_batch(DEMO, TRADE1, grid, 500, 4242)
        b = run_batch(DEMO, TRADE1, grid, 500, 4242)
        assert np.array_equal(a.terminal_gain, b.terminal_gain)
        assert np.array_equal(a.stop_time, b.stop_time, equal_nan=True)

    def test_worker_count_is_invisible(self):
        grid = PathGrid(1.0, 32)
        a = run_batch(DEMO, TRADE1, grid, 2000, 7, n_workers=1)
        b = run_batch(DEMO, TRADE1, grid, 2000, 7, n_workers=2)
        assert np.array_equal(a.terminal_gain, b.terminal_gain)
        assert np.array_equal(a.stop_time, b.stop_time, equal_nan=True)

    def test_chunking_is_invisible(self):
        grid = PathGrid(1.0, 256)
        a = run_batch(DEMO, TRADE1, grid, 3000, 99, memory_budget_mb=2)
        b = run_batch(DEMO, TRADE1, grid, 3000, 99, memory_budget_mb=512)
        assert np.array_equal(a.terminal_gain, b.terminal_gain)
        assert np.array_equal(a.stop_time, b.stop_time, equal_nan=True)

    def test_single_path_composes_the_pieces(self):
        # path_trajectory is one row of the batch kernel: terminal gain, stop
        # time and stop index agree exactly, in every chunk of the batch
        # (1 MiB holds 85 paths of 256 steps, so 200 paths take three chunks)
        grid = PathGrid(1.0, 256)
        n = 200
        for k in (1.0, 2.0, 0.5):
            trade = TradeSpec(u0=1.0, k=k, v0=1.0 / k, s_star=0.5)
            for bridge in (True, False):
                batch = run_batch(DEMO, trade, grid, n, 6060, bridge=bridge, memory_budget_mb=1)
                assert batch.stopped.any() and not batch.stopped.all()
                for i in range(n):
                    p = path_trajectory(DEMO, trade, grid, 6060, i, bridge=bridge)
                    assert p.g[-1] == batch.terminal_gain[i]
                    if p.stop_index is None:
                        assert math.isnan(batch.stop_time[i])
                    else:
                        assert p.times[p.stop_index] == batch.stop_time[i]
                        assert grid.times[p.stop_index] == batch.stop_time[i]

    def test_stopped_k1_terminals_sit_on_the_atom(self):
        batch = run_batch(DEMO, TRADE1, PathGrid(1.0, 128), 4000, 31415)
        stopped = batch.stopped
        assert stopped.any() and not stopped.all()
        assert np.allclose(batch.terminal_gain[stopped], -0.5, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("s_star", [0.42, 0.5, 0.75])
    def test_stopped_k1_terminals_equal_g_star_bitwise(self, s_star):
        # the simulator freezes a stopped path at the law's atom exactly, so
        # the whole stopped mass sits on the comparison grid's floor point
        trade = TradeSpec(u0=1.0, k=1.0, v0=1.0, s_star=s_star)
        batch = run_batch(DEMO, trade, PathGrid(1.0, 128), 2000, 31415)
        assert batch.stopped.any()
        assert (batch.terminal_gain[batch.stopped] == g_star_t(trade, DEMO, 0.0)).all()

    def test_stop_probability_matches_law(self):
        n = 20_000
        batch = run_batch(DEMO, TRADE1, PathGrid(1.0, 512), n, 2025)
        p_theory = stopping_time_cdf(1.0, ShorthandContext(DEMO, TRADE1))
        se = math.sqrt(p_theory * (1.0 - p_theory) / n)
        assert abs(batch.p_stopped - p_theory) <= 4 * se + 1e-3

    def test_grid_only_detection_undercounts(self):
        # discrete monitoring misses intra-step touches; the bridge restores
        # them, so with-bridge stop frequency must exceed without-bridge
        n = 200_000
        grid = PathGrid(1.0, 128)
        on = run_batch(DEMO, TRADE1, grid, n, 77, bridge=True)
        off = run_batch(DEMO, TRADE1, grid, n, 77, bridge=False)
        se = math.sqrt(0.25 / n)
        assert on.p_stopped - off.p_stopped > 3 * se
        # and toggling the bridge never perturbs the prices themselves
        live_both = ~on.stopped & ~off.stopped
        assert np.array_equal(on.terminal_gain[live_both], off.terminal_gain[live_both])

    def test_no_stop_batch(self):
        batch = run_batch(DEMO, FREE1, PathGrid(1.0, 32), 200, 5)
        assert np.isnan(batch.stop_time).all()
        assert batch.p_stopped == 0.0

    def test_validation(self):
        grid = PathGrid(1.0, 8)
        with pytest.raises(ParameterError):
            run_batch(DEMO, TRADE1, grid, 0, 1)
        with pytest.raises(ParameterError):
            run_batch(DEMO, TRADE1, grid, 10, -1)
        with pytest.raises(ParameterError):
            run_batch(DEMO, TRADE1, grid, 10, 1, n_workers=0)
        bad = TradeSpec(u0=1.0, k=1.0, v0=1.0, s_star=2.0)
        with pytest.raises(ParameterError):
            run_batch(DEMO, bad, grid, 10, 1)

    @pytest.mark.parametrize("bad", [
        {"n_workers": math.inf}, {"n_workers": "2"}, {"n_workers": 2.5},
        {"memory_budget_mb": math.inf}, {"memory_budget_mb": math.nan}, {"memory_budget_mb": 0.5},
    ])
    def test_worker_count_and_budget_are_integers(self, bad):
        # a count that is not an integer >= 1 must not reach int(), the pool
        # or the chunk size; numpy integers are counts too
        grid = PathGrid(1.0, 4)
        with pytest.raises(ParameterError):
            run_batch(DEMO, TRADE1, grid, 10, 1, **bad)
        ints = {name: np.int64(1) for name in bad}
        assert run_batch(DEMO, TRADE1, grid, 10, 1, **ints).stop_time.size == 10

    def test_memory_budget(self):
        huge = PathGrid(1.0, 50_000)
        with pytest.raises(ResourceError):
            run_batch(DEMO, TRADE1, huge, 10, 1, memory_budget_mb=1)

    def test_sink_rows(self):
        # the rows of the batch the reference and run_batch agree on
        _, want = _check(DEMO, TRADE1, PathGrid(1.0, 64), 50, 8)
        _check(DEMO, TRADE1, PathGrid(1.0, 64), 50, 8, sink=True, want=want)

    def test_sink_keeps_no_extras(self):
        with pytest.raises(ParameterError):
            run_batch(DEMO, TRADE1, PathGrid(1.0, 4), 10, 8, sink=io.StringIO(), trajectory=True)

    @staticmethod
    def _traced_peak(n_paths, n_steps=1024, **kwargs):
        tracemalloc.start()
        try:
            run_batch(DEMO, TRADE2, PathGrid(1.0, n_steps), n_paths, 3, **kwargs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("trajectory", [False, True])
    def test_peak_memory_stays_inside_budget(self, trajectory):
        # 32 MiB over 6 padded float64 rows of 1024 steps is 682 paths a
        # chunk, so 1500 paths take three chunks
        budget_mb = 32
        assert self._traced_peak(1500, memory_budget_mb=budget_mb, trajectory=trajectory) <= budget_mb * 2**20

    def test_peak_memory_is_one_row_block(self):
        # one chunk of 6000 paths peaks near 1.8 MiB: its outcomes, one row
        # block's temporaries and two 512 KiB buffers of price increments, the
        # group searched and the one the helper draws; chunk-wide matrices
        # took 141 MiB
        assert self._traced_peak(6000, trajectory=True) < 16 * 2**20

    def test_peak_memory_of_a_sink_is_per_chunk(self):
        # 200000 paths streamed in 16384-path chunks peak near 1.5 MiB; a
        # terminal gain and stop time kept for every path would be 3.2 MB alone
        sink = _CountingSink()
        assert self._traced_peak(200_000, n_steps=4, sink=sink) < 2 * 2**20
        assert sink.rows == 200_000

    def test_peak_memory_of_a_slow_sink_holds_with_workers(self):
        # two workers draw 5461-path chunks far faster than this sink takes
        # them, yet at most four chunks wait, so doubling the paths leaves the
        # peak where it was; results queued for the sink grew it by 2 MiB
        peaks = [
            self._traced_peak(n, n_steps=4, sink=_CountingSink(delay=0.01), n_workers=2, memory_budget_mb=1)
            for n in (60_000, 120_000)
        ]
        assert peaks[1] - peaks[0] < 2**19

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_failing_sink_cancels_the_queued_chunks(self, monkeypatch, n_workers):
        # a sink that fails at its first write (a reader that left) cancels the
        # chunks not yet started; a batch that succeeds waits for all of them.
        # A sink batch of many chunks runs in a pool for one worker too.
        shutdowns = []

        class Recording(simulate.ProcessPoolExecutor):
            def shutdown(self, wait=True, *, cancel_futures=False):
                shutdowns.append((wait, cancel_futures))
                super().shutdown(wait, cancel_futures=cancel_futures)

        class Closed:
            def write(self, text):
                raise BrokenPipeError

        monkeypatch.setattr(simulate, "ProcessPoolExecutor", Recording)
        args = (DEMO, TRADE1, PathGrid(1.0, 1024), 200, 7)  # 10 chunks of 21 paths in 1 MiB
        with pytest.raises(BrokenPipeError):
            run_batch(*args, n_workers=n_workers, memory_budget_mb=1, sink=Closed())
        assert shutdowns == [(True, True)]
        assert multiprocessing.active_children() == []  # no worker outlives the batch
        run_batch(*args, n_workers=n_workers, memory_budget_mb=1, sink=_CountingSink())
        assert shutdowns == [(True, True), (True, False)]
        assert multiprocessing.active_children() == []

    def test_stop_event_ends_a_chunk_at_the_next_row_block(self, monkeypatch):
        # a worker's chunk returns the paths drawn before its stop event was
        # set, and draws nothing once it is set; run in this process, with
        # the kind of event the pool hands its workers
        want = run_batch(DEMO, TRADE2, PathGrid(1.0, 1024), 32, 3)
        event = multiprocessing.Event()
        calls = []
        real_block_paths = simulate._block_paths

        def block_paths(*args):
            calls.append(args)
            if len(calls) == 2:
                event.set()
            return real_block_paths(*args)

        monkeypatch.setattr(simulate, "_block_paths", block_paths)
        monkeypatch.setattr(simulate, "_stop", event)
        job = (DEMO, TRADE2, PathGrid(1.0, 1024), 3, 0, 100, True, False)  # 16-row blocks
        terminal, stop_time, free, _ = simulate._simulate_chunk(*job)
        assert len(calls) == 2
        assert np.array_equal(terminal, want.terminal_gain)
        assert np.array_equal(stop_time, want.stop_time, equal_nan=True)
        assert np.array_equal(free, want.free_gain)
        assert [len(a) for a in simulate._simulate_chunk(*job)[:3]] == [0, 0, 0]
        assert len(calls) == 2  # returned before its first row block


class _Failure(Exception):
    pass


class TestDrawAhead:
    """The helper thread that draws an in-process chunk's next price increments."""

    ARGS = (DEMO, TRADE2, PathGrid(1.0, 1024), 200, 3)  # four groups of 64 rows in one chunk

    def test_draws_in_the_callers_float_environment(self, monkeypatch):
        # numpy's error state is a context variable, which a new thread does
        # not inherit; the helper draws in the caller's
        draws, searches = [], []
        real_draw, real_search = simulate._price_increments, simulate._block_paths

        def draw(*args):
            draws.append((threading.get_ident(), np.geterr()))
            return real_draw(*args)

        def search(*args):
            searches.append(np.geterr())
            return real_search(*args)

        monkeypatch.setattr(simulate, "_price_increments", draw)
        monkeypatch.setattr(simulate, "_block_paths", search)
        with np.errstate(divide="ignore", invalid="ignore"):
            run_batch(*self.ARGS)
        want = dict(divide="ignore", over="ignore", under="ignore", invalid="ignore")
        assert len(draws) == 4 and len(searches) == 13
        assert all(state == want for _, state in draws) and all(state == want for state in searches)
        assert threading.get_ident() not in {thread for thread, _ in draws}

    @pytest.mark.parametrize("stage", ["_price_increments", "_first_touch"])
    def test_a_failing_stage_joins_the_helper(self, monkeypatch, stage):
        # the draw failing on the helper at its second group, or the search
        # failing here at its second row block, ends the batch with that
        # error, and no thread outlives it
        real, calls, error = getattr(simulate, stage), [], _Failure(stage)

        def failing(*args):
            calls.append(args)
            if len(calls) == 2:
                raise error
            return real(*args)

        monkeypatch.setattr(simulate, stage, failing)
        before = threading.active_count()
        with pytest.raises(_Failure) as raised:
            run_batch(*self.ARGS)
        assert raised.value is error
        assert threading.active_count() == before

    def test_a_batch_leaves_no_thread(self):
        # with the two threads made to trade the interpreter every microsecond,
        # the helper's buffers are still handed over intact
        before, interval = threading.active_count(), sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _check(*self.ARGS, trajectory=True)
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == before


class _CountingSink:
    """A text sink that counts the rows written to it and keeps none; each write can be slow."""

    def __init__(self, delay=0.0):
        self.rows = 0
        self.delay = delay

    def write(self, text):
        self.rows += text.count("\n")
        time.sleep(self.delay)


class TestTrajectoryStats:
    GRID = PathGrid(1.0, 256)
    N_PATHS = 3000

    @pytest.mark.parametrize("trade", [
        TradeSpec(u0=1.0, k=2.0, v0=0.5, s_star=0.5),
        TradeSpec(u0=1.0, k=0.5, v0=2.0, s_star=0.5),
        TradeSpec(u0=1.0, k=2.0, v0=0.5),
    ], ids=["k2", "k0.5", "no-stop"])
    def test_matches_full_matrix_reference(self, trade):
        # 2 MiB makes 170-path chunks; 512 MiB one chunk of many row blocks
        want = None
        for n_workers in (1, 2):
            for budget_mb in (2, 512):
                _, want = _check(DEMO, trade, self.GRID, self.N_PATHS, 99, want=want, trajectory=True,
                                 n_workers=n_workers, memory_budget_mb=budget_mb)

    def test_absent_unless_asked_for(self):
        batch = run_batch(DEMO, TRADE2, self.GRID, 10, 1)
        assert batch.trajectory is None
        assert batch.free_gain.shape == (10,)  # kept on every in-memory batch

    @pytest.mark.parametrize("k", [2.0, 0.5])
    def test_free_gain_is_the_no_stop_batch(self, k):
        trade = TradeSpec(u0=1.0, k=k, v0=1.0 / k, s_star=0.5)
        free = run_batch(DEMO, dataclasses.replace(trade, s_star=None), self.GRID, self.N_PATHS, 5)
        for budget_mb in (2, 512):
            batch = run_batch(DEMO, trade, self.GRID, self.N_PATHS, 5, memory_budget_mb=budget_mb)
            assert batch.stopped.any()
            assert np.array_equal(batch.free_gain, free.terminal_gain)


SPECIAL = [-0.0, 5e-324, -5e-324, 1e22, -1e22, math.inf, -math.inf, math.nan, 0.1, 1 / 3,
           2.0**-1074 * 3, 1.7976931348623157e308]


class TestCsvWriter:
    @pytest.mark.parametrize("n", [1, 2 * _CSV_BLOCK_ROWS, 2 * _CSV_BLOCK_ROWS + 1])
    @pytest.mark.parametrize("n_cols", [1, 2, 5])
    def test_matches_savetxt_and_per_field_format(self, n, n_cols):
        rng = np.random.default_rng(n * 10 + n_cols)
        data = rng.standard_normal((n, n_cols)) * 10.0 ** rng.integers(-300, 300, (n, n_cols))
        data.flat[: len(SPECIAL)] = SPECIAL[: data.size]
        sink, ref = io.StringIO(), io.StringIO()
        write_csv(sink, [data[:, c] for c in range(n_cols)])
        np.savetxt(ref, data, fmt="%.17g", delimiter=",")
        # compared as lists of lines: a failure then names the first bad row
        # instead of diffing a few hundred KiB of text
        lines = sink.getvalue().splitlines(keepends=True)
        assert lines == ref.getvalue().splitlines(keepends=True)
        assert lines == [",".join(f"{v:.17g}" for v in row) + "\n" for row in data]

    @pytest.mark.parametrize("n", [1, 2 * _CSV_BLOCK_ROWS, 2 * _CSV_BLOCK_ROWS + 1])
    @pytest.mark.parametrize("first_path", [0, 2**31 + 7, 2**40 - 3])
    def test_batch_rows_match_per_row_reference(self, n, first_path):
        rng = np.random.default_rng(n)
        terminal = rng.standard_normal(n)
        terminal[: len(SPECIAL)] = SPECIAL[:n]
        # grid-like stop times with NaN for paths that never stopped; no +0.0
        # beside the -0.0 of SPECIAL, since a stop time is never 0
        stop_time = np.where(rng.random(n) < 0.5, rng.integers(1, 65, n) / 64, np.nan)
        stop_time[-len(SPECIAL) :] = SPECIAL[-n:]
        sink = io.StringIO()
        _write_rows(sink, first_path, terminal, stop_time)
        want = [reference.row(first_path + j, t, g) for j, (t, g) in enumerate(zip(stop_time, terminal))]
        assert sink.getvalue().splitlines(keepends=True) == want
