"""Sampler determinism, stop detection and batch generation."""

import dataclasses
import io
import math
import tracemalloc

import numpy as np
import pytest

from stopgain import simulate
from stopgain.cdf import ShorthandContext, stopping_time_cdf
from stopgain.errors import ParameterError, ResourceError
from stopgain.model import MarketParams, TradeSpec, g_star, g_star_t, gain_no_stop
from stopgain.simulate import (
    _BLOCK_CELLS,
    _BRIDGE_CUT,
    _CSV_BLOCK_ROWS,
    PathGrid,
    TrajectoryStats,
    _block_uniforms,
    _chunk_paths,
    _first_touch,
    _normals_from_uniforms,
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
        assert PathGrid.default(1.0).n_steps == 1024
        assert PathGrid.default(0.25).n_steps == 256
        assert PathGrid.default(2.5).n_steps == 2560
        assert PathGrid.default(1e-4).n_steps == 1  # never below one step

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
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ParameterError):
            PathGrid(**kwargs)


def _uniforms(master_seed, path_index, n_steps, stream=0):
    """One path's uniforms from the price (0) or bridge (1) stream."""
    return _block_uniforms(_stream_keys(master_seed)[stream], path_index, 1, n_steps)[0]


def _prices_reference(m, grid, master_seed, path_index):
    """One path's prices, generated per path the way the removed one-path sampler did.

    The path's own row of uniforms, then ``concatenate`` + ``cumsum`` +
    ``exp`` over the log increments; the reference for :func:`_chunk_paths`.
    """
    z = _normals_from_uniforms(_uniforms(master_seed, path_index, grid.n_steps))
    increments = m.drift_rate * grid.dt + m.sigma * math.sqrt(grid.dt) * z
    log_rel = np.concatenate([[0.0], np.cumsum(increments)])
    return m.s0 * np.exp(log_rel)


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
        block = _block_uniforms(_stream_keys(987)[0], 3, 4, 32)
        assert np.array_equal(block[2], u)

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
            grid = PathGrid(1.0, n_steps)
            log_rel, _ = _chunk_paths(DEMO, FREE1, grid, 2024, 0, 20, False)
            for i in (0, 3, 17):
                solo = _prices_reference(DEMO, grid, 2024, i)
                assert np.array_equal(solo[1:], DEMO.s0 * np.exp(log_rel[i]))
                assert np.array_equal(path_trajectory(DEMO, FREE1, grid, 2024, i).prices, solo)

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
        # simulated: toggling the bridge keeps the prices and never delays a stop
        grid = PathGrid(1.0, 32)
        plain_rel, plain = _chunk_paths(DEMO, TRADE1, grid, 31337, 0, 40, False)
        bridged_rel, bridged = _chunk_paths(DEMO, TRADE1, grid, 31337, 0, 40, True)
        assert np.array_equal(bridged_rel, plain_rel)
        assert (bridged <= plain).all()

    def test_bridge_hit_lands_on_right_endpoint(self):
        grid = PathGrid(1.0, 32)
        log_rel, plain = _chunk_paths(DEMO, TRADE1, grid, 2718, 0, 200, False)
        _, bridged = _chunk_paths(DEMO, TRADE1, grid, 2718, 0, 200, True)
        batch = run_batch(DEMO, TRADE1, grid, 200, 2718)
        hits = 0
        for i in range(200):
            if bridged[i] <= 32 and bridged[i] != plain[i]:
                hits += 1
                assert batch.stop_time[i] == grid.times[bridged[i]]
                assert log_rel[i, bridged[i] - 1] > LOG_BAR  # grid never saw the touch
        assert hits > 0  # the correction must actually fire sometimes


def _first_touch_reference(log_rel, log_bar, sigma, dt, uniforms):
    """The dense first-touch search the row-block kernel replaced.

    Every cell's crossing probability is formed over the whole chunk, with
    ``exp`` on every cell; the reference for :func:`_first_touch`.
    """
    b, n = log_rel.shape
    below = log_rel <= log_bar
    hit = below.any(axis=1)
    first_below = np.where(hit, below.argmax(axis=1) + 1, n + 1)
    if uniforms is None:
        return first_below
    lhs = np.empty_like(log_rel)
    lhs[:, 0] = -log_bar
    lhs[:, 1:] = log_rel[:, :-1] - log_bar
    rhs = log_rel - log_bar
    with np.errstate(over="ignore"):
        p_cross = -2.0 * lhs
        p_cross *= rhs
        p_cross /= sigma**2 * dt
        np.exp(p_cross, out=p_cross)
    bridge_hit = (lhs > 0) & (rhs > 0) & (uniforms < p_cross)
    any_bridge = bridge_hit.any(axis=1)
    first_bridge = np.where(any_bridge, bridge_hit.argmax(axis=1) + 1, n + 2)
    return np.minimum(first_below, first_bridge)


def _kernel_inputs(n_steps, n_paths, seed=4711):
    """Log prices, bridge draws and dt of a demo chunk, barrier 0.5."""
    grid = PathGrid(1.0, n_steps)
    log_rel, _ = _chunk_paths(DEMO, TRADE1, grid, seed, 0, n_paths, False)
    return log_rel, _block_uniforms(_stream_keys(seed)[1], 0, n_paths, n_steps), grid.dt


class TestFirstTouchKernel:
    """The candidate-only bridge search gives the dense search's stops bit for bit."""

    @pytest.mark.parametrize("n_steps", [1, 16, 1024])
    def test_matches_dense_reference(self, n_steps):
        # one call takes a block of any height: here that of two row blocks
        # of the chunk kernel and three rows more
        n_paths = 2 * max(1, _BLOCK_CELLS // n_steps) + 3
        log_rel, u, dt = _kernel_inputs(n_steps, n_paths)
        got = _first_touch(log_rel, LOG_BAR, DEMO.sigma, dt, u)
        want = _first_touch_reference(log_rel, LOG_BAR, DEMO.sigma, dt, u)
        assert np.array_equal(got, want)
        grid_only = _first_touch_reference(log_rel, LOG_BAR, DEMO.sigma, dt, None)
        assert (got < grid_only).any()  # the bridge fires
        assert np.array_equal(_first_touch(log_rel, LOG_BAR, DEMO.sigma, dt, None), grid_only)

    @pytest.mark.parametrize("k", [1.0, 2.0, 0.5])
    @pytest.mark.parametrize("n_steps", [1, 16, 1024])
    def test_batch_matches_dense_reference(self, monkeypatch, k, n_steps):
        # neither path count is a multiple of the kernel's block rows, so the
        # last row block of the chunk is a partial one
        trade = TradeSpec(u0=1.0, k=k, v0=1.0 / k, s_star=0.5)
        grid = PathGrid(1.0, n_steps)
        n_paths = 300 if n_steps == 1024 else 3000
        assert n_paths % max(1, _BLOCK_CELLS // n_steps)
        batch = run_batch(DEMO, trade, grid, n_paths, 808, trajectory=True)
        monkeypatch.setattr(simulate, "_first_touch", _first_touch_reference)
        ref = run_batch(DEMO, trade, grid, n_paths, 808, trajectory=True)
        assert batch.stopped.any()
        assert np.array_equal(batch.stop_time, ref.stop_time, equal_nan=True)
        assert np.array_equal(batch.terminal_gain, ref.terminal_gain)
        assert batch.trajectory == ref.trajectory
        # and the row blocks give the stops of one chunk-wide draw and search
        _, stop_idx = _chunk_paths(DEMO, trade, grid, 808, 0, n_paths, True)
        wide = np.where(stop_idx <= n_steps, grid.times[np.minimum(stop_idx, n_steps)], np.nan)
        assert np.array_equal(batch.stop_time, wide, equal_nan=True)

    def test_one_row(self):
        log_rel, u, dt = _kernel_inputs(1024, 64)
        batch = _first_touch(log_rel, LOG_BAR, DEMO.sigma, dt, u)
        for i in range(64):
            row = slice(i, i + 1)
            assert _first_touch(log_rel[row], LOG_BAR, DEMO.sigma, dt, u[row])[0] == batch[i]

    def test_zero_draws_are_candidates(self):
        # a draw of exactly 0 crosses wherever exp of the exponent is positive,
        # however far below the cut the exponent lies
        log_rel, u, dt = _kernel_inputs(1024, 150)
        grid_only = _first_touch_reference(log_rel, LOG_BAR, DEMO.sigma, dt, None)
        rng = np.random.default_rng(5)
        u = u.copy()
        rows = rng.choice(150, 50, replace=False)
        u[rows, rng.integers(0, 1024, 50)] = 0.0
        got = _first_touch(log_rel, LOG_BAR, DEMO.sigma, dt, u)
        assert np.array_equal(got, _first_touch_reference(log_rel, LOG_BAR, DEMO.sigma, dt, u))
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
        want = _first_touch_reference(log_rel, LOG_BAR, DEMO.sigma, self.DT, u)[0]
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
        assert got.tolist() == [3, 4]


class TestGainTrajectory:
    def test_unstopped_matches_closed_form(self):
        grid = PathGrid(1.0, 16)
        tr = TradeSpec(u0=1.0, k=2.0, v0=0.5, s_star=1e-6)
        p = path_trajectory(DEMO, tr, grid, 9, 4, bridge=False)
        assert p.stop_index is None
        for i in range(len(p.times)):
            expected = gain_no_stop(tr, DEMO, p.prices[i], p.times[i])
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
        assert (p.g[p.stop_index :] == g_star(TRADE1, DEMO)).all()
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
        assert (batch.terminal_gain[batch.stopped] == g_star(trade, DEMO)).all()

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

    def test_memory_budget(self):
        huge = PathGrid(1.0, 50_000)
        with pytest.raises(ResourceError):
            run_batch(DEMO, TRADE1, huge, 10, 1, memory_budget_mb=1)

    def test_sink_rows(self):
        sink = io.StringIO()
        batch = run_batch(DEMO, TRADE1, PathGrid(1.0, 64), 50, 8, sink=sink)
        lines = sink.getvalue().splitlines()
        assert len(lines) == 50
        for i, line in enumerate(lines):
            idx, t_field, g_field = line.split(",")
            assert int(idx) == i
            assert float(g_field) == batch.terminal_gain[i]  # 17 digits round-trips
            if t_field == "":
                assert math.isnan(batch.stop_time[i])
            else:
                assert float(t_field) == batch.stop_time[i]

    @staticmethod
    def _traced_peak(n_paths, **kwargs):
        tracemalloc.start()
        try:
            run_batch(DEMO, TRADE2, PathGrid(1.0, 1024), n_paths, 3, **kwargs)
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
        # one chunk of 6000 paths peaks near 1 MiB: its outcomes and one row
        # block's temporaries; chunk-wide matrices took 141 MiB
        assert self._traced_peak(6000, trajectory=True) < 16 * 2**20


def _reference_trajectory(m, tr, grid, n_paths, master_seed):
    """Per-step reductions over whole 2048-path matrices of ``_chunk_paths`` rows.

    The gains, investments and account values are formed elementwise with
    ``np.where`` over full matrices, the way the property legs computed them
    before the batch kernel took them over.
    """
    n = grid.n_steps
    half = 0.5 * m.sigma**2 * (tr.k - tr.k**2)
    cap = tr.u0 + tr.k * tr.v0
    min_v = min_u_active = math.inf
    max_abs_u_stopped = 0.0
    max_bound_excess = -math.inf
    violations = {"survivability": 0, "long_only": 0, "control_bound": 0}
    terminal = np.empty(n_paths)
    for first in range(0, n_paths, 2048):
        count = min(2048, n_paths - first)
        log_rel, stop_idx = _chunk_paths(m, tr, grid, master_seed, first, count, True)
        g = (tr.u0 / tr.k) * np.expm1(tr.k * log_rel + half * grid.times[1:])
        stopped_mask = np.arange(1, n + 1) >= stop_idx[:, None]
        if tr.s_star is not None:
            stop_t = np.where(stop_idx <= n, grid.times[np.minimum(stop_idx, n)], np.nan)
            frozen = (tr.u0 / tr.k) * np.expm1(
                tr.k * math.log(tr.s_star / m.s0) + half * np.nan_to_num(stop_t)
            )
            g = np.where(stopped_mask, frozen[:, None], g)
        u = np.where(stopped_mask, 0.0, tr.u0 + tr.k * g)
        v = tr.v0 + g
        active = ~stopped_mask
        min_v = min(min_v, float(v.min()))
        if active.any():
            min_u_active = min(min_u_active, float(u[active].min()))
        if stopped_mask.any():
            max_abs_u_stopped = max(max_abs_u_stopped, float(np.abs(u[stopped_mask]).max()))
        excess = np.abs(u) - (cap + tr.k * v)
        max_bound_excess = max(max_bound_excess, float(excess.max()))
        violations["survivability"] += int((v < 0).sum())
        violations["long_only"] += int((u[active] <= 0).sum()) + int((u[stopped_mask] != 0).sum())
        violations["control_bound"] += int((excess > 0).sum())
        terminal[first : first + count] = g[:, -1]
    stats = TrajectoryStats(
        min_v, min_u_active, max_abs_u_stopped, max_bound_excess,
        violations["survivability"], violations["long_only"], violations["control_bound"],
    )
    return stats, terminal


class TestTrajectoryStats:
    GRID = PathGrid(1.0, 256)
    N_PATHS = 3000

    @pytest.mark.parametrize("trade", [
        TradeSpec(u0=1.0, k=2.0, v0=0.5, s_star=0.5),
        TradeSpec(u0=1.0, k=0.5, v0=2.0, s_star=0.5),
        TradeSpec(u0=1.0, k=2.0, v0=0.5),
    ], ids=["k2", "k0.5", "no-stop"])
    def test_matches_full_matrix_reference(self, trade):
        ref, ref_terminal = _reference_trajectory(DEMO, trade, self.GRID, self.N_PATHS, 99)
        # 2 MiB makes 170-path chunks; 512 MiB one chunk of many sub-blocks
        for n_workers in (1, 2):
            for budget_mb in (2, 512):
                batch = run_batch(DEMO, trade, self.GRID, self.N_PATHS, 99, n_workers=n_workers,
                                  memory_budget_mb=budget_mb, trajectory=True)
                assert batch.trajectory == ref, (n_workers, budget_mb)
                assert np.array_equal(batch.terminal_gain, ref_terminal)

    def test_absent_unless_asked_for(self):
        batch = run_batch(DEMO, TRADE2, self.GRID, 10, 1)
        assert batch.trajectory is None
        assert batch.free_gain is None

    @pytest.mark.parametrize("k", [2.0, 0.5])
    def test_free_gain_is_the_no_stop_batch(self, k):
        trade = TradeSpec(u0=1.0, k=k, v0=1.0 / k, s_star=0.5)
        free = run_batch(DEMO, dataclasses.replace(trade, s_star=None), self.GRID, self.N_PATHS, 5)
        for budget_mb in (2, 512):
            batch = run_batch(DEMO, trade, self.GRID, self.N_PATHS, 5,
                              memory_budget_mb=budget_mb, free_gain=True)
            assert batch.stopped.any()
            assert np.array_equal(batch.free_gain, free.terminal_gain)


def _rows_reference(first_path, terminal, stop_time):
    """The per-row f-string formatter the block writer replaced."""
    lines = []
    for j in range(len(terminal)):
        t_field = "" if np.isnan(stop_time[j]) else f"{stop_time[j]:.17g}"
        lines.append(f"{first_path + j},{t_field},{terminal[j]:.17g}\n")
    return "".join(lines)


SPECIAL = [-0.0, 5e-324, -5e-324, 1e22, -1e22, math.inf, -math.inf, math.nan, 0.1, 1 / 3,
           2.0**-1074 * 3, 1.7976931348623157e308]


class TestCsvWriter:
    @pytest.mark.parametrize("n", [1, _CSV_BLOCK_ROWS, _CSV_BLOCK_ROWS + 1])
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

    @pytest.mark.parametrize("n", [1, _CSV_BLOCK_ROWS, _CSV_BLOCK_ROWS + 1])
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
        want = _rows_reference(first_path, terminal, stop_time)
        assert sink.getvalue().splitlines(keepends=True) == want.splitlines(keepends=True)
