"""Sampler determinism, stop detection and batch generation."""

import dataclasses
import io
import math
import tracemalloc

import numpy as np
import pytest

from stopgain.cdf import ShorthandContext, stopping_time_cdf
from stopgain.errors import ParameterError, ResourceError
from stopgain.model import MarketParams, TradeSpec, g_star_t, gain_no_stop
from stopgain.simulate import (
    _CSV_BLOCK_ROWS,
    PathGrid,
    PricePath,
    SeedSpec,
    TrajectoryStats,
    _chunk_paths,
    _write_rows,
    detect_stop,
    gain_trajectory,
    run_batch,
    sample_path,
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


class TestSeedSpec:
    def test_validation(self):
        with pytest.raises(ParameterError):
            SeedSpec(-1, 0)
        with pytest.raises(ParameterError):
            SeedSpec(2**64, 0)
        with pytest.raises(ParameterError):
            SeedSpec(7, -1)

    def test_streams_are_deterministic_and_distinct(self):
        s = SeedSpec(987, 5)
        assert np.array_equal(s.price_uniforms(32), s.price_uniforms(32))
        assert not np.array_equal(s.price_uniforms(32), s.bridge_uniforms(32))
        assert not np.array_equal(s.price_uniforms(32), SeedSpec(987, 6).price_uniforms(32))
        assert not np.array_equal(s.price_uniforms(32), SeedSpec(988, 5).price_uniforms(32))

    def test_prefix_stability_of_first_path(self):
        # path 0 owns counters from zero for any step count, so its draws nest;
        # later paths shift with the block size, which depends on n_steps
        s = SeedSpec(11, 0)
        long = s.price_uniforms(64)
        assert np.array_equal(s.price_uniforms(16), long[:16])


class TestSamplePath:
    def test_deterministic(self):
        grid = PathGrid(1.0, 64)
        a = sample_path(DEMO, grid, SeedSpec(42, 0))
        b = sample_path(DEMO, grid, SeedSpec(42, 0))
        assert np.array_equal(a.prices, b.prices)

    def test_starts_at_s0(self):
        p = sample_path(DEMO, PathGrid(1.0, 16), SeedSpec(1, 0))
        assert p.prices[0] == 1.0
        assert len(p.prices) == 17
        assert (p.prices > 0).all()

    def test_matches_chunk_rows_bitwise(self):
        # the batched kernel reproduces per-path generation exactly,
        # including a step count that is not a multiple of four
        for n_steps in (7, 64):
            grid = PathGrid(1.0, n_steps)
            log_rel, _ = _chunk_paths(DEMO, FREE1, grid, 2024, 0, 20, False)
            for i in (0, 3, 17):
                solo = sample_path(DEMO, grid, SeedSpec(2024, i))
                assert np.array_equal(solo.prices[1:], DEMO.s0 * np.exp(log_rel[i]))

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


class TestDetectStop:
    def test_first_grid_touch(self):
        p = PricePath(times=np.array([0.0, 0.5, 1.0]), prices=np.array([1.0, 0.6, 0.4]))
        sp = detect_stop(p, 0.5, DEMO, bridge=False, seed=SeedSpec(0, 0))
        assert sp.stop_index == 2
        assert sp.t_star == 1.0
        assert np.array_equal(sp.stopped_prices, [1.0, 0.6, 0.5])

    def test_touch_counts_as_stop(self):
        p = PricePath(times=np.array([0.0, 1.0]), prices=np.array([1.0, 0.5]))
        sp = detect_stop(p, 0.5, DEMO, bridge=False, seed=SeedSpec(0, 0))
        assert sp.stop_index == 1

    def test_never_below_without_bridge(self):
        p = PricePath(times=np.array([0.0, 0.5, 1.0]), prices=np.array([1.0, 0.9, 1.1]))
        sp = detect_stop(p, 0.5, DEMO, bridge=False, seed=SeedSpec(0, 0))
        assert sp.t_star is None
        assert sp.stop_index is None
        assert np.array_equal(sp.stopped_prices, p.prices)

    def test_barrier_must_sit_below_start(self):
        p = PricePath(times=np.array([0.0, 1.0]), prices=np.array([1.0, 1.2]))
        with pytest.raises(ParameterError):
            detect_stop(p, 1.0, DEMO, bridge=False, seed=SeedSpec(0, 0))

    def test_bridge_only_adds_earlier_stops(self):
        grid = PathGrid(1.0, 32)
        for i in range(40):
            p = sample_path(DEMO, grid, SeedSpec(31337, i))
            plain = detect_stop(p, 0.5, DEMO, bridge=False, seed=SeedSpec(31337, i))
            bridged = detect_stop(p, 0.5, DEMO, bridge=True, seed=SeedSpec(31337, i))
            assert np.array_equal(bridged.base.prices, plain.base.prices)
            if plain.stop_index is not None:
                assert bridged.stop_index is not None
                assert bridged.stop_index <= plain.stop_index

    def test_bridge_hit_lands_on_right_endpoint(self):
        grid = PathGrid(1.0, 32)
        hits = 0
        for i in range(200):
            p = sample_path(DEMO, grid, SeedSpec(2718, i))
            plain = detect_stop(p, 0.5, DEMO, bridge=False, seed=SeedSpec(2718, i))
            bridged = detect_stop(p, 0.5, DEMO, bridge=True, seed=SeedSpec(2718, i))
            if bridged.stop_index is not None and bridged.stop_index != plain.stop_index:
                hits += 1
                assert bridged.t_star == grid.times[bridged.stop_index]
                assert p.prices[bridged.stop_index] > 0.5  # grid never saw the touch
        assert hits > 0  # the correction must actually fire sometimes


class TestGainTrajectory:
    def test_unstopped_matches_closed_form(self):
        grid = PathGrid(1.0, 16)
        p = sample_path(DEMO, grid, SeedSpec(9, 4))
        sp = detect_stop(p, 1e-6, DEMO, bridge=False, seed=SeedSpec(9, 4))
        assert sp.t_star is None
        tr = TradeSpec(u0=1.0, k=2.0, v0=0.5, s_star=1e-6)
        samples = gain_trajectory(sp, tr, DEMO)
        for i, s in enumerate(samples):
            expected = gain_no_stop(tr, DEMO, p.prices[i], p.times[i])
            assert s.g == pytest.approx(expected, rel=1e-12)
            assert s.u == pytest.approx(1.0 + 2.0 * expected, rel=1e-12)
            assert s.v == pytest.approx(0.5 + expected, rel=1e-12)

    def _stopped_path(self, seed_i, trade):
        grid = PathGrid(1.0, 64)
        for i in range(seed_i, seed_i + 200):
            p = sample_path(DEMO, grid, SeedSpec(77, i))
            sp = detect_stop(p, 0.5, DEMO, bridge=False, seed=SeedSpec(77, i))
            if sp.stop_index is not None and 0 < sp.stop_index < 64:
                return sp
        pytest.fail("no stopped path found")

    def test_buy_and_hold_freezes_at_g_star(self):
        sp = self._stopped_path(0, TRADE1)
        samples = gain_trajectory(sp, TRADE1, DEMO)
        for s in samples[sp.stop_index:]:
            assert s.g == pytest.approx(-0.5, rel=1e-12)
            assert s.u == 0.0
        before = samples[sp.stop_index - 1]
        assert before.u > 0.0

    def test_bold_freezes_at_stop_time_level(self):
        sp = self._stopped_path(0, TRADE2)
        frozen = g_star_t(TRADE2, DEMO, sp.t_star)
        samples = gain_trajectory(sp, TRADE2, DEMO)
        tail = samples[sp.stop_index:]
        assert len({s.g for s in tail}) == 1  # constant after the stop
        for s in tail:
            assert s.g == pytest.approx(frozen, rel=1e-12)
            assert s.u == 0.0
            assert s.v == pytest.approx(TRADE2.v0 + frozen, rel=1e-12)


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
        grid = PathGrid(1.0, 64)
        for i in range(6):
            batch = run_batch(DEMO, TRADE2, grid, 1, 6060 + i)
            p = sample_path(DEMO, grid, SeedSpec(6060 + i, 0))
            sp = detect_stop(p, 0.5, DEMO, bridge=True, seed=SeedSpec(6060 + i, 0))
            samples = gain_trajectory(sp, TRADE2, DEMO)
            assert batch.terminal_gain[0] == pytest.approx(samples[-1].g, rel=1e-12, abs=1e-12)
            if sp.t_star is None:
                assert math.isnan(batch.stop_time[0])
            else:
                assert batch.stop_time[0] == sp.t_star

    def test_stopped_k1_terminals_sit_on_the_atom(self):
        batch = run_batch(DEMO, TRADE1, PathGrid(1.0, 128), 4000, 31415)
        stopped = batch.stopped
        assert stopped.any() and not stopped.all()
        assert np.allclose(batch.terminal_gain[stopped], -0.5, rtol=0, atol=1e-15)

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

    @pytest.mark.parametrize("trajectory", [False, True])
    def test_peak_memory_stays_inside_budget(self, trajectory):
        # 32 MiB over 6 padded float64 rows of 1024 steps is 682 paths a
        # chunk, so 1500 paths take three chunks
        budget_mb = 32
        tracemalloc.start()
        try:
            run_batch(DEMO, TRADE2, PathGrid(1.0, 1024), 1500, 3,
                      memory_budget_mb=budget_mb, trajectory=trajectory)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= budget_mb * 2**20


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
