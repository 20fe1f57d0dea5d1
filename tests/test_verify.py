"""Empirical CDF machinery, figure reproduction and the property legs."""

import math

import numpy as np
import pytest

from stopgain import verify
from stopgain.cdf import (
    CdfQuery, CdfValue, ShorthandContext, _band, cdf_with_stop, stopping_time_cdf,
)
from stopgain.errors import EmptySampleError, ParameterError
from stopgain.model import MarketParams, TradeSpec, g_star_t
from stopgain.simulate import PathGrid, path_trajectory, run_batch
from stopgain.verify import (
    FIGURE_PARAMS,
    compare,
    comparison_grid,
    law_report,
    property_report,
    reproduce_figure,
)

DEMO = MarketParams(mu=0.5, sigma=1.0, s0=1.0)


def ctx_for(k, v0=None):
    tr = TradeSpec(u0=1.0, k=k, v0=(1.0 / k) if v0 is None else v0, s_star=0.5)
    return ShorthandContext(DEMO, tr)


def ecdf(samples, x):
    """The empirical CDF of ``samples`` at ``x``, as :func:`compare` evaluates it."""
    return compare(samples, lambda grid: 0.0, x).empirical


class TestEmpiricalCdf:
    def test_basic_evaluation(self):
        assert ecdf([1.0, 2.0, 3.0], 2.0) == pytest.approx(2.0 / 3.0)
        assert ecdf([1.0, 2.0, 3.0], 0.5) == 0.0
        assert ecdf([1.0, 2.0, 3.0], 3.0) == 1.0
        assert ecdf([1.0, 2.0, 3.0], 99.0) == 1.0

    def test_right_continuous_at_samples(self):
        assert ecdf([1.0, 2.0, 3.0], 1.0) == pytest.approx(1.0 / 3.0)
        assert ecdf([1.0, 2.0, 3.0], np.nextafter(1.0, 0.0)) == 0.0

    def test_duplicates_count_with_multiplicity(self):
        assert ecdf([1.0, 1.0, 2.0], 1.0) == pytest.approx(2.0 / 3.0)

    def test_vectorized(self):
        out = ecdf([3.0, 1.0, 2.0], np.array([0.0, 1.5, 10.0]))  # unsorted input is fine
        assert np.allclose(out, [0.0, 1.0 / 3.0, 1.0])

    def test_rejects_empty_and_nan(self):
        with pytest.raises(EmptySampleError):
            ecdf([], [1.0])
        with pytest.raises(ParameterError):
            ecdf([1.0, math.nan], [1.0])


class TestCompare:
    def test_zero_distance_against_itself(self):
        samples = [1.0, 2.0, 3.0, 4.0]
        report = compare(samples, lambda x: ecdf(samples, x), np.linspace(0.0, 5.0, 40))
        assert report.sup_distance == 0.0
        assert np.all(report.residual == 0.0)
        assert report.n_samples == 4

    def test_residual_orientation(self):
        report = compare([1.0], lambda x: 0.25, [2.0])
        assert report.residual[0] == pytest.approx(0.75)  # empirical minus theory
        assert report.sup_distance == pytest.approx(0.75)

    def test_rejects_empty_grid(self):
        with pytest.raises(EmptySampleError):
            compare([1.0], lambda x: 0.0, [])

    def test_sup_grows_under_grid_refinement(self):
        # a superset of abscissae can only see more deviation
        ctx = ctx_for(2.0)
        batch = run_batch(DEMO, ctx.trade, PathGrid(1.0, 64), 400, 21)
        samples = batch.terminal_gain
        theory = lambda x: cdf_with_stop(CdfQuery(x, 1.0), ctx).p
        coarse = np.linspace(-0.5, 4.0, 101)
        fine = np.union1d(coarse, np.linspace(-0.5, 4.0, 1001))
        assert compare(samples, theory, fine).sup_distance >= compare(samples, theory, coarse).sup_distance

    def test_sup_bounded_by_step_function_extremes(self):
        # for a continuous law the true sup lives at the sample points
        ctx = ctx_for(2.0)
        batch = run_batch(DEMO, ctx.trade, PathGrid(1.0, 64), 400, 22)
        xs = np.sort(batch.terminal_gain)
        n = len(xs)
        f_at = np.array([cdf_with_stop(CdfQuery(float(x), 1.0), ctx).p for x in xs])
        exact = max(
            np.max(np.abs(np.arange(1, n + 1) / n - f_at)),
            np.max(np.abs(np.arange(0, n) / n - f_at)),
        )
        theory = lambda x: cdf_with_stop(CdfQuery(x, 1.0), ctx).p
        grid = np.union1d(np.linspace(-0.5, 6.0, 4001), xs)
        assert compare(batch.terminal_gain, theory, grid).sup_distance <= exact + 1e-12


def _quantile_reference(ctx, t_end, q):
    """The scalar span search the array search replaced: one law call per doubling or halving."""
    floor = _band(ctx, t_end)[0]
    span = max(1.0, abs(floor)) * ctx.trade.u0 / ctx.trade.k
    for _ in range(200):
        if cdf_with_stop(CdfQuery(floor + span, t_end), ctx).p >= q:
            break
        span *= 2.0
    for _ in range(200):
        half = floor + 0.5 * span
        if not (half > floor and cdf_with_stop(CdfQuery(half, t_end), ctx).p >= q):
            break
        span *= 0.5
    levels = floor + 0.5 * span * (1.0 + np.arange(1, 129) / 128)
    reached = cdf_with_stop(CdfQuery(levels, t_end), ctx).p >= q
    reached[-1] = True
    return float(levels[np.argmax(reached)])


class TestComparisonGrid:
    @pytest.mark.parametrize("k", [1.0, 2.0, 0.5])
    def test_covers_floor_and_upper_tail(self, k):
        ctx = ctx_for(k)
        grid = comparison_grid(ctx, 1.0)
        tr = ctx.trade
        if k == 1.0:
            floor = -0.5
        elif k > 1.0:
            floor = g_star_t(tr, DEMO, 1.0)
        else:
            floor = g_star_t(tr, DEMO, 0.0)
        assert floor in grid
        assert grid[0] == pytest.approx(floor - 0.05 / k)
        assert cdf_with_stop(CdfQuery(float(grid[-1]), 1.0), ctx).p >= 0.999
        assert (np.diff(grid) > 0).all()
        assert len(grid) >= 512

    @pytest.mark.parametrize("t", [0.25, 1.0, 4.0])
    @pytest.mark.parametrize("k", [1.0, 2.0, 0.5])
    def test_top_is_the_first_lattice_level_past_the_quantile(self, k, t):
        # the span above the floor is a power of two times max(1, |floor|) u0/k
        # with 8 significant bits: hi/2 (1 + j/128) for j = 1..128
        ctx = ctx_for(k)
        floor = _band(ctx, t)[0]
        top = float(comparison_grid(ctx, t)[-1])
        assert top > floor
        unit = max(1.0, abs(floor)) / k
        hi = unit * 2.0 ** math.ceil(math.log2((top - floor) / unit) - 1e-9)
        assert cdf_with_stop(CdfQuery(top, t), ctx).p >= 0.999
        assert cdf_with_stop(CdfQuery(top - hi / 256, t), ctx).p < 0.999

    @pytest.mark.parametrize("t", [0.25, 1.0, 4.0])
    @pytest.mark.parametrize("k", [1.0, 2.0, 0.5, 20.0, 50.0])
    def test_few_law_calls(self, monkeypatch, k, t):
        # one array call finds the span's power of two and one more its
        # lattice level, however far the span lies from max(1, |floor|) u0/k
        calls = []

        def counted(q, ctx):
            calls.append(q)
            return cdf_with_stop(q, ctx)

        monkeypatch.setattr(verify, "cdf_with_stop", counted)
        comparison_grid(ctx_for(k), t)
        assert len(calls) == 2

    @pytest.mark.parametrize("t", [0.25, 1.0, 4.0])
    @pytest.mark.parametrize("k", [1.0, 2.0, 0.5, 20.0, 50.0])
    def test_matches_scalar_search(self, k, t):
        ctx = ctx_for(k)
        assert verify._quantile(ctx, t, 0.999) == _quantile_reference(ctx, t, 0.999)

    @pytest.mark.parametrize("market", [
        # spans far from max(1, |floor|) u0/k: at t = 4 about 2**35 times it
        # in the wide market at k = 1, 2**145 in the narrow one at k = 50
        MarketParams(mu=5.0, sigma=2.0, s0=1.0),
        MarketParams(mu=0.5, sigma=1e-3, s0=1.0),
    ], ids=["wide", "narrow"])
    @pytest.mark.parametrize("k", [1.0, 0.05, 50.0])
    def test_matches_scalar_search_off_demo(self, market, k):
        ctx = ShorthandContext(market, TradeSpec(u0=1.0, k=k, v0=1.0 / k, s_star=0.5))
        for t in (0.25, 4.0):
            assert verify._quantile(ctx, t, 0.999) == _quantile_reference(ctx, t, 0.999)

    @pytest.mark.parametrize("t", [0.25, 1.0, 4.0])
    @pytest.mark.parametrize("k", [1.0, 2.0, 0.5])
    def test_last_bit_of_the_law_does_not_move_the_grid(self, monkeypatch, k, t):
        ctx = ctx_for(k)
        grid = comparison_grid(ctx, t)
        for direction in (np.inf, -np.inf):

            def nudged(q, c):
                v = cdf_with_stop(q, c)
                p = v.p
                for _ in range(4):
                    p = np.nextafter(p, direction)
                return CdfValue(np.clip(p, 0.0, 1.0), v.branch)

            monkeypatch.setattr(verify, "cdf_with_stop", nudged)
            assert np.array_equal(comparison_grid(ctx, t), grid)


class TestReplicate:
    def test_small_run_is_already_close(self):
        ctx = ctx_for(1.0)
        batch = run_batch(DEMO, ctx.trade, PathGrid(1.0, 256), 4000, 11)
        report = law_report(batch, ctx, 1.0)
        assert report.sup_distance < 0.05
        assert report.n_samples == 4000


@pytest.fixture(scope="module")
def small_figs():
    return {w: reproduce_figure(w, n_paths=2500, n_steps=128, master_seed=5) for w in (1, 2, 3)}


class TestReproduceFigure:
    def test_parameter_sets(self):
        assert FIGURE_PARAMS[1]["k"] == 1.0
        assert FIGURE_PARAMS[2]["k"] == 2.0
        assert FIGURE_PARAMS[3]["k"] == 0.5

    def test_dataset_columns(self, small_figs):
        for fig in small_figs.values():
            cols = ["x", "F0_theory", "F_theory", "F0_empirical", "F_empirical"]
            assert list(fig.dataset) == cols
            n = len(fig.dataset["x"])
            assert all(len(fig.dataset[c]) == n for c in cols)
            for c in cols[1:]:
                v = fig.dataset[c]
                assert ((v >= 0.0) & (v <= 1.0)).all()
            assert (np.diff(fig.dataset["F_theory"]) >= -1e-13).all()

    def test_atom_value_in_first_dataset(self, small_figs):
        d = small_figs[1].dataset
        i = int(np.where(d["x"] == -0.5)[0][0])  # the exact floor is on the grid
        assert abs(d["F_theory"][i] - 0.4882) <= 5e-4

    def test_third_dataset_floor_region(self, small_figs):
        d = small_figs[3].dataset
        mask = d["x"] <= -0.5858
        assert mask.any()
        assert (d["F_theory"][mask] == 0.0).all()

    def test_laws_merge_in_the_upper_tail(self, small_figs):
        for fig in small_figs.values():
            d = fig.dataset
            top = len(d["x"]) // 10
            gap = np.abs(d["F_theory"][-top:] - d["F0_theory"][-top:])
            assert gap.max() <= 1e-4

    def test_same_seed_shares_price_paths(self, small_figs):
        # the free batch reuses the stop batch's paths, so above the junction
        # both empirical curves are built from many common samples; check the
        # documented identity instead: empirical mass at the k=1 atom equals
        # the empirical stop frequency
        fig = small_figs[1]
        d = fig.dataset
        i = int(np.where(d["x"] == -0.5)[0][0])
        atom_mass = d["F_empirical"][i]
        if i > 0:
            atom_mass -= d["F_empirical"][i - 1]
        grid = PathGrid(1.0, 128)
        tr = TradeSpec(u0=1.0, k=1.0, v0=1.0, s_star=0.5)
        batch = run_batch(DEMO, tr, grid, 2500, 5)
        assert atom_mass == pytest.approx(batch.p_stopped, abs=1e-9)

    def test_rejects_unknown_figure(self):
        with pytest.raises(ParameterError):
            reproduce_figure(4)

    def test_report_metadata_names_the_run(self, small_figs):
        config = small_figs[2].config
        assert config["which"] == 2
        assert config["n_paths"] == 2500
        assert config["n_steps"] == 128
        assert config["master_seed"] == 5


def legs_of(tr, grid, n_paths, seed):
    """The property legs of one trajectory batch on the demo market."""
    batch = run_batch(DEMO, tr, grid, n_paths, seed, trajectory=True)
    return property_report(batch, ShorthandContext(DEMO, tr), grid.t_end)


class TestPropertySuite:
    def test_all_legs_pass_when_survivable(self):
        tr = TradeSpec(u0=1.0, k=1.0, v0=2.0, s_star=0.5)
        report = legs_of(tr, PathGrid(1.0, 64), 2000, 17)
        assert report.passed
        for name in ("survivability", "long_only", "control_bound", "lower_bound"):
            assert report.legs[name].status == "pass"
        assert report.legs["survivability"].detail["min_account_value"] >= 0.0
        assert report.legs["long_only"].detail["min_active_investment"] > 0.0
        assert report.legs["long_only"].detail["max_abs_stopped_investment"] == 0.0

    def test_bold_and_timid_runs(self):
        for k in (2.0, 0.5):
            tr = TradeSpec(u0=1.0, k=k, v0=2.0, s_star=0.5)
            report = legs_of(tr, PathGrid(1.0, 64), 1500, 23)
            assert report.passed

    def test_unsurvivable_legs_are_skipped(self):
        tr = TradeSpec(u0=3.0, k=1.0, v0=1.0, s_star=0.5)  # u0 > k*v0
        report = legs_of(tr, PathGrid(1.0, 64), 500, 31)
        assert report.legs["survivability"].status == "skipped"
        assert report.legs["lower_bound"].status == "skipped"
        # the remaining legs still hold and decide the outcome
        assert report.legs["long_only"].status == "pass"
        assert report.legs["control_bound"].status == "pass"
        assert report.passed

    def test_boundary_financing_ties_investment_to_account(self):
        # with u0 = k*v0 the rule invests exactly k times the account value
        tr = TradeSpec(u0=2.0, k=2.0, v0=1.0, s_star=0.5)
        p = path_trajectory(DEMO, tr, PathGrid(1.0, 32), 3, 0, bridge=False)
        active = p.u != 0.0
        assert active.any()
        assert p.u[active] == pytest.approx(tr.k * p.v[active], rel=1e-12)

    def test_needs_a_trajectory_batch(self):
        tr = TradeSpec(u0=1.0, k=1.0, v0=2.0, s_star=0.5)
        batch = run_batch(DEMO, tr, PathGrid(1.0, 16), 50, 1)
        with pytest.raises(ParameterError, match="trajectory=True"):
            property_report(batch, ShorthandContext(DEMO, tr), 1.0)
