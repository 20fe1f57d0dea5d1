"""Empirical CDF machinery, figure reproduction and the property legs."""

import dataclasses
import math

import numpy as np
import pytest

from stopgain.cdf import CdfQuery, ShorthandContext, cdf_with_stop, stopping_time_cdf
from stopgain.errors import EmptySampleError, ParameterError
from stopgain.model import MarketParams, TradeSpec, g_star_t, gain_no_stop, timid_floor
from stopgain.simulate import PathGrid, path_trajectory, run_batch
from stopgain.verify import (
    FIGURE_PARAMS,
    compare,
    comparison_grid,
    empirical_cdf,
    property_suite,
    replicate,
    reproduce_figure,
)

DEMO = MarketParams(mu=0.5, sigma=1.0, s0=1.0)


def ctx_for(k, v0=None):
    tr = TradeSpec(u0=1.0, k=k, v0=(1.0 / k) if v0 is None else v0, s_star=0.5)
    return ShorthandContext(DEMO, tr)


class TestEmpiricalCdf:
    def test_basic_evaluation(self):
        e = empirical_cdf([1.0, 2.0, 3.0])
        assert e.evaluate(2.0) == pytest.approx(2.0 / 3.0)
        assert e.evaluate(0.5) == 0.0
        assert e.evaluate(3.0) == 1.0
        assert e.evaluate(99.0) == 1.0

    def test_right_continuous_at_samples(self):
        e = empirical_cdf([1.0, 2.0, 3.0])
        assert e.evaluate(1.0) == pytest.approx(1.0 / 3.0)
        assert e.evaluate(np.nextafter(1.0, 0.0)) == 0.0

    def test_duplicates_count_with_multiplicity(self):
        e = empirical_cdf([1.0, 1.0, 2.0])
        assert e.evaluate(1.0) == pytest.approx(2.0 / 3.0)

    def test_vectorized(self):
        e = empirical_cdf([3.0, 1.0, 2.0])  # unsorted input is fine
        out = e.evaluate(np.array([0.0, 1.5, 10.0]))
        assert np.allclose(out, [0.0, 1.0 / 3.0, 1.0])

    def test_rejects_empty_and_nan(self):
        with pytest.raises(EmptySampleError):
            empirical_cdf([])
        with pytest.raises(ParameterError):
            empirical_cdf([1.0, math.nan])


class TestCompare:
    def test_zero_distance_against_itself(self):
        e = empirical_cdf([1.0, 2.0, 3.0, 4.0])
        report = compare(e, e.evaluate, np.linspace(0.0, 5.0, 40))
        assert report.sup_distance == 0.0
        assert np.all(report.residual == 0.0)
        assert report.n_samples == 4

    def test_residual_orientation(self):
        e = empirical_cdf([1.0])
        report = compare(e, lambda x: 0.25, [2.0])
        assert report.residual[0] == pytest.approx(0.75)  # empirical minus theory
        assert report.sup_distance == pytest.approx(0.75)

    def test_rejects_empty_grid(self):
        e = empirical_cdf([1.0])
        with pytest.raises(EmptySampleError):
            compare(e, lambda x: 0.0, [])

    def test_metadata_is_copied(self):
        e = empirical_cdf([1.0])
        meta = {"seed": 1}
        report = compare(e, lambda x: 0.0, [0.0], meta)
        meta["seed"] = 2
        assert report.metadata == {"seed": 1}

    def test_sup_grows_under_grid_refinement(self):
        # a superset of abscissae can only see more deviation
        ctx = ctx_for(2.0)
        batch = run_batch(DEMO, ctx.trade, PathGrid(1.0, 64), 400, 21)
        e = empirical_cdf(batch.terminal_gain)
        theory = lambda x: cdf_with_stop(CdfQuery(x, 1.0), ctx).p
        coarse = np.linspace(-0.5, 4.0, 101)
        fine = np.union1d(coarse, np.linspace(-0.5, 4.0, 1001))
        assert compare(e, theory, fine).sup_distance >= compare(e, theory, coarse).sup_distance

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
        e = empirical_cdf(batch.terminal_gain)
        theory = lambda x: cdf_with_stop(CdfQuery(x, 1.0), ctx).p
        grid = np.union1d(np.linspace(-0.5, 6.0, 4001), xs)
        assert compare(e, theory, grid).sup_distance <= exact + 1e-12


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
            floor = timid_floor(tr, DEMO)
        assert floor in grid
        assert grid[0] == pytest.approx(floor - 0.05 / k)
        assert cdf_with_stop(CdfQuery(float(grid[-1]), 1.0), ctx).p >= 0.999 - 1e-6
        assert (np.diff(grid) > 0).all()
        assert len(grid) >= 512


class TestReplicate:
    def test_metadata_reruns_bit_for_bit(self):
        report = replicate(
            mu=0.5, sigma=1.0, s0=1.0, s_star=0.5, u0=1.0, k=2.0,
            t_end=1.0, n_paths=1500, n_steps=128, master_seed=3131,
        )
        again = replicate(**report.metadata)
        assert np.array_equal(report.grid, again.grid)
        assert np.array_equal(report.theory, again.theory)
        assert np.array_equal(report.empirical, again.empirical)
        assert report.sup_distance == again.sup_distance
        assert report.metadata == again.metadata

    def test_small_run_is_already_close(self):
        report = replicate(
            mu=0.5, sigma=1.0, s0=1.0, s_star=0.5, u0=1.0, k=1.0,
            t_end=1.0, n_paths=4000, n_steps=256, master_seed=11,
        )
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
        md = small_figs[2].report.metadata
        assert md["which"] == 2
        assert md["n_paths"] == 2500
        assert md["n_steps"] == 128
        assert md["master_seed"] == 5
        assert small_figs[2].no_stop_report.metadata["stop_enabled"] is False


class TestPropertySuite:
    def test_all_legs_pass_when_survivable(self):
        tr = TradeSpec(u0=1.0, k=1.0, v0=2.0, s_star=0.5)
        report = property_suite(DEMO, tr, PathGrid(1.0, 64), 2000, 17)
        assert report.passed
        for name in ("survivability", "long_only", "control_bound", "lower_bound"):
            assert report.leg(name).status == "pass"
        assert report.leg("survivability").detail["min_account_value"] >= 0.0
        assert report.leg("long_only").detail["min_active_investment"] > 0.0
        assert report.leg("long_only").detail["max_abs_stopped_investment"] == 0.0

    def test_bold_and_timid_runs(self):
        for k in (2.0, 0.5):
            tr = TradeSpec(u0=1.0, k=k, v0=2.0, s_star=0.5)
            report = property_suite(DEMO, tr, PathGrid(1.0, 64), 1500, 23)
            assert report.passed

    def test_unsurvivable_legs_are_skipped(self):
        tr = TradeSpec(u0=3.0, k=1.0, v0=1.0, s_star=0.5)  # u0 > k*v0
        report = property_suite(DEMO, tr, PathGrid(1.0, 64), 500, 31)
        assert report.leg("survivability").status == "skipped"
        assert report.leg("lower_bound").status == "skipped"
        # the remaining legs still hold and decide the outcome
        assert report.leg("long_only").status == "pass"
        assert report.leg("control_bound").status == "pass"
        assert report.passed

    def test_boundary_financing_ties_investment_to_account(self):
        # with u0 = k*v0 the rule invests exactly k times the account value
        tr = TradeSpec(u0=2.0, k=2.0, v0=1.0, s_star=0.5)
        p = path_trajectory(DEMO, tr, PathGrid(1.0, 32), 3, 0, bridge=False)
        active = p.u != 0.0
        assert active.any()
        assert p.u[active] == pytest.approx(tr.k * p.v[active], rel=1e-12)

    def test_unknown_leg_lookup(self):
        tr = TradeSpec(u0=1.0, k=1.0, v0=2.0, s_star=0.5)
        report = property_suite(DEMO, tr, PathGrid(1.0, 16), 50, 1)
        with pytest.raises(KeyError):
            report.leg("nope")

    def test_metadata_round_trip(self):
        tr = TradeSpec(u0=1.0, k=2.0, v0=1.0, s_star=0.5)
        report = property_suite(DEMO, tr, PathGrid(0.5, 32), 250, 77)
        md = report.metadata
        again = property_suite(
            MarketParams(md["mu"], md["sigma"], md["s0"]),
            TradeSpec(u0=md["u0"], k=md["k"], v0=md["v0"], s_star=md["s_star"]),
            PathGrid(md["t_end"], md["n_steps"]),
            md["n_paths"], md["master_seed"], bridge=md["bridge"],
        )
        assert [dataclasses.asdict(leg) for leg in again.legs] == [
            dataclasses.asdict(leg) for leg in report.legs
        ]
