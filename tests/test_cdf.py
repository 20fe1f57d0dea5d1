"""Distribution functions: golden values, branch structure and identities.

Golden constants live in reference_values.py and were produced by two
independent routes (high-precision transcription and a brute-force Monte
Carlo oracle); see make_reference_values.py.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import ndtr

from reference_values import CLOSED_FORM, MC_ORACLE, PHI_TABLE
from stopgain.cdf import (
    BRANCH_FLOOR,
    BRANCH_MIDDLE,
    BRANCH_NO_STOP,
    BRANCH_UPPER,
    CdfQuery,
    CdfValue,
    ShorthandContext,
    _joint_survival_log,
    _log1p_kx_over_u0,
    _log_b,
    _phi_at_log,
    a_of_x,
    cdf_no_stop,
    cdf_with_stop,
    joint_cdf_stopped,
    joint_cdf_unstopped,
    omega,
    stopping_time_cdf,
    theta,
)
from stopgain.errors import DomainError, ParameterError
from stopgain.model import MarketParams, TradeSpec, g_star_t, gain
from stopgain.verify import comparison_grid

DEMO = MarketParams(mu=0.5, sigma=1.0, s0=1.0)


def ctx_for(k, s_star=0.5, u0=1.0, market=DEMO):
    tr = TradeSpec(u0=u0, k=k, v0=u0 / k, s_star=s_star)
    return ShorthandContext(market, tr)


CTX1 = ctx_for(1.0)
CTX2 = ctx_for(2.0)
CTX05 = ctx_for(0.5)


def _phi_abscissa(key):
    if key == "log2":
        return math.log(2.0)
    if key == "neg_log4":
        return -math.log(4.0)
    return float(key)


class TestStdNormalCdf:
    @pytest.mark.parametrize("key", sorted(PHI_TABLE))
    def test_reference_table(self, key):
        assert abs(ndtr(_phi_abscissa(key)) - PHI_TABLE[key]) <= 1e-15

    def test_symmetry(self):
        for x in np.linspace(-8.0, 8.0, 161):
            assert abs(ndtr(x) + ndtr(-x) - 1.0) <= 1e-15

    def test_tails_saturate(self):
        assert ndtr(40.0) == 1.0
        assert ndtr(-40.0) < 1e-300
        assert ndtr(math.inf) == 1.0
        assert ndtr(-math.inf) == 0.0

    def test_monotone(self):
        xs = np.linspace(-10.0, 10.0, 2001)
        ps = np.array([ndtr(x) for x in xs])
        assert (np.diff(ps) >= 0).all()


class TestContextAndQuery:
    def test_cached_derived_values(self):
        assert CTX1.z_star == 1.0  # 2*mu/sigma^2 - 1 = 0
        assert CTX1.log_s0_over_star == pytest.approx(math.log(2.0), rel=1e-15)

    def test_no_stop_context(self):
        ctx = ShorthandContext(DEMO, TradeSpec(u0=1.0, k=1.0, v0=1.0))
        assert not ctx.has_stop
        assert math.isnan(ctx.z_star)
        with pytest.raises(ParameterError):
            _ = ctx.log_s0_over_star

    def test_log_ratio_must_be_finite(self):
        # s0/s_star overflows to inf although s_star/s0 = 1e-315 is a float
        with pytest.raises(DomainError):
            ShorthandContext(MarketParams(1.0, 1.0, 1e5), TradeSpec(1.0, 1.0, s_star=1e-310))
        # s_star/s0 rounds to 0
        with pytest.raises(ParameterError):
            ShorthandContext(MarketParams(0.0, 1.0, 2.0), TradeSpec(1.0, 1.0, s_star=5e-324))

    def test_context_validates_pair(self):
        with pytest.raises(ParameterError):
            ctx_for(1.0, s_star=1.5)  # barrier above the start price

    def test_query_validation(self):
        with pytest.raises(ParameterError):
            CdfQuery(math.nan, 1.0)
        with pytest.raises(ParameterError):
            CdfQuery(0.0, 0.0)
        with pytest.raises(ParameterError):
            CdfQuery(0.0, -1.0)

    def test_value_range_checked(self):
        with pytest.raises(ParameterError):
            CdfValue(1.5, BRANCH_UPPER)


class TestShorthandOperations:
    def test_big_x(self):
        # Phi of the standardized log price X(z, t) = (ln z + nu t) / (sigma sqrt(t));
        # drift-free demo market: X(z, 1) = ln z
        assert _phi_at_log(CTX1, math.log(2.0), 1.0) == pytest.approx(ndtr(math.log(2.0)), rel=1e-15)
        assert _phi_at_log(CTX1, 0.0, 4.0) == 0.5
        m = MarketParams(mu=1.0, sigma=2.0, s0=1.0)
        ctx = ctx_for(1.0, market=m)  # nu = -1
        assert _phi_at_log(ctx, 0.0, 1.0) == pytest.approx(ndtr(-0.5), rel=1e-15)

    def test_a_of_x_golden(self):
        assert a_of_x(0.0, CTX2) == pytest.approx(CLOSED_FORM["k2_a_x0"], rel=1e-14)
        assert a_of_x(-0.5, CTX05) == pytest.approx(CLOSED_FORM["k05_a_xneg05"], rel=1e-14)

    @pytest.mark.parametrize("k, ts", [
        (2.0, (0.1, 1.0, 3.0)),
        (0.5, (0.1, 1.0, 3.0)),
        # at k=5 the level curve flattens onto its asymptote exponentially
        # fast, so only short horizons are numerically invertible at all
        (5.0, (0.05, 0.1, 0.2)),
    ])
    def test_a_of_x_inverts_level_curve(self, k, ts):
        ctx = ctx_for(k)
        for t in ts:
            x = g_star_t(ctx.trade, DEMO, t)
            assert a_of_x(x, ctx) == pytest.approx(t, rel=1e-9)

    def test_a_of_x_errors(self):
        with pytest.raises(DomainError, match="k = 1"):
            a_of_x(0.0, CTX1)
        with pytest.raises(DomainError):
            a_of_x(-0.5, CTX2)  # at -u0/k

    def test_b_of_x_t_golden(self):
        # b(x, t) = S(t)/s0 where the no-stop gain is x
        assert math.exp(_log_b(0.0, 1.0, CTX2)) == pytest.approx(CLOSED_FORM["k2_b_x0_t1"], rel=1e-14)

    def test_b_inverts_gain(self):
        for ctx in (CTX1, CTX2, CTX05):
            for x in (-0.2, 0.0, 1.5):
                for t in (0.25, 1.0):
                    assert gain(ctx.trade, DEMO, _log_b(x, t, ctx), t) == pytest.approx(x, abs=1e-12)

    def test_log1p_kx_over_u0_past_the_largest_float(self):
        # k x / u0 from 1e300 to 1e400: the ratio overflows a float, its log does not
        mp = pytest.importorskip("mpmath")
        tr = TradeSpec(u0=1e-100, k=2.0, s_star=0.5)
        xs = 0.5 * np.logspace(200, 300, 41)
        got = _log1p_kx_over_u0(xs, tr)
        assert (got > math.log(np.finfo(float).max)).any()
        with mp.workdps(50):
            want = np.array([float(mp.log1p(mp.mpf(tr.k) * mp.mpf(x) / mp.mpf(tr.u0))) for x in xs])
        assert np.abs(got / want - 1.0).max() <= 1e-15

    def test_theta_golden(self):
        assert theta(0.0, 1.0, CTX2) == pytest.approx(CLOSED_FORM["k2_theta_x0_t1"], rel=1e-13)


class TestStoppingTimeLaw:
    @pytest.mark.parametrize("t, key", [
        (0.1, "stop_cdf_t01"),
        (1.0, "stop_cdf_t1"),
        (10.0, "stop_cdf_t10"),
    ])
    def test_golden_values(self, t, key):
        assert stopping_time_cdf(t, CTX1) == pytest.approx(CLOSED_FORM[key], rel=1e-13)

    def test_omega_complement_is_exact(self):
        for t in (0.0, 0.1, 1.0, 10.0):
            assert omega(t, CTX1) + stopping_time_cdf(t, CTX1) == 1.0

    def test_boundary_conventions(self):
        assert omega(0.0, CTX1) == 1.0
        assert stopping_time_cdf(0.0, CTX1) == 0.0
        with pytest.raises(DomainError):
            omega(-0.5, CTX1)

    def test_monotone_in_t(self):
        ts = np.linspace(1e-6, 20.0, 400)
        ps = np.array([stopping_time_cdf(float(t), CTX1) for t in ts])
        assert (np.diff(ps) >= 0).all()

    def test_long_horizon_limits(self):
        # driftless log price: the barrier is hit almost surely
        assert stopping_time_cdf(1e4, CTX1) == pytest.approx(
            2.0 * ndtr(math.log(0.5) / 100.0), rel=1e-12
        )
        assert stopping_time_cdf(1e4, CTX1) > 0.99
        # positive log drift: the limit is (s_star/s0)^(2 nu / sigma^2)
        ctx = ctx_for(1.0, market=MarketParams(mu=1.0, sigma=1.0, s0=1.0))
        assert stopping_time_cdf(1e4, ctx) == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("mu", ["-0.3", "0.5", "1.5"])
    def test_tail_matches_the_mpmath_oracle(self, mu):
        # 1 - omega would cancel to 0 at the far stops; the direct form
        # keeps the relative accuracy of the 60-digit reference
        mp = pytest.importorskip("mpmath")
        import make_reference_values as ref

        market = MarketParams(mu=float(mu), sigma=1.0, s0=1.0)
        with mp.workdps(60):
            for s_star in ("1e-3", "1e-4", "1e-5", "0.5"):
                law = ref.Closed(mu, "1", "1", s_star, "1", "2")
                ctx = ctx_for(2.0, s_star=float(s_star), market=market)
                for t in ("0.25", "1", "4"):
                    want = law.stop_cdf(mp.mpf(t))
                    assert abs(stopping_time_cdf(float(t), ctx) / want - 1) <= 1e-12, (s_star, t)

    def test_mc_cross_check(self):
        # frozen 10^6-path bridge-corrected oracle, SE ~ 5e-4
        assert stopping_time_cdf(1.0, CTX1) == pytest.approx(
            MC_ORACLE["p_stop"], abs=2.5e-3
        )


def _survival_at_price(x_price, t, ctx):
    return _joint_survival_log(math.log(ctx.market.s0 / x_price), t, ctx)


class TestJointSurvival:
    def test_golden_values(self):
        assert _survival_at_price(1.0, 1.0, CTX1) == pytest.approx(
            CLOSED_FORM["joint_survival_x1_t1"], rel=1e-13
        )
        assert _survival_at_price(0.8, 1.0, CTX1) == pytest.approx(
            CLOSED_FORM["joint_survival_x08_t1"], rel=1e-13
        )

    def test_domain(self):
        # the public route to the joint survival is theta, at a gain level
        with pytest.raises(DomainError):
            theta(-1.0, 1.0, CTX1)  # at -u0/k, a price of zero
        with pytest.raises(DomainError):
            theta(0.0, 0.0, CTX1)

    def test_below_barrier_consistency(self):
        # asking for survival at the barrier just drops the price condition:
        # the stop not firing already implies price > s_star
        assert theta(g_star_t(CTX1.trade, DEMO, 0.0), 1.0, CTX1) == pytest.approx(omega(1.0, CTX1), rel=1e-12)

    def test_mc_cross_check(self):
        assert _survival_at_price(1.0, 1.0, CTX1) == pytest.approx(
            MC_ORACLE["p_price_ge_1_no_stop"], abs=1.6e-3
        )
        assert _survival_at_price(0.8, 1.0, CTX1) == pytest.approx(
            MC_ORACLE["p_price_ge_08_no_stop"], abs=1.6e-3
        )


class TestNoStopLaw:
    def test_floor_and_branch(self):
        v = cdf_no_stop(CdfQuery(-1.0, 1.0), CTX1)
        assert v.p == 0.0 and v.branch == BRANCH_FLOOR
        v = cdf_no_stop(CdfQuery(-0.5, 1.0), CTX1)
        assert v.branch == BRANCH_NO_STOP
        assert v.p == pytest.approx(CLOSED_FORM["k1_cdf_no_stop_xneg05_t1"], rel=1e-13)

    def test_matches_lognormal_tail_k1(self):
        # k=1: gain <= x iff terminal price <= x + u0 (u0 = s0 = 1)
        for x in (-0.3, 0.0, 1.0):
            expected = ndtr(math.log(1.0 + x))
            assert cdf_no_stop(CdfQuery(x, 1.0), CTX1).p == pytest.approx(expected, rel=1e-13)

    def test_monotone_all_regimes(self):
        for ctx in (CTX1, CTX2, CTX05):
            lo = -ctx.trade.u0 / ctx.trade.k
            xs = np.linspace(lo - 0.2, 6.0, 600)
            ps = [cdf_no_stop(CdfQuery(float(x), 1.0), ctx).p for x in xs]
            assert (np.diff(ps) >= -1e-15).all()
            assert ps[0] == 0.0
            assert ps[-1] > 0.9


class TestBuyAndHoldLaw:
    def test_atom_and_branches(self):
        below = cdf_with_stop(CdfQuery(-0.5 - 1e-12, 1.0), CTX1)
        assert below.p == 0.0 and below.branch == BRANCH_FLOOR
        at = cdf_with_stop(CdfQuery(-0.5, 1.0), CTX1)
        assert at.branch == BRANCH_UPPER
        assert at.p == pytest.approx(CLOSED_FORM["k1_cdf_at_g_star_t1"], rel=1e-13)

    def test_atom_identity_with_stop_law(self):
        # the whole mass at the floor is exactly the stopped probability
        for t in (0.1, 1.0, 10.0):
            f_at = cdf_with_stop(CdfQuery(-0.5, t), CTX1).p
            assert abs(f_at - stopping_time_cdf(t, CTX1)) <= 1e-12

    @pytest.mark.parametrize("x, key", [
        (0.0, "k1_cdf_x0_t1"),
        (2.0, "k1_cdf_x2_t1"),
    ])
    def test_golden_values(self, x, key):
        assert cdf_with_stop(CdfQuery(x, 1.0), CTX1).p == pytest.approx(
            CLOSED_FORM[key], rel=1e-13
        )

    def test_mc_cross_checks(self):
        assert cdf_with_stop(CdfQuery(-0.5, 1.0), CTX1).p == pytest.approx(
            MC_ORACLE["k1_p_g_le_neg05"], abs=2.5e-3
        )
        assert cdf_with_stop(CdfQuery(0.0, 1.0), CTX1).p == pytest.approx(
            MC_ORACLE["k1_p_g_le_0"], abs=2.5e-3
        )

    def test_dominates_no_stop_law(self):
        # the stop can only push gains down, never up
        for x in np.linspace(-0.49, 4.0, 80):
            q = CdfQuery(float(x), 1.0)
            assert cdf_with_stop(q, CTX1).p >= cdf_no_stop(q, CTX1).p - 1e-15


class TestBoldLaw:
    def test_branches(self):
        t = 1.0
        floor = g_star_t(CTX2.trade, DEMO, t)
        assert cdf_with_stop(CdfQuery(floor, t), CTX2) == CdfValue(0.0, BRANCH_FLOOR)
        mid = cdf_with_stop(CdfQuery(-0.4, t), CTX2)
        assert mid.branch == BRANCH_MIDDLE
        assert mid.p == pytest.approx(CLOSED_FORM["k2_cdf_xneg04_t1"], rel=1e-13)
        up = cdf_with_stop(CdfQuery(0.0, t), CTX2)
        assert up.branch == BRANCH_UPPER
        assert up.p == pytest.approx(CLOSED_FORM["k2_cdf_x0_t1"], rel=1e-13)

    def test_junction_value_and_continuity(self):
        junction = CLOSED_FORM["k2_junction"]
        lo = cdf_with_stop(CdfQuery(junction - 1e-12, 1.0), CTX2)
        hi = cdf_with_stop(CdfQuery(junction, 1.0), CTX2)
        assert lo.branch == BRANCH_MIDDLE and hi.branch == BRANCH_UPPER
        assert abs(hi.p - lo.p) <= 1e-10

    def test_junction_is_level_curve_start(self):
        assert g_star_t(CTX2.trade, DEMO, 0.0) == CLOSED_FORM["k2_junction"]

    def test_floor_tracks_time(self):
        for t in (0.25, 1.0, 4.0):
            floor = g_star_t(CTX2.trade, DEMO, t)
            assert cdf_with_stop(CdfQuery(floor, t), CTX2).p == 0.0
            assert cdf_with_stop(CdfQuery(floor + 1e-9, t), CTX2).p > 0.0

    def test_monotone(self):
        xs = np.linspace(-0.5, 6.0, 800)
        ps = [cdf_with_stop(CdfQuery(float(x), 1.0), CTX2).p for x in xs]
        assert (np.diff(ps) >= -1e-13).all()

    def test_mc_cross_checks(self):
        assert cdf_with_stop(CdfQuery(-0.4, 1.0), CTX2).p == pytest.approx(
            MC_ORACLE["k2_p_g_le_neg04"], abs=2.5e-3
        )
        assert cdf_with_stop(CdfQuery(0.0, 1.0), CTX2).p == pytest.approx(
            MC_ORACLE["k2_p_g_le_0"], abs=2.5e-3
        )


class TestTimidLaw:
    def test_branches(self):
        t = 1.0
        hard = g_star_t(CTX05.trade, DEMO, 0.0)
        assert cdf_with_stop(CdfQuery(hard, t), CTX05) == CdfValue(0.0, BRANCH_FLOOR)
        mid = cdf_with_stop(CdfQuery(-0.5, t), CTX05)
        assert mid.branch == BRANCH_MIDDLE
        assert mid.p == pytest.approx(CLOSED_FORM["k05_cdf_xneg05_t1"], rel=1e-13)
        level = g_star_t(CTX05.trade, DEMO, t)
        up = cdf_with_stop(CdfQuery(level, t), CTX05)
        assert up.branch == BRANCH_UPPER
        assert cdf_with_stop(CdfQuery(0.0, t), CTX05).p == pytest.approx(
            CLOSED_FORM["k05_cdf_x0_t1"], rel=1e-13
        )

    def test_level_curve_continuity(self):
        level = g_star_t(CTX05.trade, DEMO, 1.0)
        lo = cdf_with_stop(CdfQuery(level - 1e-12, 1.0), CTX05)
        hi = cdf_with_stop(CdfQuery(level, 1.0), CTX05)
        assert lo.branch == BRANCH_MIDDLE and hi.branch == BRANCH_UPPER
        assert abs(hi.p - lo.p) <= 1e-10

    def test_all_stopped_mass_sits_below_level(self):
        # at the level curve the whole stopped probability has accumulated
        assert cdf_with_stop(
            CdfQuery(CLOSED_FORM["k05_g_level_t1"], 1.0), CTX05
        ).p == pytest.approx(CLOSED_FORM["stop_cdf_t1"], rel=1e-12)

    def test_golden_middle_point(self):
        assert cdf_with_stop(CdfQuery(-0.45, 1.0), CTX05).p == pytest.approx(
            CLOSED_FORM["k05_cdf_xneg045_t1"], rel=1e-13
        )

    def test_monotone(self):
        xs = np.linspace(-0.7, 4.0, 800)
        ps = [cdf_with_stop(CdfQuery(float(x), 1.0), CTX05).p for x in xs]
        assert (np.diff(ps) >= -1e-13).all()

    def test_mc_cross_checks(self):
        for x, key in ((-0.5, "k05_p_g_le_neg05"), (-0.45, "k05_p_g_le_neg045"),
                       (0.0, "k05_p_g_le_0")):
            assert cdf_with_stop(CdfQuery(x, 1.0), CTX05).p == pytest.approx(
                MC_ORACLE[key], abs=2.5e-3
            )


class TestJointDecomposition:
    @pytest.mark.parametrize("k", [1.0, 2.0, 0.5])
    @pytest.mark.parametrize("t", [0.25, 1.0, 4.0])
    def test_stopped_plus_unstopped_is_total(self, k, t):
        ctx = ctx_for(k)
        lo = -ctx.trade.u0 / ctx.trade.k + 1e-6
        xs = np.linspace(lo, 5.0, 512)
        for x in xs:
            total = cdf_with_stop(CdfQuery(float(x), t), ctx).p
            parts = joint_cdf_stopped(float(x), t, ctx) + joint_cdf_unstopped(float(x), t, ctx)
            assert abs(total - parts) <= 1e-12

    def test_unstopped_tail_matches_omega(self):
        # far enough right every surviving path is counted (x must outrun
        # the k=2 law's quadratic growth in the price, hence the large level)
        for k in (1.0, 2.0, 0.5):
            ctx = ctx_for(k)
            assert joint_cdf_unstopped(1e6, 1.0, ctx) == pytest.approx(
                omega(1.0, ctx), abs=1e-12
            )
            assert joint_cdf_stopped(1e6, 1.0, ctx) == pytest.approx(
                stopping_time_cdf(1.0, ctx), rel=1e-12
            )

    def test_k1_stopped_part_is_the_atom(self):
        # at k = 1 every stop locks in g_star, so the stopped part jumps there
        # to the whole stop probability
        for t in (0.1, 1.0, 10.0):
            at = joint_cdf_stopped(g_star_t(CTX1.trade, DEMO, 0.0), t, CTX1)
            assert abs(at - stopping_time_cdf(t, CTX1)) <= 1e-12

    def test_unstopped_mc_cross_check(self):
        assert joint_cdf_unstopped(0.0, 1.0, CTX2) == pytest.approx(
            MC_ORACLE["k2_p_g_le_0_unstopped"], abs=2.5e-3
        )

    def test_timid_band_is_empty_for_survivors(self):
        # between the hard floor and the level curve only stopped paths live
        hard = g_star_t(CTX05.trade, DEMO, 0.0)
        level = g_star_t(CTX05.trade, DEMO, 1.0)
        for x in np.linspace(hard + 1e-9, level - 1e-9, 25):
            assert joint_cdf_unstopped(float(x), 1.0, CTX05) == 0.0
        assert MC_ORACLE["k05_band_unstopped_count"] == 0


class TestLimitsAndStress:
    @pytest.mark.parametrize("k", [0.5, 1.0, 2.0])
    def test_no_stop_limit(self, k):
        # a barrier at 1e-8 is practically never hit within t = 1
        ctx_eps = ctx_for(k, s_star=1e-8)
        ctx_free = ShorthandContext(DEMO, TradeSpec(u0=1.0, k=k, v0=1.0 / k))
        for x in np.linspace(-1.0 / k + 1e-3, 4.0, 120):
            q = CdfQuery(float(x), 1.0)
            assert abs(cdf_with_stop(q, ctx_eps).p - cdf_no_stop(q, ctx_free).p) <= 1e-6
        # the end of the limit: with no stop order the stop law is the free-running law
        floor = -1.0 / k
        queries = [CdfQuery(x, 1.0) for x in (floor - 1.0, floor, floor + 1e-3, 0.0, 2.0)]
        queries.append(CdfQuery(np.array([floor - 0.5, floor, floor + 1e-9, -0.2, 0.0, 3.0]), 1.0))
        for q in queries:
            got, want = cdf_with_stop(q, ctx_free), cdf_no_stop(q, ctx_free)
            assert np.array_equal(got.p, want.p) and type(got.p) is type(want.p)
            assert np.array_equal(got.branch, want.branch)
        assert list(cdf_with_stop(queries[-1], ctx_free).branch[:2]) == [BRANCH_FLOOR] * 2

    def test_continuity_in_k_away_from_atom(self):
        for x in (-0.45, -0.3, 0.0, 0.5, 2.0):
            base = cdf_with_stop(CdfQuery(x, 1.0), CTX1).p
            for k in (1.0 - 1e-6, 1.0 + 1e-6):
                near = cdf_with_stop(CdfQuery(x, 1.0), ctx_for(k)).p
                assert abs(near - base) <= 1e-4

    def test_k50_stress(self):
        ctx = ctx_for(50.0)
        xs = np.linspace(-0.0199, 2.0, 400)
        ps = np.array([cdf_with_stop(CdfQuery(float(x), 1.0), ctx).p for x in xs])
        assert np.isfinite(ps).all()
        assert ((ps >= 0.0) & (ps <= 1.0)).all()
        assert (np.diff(ps) >= -1e-13).all()

    def test_short_horizon(self):
        # virtually no time to move: everything concentrates near zero gain
        for ctx in (CTX1, CTX2, CTX05):
            assert cdf_with_stop(CdfQuery(-0.01, 1e-9), ctx).p < 1e-10
            assert cdf_with_stop(CdfQuery(0.01, 1e-9), ctx).p > 1.0 - 1e-10

    @pytest.mark.parametrize("s_star, k", [(0.1, 17.0), (0.5, 54.0), (0.9, 356.0)])
    def test_band_rounded_onto_floor_is_a_step(self, s_star, k):
        # k ln(s0/s*) passes ln 2**54: every stopped gain rounds onto -u0/k,
        # and the law steps there within one ulp
        ctx = ctx_for(k, s_star=s_star)
        lo = -1.0 / k
        around = lo + np.spacing(lo) * np.arange(-4, 5)
        xs = np.union1d(around, np.linspace(lo - 0.05 / k, 5.0, 400))
        for t in (0.25, 1.0, 4.0):
            p = cdf_with_stop(CdfQuery(xs, t), ctx).p
            assert ((p >= 0.0) & (p <= 1.0)).all()
            assert (np.diff(p) >= 0.0).all()
            assert (p[xs <= np.nextafter(lo, -np.inf)] == 0.0).all()

    @given(
        mu=st.floats(-1.0, 1.0),
        sigma=st.floats(0.5, 1.5),
        s_star=st.floats(0.01, 0.99),
        k=st.floats(math.log(0.05), math.log(2000.0)).map(math.exp),
        t=st.floats(math.log(1e-3), math.log(10.0)).map(math.exp),
    )
    def test_any_valid_parameters_give_a_law(self, mu, sigma, s_star, k, t):
        # on the band's edges and around them: a probability, non-decreasing
        # up to one-ulp dips inside the band, and the sum of the joint laws
        ctx = ctx_for(k, s_star=s_star, market=MarketParams(mu=mu, sigma=sigma, s0=1.0))
        ends = g_star_t(ctx.trade, ctx.market, np.array([0.0, t]))
        xs = np.union1d(
            np.concatenate([ends, np.nextafter(ends, -np.inf), np.nextafter(ends, np.inf)]),
            np.concatenate([
                np.linspace(ends.min(), ends.max(), 64),
                np.linspace(-1.05 / k, ends.max() + 4.0 / k, 128),
            ]),
        )
        p = cdf_with_stop(CdfQuery(xs, t), ctx).p
        assert ((p >= 0.0) & (p <= 1.0)).all()
        assert (np.diff(p) >= -1e-13).all()
        parts = joint_cdf_stopped(xs, t, ctx) + joint_cdf_unstopped(xs, t, ctx)
        assert np.abs(parts - p).max() <= 1e-12


def _boundary_points(ctx, t):
    """Every level a branch test compares against, with both float neighbours."""
    tr = ctx.trade
    # g_star_t at 0 is the k = 1 atom, the k > 1 junction and the k < 1 floor
    points = np.array([g_star_t(tr, DEMO, t), -tr.u0 / tr.k, g_star_t(tr, DEMO, 0.0)])
    return np.concatenate([points, np.nextafter(points, -np.inf), np.nextafter(points, np.inf)])


class TestArrayEvaluation:
    @pytest.mark.parametrize("k", [1.0, 2.0, 0.5])
    @pytest.mark.parametrize("t", [0.25, 1.0, 4.0])
    def test_one_array_call_equals_scalar_calls(self, k, t):
        ctx = ctx_for(k)
        xs = np.concatenate([comparison_grid(ctx, t), _boundary_points(ctx, t)])
        q = CdfQuery(xs, t)
        for law in (cdf_with_stop, cdf_no_stop):
            value = law(q, ctx)
            scalar = [law(CdfQuery(float(x), t), ctx) for x in xs]
            assert np.array_equal(value.p, [v.p for v in scalar])
            assert list(value.branch) == [v.branch for v in scalar]
        for part in (joint_cdf_stopped, joint_cdf_unstopped):
            assert np.array_equal(part(xs, t, ctx), [part(float(x), t, ctx) for x in xs])

    @pytest.mark.parametrize("ctx", [CTX1, CTX2, CTX05], ids=["k1", "k2", "k0.5"])
    def test_zero_dimensional_query_gives_float_and_str(self, ctx):
        for law in (cdf_with_stop, cdf_no_stop):
            value = law(CdfQuery(np.array(-0.3), 1.0), ctx)
            assert type(value.p) is float and type(value.branch) is str
            assert value == law(CdfQuery(-0.3, 1.0), ctx)


class TestMpmathOracle:
    @pytest.mark.parametrize("k, sigma, s_star, ts", [
        pytest.param("20", "1", "0.5", (0.25, 1.0, 4.0), id="20"),
        pytest.param("50", "1", "0.5", (0.25, 1.0, 4.0), id="50"),
        pytest.param("53", "1", "0.5", (0.25, 1.0, 4.0), id="53"),
        # a quiet market with a near stop: the band rounds onto -u0/k at k = 1500
        pytest.param("200", "0.1", "0.9", (0.01,), id="200-sigma0.1-sstar0.9"),
        pytest.param("1500", "0.1", "0.9", (5e-4,), id="1500-sigma0.1-sstar0.9"),
    ])
    def test_large_k_matches_50_digit_law(self, k, sigma, s_star, ts):
        # the stopped band ends 2**-k u0/k above -u0/k, and near its floor one
        # ulp of x moves F by more than 1e-12 at k = 20; so the comparison
        # starts 2**-26 u0/k above the floor, while range and order are
        # checked from the first floats above it
        mp = pytest.importorskip("mpmath")
        import make_reference_values as ref

        law = ref.Closed(ref.MU, sigma, ref.S0, s_star, ref.U0, k)
        market = MarketParams(mu=float(ref.MU), sigma=float(sigma), s0=float(ref.S0))
        ctx = ctx_for(float(k), s_star=float(s_star), market=market)
        for t in ts:
            floor = g_star_t(ctx.trade, market, t)
            near = floor + abs(np.spacing(floor)) * np.arange(1, 9)
            far = floor + 2.0 ** np.arange(-26, 5) / float(k)
            p = cdf_with_stop(CdfQuery(np.concatenate([near, far]), t), ctx).p
            assert ((p >= 0.0) & (p <= 1.0)).all()
            assert (np.diff(p) >= 0.0).all()
            expected = [float(law.cdf(mp.mpf(x), mp.mpf(t))) for x in far]
            assert np.abs(p[len(near) :] - expected).max() <= 1e-12

    @pytest.mark.parametrize("k", ["1", "2", "0.5"])
    @pytest.mark.parametrize("t", [0.25, 1.0, 4.0])
    def test_array_call_matches_50_digit_law(self, k, t):
        mp = pytest.importorskip("mpmath")
        import make_reference_values as ref

        law = ref.Closed(ref.MU, ref.SIGMA, ref.S0, ref.SSTAR, ref.U0, k)
        ctx = ctx_for(float(k))
        grid = comparison_grid(ctx, t)
        xs = np.random.default_rng(20261018).uniform(grid[0], grid[-1], 64)
        q = CdfQuery(xs, t)
        for value, want in ((cdf_with_stop(q, ctx).p, law.cdf),
                            (cdf_no_stop(q, ctx).p, law.cdf_no_stop)):
            expected = [float(want(mp.mpf(x), mp.mpf(t))) for x in xs]
            assert np.abs(value - expected).max() <= 1e-12
