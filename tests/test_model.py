"""Parameter types, regime dispatch and the closed-form gain expressions."""

import math

import numpy as np
import pytest

from reference_values import CLOSED_FORM
from stopgain.errors import DomainError, ParameterError, RegimeError
from stopgain.model import (
    MarketParams,
    Regime,
    TradeSpec,
    check_survivability,
    expected_gain_lower_bound,
    g_star,
    g_star_t,
    gain,
    gain_no_stop,
    require_stop,
    timid_floor,
    z_star,
)

DEMO = MarketParams(mu=0.5, sigma=1.0, s0=1.0)


def trade(k, s_star=0.5, u0=1.0, v0=None):
    return TradeSpec(u0=u0, k=k, v0=u0 / k if v0 is None else v0, s_star=s_star)


class TestMarketParams:
    def test_drift_rate(self):
        assert DEMO.drift_rate == 0.0
        assert MarketParams(mu=1.0, sigma=1.0, s0=1.0).drift_rate == 0.5

    @pytest.mark.parametrize("kwargs", [
        dict(mu=math.nan, sigma=1.0, s0=1.0),
        dict(mu=math.inf, sigma=1.0, s0=1.0),
        dict(mu=0.5, sigma=0.0, s0=1.0),
        dict(mu=0.5, sigma=-1.0, s0=1.0),
        dict(mu=0.5, sigma=1.0, s0=0.0),
        dict(mu=0.5, sigma=1.0, s0=-2.0),
        dict(mu=0.5, sigma=1e200, s0=1.0),  # sigma**2 overflows
        dict(mu=0.5, sigma=1e-200, s0=1.0),  # sigma**2 underflows to 0
    ])
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ParameterError):
            MarketParams(**kwargs)


class TestTradeSpec:
    def test_stop_is_optional(self):
        assert TradeSpec(u0=1.0, k=1.0, v0=1.0).s_star is None
        assert TradeSpec(u0=1.0, k=1.0, v0=1.0, s_star=0.5).s_star == 0.5

    @pytest.mark.parametrize("kwargs", [
        dict(u0=0.0, k=1.0, v0=1.0),
        dict(u0=-1.0, k=1.0, v0=1.0),
        dict(u0=1.0, k=0.0, v0=1.0),
        dict(u0=1.0, k=-0.5, v0=1.0),
        dict(u0=1.0, k=1.0, v0=0.0),
        dict(u0=1.0, k=1.0, v0=1.0, s_star=0.0),
        dict(u0=1.0, k=1.0, v0=1.0, s_star=-0.5),
        dict(u0=1.0, k=math.nan, v0=1.0),
        dict(u0=1.0, k=1e300, v0=1.0),  # k**2 overflows
        dict(u0=1.0, k=1e-200, v0=1.0),  # k**2 underflows to 0
    ])
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ParameterError):
            TradeSpec(**kwargs)

    def test_require_stop(self):
        assert require_stop(trade(1.0), DEMO) == 0.5
        with pytest.raises(ParameterError):
            require_stop(trade(1.0, s_star=None), DEMO)
        with pytest.raises(ParameterError):
            require_stop(trade(1.0, s_star=1.0), DEMO)  # not below s0
        with pytest.raises(ParameterError):
            require_stop(trade(1.0, s_star=2.0), DEMO)


class TestRegime:
    def test_dispatch_is_exact_at_one(self):
        assert Regime.of(1.0) is Regime.BUY_AND_HOLD
        assert Regime.of(1.0 + 1e-12) is Regime.BOLD
        assert Regime.of(1.0 - 1e-12) is Regime.TIMID

    def test_classes(self):
        assert Regime.of(2.0) is Regime.BOLD
        assert Regime.of(0.5) is Regime.TIMID

    @pytest.mark.parametrize("k", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_nonpositive(self, k):
        with pytest.raises(ParameterError):
            Regime.of(k)


class TestStopGainLevels:
    def test_g_star_buy_and_hold(self):
        assert g_star(trade(1.0), DEMO) == -0.5
        assert g_star(TradeSpec(u0=2.0, k=1.0, v0=2.0, s_star=0.25), DEMO) == -1.5

    def test_g_star_t_constant_for_k1(self):
        out = g_star_t(trade(1.0), DEMO, [0.0, 0.5, 1.0, 4.0])
        assert np.allclose(out, -0.5, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("t, key", [
        (1.0, "k2_g_floor_t1"),
        (0.25, "k2_g_floor_t025"),
        (4.0, "k2_g_floor_t4"),
    ])
    def test_g_star_t_bold_values(self, t, key):
        assert g_star_t(trade(2.0), DEMO, t) == pytest.approx(CLOSED_FORM[key], rel=1e-14)

    def test_g_star_t_monotone_in_t(self):
        ts = np.linspace(0.0, 5.0, 64)
        bold = g_star_t(trade(2.0), DEMO, ts)
        timid = g_star_t(trade(0.5), DEMO, ts)
        assert (np.diff(bold) < 0).all()
        assert (np.diff(timid) > 0).all()

    def test_g_star_t_rejects_negative_time(self):
        with pytest.raises(DomainError):
            g_star_t(trade(2.0), DEMO, -0.1)

    def test_timid_floor_value(self):
        assert timid_floor(trade(0.5), DEMO) == pytest.approx(
            CLOSED_FORM["k05_hard_floor"], rel=1e-14
        )
        # the floor is the level curve's t = 0 value
        assert g_star_t(trade(0.5), DEMO, 0.0) == timid_floor(trade(0.5), DEMO)

    @pytest.mark.parametrize("k", [1.0, 2.0])
    def test_timid_floor_rejects_other_regimes(self, k):
        with pytest.raises(RegimeError):
            timid_floor(trade(k), DEMO)


class TestGainMapAccuracy:
    """Every closed-form gain level goes through ``gain`` and lands within 1 ulp of its 50-digit reference."""

    @staticmethod
    def within_one_ulp(value, key):
        ref = CLOSED_FORM[key]
        assert abs(value - ref) <= math.ulp(ref), (key, value, ref)

    def test_stop_levels(self):
        self.within_one_ulp(g_star(trade(1.0), DEMO), "k1_g_star")
        for t, key in ((0.25, "k2_g_floor_t025"), (1.0, "k2_g_floor_t1"), (4.0, "k2_g_floor_t4")):
            self.within_one_ulp(g_star_t(trade(2.0), DEMO, t), key)
        self.within_one_ulp(g_star_t(trade(0.5), DEMO, 1.0), "k05_g_level_t1")

    def test_junction_and_floor(self):
        from stopgain.cdf import ShorthandContext, _junction

        self.within_one_ulp(_junction(ShorthandContext(DEMO, trade(2.0))), "k2_junction")
        self.within_one_ulp(timid_floor(trade(0.5), DEMO), "k05_hard_floor")

    @pytest.mark.parametrize("k", [1.0, 2.0, 0.5])
    def test_wrappers_are_the_gain_map(self, k):
        tr = trade(k)
        ts = np.array([0.0, 0.25, 1.0, 4.0])
        log_bar = math.log(0.5)
        assert np.array_equal(g_star_t(tr, DEMO, ts), gain(tr, DEMO, log_bar, ts))
        s = np.array([0.3, 0.5, 1.0, 2.5])
        assert np.array_equal(gain_no_stop(tr, DEMO, s, 1.0), gain(tr, DEMO, np.log(s), 1.0))


class TestGainExpressions:
    def test_zero_at_start(self):
        assert gain_no_stop(trade(1.0), DEMO, 1.0, 0.0) == 0.0
        assert gain_no_stop(trade(2.0), DEMO, 1.0, 0.0) == 0.0

    def test_k1_is_price_relative(self):
        # the time-dependent factor vanishes at k = 1
        for s in (0.4, 1.0, 2.7):
            for t in (0.1, 1.0, 9.0):
                assert gain_no_stop(trade(1.0), DEMO, s, t) == pytest.approx(s - 1.0, rel=1e-15)

    def test_k2_hand_value(self):
        # (1/2) * ((1.2)^2 * exp(-1) - 1)
        expected = 0.5 * (1.44 * math.exp(-1.0) - 1.0)
        assert gain_no_stop(trade(2.0), DEMO, 1.2, 1.0) == pytest.approx(expected, rel=1e-14)

    def test_vectorized(self):
        s = np.array([0.5, 1.0, 2.0])
        out = gain_no_stop(trade(2.0), DEMO, s, 1.0)
        assert out.shape == (3,)
        assert out[1] == pytest.approx(0.5 * (math.exp(-1.0) - 1.0), rel=1e-14)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            gain_no_stop(trade(1.0), DEMO, 0.0, 1.0)
        with pytest.raises(DomainError):
            gain_no_stop(trade(1.0), DEMO, 1.0, -1.0)

    def test_stopped_matches_level_curve_at_barrier(self):
        # the gain of a price frozen at the stop level is the level curve
        for k in (0.5, 1.0, 2.0):
            for t in (0.25, 1.0):
                assert gain(trade(k), DEMO, math.log(0.5), t) == pytest.approx(
                    g_star_t(trade(k), DEMO, t), rel=1e-14
                )


class TestAccountChecks:
    def test_z_star(self):
        assert z_star(DEMO, trade(1.0)) == 1.0  # 2*mu/sigma^2 - 1 = 0
        m = MarketParams(mu=1.0, sigma=1.0, s0=1.0)
        assert z_star(m, trade(1.0)) == 0.5

    def test_z_star_overflow_is_a_domain_error(self):
        # (0.9)**-20001 is past the largest float
        m = MarketParams(mu=-1.0, sigma=0.01, s0=1.0)
        with pytest.raises(DomainError):
            z_star(m, trade(2.0, s_star=0.9))

    def test_survivability_condition(self):
        assert check_survivability(TradeSpec(u0=1.0, k=1.0, v0=1.0))
        assert check_survivability(TradeSpec(u0=1.0, k=2.0, v0=1.0))
        assert not check_survivability(TradeSpec(u0=3.0, k=1.0, v0=2.0))

    def test_lower_bound_values(self):
        assert expected_gain_lower_bound(1.0, 1.0, 0.5) == 0.5 * 1.0 - 1.0
        # demo market, k=1, v0=2, c=2: f_at = F(0, 1)
        got = expected_gain_lower_bound(2.0, 2.0, CLOSED_FORM["k1_cdf_x0_t1"])
        assert got == pytest.approx(CLOSED_FORM["k1_lower_bound_c2_v2"], rel=1e-14)

    def test_lower_bound_domain(self):
        with pytest.raises(DomainError):
            expected_gain_lower_bound(0.0, 1.0, 0.5)
        with pytest.raises(DomainError):
            expected_gain_lower_bound(-1.0, 1.0, 0.5)
        with pytest.raises(DomainError):
            expected_gain_lower_bound(1.0, 1.0, 1.5)
