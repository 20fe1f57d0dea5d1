"""Closed-form distribution of the trading gain, with and without the stop.

Every probability here reduces to combinations of the standard normal CDF
evaluated at log-price arguments.  Branch selection is explicit: each CDF
value carries a tag naming the piece of the piecewise law that produced it,
so tests and reports can assert not just the number but the route.  The laws
are vectorized over the level: an array query gets arrays of values and tags.

Internals evaluate the normal-CDF arguments from logarithms directly, which
keeps every expression finite for feedback gains far above one, where the
intermediate growth factors would overflow.  The tests check the law against
50-digit references up to k = 53 on the demo market (s*/s0 = 1/2).  From
k = 54 on there the floor ``g_star_t(0)`` rounds onto ``-u0/k``, where
``a_of_x`` and ``theta`` are undefined, so every level raises
:class:`DomainError`.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

from .errors import DomainError, ParameterError, RegimeError
from .model import MarketParams, Regime, TradeSpec, g_star, g_star_t, require_stop, timid_floor, z_star

__all__ = [
    "ShorthandContext",
    "CdfQuery",
    "CdfValue",
    "std_normal_cdf",
    "a_of_x",
    "cdf_no_stop",
    "stopping_time_cdf",
    "joint_survival",
    "omega",
    "theta",
    "joint_cdf_stopped",
    "joint_cdf_unstopped",
    "cdf_with_stop",
]

BRANCH_FLOOR = "floor"
BRANCH_MIDDLE = "middle"
BRANCH_UPPER = "upper"
BRANCH_NO_STOP = "no-stop"

# branch codes index the tags; object dtype makes a 0-d code give a plain str
_FLOOR, _MIDDLE, _UPPER, _NO_STOP = range(4)
_BRANCH_NAMES = np.array([BRANCH_FLOOR, BRANCH_MIDDLE, BRANCH_UPPER, BRANCH_NO_STOP], dtype=object)


def _scalar_or_array(out):
    """A ``float`` for a 0-d result, the array itself otherwise."""
    return float(out) if np.ndim(out) == 0 else out


def std_normal_cdf(x):
    """Standard normal CDF, elementwise (``scipy.special.ndtr``).

    Double-precision accurate (absolute error well under 1e-15) and saturates
    cleanly to 0 and 1 in the tails, including at infinite arguments.
    """
    return _scalar_or_array(ndtr(x))


@dataclass(frozen=True)
class ShorthandContext:
    """Validated (market, trade) pair with the derived quantities cached.

    ``z_star`` is the reflection weight, recomputable bit-for-bit from the
    source parameters.  A context without a stop order (``s_star is None``)
    supports only the no-stop operations.
    """

    market: MarketParams
    trade: TradeSpec
    z_star: float = field(init=False)

    def __post_init__(self):
        if self.trade.s_star is not None:
            require_stop(self.trade, self.market)
            object.__setattr__(self, "z_star", z_star(self.market, self.trade))
        else:
            object.__setattr__(self, "z_star", math.nan)

    @property
    def has_stop(self) -> bool:
        return self.trade.s_star is not None

    @property
    def log_s0_over_star(self) -> float:
        return math.log(self.market.s0 / require_stop(self.trade, self.market))


@dataclass(frozen=True)
class CdfQuery:
    """Query of a gain CDF: level ``x`` (a float or an ndarray) at horizon ``t > 0``."""

    x: float | np.ndarray
    t: float

    def __post_init__(self):
        if not np.all(np.isfinite(self.x)):
            raise ParameterError(f"x must be finite (got {self.x})")
        if not (np.isfinite(self.t) and self.t > 0):
            raise ParameterError(f"t must be > 0 (got {self.t})")


@dataclass(frozen=True)
class CdfValue:
    """Probability and the branch of the piecewise law used; arrays for an array query."""

    p: float | np.ndarray
    branch: str | np.ndarray

    def __post_init__(self):
        if not np.all((self.p >= 0.0) & (self.p <= 1.0)):
            raise ParameterError(f"p must lie in [0, 1] (got {self.p})")


def _phi_at_log(ctx: ShorthandContext, log_z, t):
    """Normal CDF of the standardized log price ``(log_z + (mu - sigma**2/2) t) / (sigma sqrt(t))``."""
    return ndtr((log_z + ctx.market.drift_rate * t) / (ctx.market.sigma * np.sqrt(t)))


def a_of_x(x, ctx: ShorthandContext):
    """Time at which the stopped-gain level curve reaches ``x`` (k != 1).

    Inverts ``g_star_t``: the result ``A`` satisfies ``g_star_t(A) == x``.
    Zero exactly at the curve's ``t = 0`` value, positive on the stopped side
    of it and negative on the survivor side.
    """
    tr, m = ctx.trade, ctx.market
    if tr.k == 1:
        raise RegimeError("a_of_x is undefined for k = 1 (the level curve is flat)")
    x = np.asarray(x, dtype=float)
    if not np.all(x > -tr.u0 / tr.k):
        raise DomainError(f"x must exceed -u0/k = {-tr.u0 / tr.k} (got {x})")
    log_arg = tr.k * ctx.log_s0_over_star + np.log1p(tr.k * x / tr.u0)
    return _scalar_or_array(-2.0 * log_arg / (m.sigma**2 * tr.k * (tr.k - 1.0)))


def _log_b(x, t, ctx: ShorthandContext):
    """log of the price ratio ``S(t)/s0`` whose no-stop gain at time t equals x.

    The log of ``((k x / u0 + 1) * exp(-sigma^2 (k - k^2) t / 2)) ** (1/k)``.
    """
    tr, m = ctx.trade, ctx.market
    return (np.log1p(tr.k * x / tr.u0) - 0.5 * m.sigma**2 * (tr.k - tr.k**2) * t) / tr.k


def cdf_no_stop(q: CdfQuery, ctx: ShorthandContext) -> CdfValue:
    """CDF of the always-active rule's gain at horizon ``q.t``.

    Zero at and below ``-u0/k`` (the rule can never lose more than that);
    above it, one normal tail of the standardized terminal log price.
    """
    tr = ctx.trade
    x = np.asarray(q.x, dtype=float)
    floor = x <= -tr.u0 / tr.k
    p = 1.0 - _phi_at_log(ctx, -_log_b(np.where(floor, 0.0, x), q.t, ctx), q.t)
    p = np.where(floor, 0.0, np.clip(p, 0.0, 1.0))
    return CdfValue(_scalar_or_array(p), _BRANCH_NAMES[np.where(floor, _FLOOR, _NO_STOP)])


def omega(t, ctx: ShorthandContext):
    """Probability that the stop has not fired by time ``t``; ``omega(0) == 1``."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise DomainError(f"t must be >= 0 (got {t})")
    start = t == 0
    p = _joint_survival_log(ctx.log_s0_over_star, np.where(start, 1.0, t), ctx)
    return _scalar_or_array(np.where(start, 1.0, p))


def stopping_time_cdf(t, ctx: ShorthandContext):
    """CDF of the first time the price touches the stop level; 0 at ``t = 0``."""
    return 1.0 - omega(t, ctx)


def joint_survival(x_price: float, t: float, ctx: ShorthandContext) -> float:
    """P(price at ``t`` is >= ``x_price`` and the stop never fired by ``t``).

    Survivor tail minus the reflection image weighted by ``z_star``.
    """
    if not x_price > 0:
        raise DomainError(f"x_price must be > 0 (got {x_price})")
    if not t > 0:
        raise DomainError(f"t must be > 0 (got {t})")
    return _joint_survival_log(math.log(ctx.market.s0 / x_price), t, ctx)


def _joint_survival_log(log_s0_over_x, t, ctx: ShorthandContext):
    """``joint_survival`` of ``ln(s0/x_price)``; the one place the reflection law is written."""
    log_image = log_s0_over_x - 2.0 * ctx.log_s0_over_star
    p = _phi_at_log(ctx, log_s0_over_x, t) - ctx.z_star * _phi_at_log(ctx, log_image, t)
    return _scalar_or_array(np.clip(p, 0.0, 1.0))


def theta(x, t, ctx: ShorthandContext):
    """P(no stop by ``t`` and the no-stop gain at ``t`` is at least ``x``).

    The survivor-branch tail of the gain law: ``joint_survival`` evaluated at
    the price level whose gain equals ``x``.
    """
    tr = ctx.trade
    x = np.asarray(x, dtype=float)
    if not np.all(x > -tr.u0 / tr.k):
        raise DomainError(f"x must exceed -u0/k = {-tr.u0 / tr.k} (got {x})")
    if not np.all(np.asarray(t) > 0):
        raise DomainError(f"t must be > 0 (got {t})")
    return _joint_survival_log(-_log_b(x, t, ctx), t, ctx)


def _junction(ctx: ShorthandContext) -> float:
    """Gain level where the stopped band meets the survivor band (k != 1)."""
    return g_star_t(ctx.trade, ctx.market, 0.0)


def _law_floor(ctx: ShorthandContext, t: float) -> float:
    """Lowest gain at horizon ``t``: the k = 1 atom, else the level at and below which F is 0."""
    tr, m = ctx.trade, ctx.market
    regime = Regime.of(tr.k)
    if regime is Regime.BUY_AND_HOLD:
        return g_star(tr, m)
    if regime is Regime.BOLD:
        return g_star_t(tr, m, t)
    return timid_floor(tr, m)


def _joint_parts(x, t: float, ctx: ShorthandContext):
    """Branch codes and the stopped and unstopped parts of the law at levels ``x`` (k != 1).

    ``floor`` at and below the floor; ``middle`` on the band of stopped gains,
    which ends at the junction for k > 1 and at the level curve ``g_star_t(t)``
    for k < 1; ``upper`` beyond it, where all the stopped mass is in.
    Survivors lie above the level curve for k > 1 and at or above it for
    k < 1.  Each part is clipped to [0, 1].
    """
    tr = ctx.trade
    regime = Regime.of(tr.k)
    if regime is Regime.BUY_AND_HOLD:
        raise RegimeError("the joint stopped/unstopped laws require k != 1")
    if not t > 0:
        raise DomainError(f"t must be > 0 (got {t})")
    bold = regime is Regime.BOLD
    x = np.asarray(x, dtype=float)
    floor = _law_floor(ctx, t)
    band_end = _junction(ctx) if bold else g_star_t(tr, ctx.market, t)
    branch = np.where(x <= floor, _FLOOR, np.where(x < band_end, _MIDDLE, _UPPER))
    omega_t = omega(t, ctx)

    # a stop at time a freezes the gain at x; levels off the band are
    # replaced by band_end, which every formula accepts
    middle = branch == _MIDDLE
    omega_a = omega(np.maximum(a_of_x(np.where(middle, x, band_end), ctx), 0.0), ctx)
    band = omega_a - omega_t if bold else 1.0 - omega_a
    stopped = np.clip(np.where(middle, band, 1.0 - omega_t), 0.0, 1.0)
    stopped = np.where(branch == _FLOOR, 0.0, stopped)

    survives = branch != _FLOOR if bold else branch == _UPPER
    tail = theta(np.where(survives, x, band_end), t, ctx)
    unstopped = np.where(survives, np.clip(omega_t - tail, 0.0, 1.0), 0.0)
    return branch, stopped, unstopped


def joint_cdf_stopped(x, t: float, ctx: ShorthandContext):
    """P(gain at ``t`` is <= ``x`` and the stop fired by ``t``), k != 1."""
    return _scalar_or_array(_joint_parts(x, t, ctx)[1])


def joint_cdf_unstopped(x, t: float, ctx: ShorthandContext):
    """P(gain at ``t`` is <= ``x`` and the stop never fired by ``t``), k != 1."""
    return _scalar_or_array(_joint_parts(x, t, ctx)[2])


def cdf_with_stop(q: CdfQuery, ctx: ShorthandContext) -> CdfValue:
    """CDF of the stop-protected rule's gain at horizon ``q.t``.

    Piecewise by regime.  ``k = 1`` (dispatched on exact equality): an atom at
    the locked-in stop loss, then a reflected lognormal tail.  ``k > 1``: zero
    at and below the stop level curve, a stopped band up to the junction, then
    the survivor branch.  ``0 < k < 1``: zero at and below the hard floor, a
    stopped band below the level curve, then the survivor branch.  For
    ``k != 1`` the value is the sum of the two joint laws.
    """
    if ctx.trade.k != 1:
        branch, stopped, unstopped = _joint_parts(q.x, q.t, ctx)
        p = np.clip(stopped + unstopped, 0.0, 1.0)
    else:
        x = np.asarray(q.x, dtype=float)
        floor = _law_floor(ctx, q.t)
        branch = np.where(x < floor, _FLOOR, _UPPER)
        p = np.where(branch == _FLOOR, 0.0, 1.0 - theta(np.maximum(x, floor), q.t, ctx))
    return CdfValue(_scalar_or_array(p), _BRANCH_NAMES[branch])
