"""Closed-form distribution of the trading gain, with and without the stop.

Every probability here reduces to combinations of the standard normal CDF
evaluated at log-price arguments.  Branch selection is explicit: each CDF
value carries a tag naming the piece of the piecewise law that produced it,
so tests and reports can assert not just the number but the route.  The laws
are vectorized over the level: an array query gets arrays of values and tags.

Internals evaluate the normal-CDF arguments from logarithms directly, which
keeps every expression finite for feedback gains far above one, where the
intermediate growth factors would overflow.  One law serves every k: the
stopped gains fill a band between the values of ``g_star_t`` at 0 and t,
and survivors add their tail above the level curve.  The tests check it
against 50-digit references up to k = 1500.  Once k ln(s0/s*) exceeds
about 37.4 (ln 2**54), the band rounds onto ``-u0/k``; the law is then a
step within one ulp of ``-u0/k``, and ``a_of_x`` and ``theta`` are only
ever evaluated at levels above it.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

from .errors import DomainError, ParameterError
from .model import MarketParams, TradeSpec, g_star_t, require_stop, z_star

__all__ = [
    "BRANCH_FLOOR",
    "BRANCH_MIDDLE",
    "BRANCH_UPPER",
    "BRANCH_NO_STOP",
    "ShorthandContext",
    "CdfQuery",
    "CdfValue",
    "a_of_x",
    "cdf_no_stop",
    "stopping_time_cdf",
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


@dataclass(frozen=True)
class ShorthandContext:
    """Validated (market, trade) pair with the derived quantities cached.

    ``z_star`` is the reflection weight, recomputable bit-for-bit from the
    source parameters, and ``log_s0_over_star`` is ln(s0/s_star), which must
    be finite (:class:`DomainError`).  A context without a stop order
    (``s_star is None``) supports only the no-stop operations.
    """

    market: MarketParams
    trade: TradeSpec
    z_star: float = field(init=False)
    _log_s0_over_star: float = field(init=False, repr=False)

    def __post_init__(self):
        weight = log_ratio = math.nan
        if self.has_stop:
            log_ratio = math.log(self.market.s0 / require_stop(self.trade, self.market))
            if not math.isfinite(log_ratio):
                raise DomainError(f"ln(s0/s_star) overflows (s0={self.market.s0}, s_star={self.trade.s_star})")
            weight = z_star(self.market, self.trade)
        object.__setattr__(self, "z_star", weight)
        object.__setattr__(self, "_log_s0_over_star", log_ratio)

    @property
    def has_stop(self) -> bool:
        return self.trade.s_star is not None

    @property
    def log_s0_over_star(self) -> float:
        if not self.has_stop:
            raise ParameterError("a context without a stop order has no ln(s0/s_star)")
        return self._log_s0_over_star


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
    # the drift term or the quotient overflows only when the exact argument is
    # far beyond +-40, where ndtr is exactly 0 or 1, so the +-inf is exact
    with np.errstate(over="ignore"):
        return ndtr((log_z + ctx.market.drift_rate * t) / (ctx.market.sigma * np.sqrt(t)))


def _log1p_kx_over_u0(x, tr: TradeSpec):
    """``log1p(k x / u0)``, also where the ratio overflows a float.

    The ratio overflows only for x > 0 (every level lies above -u0/k), and
    there its log is ``log(k) + log(x) - log(u0)``, which is finite.
    """
    with np.errstate(over="ignore"):
        ratio = tr.k * x / tr.u0
    huge = np.isinf(ratio)
    log_big = math.log(tr.k) + np.log(np.where(huge, x, 1.0)) - math.log(tr.u0)
    return np.where(huge, log_big, np.log1p(ratio))


def a_of_x(x, ctx: ShorthandContext):
    """Time at which the stopped-gain level curve reaches ``x`` (k != 1).

    Inverts ``g_star_t``: the result ``A`` satisfies ``g_star_t(A) == x``.
    Zero exactly at the curve's ``t = 0`` value, positive on the stopped side
    of it and negative on the survivor side.
    """
    tr, m = ctx.trade, ctx.market
    if tr.k == 1:
        raise DomainError("a_of_x is undefined for k = 1 (the level curve is flat)")
    x = np.asarray(x, dtype=float)
    if not np.all(x > -tr.u0 / tr.k):
        raise DomainError(f"x must exceed -u0/k = {-tr.u0 / tr.k} (got {x})")
    log_arg = tr.k * ctx.log_s0_over_star + _log1p_kx_over_u0(x, tr)
    return _scalar_or_array(-2.0 * log_arg / (m.sigma**2 * tr.k * (tr.k - 1.0)))


def _log_b(x, t, ctx: ShorthandContext):
    """log of the price ratio ``S(t)/s0`` whose no-stop gain at time t equals x.

    The log of ``((k x / u0 + 1) * exp(-sigma^2 (k - k^2) t / 2)) ** (1/k)``.
    """
    tr, m = ctx.trade, ctx.market
    return (_log1p_kx_over_u0(x, tr) - 0.5 * m.sigma**2 * (tr.k - tr.k**2) * t) / tr.k


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


def _joint_survival_log(log_s0_over_x, t, ctx: ShorthandContext):
    """P(price at ``t`` is >= ``x_price`` and no stop by ``t``), given ``ln(s0/x_price)``.

    Survivor tail minus the reflection image weighted by ``z_star``; the one
    place the reflection law is written.
    """
    log_image = log_s0_over_x - 2.0 * ctx.log_s0_over_star
    p = _phi_at_log(ctx, log_s0_over_x, t) - ctx.z_star * _phi_at_log(ctx, log_image, t)
    return _scalar_or_array(np.clip(p, 0.0, 1.0))


def theta(x, t, ctx: ShorthandContext):
    """P(no stop by ``t`` and the no-stop gain at ``t`` is at least ``x``).

    The survivor-branch tail of the gain law: the joint survival of the
    price level whose gain equals ``x``.
    """
    tr = ctx.trade
    x = np.asarray(x, dtype=float)
    if not np.all(x > -tr.u0 / tr.k):
        raise DomainError(f"x must exceed -u0/k = {-tr.u0 / tr.k} (got {x})")
    if not np.all(np.asarray(t) > 0):
        raise DomainError(f"t must be > 0 (got {t})")
    return _joint_survival_log(-_log_b(x, t, ctx), t, ctx)


def _band(ctx: ShorthandContext, t: float):
    """Floor, band end and ``t_floor`` of the gains a stop can lock in by horizon ``t``.

    A stop at time s freezes the gain at ``g_star_t(s)``, which is monotone
    in s, so the stopped gains fill the band between its values at 0 and
    ``t``.  The floor is the lower end, locked in by a stop at ``t_floor``;
    F is 0 below it.  At k = 1 both ends are the atom ``g_star_t(0)``.
    """
    times = np.array([0.0, t])
    with np.errstate(over="ignore"):  # a late stop's gain may overflow to +inf
        ends = g_star_t(ctx.trade, ctx.market, times)
    order = np.argsort(ends, kind="stable")
    return float(ends[order[0]]), float(ends[order[1]]), float(times[order[0]])


def _joint_parts(x, t: float, ctx: ShorthandContext):
    """Branch codes and the stopped and unstopped parts of the law at levels ``x``.

    ``floor`` at and below the floor of :func:`_band`, ``upper`` from its
    band end on, ``middle`` in between.  The stopped part is 0 below the
    band, ``1 - omega(t)`` from its end on and, inside it, the stop
    probability between ``t_floor`` and the time ``a_of_x`` at which a stop
    locks in ``x``.  The unstopped part is ``omega(t) - theta(x)``, clipped
    to [0, 1], above the level curve ``g_star_t(t)`` and 0 at and below it.
    """
    if not t > 0:
        raise DomainError(f"t must be > 0 (got {t})")
    x = np.asarray(x, dtype=float)
    floor, band_end, t_floor = _band(ctx, t)
    branch = np.where(x >= band_end, _UPPER, np.where(x <= floor, _FLOOR, _MIDDLE))
    omega_t = omega(t, ctx)

    stopped = np.where(branch == _UPPER, 1.0 - omega_t, 0.0)
    middle = branch == _MIDDLE
    if middle.any():
        a = np.clip(a_of_x(x[middle], ctx), 0.0, t)
        stopped[middle] = np.abs(omega(a, ctx) - omega(t_floor, ctx))

    unstopped = np.zeros(x.shape)
    survives = x > (floor if t_floor == t else band_end)  # above the level curve g_star_t(t)
    unstopped[survives] = omega_t - theta(x[survives], t, ctx)
    return branch, stopped, np.clip(unstopped, 0.0, 1.0)


def joint_cdf_stopped(x, t: float, ctx: ShorthandContext):
    """P(gain at ``t`` is <= ``x`` and the stop fired by ``t``), at every k."""
    return _scalar_or_array(_joint_parts(x, t, ctx)[1])


def joint_cdf_unstopped(x, t: float, ctx: ShorthandContext):
    """P(gain at ``t`` is <= ``x`` and the stop never fired by ``t``), at every k."""
    return _scalar_or_array(_joint_parts(x, t, ctx)[2])


def cdf_with_stop(q: CdfQuery, ctx: ShorthandContext) -> CdfValue:
    """CDF of the stop-protected rule's gain at horizon ``q.t``, at every k.

    The sum of the two joint laws: zero at and below the floor, a band of
    stopped gains between the values of ``g_star_t`` at 0 and ``q.t``, then
    the survivor branch.  The band runs down to the level curve for
    ``k > 1`` and up to it for ``k < 1``; at ``k = 1`` it shrinks to the atom
    at the locked-in stop loss, above which the reflected lognormal tail
    adds the survivors.
    """
    branch, stopped, unstopped = _joint_parts(q.x, q.t, ctx)
    p = np.clip(stopped + unstopped, 0.0, 1.0)
    return CdfValue(_scalar_or_array(p), _BRANCH_NAMES[branch])
