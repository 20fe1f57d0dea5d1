"""Market and trading-rule parameters plus the closed-form gain expressions.

The trading rule invests ``u(t) = u0 + K * g(t)`` while active, where ``g`` is
the cumulative profit-or-loss, and goes flat once the price touches the stop
level.  Everything downstream (distribution functions, simulation, checks)
builds on the gain expressions defined here.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError

__all__ = [
    "MarketParams",
    "TradeSpec",
    "z_star",
    "g_star_t",
    "gain",
    "check_survivability",
    "expected_gain_lower_bound",
]


def _square_is_positive_finite(value) -> bool:
    """True when ``value > 0`` and its float square is neither 0 nor inf."""
    value = float(value)  # a Python float squares to inf or 0 without a warning
    return value > 0 and 0.0 < value * value < math.inf


@dataclass(frozen=True)
class MarketParams:
    """Geometric Brownian motion price model ``dS/S = mu dt + sigma dW``.

    Parameters
    ----------
    mu : float
        Drift rate per unit time.
    sigma : float
        Volatility per square-root unit time; positive, with a finite, nonzero square.
    s0 : float
        Initial price in currency; must be positive.
    """

    mu: float
    sigma: float
    s0: float

    def __post_init__(self):
        if not np.isfinite(self.mu):
            raise ParameterError(f"mu must be finite (got {self.mu})")
        if not _square_is_positive_finite(self.sigma):
            raise ParameterError(f"sigma must be > 0 with a finite, nonzero square (got {self.sigma})")
        if not (np.isfinite(self.s0) and self.s0 > 0):
            raise ParameterError(f"s0 must be > 0 (got {self.s0})")

    @property
    def drift_rate(self) -> float:
        """Drift of the log price, ``mu - sigma**2 / 2``."""
        return self.mu - 0.5 * self.sigma**2


@dataclass(frozen=True)
class TradeSpec:
    """Affine feedback trading rule with an optional stop order.

    Parameters
    ----------
    u0 : float
        Initial investment level in currency; must be positive.
    k : float
        Feedback gain applied to the running profit-or-loss; positive, with a
        finite, nonzero square (sigma**2 and k**2 enter every law).
    v0 : float or None
        Initial account value in currency; must be positive.  ``None`` (the
        default) sets it to ``u0 / k``, the least value with ``u0 <= k * v0``.
    s_star : float or None
        Stop price in currency.  ``None`` (the default) disables the stop
        order entirely.  When present it must be positive and below the
        paired market's ``s0`` (checked wherever market and trade meet).
    """

    u0: float
    k: float
    v0: float | None = None
    s_star: float | None = None

    def __post_init__(self):
        if not (np.isfinite(self.u0) and self.u0 > 0):
            raise ParameterError(f"u0 must be > 0 (got {self.u0})")
        if not _square_is_positive_finite(self.k):
            raise ParameterError(f"k must be > 0 with a finite, nonzero square (got {self.k})")
        if self.v0 is None:
            object.__setattr__(self, "v0", self.u0 / self.k)
        if not (np.isfinite(self.v0) and self.v0 > 0):
            raise ParameterError(f"v0 must be > 0 (got {self.v0})")
        if self.s_star is not None and not (np.isfinite(self.s_star) and self.s_star > 0):
            raise ParameterError(f"s_star must be > 0 (got {self.s_star})")


def require_stop(tr: TradeSpec, m: MarketParams) -> float:
    """Return the stop price, enforcing ``0 < s_star < s0`` and ``s_star/s0 > 0`` for the pair."""
    if tr.s_star is None:
        raise ParameterError("operation requires a stop order but s_star is None")
    if not tr.s_star < m.s0:
        raise ParameterError(
            f"s_star must satisfy 0 < s_star < s0 (got s_star={tr.s_star}, s0={m.s0})"
        )
    if tr.s_star / m.s0 == 0:
        raise ParameterError(f"s_star/s0 rounds to 0, which has no log (got s_star={tr.s_star}, s0={m.s0})")
    return tr.s_star


def z_star(m: MarketParams, tr: TradeSpec) -> float:
    """Reflection weight ``(s_star/s0)**(2*mu/sigma**2 - 1)``.

    Scales the image term that removes paths already absorbed at the stop
    level from survivor probabilities.  Raises :class:`DomainError` when the
    weight overflows a float.
    """
    s_star = require_stop(tr, m)
    exponent = 2.0 * m.mu / m.sigma**2 - 1.0
    try:
        return float((s_star / m.s0) ** exponent)
    except OverflowError:
        raise DomainError(
            f"reflection weight (s_star/s0)**{exponent:g} overflows a float "
            f"(s_star={s_star}, s0={m.s0}, mu={m.mu}, sigma={m.sigma})"
        ) from None


def gain(tr: TradeSpec, m: MarketParams, log_rel, t):
    """Gain ``(u0/k) expm1(k log_rel + sigma**2 (k - k**2) t / 2)`` of the active rule.

    ``log_rel`` is the log price ratio ``ln(S_t/s0)`` at time ``t``; at the
    stop level it gives the gain frozen by a stop at ``t``.  This is the one
    place the gain map is written: the closed forms and the simulator all
    evaluate it here.  Unchecked and vectorized; the public wrappers below
    validate their arguments.
    """
    half = 0.5 * m.sigma**2 * (tr.k - tr.k**2)
    return (tr.u0 / tr.k) * np.expm1(tr.k * log_rel + half * t)


def g_star_t(tr: TradeSpec, m: MarketParams, t):
    """Gain locked in when the stop fires at time ``t``.

    :func:`gain` at the stop level: (u0/k) ((s_star/s0)^k e^(sigma^2 (k - k^2) t/2) - 1).
    Decreasing in ``t`` for ``k > 1``, increasing for ``k < 1`` and constant for
    ``k = 1``; at ``t = 0`` it is the k = 1 atom and the k < 1 floor.  Vectorized.
    """
    s_star = require_stop(tr, m)
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise DomainError("t must be >= 0")
    out = gain(tr, m, math.log(s_star / m.s0), t)
    return float(out) if out.ndim == 0 else out


def check_survivability(tr: TradeSpec) -> bool:
    """True when ``u0 <= k * v0``, the condition keeping the account >= 0."""
    return tr.u0 <= tr.k * tr.v0


def expected_gain_lower_bound(c: float, v0: float, f_at: float) -> float:
    """Lower bound ``c * (1 - f_at) - v0`` on the expected gain.

    ``f_at`` is the gain CDF evaluated at ``c - v0`` for any cutoff ``c > 0``.
    """
    if not c > 0:
        raise DomainError(f"c must be > 0 (got {c})")
    if not 0.0 <= f_at <= 1.0:
        raise DomainError(f"f_at must lie in [0, 1] (got {f_at})")
    return c * (1.0 - f_at) - v0
