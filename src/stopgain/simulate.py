"""Seeded Monte Carlo sampler for the stop-protected trading rule.

Determinism contract
--------------------
Every path's randomness is a pure function of ``(master_seed, path_index)``:
the master seed is hashed by ``numpy.random.SeedSequence`` into two 128-bit
Philox keys (price stream, bridge stream), and path ``i`` owns the counter
block ``[i * C, (i + 1) * C)`` of each keyed stream, where
``C = ceil(n_steps / 4)`` counters cover one uniform variate per step.
Normal increments come from the inverse CDF of those uniforms, so consumption
is exactly one variate per step and batch output is identical for any chunk
size or worker count.  The bridge correction draws its uniforms from the
separately keyed stream, so toggling it never perturbs the price paths.
"""

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .errors import DomainError, ParameterError, ResourceError
from .model import GainSample, MarketParams, TradeSpec, control_value, g_star_t, gain_no_stop

__all__ = [
    "PathGrid",
    "PricePath",
    "StoppedPath",
    "SeedSpec",
    "BatchResult",
    "TrajectoryStats",
    "sample_path",
    "detect_stop",
    "gain_trajectory",
    "run_batch",
]

DEFAULT_STEPS_PER_UNIT_TIME = 1024

# smallest uniform fed to the inverse normal CDF; keeps increments finite
_U_FLOOR = 2.0**-54


@dataclass(frozen=True)
class PathGrid:
    """Uniform time grid: ``n_steps`` steps of size ``t_end / n_steps``."""

    t_end: float
    n_steps: int

    def __post_init__(self):
        if not (np.isfinite(self.t_end) and self.t_end > 0):
            raise ParameterError(f"t_end must be > 0 (got {self.t_end})")
        if not (isinstance(self.n_steps, (int, np.integer)) and self.n_steps >= 1):
            raise ParameterError(f"n_steps must be an integer >= 1 (got {self.n_steps})")

    @classmethod
    def default(cls, t_end: float) -> "PathGrid":
        """Grid with :data:`DEFAULT_STEPS_PER_UNIT_TIME` steps per unit time."""
        return cls(t_end, max(1, math.ceil(DEFAULT_STEPS_PER_UNIT_TIME * t_end)))

    @property
    def dt(self) -> float:
        return self.t_end / self.n_steps

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_end, self.n_steps + 1)


@dataclass(frozen=True)
class PricePath:
    """Sampled price trajectory: ``prices[i]`` at ``times[i]``, ``prices[0] = s0``."""

    times: np.ndarray
    prices: np.ndarray

    def __post_init__(self):
        if self.times.shape != self.prices.shape or self.times.ndim != 1:
            raise ParameterError("times and prices must be 1-d arrays of equal length")
        if not np.all(np.diff(self.times) > 0):
            raise ParameterError("times must be strictly increasing")
        if not np.all(self.prices > 0):
            raise ParameterError("prices must be positive")


@dataclass(frozen=True)
class StoppedPath:
    """A price path with its stop outcome applied.

    ``t_star`` is the detected stop time (``None`` if the barrier was never
    touched), ``stop_index`` the grid index it corresponds to, and
    ``stopped_prices`` the path with the price frozen at the stop level from
    that index on.
    """

    base: PricePath
    t_star: float | None
    stop_index: int | None
    stopped_prices: np.ndarray


@dataclass(frozen=True)
class SeedSpec:
    """Addresses one path's random streams; see the module docstring."""

    master_seed: int
    path_index: int

    def __post_init__(self):
        if not (isinstance(self.master_seed, (int, np.integer)) and 0 <= self.master_seed < 2**64):
            raise ParameterError(f"master_seed must be an integer in [0, 2**64) (got {self.master_seed})")
        if not (isinstance(self.path_index, (int, np.integer)) and self.path_index >= 0):
            raise ParameterError(f"path_index must be a non-negative integer (got {self.path_index})")

    def price_uniforms(self, n_steps: int) -> np.ndarray:
        key_price, _ = _stream_keys(self.master_seed)
        return _block_uniforms(key_price, self.path_index, 1, n_steps)[0]

    def bridge_uniforms(self, n_steps: int) -> np.ndarray:
        _, key_bridge = _stream_keys(self.master_seed)
        return _block_uniforms(key_bridge, self.path_index, 1, n_steps)[0]


def _stream_keys(master_seed: int) -> tuple[np.ndarray, np.ndarray]:
    state = np.random.SeedSequence(int(master_seed)).generate_state(4, np.uint64)
    return state[:2], state[2:]


def _counters_per_path(n_steps: int) -> int:
    return -(-n_steps // 4)


def _block_uniforms(key: np.ndarray, first_path: int, n_paths: int, n_steps: int) -> np.ndarray:
    """Uniforms for paths [first_path, first_path + n_paths), one row each.

    A single contiguous Philox draw; row ``j`` reproduces exactly what a
    fresh generator at counter ``(first_path + j) * C`` would emit.
    """
    c = _counters_per_path(n_steps)
    bg = np.random.Philox(key=key, counter=int(first_path) * c)
    u = np.random.Generator(bg).random((n_paths, 4 * c))
    return u[:, :n_steps]


def _normals_from_uniforms(u: np.ndarray) -> np.ndarray:
    return ndtri(np.maximum(u, _U_FLOOR))


def sample_path(m: MarketParams, grid: PathGrid, seed: SeedSpec) -> PricePath:
    """Draw one exact-lognormal path on the grid.

    Each step multiplies the price by
    ``exp((mu - sigma**2/2) dt + sigma sqrt(dt) Z)`` with ``Z`` standard
    normal, which is the exact transition of the price model.
    """
    z = _normals_from_uniforms(seed.price_uniforms(grid.n_steps))
    increments = m.drift_rate * grid.dt + m.sigma * math.sqrt(grid.dt) * z
    log_rel = np.concatenate([[0.0], np.cumsum(increments)])
    return PricePath(times=grid.times, prices=m.s0 * np.exp(log_rel))


def detect_stop(
    p: PricePath, s_star: float, m: MarketParams, bridge: bool, seed: SeedSpec
) -> StoppedPath:
    """Find the first barrier touch on a path and freeze the price from it.

    Grid detection uses ``price <= s_star``.  With ``bridge`` enabled, a
    crossing between two above-barrier grid points is additionally sampled
    with the Brownian-bridge probability
    ``exp(-2 ln(S_i/s_star) ln(S_{i+1}/s_star) / (sigma**2 dt))``; sampled
    crossings are recorded at the interval's right endpoint.  Discrete
    monitoring alone undercounts crossings, the bridge removes that bias.
    """
    if not 0 < s_star < p.prices[0]:
        raise ParameterError(f"s_star must satisfy 0 < s_star < prices[0] (got {s_star})")
    n = len(p.prices) - 1
    log_rel = np.log(p.prices / p.prices[0])
    log_bar = math.log(s_star / p.prices[0])
    dts = np.diff(p.times)
    uniforms = seed.bridge_uniforms(n) if bridge else None
    stop_idx = _first_touch(
        log_rel[None, 1:], log_bar, m.sigma, dts[None, :],
        uniforms[None, :] if uniforms is not None else None,
    )[0]
    if stop_idx > n:
        return StoppedPath(base=p, t_star=None, stop_index=None, stopped_prices=p.prices.copy())
    stopped = p.prices.copy()
    stopped[stop_idx:] = s_star
    return StoppedPath(
        base=p, t_star=float(p.times[stop_idx]), stop_index=int(stop_idx), stopped_prices=stopped
    )


def _first_touch(log_rel, log_bar, sigma, dts, uniforms):
    """First stop index per row, in [1, n]; n+1 when never touched.

    ``log_rel``: (b, n) log prices relative to the start, excluding time 0.
    ``uniforms``: (b, n) bridge draws, or None to disable the correction.
    The bridge arithmetic runs in place and every temporary is dropped as
    soon as it is spent, so the peak stays inside the per-path estimate of
    :func:`run_batch`.
    """
    b, n = log_rel.shape
    below = log_rel <= log_bar
    hit = below.any(axis=1)
    first_below = np.where(hit, below.argmax(axis=1) + 1, n + 1)
    del below
    if uniforms is None:
        return first_below
    lhs = np.empty_like(log_rel)
    lhs[:, 0] = -log_bar
    lhs[:, 1:] = log_rel[:, :-1] - log_bar
    rhs = log_rel - log_bar
    with np.errstate(over="ignore"):
        p_cross = -2.0 * lhs
        p_cross *= rhs
        p_cross /= sigma**2 * dts
        np.exp(p_cross, out=p_cross)
    bridge_hit = lhs > 0
    del lhs
    bridge_hit &= rhs > 0
    del rhs
    bridge_hit &= uniforms < p_cross
    any_bridge = bridge_hit.any(axis=1)
    first_bridge = np.where(any_bridge, bridge_hit.argmax(axis=1) + 1, n + 2)
    return np.minimum(first_below, first_bridge)


def gain_trajectory(sp: StoppedPath, tr: TradeSpec, m: MarketParams) -> list[GainSample]:
    """Per-grid-time gain, investment and account value along one path.

    While active the closed-form gain of the observed price applies; once the
    stop fires the rule is flat, so the gain stays frozen at its value at the
    stop time.  The account value is ``v0 + g`` throughout.
    """
    times = sp.base.times
    k = len(times) if sp.stop_index is None else sp.stop_index
    g = np.empty(len(times))
    g[:k] = gain_no_stop(tr, m, sp.base.prices[:k], times[:k])
    if sp.stop_index is not None:
        g[k:] = g_star_t(tr, m, sp.t_star)
    stopped_mask = np.arange(len(times)) >= k
    u = control_value(tr, g, stopped_mask)
    return [
        GainSample(t=float(times[i]), g=float(g[i]), u=float(u[i]), v=float(tr.v0 + g[i]))
        for i in range(len(times))
    ]


@dataclass(frozen=True)
class TrajectoryStats:
    """Extremes and violation counts over every step of every path of a batch.

    Taken at each grid time after the start: the account value
    ``v = v0 + g``, the investment ``u`` (``u0 + k g`` while active, 0 from
    the stop on) and the excess ``|u| - (u0 + k v0 + k v)`` of the
    investment over its bound.  Mins, maxes and counts do not depend on the
    order paths are visited in, so chunks and workers merge exactly.  The
    defaults are the statistics of an empty batch.
    """

    min_account_value: float = math.inf
    min_active_investment: float = math.inf
    # always 0.0: the simulator itself sets u = 0 from the stop on, so the
    # stopped half of the long-only property holds by construction
    max_abs_stopped_investment: float = 0.0
    max_bound_excess: float = -math.inf
    survivability_violations: int = 0  # steps with v < 0
    long_only_violations: int = 0  # active steps with u <= 0
    control_bound_violations: int = 0  # steps with a positive excess

    def merge(self, other: "TrajectoryStats") -> "TrajectoryStats":
        return TrajectoryStats(
            min(self.min_account_value, other.min_account_value),
            min(self.min_active_investment, other.min_active_investment),
            max(self.max_abs_stopped_investment, other.max_abs_stopped_investment),
            max(self.max_bound_excess, other.max_bound_excess),
            self.survivability_violations + other.survivability_violations,
            self.long_only_violations + other.long_only_violations,
            self.control_bound_violations + other.control_bound_violations,
        )


@dataclass(frozen=True)
class BatchResult:
    """Terminal outcomes of a batch: one row per path, in path-index order.

    ``free_gain`` is the terminal gain each path would have reached with no
    stop order, and ``trajectory`` the per-step statistics; each is None
    unless :func:`run_batch` was asked for it.
    """

    terminal_gain: np.ndarray
    stop_time: np.ndarray  # NaN where the stop never fired
    free_gain: np.ndarray | None = None
    trajectory: TrajectoryStats | None = None

    @property
    def stopped(self) -> np.ndarray:
        return ~np.isnan(self.stop_time)

    @property
    def p_stopped(self) -> float:
        return float(self.stopped.mean())


def _chunk_paths(m, tr, grid, master_seed, first_path, n_paths, bridge):
    """Log-relative price matrix and stop indices for one block of paths.

    Returns ``(log_rel, stop_idx)``: ``log_rel[j, i]`` is the log price ratio
    at grid time ``i + 1`` for path ``first_path + j``, and ``stop_idx`` is
    the per-path first-touch index in ``[1, n_steps]`` (``n_steps + 1`` when
    the path never stops, everywhere when the trade has no stop order).
    """
    key_price, key_bridge = _stream_keys(master_seed)
    n = grid.n_steps
    dt = grid.dt
    z = _normals_from_uniforms(_block_uniforms(key_price, first_path, n_paths, n))
    np.multiply(z, m.sigma * math.sqrt(dt), out=z)
    z += m.drift_rate * dt
    log_rel = np.cumsum(z, axis=1, out=z)
    if tr.s_star is None:
        return log_rel, np.full(n_paths, n + 1, dtype=np.int64)
    log_bar = math.log(tr.s_star / m.s0)
    uniforms = _block_uniforms(key_bridge, first_path, n_paths, n) if bridge else None
    stop_idx = _first_touch(log_rel, log_bar, m.sigma, dt, uniforms)
    return log_rel, stop_idx


def _gain(tr, m, log_rel, t):
    """Gain ``(u0/k) expm1(k log_rel + sigma**2 (k - k**2) t / 2)`` of the active rule.

    ``log_rel`` is the log price ratio ``ln(S_t/s0)`` at time ``t``; at the
    stop level it gives the gain frozen by a stop at ``t``.
    """
    half = 0.5 * m.sigma**2 * (tr.k - tr.k**2)
    return (tr.u0 / tr.k) * np.expm1(tr.k * log_rel + half * t)


# Path-steps per sub-block of the trajectory pass, 512 KiB per float64
# temporary.  Blocks that stay in cache run the pass about twice as fast as
# 2048-row blocks at 1024 steps, and keep its temporaries far below a chunk.
_TRAJECTORY_CELLS = 2**16


def _trajectory_stats(tr, m, grid, log_rel, stop_idx, frozen):
    """:class:`TrajectoryStats` of one block of paths, a few rows at a time.

    ``frozen`` is the per-path gain locked in at the stop, or None when the
    trade has no stop order.
    """
    col = np.arange(1, grid.n_steps + 1)
    times = grid.times[1:]
    cap = tr.u0 + tr.k * tr.v0  # |u| bound is this plus k times the account value
    n_rows = max(1, _TRAJECTORY_CELLS // grid.n_steps)
    stats = TrajectoryStats()
    for first in range(0, len(stop_idx), n_rows):
        rows = slice(first, first + n_rows)
        stopped = col >= stop_idx[rows, None]
        active = ~stopped
        g = _gain(tr, m, log_rel[rows], times)
        if frozen is not None:
            np.copyto(g, frozen[rows, None], where=stopped)
        u = tr.u0 + tr.k * g
        u[stopped] = 0.0
        long_only = np.count_nonzero((u <= 0) & active)
        min_u_active = np.min(u, where=active, initial=math.inf)
        np.abs(u, out=u)
        v = g  # the account value v0 + g, in place of g
        v += tr.v0
        min_v = v.min()
        survivability = np.count_nonzero(v < 0)
        v *= tr.k
        v += cap
        excess = u  # |u| - (cap + k v), in place of |u|
        excess -= v
        stats = stats.merge(
            TrajectoryStats(
                float(min_v), float(min_u_active), 0.0, float(excess.max()),
                int(survivability), int(long_only), int(np.count_nonzero(excess > 0)),
            )
        )
    return stats


def _simulate_chunk(m, tr, grid, master_seed, first_path, n_paths, bridge, trajectory):
    """Outcomes of one contiguous block of paths.

    Returns ``(terminal, stop_time, free, stats)``: the terminal gain, the
    stop time (NaN where the stop never fired), the terminal gain without a
    stop order, and the block's :class:`TrajectoryStats` (None unless
    ``trajectory``).  Every gain comes from :func:`_gain`.
    """
    n = grid.n_steps
    log_rel, stop_idx = _chunk_paths(m, tr, grid, master_seed, first_path, n_paths, bridge)
    stopped = stop_idx <= n
    stop_time = np.full(n_paths, np.nan)
    stop_time[stopped] = grid.times[stop_idx[stopped]]
    free = _gain(tr, m, log_rel[:, -1], grid.t_end)
    if tr.s_star is None:
        frozen, terminal = None, free
    else:
        frozen = _gain(tr, m, math.log(tr.s_star / m.s0), stop_time)
        terminal = np.where(stopped, frozen, free)
    stats = _trajectory_stats(tr, m, grid, log_rel, stop_idx, frozen) if trajectory else None
    return terminal, stop_time, free, stats


def _chunk_worker(args):
    return _simulate_chunk(*args)


def run_batch(
    m: MarketParams,
    tr: TradeSpec,
    grid: PathGrid,
    n_paths: int,
    master_seed: int,
    bridge: bool = True,
    n_workers: int = 1,
    memory_budget_mb: int = 512,
    sink=None,
    free_gain: bool = False,
    trajectory: bool = False,
) -> BatchResult:
    """Simulate ``n_paths`` paths and collect terminal gains and stop times.

    Output order is by path index and is bit-identical for any ``n_workers``
    and any chunking, because every path owns its own random stream.  Chunks
    are sized so the working set stays inside ``memory_budget_mb``; a grid so
    fine that a single path exceeds the budget raises :class:`ResourceError`.
    With a ``sink`` (writable text stream), rows ``path_index,t_star,gain``
    are also written in index order, with 17 significant digits and an empty
    ``t_star`` field for paths that never stop.

    Two extras come from the same pass, so no caller simulates the paths
    again: ``free_gain=True`` keeps each path's terminal gain without the
    stop order (8 bytes a path, which a batch streamed to a sink does not
    need), and ``trajectory=True`` reduces every step of every path to the
    :class:`TrajectoryStats` of the result.

    ``tr.s_star is None`` disables stop detection entirely: the result then
    holds always-active terminal gains and all-NaN stop times.
    """
    if not (isinstance(n_paths, (int, np.integer)) and n_paths >= 1):
        raise ParameterError(f"n_paths must be an integer >= 1 (got {n_paths})")
    SeedSpec(master_seed, 0)
    if tr.s_star is not None and not 0 < tr.s_star < m.s0:
        raise ParameterError(f"s_star must satisfy 0 < s_star < s0 (got s_star={tr.s_star}, s0={m.s0})")
    if not n_workers >= 1:
        raise ParameterError(f"n_workers must be >= 1 (got {n_workers})")

    # six float64 matrices of padded width is the peak working set per path
    per_path_bytes = 8 * 4 * _counters_per_path(grid.n_steps) * 6
    budget = int(memory_budget_mb) * 2**20
    if per_path_bytes > budget:
        raise ResourceError(
            f"one path needs {per_path_bytes} bytes of working memory, over the "
            f"{memory_budget_mb} MiB budget; raise the budget to stream this grid"
        )
    chunk = max(1, min(int(n_paths), budget // per_path_bytes, 16384))

    starts = list(range(0, int(n_paths), chunk))
    jobs = [
        (m, tr, grid, int(master_seed), s, min(chunk, int(n_paths) - s), bridge, trajectory)
        for s in starts
    ]
    terminal = np.empty(int(n_paths))
    stop_time = np.empty(int(n_paths))
    free = np.empty(int(n_paths)) if free_gain else None
    stats = TrajectoryStats() if trajectory else None

    def _collect(results):
        nonlocal stats
        for s, (term, st, fr, part) in zip(starts, results):
            terminal[s : s + len(term)] = term
            stop_time[s : s + len(st)] = st
            if free_gain:
                free[s : s + len(fr)] = fr
            if trajectory:
                stats = stats.merge(part)
            if sink is not None:
                _write_rows(sink, s, term, st)

    if n_workers == 1 or len(jobs) == 1:
        _collect(_chunk_worker(j) for j in jobs)
    else:
        with ProcessPoolExecutor(max_workers=int(n_workers)) as pool:
            _collect(pool.map(_chunk_worker, jobs))
    return BatchResult(terminal_gain=terminal, stop_time=stop_time, free_gain=free, trajectory=stats)


def _write_rows(sink, first_path, terminal, stop_time):
    lines = []
    for j in range(len(terminal)):
        t_field = "" if np.isnan(stop_time[j]) else f"{stop_time[j]:.17g}"
        lines.append(f"{first_path + j},{t_field},{terminal[j]:.17g}\n")
    sink.write("".join(lines))
