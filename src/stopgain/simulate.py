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
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .errors import ParameterError, ResourceError
from .model import MarketParams, TradeSpec, gain, require_stop

__all__ = [
    "PathGrid",
    "PathTrajectory",
    "BatchResult",
    "TrajectoryStats",
    "path_trajectory",
    "run_batch",
]

DEFAULT_STEPS_PER_UNIT_TIME = 1024
DEFAULT_MEMORY_BUDGET_MB = 512

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


def _check_stream(master_seed, path_index):
    """Reject a master seed or path index that addresses no stream; see the module docstring."""
    if not (isinstance(master_seed, (int, np.integer)) and 0 <= master_seed < 2**64):
        raise ParameterError(f"master_seed must be an integer in [0, 2**64) (got {master_seed})")
    if not (isinstance(path_index, (int, np.integer)) and path_index >= 0):
        raise ParameterError(f"path_index must be a non-negative integer (got {path_index})")


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


def _first_touch(log_rel, log_bar, sigma, dt, uniforms):
    """First stop index per row, in [1, n]; n+1 when never touched.

    ``log_rel``: (b, n) log prices relative to the start, excluding time 0,
    on a grid of step ``dt``; a grid point at or below ``log_bar`` is a touch.
    ``uniforms``: (b, n) bridge draws, or None to disable the correction.
    With the bridge, a crossing between two grid points above the barrier is
    sampled with the Brownian-bridge probability
    ``exp(-2 ln(S_i/s_star) ln(S_{i+1}/s_star) / (sigma**2 dt))`` and stamped
    at the interval's right endpoint, so it only ever adds earlier stops.
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
        p_cross /= sigma**2 * dt
        np.exp(p_cross, out=p_cross)
    bridge_hit = lhs > 0
    del lhs
    bridge_hit &= rhs > 0
    del rhs
    bridge_hit &= uniforms < p_cross
    any_bridge = bridge_hit.any(axis=1)
    first_bridge = np.where(any_bridge, bridge_hit.argmax(axis=1) + 1, n + 2)
    return np.minimum(first_below, first_bridge)


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


def _stops(tr, m, grid, stop_idx):
    """Stop time of each path and the gain frozen at it, both NaN where the stop never fired."""
    stopped = stop_idx <= grid.n_steps
    stop_time = np.full(len(stop_idx), np.nan)
    stop_time[stopped] = grid.times[stop_idx[stopped]]
    if tr.s_star is None:
        return stop_time, stop_time.copy()
    return stop_time, gain(tr, m, math.log(tr.s_star / m.s0), stop_time)


def _rule_steps(tr, m, log_rel, col, stop_idx, frozen, times):
    """Gain ``g`` and investment ``u`` of the rule at grid indices ``col`` of some paths.

    ``log_rel`` holds the paths' log price ratios at those indices, one row
    each, and ``times`` the grid times.  From each path's ``stop_idx`` on the
    gain is frozen at its ``frozen`` value and the investment is zero.
    Returns ``(g, u, stopped)``, with ``stopped`` the mask of those steps.
    """
    stopped = col >= stop_idx[:, None]
    g = gain(tr, m, log_rel, times)
    np.copyto(g, frozen[:, None], where=stopped)
    # model.control_value's np.where gives the same u but ran the trajectory pass ~15% slower
    u = tr.u0 + tr.k * g
    u[stopped] = 0.0
    return g, u, stopped


# Path-steps per sub-block of the trajectory pass, 512 KiB per float64
# temporary.  Blocks that stay in cache run the pass about twice as fast as
# 2048-row blocks at 1024 steps, and keep its temporaries far below a chunk.
_TRAJECTORY_CELLS = 2**16


def _trajectory_stats(tr, m, grid, log_rel, stop_idx, frozen):
    """:class:`TrajectoryStats` of one block of paths, a few rows at a time.

    ``frozen`` is the per-path gain locked in at the stop.
    """
    col = np.arange(1, grid.n_steps + 1)
    times = grid.times[1:]
    cap = tr.u0 + tr.k * tr.v0  # |u| bound is this plus k times the account value
    n_rows = max(1, _TRAJECTORY_CELLS // grid.n_steps)
    stats = TrajectoryStats()
    for first in range(0, len(stop_idx), n_rows):
        rows = slice(first, first + n_rows)
        g, u, stopped = _rule_steps(tr, m, log_rel[rows], col, stop_idx[rows], frozen[rows], times)
        active = ~stopped
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
    ``trajectory``).  Every gain comes from :func:`model.gain`.
    """
    log_rel, stop_idx = _chunk_paths(m, tr, grid, master_seed, first_path, n_paths, bridge)
    stop_time, frozen = _stops(tr, m, grid, stop_idx)
    free = gain(tr, m, log_rel[:, -1], grid.t_end)
    terminal = np.where(stop_idx <= grid.n_steps, frozen, free)
    stats = _trajectory_stats(tr, m, grid, log_rel, stop_idx, frozen) if trajectory else None
    return terminal, stop_time, free, stats


@dataclass(frozen=True)
class PathTrajectory:
    """One simulated path at every grid time, ``times[0] = 0`` included.

    ``prices`` starts at ``s0``.  ``g`` is the gain, ``u`` the investment
    and ``v = v0 + g`` the account value; from ``stop_index`` on the gain is
    frozen and the investment zero.  ``stop_index`` is None when the stop
    never fired.
    """

    times: np.ndarray
    prices: np.ndarray
    g: np.ndarray
    u: np.ndarray
    v: np.ndarray
    stop_index: int | None


def path_trajectory(
    m: MarketParams,
    tr: TradeSpec,
    grid: PathGrid,
    master_seed: int,
    path_index: int,
    bridge: bool = True,
) -> PathTrajectory:
    """Path ``path_index`` of any :func:`run_batch` call with these arguments, step by step.

    The chunk kernel runs on that one row, so the prices, the stop and the
    terminal gain ``g[-1]`` are bit for bit those of the batch.
    """
    _check_stream(master_seed, path_index)
    if tr.s_star is not None:
        require_stop(tr, m)
    log_rel, stop_idx = _chunk_paths(m, tr, grid, master_seed, path_index, 1, bridge)
    log_rel = np.pad(log_rel, ((0, 0), (1, 0)))  # time 0, where the log price ratio is 0
    _, frozen = _stops(tr, m, grid, stop_idx)
    g, u, _ = _rule_steps(tr, m, log_rel, np.arange(grid.n_steps + 1), stop_idx, frozen, grid.times)
    stop = int(stop_idx[0])
    return PathTrajectory(
        times=grid.times, prices=m.s0 * np.exp(log_rel[0]), g=g[0], u=u[0], v=tr.v0 + g[0],
        stop_index=stop if stop <= grid.n_steps else None,
    )


def _chunk_worker(args):
    return _simulate_chunk(*args)


def _check_batch_args(m, tr, grid, n_paths, master_seed, n_workers, memory_budget_mb=DEFAULT_MEMORY_BUDGET_MB):
    """Reject a bad :func:`run_batch` request before any output is opened; return its chunk size."""
    if not (isinstance(n_paths, (int, np.integer)) and n_paths >= 1):
        raise ParameterError(f"n_paths must be an integer >= 1 (got {n_paths})")
    _check_stream(master_seed, 0)
    if tr.s_star is not None:
        require_stop(tr, m)
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
    return max(1, min(int(n_paths), budget // per_path_bytes, 16384))


def run_batch(
    m: MarketParams,
    tr: TradeSpec,
    grid: PathGrid,
    n_paths: int,
    master_seed: int,
    bridge: bool = True,
    n_workers: int = 1,
    memory_budget_mb: int = DEFAULT_MEMORY_BUDGET_MB,
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
    ``t_star`` field for paths that never stop.  Rows are formatted a chunk
    at a time as each chunk arrives; their bytes depend only on the seed and
    the model, grid and trade arguments, not on ``n_workers`` or
    ``memory_budget_mb``.

    Two extras come from the same pass, so no caller simulates the paths
    again: ``free_gain=True`` keeps each path's terminal gain without the
    stop order (8 bytes a path, which a batch streamed to a sink does not
    need), and ``trajectory=True`` reduces every step of every path to the
    :class:`TrajectoryStats` of the result.

    ``tr.s_star is None`` disables stop detection entirely: the result then
    holds always-active terminal gains and all-NaN stop times.
    """
    chunk = _check_batch_args(m, tr, grid, n_paths, master_seed, n_workers, memory_budget_mb)
    starts = list(range(0, int(n_paths), chunk))
    jobs = [
        (m, tr, grid, int(master_seed), s, min(chunk, int(n_paths) - s), bridge, trajectory)
        for s in starts
    ]
    terminal = np.empty(int(n_paths))
    stop_time = np.empty(int(n_paths))
    free = np.empty(int(n_paths)) if free_gain else None
    stats = TrajectoryStats() if trajectory else None

    pool = ProcessPoolExecutor(max_workers=int(n_workers)) if n_workers > 1 and len(jobs) > 1 else None
    with pool or nullcontext():
        for s, (term, st, fr, part) in zip(starts, (pool.map if pool else map)(_chunk_worker, jobs)):
            terminal[s : s + len(term)] = term
            stop_time[s : s + len(st)] = st
            if free_gain:
                free[s : s + len(fr)] = fr
            if trajectory:
                stats = stats.merge(part)
            if sink is not None:
                _write_rows(sink, s, term, st)
    return BatchResult(terminal_gain=terminal, stop_time=stop_time, free_gain=free, trajectory=stats)


def _write_rows(sink, first_path, terminal, stop_time):
    """CSV rows ``path_index,t_star,gain`` of one chunk; each distinct (grid) stop time is formatted once."""
    times, which = np.unique(stop_time, return_inverse=True)
    text = np.array(["" if math.isnan(t) else "%.17g" % t for t in times.tolist()], dtype=object)
    index = np.arange(first_path, first_path + len(terminal))
    write_csv(sink, [index, text[which], terminal], ("%d", "%s", "%.17g"))


# Rows per block of write_csv: one % operation over a flat tuple formats a block
# with the bytes of a per-field %, and keeps its text and tuple well under 1 MiB.
_CSV_BLOCK_ROWS = 4096


def write_csv(sink, columns, formats=None):
    """Write equal-length 1-d arrays to ``sink`` as CSV rows, ``%.17g`` per field unless ``formats``."""
    n_cols = len(columns)
    row = ",".join(formats or ["%.17g"] * n_cols) + "\n"
    for first in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
        block = [col[first : first + _CSV_BLOCK_ROWS].tolist() for col in columns]
        fields = [None] * (n_cols * len(block[0]))
        for c, values in enumerate(block):
            fields[c::n_cols] = values
        sink.write(row * len(block[0]) % tuple(fields))
