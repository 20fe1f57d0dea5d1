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

import contextvars
import math
import multiprocessing
from collections import deque
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from contextlib import closing, contextmanager
from dataclasses import dataclass
from itertools import starmap

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
    """Uniform time grid: ``n_steps`` steps of size ``t_end / n_steps``.

    ``n_steps=None`` (the default) gives ``max(1, ceil(DEFAULT_STEPS_PER_UNIT_TIME * t_end))``.
    """

    t_end: float
    n_steps: int | None = None

    def __post_init__(self):
        if not (np.isfinite(self.t_end) and self.t_end > 0):
            raise ParameterError(f"t_end must be > 0 (got {self.t_end})")
        if self.n_steps is None:
            steps = DEFAULT_STEPS_PER_UNIT_TIME * self.t_end
            if not math.isfinite(steps):
                raise ParameterError(f"t_end is too long for the default grid (got {self.t_end})")
            object.__setattr__(self, "n_steps", max(1, math.ceil(steps)))
        if not (isinstance(self.n_steps, (int, np.integer)) and self.n_steps >= 1):
            raise ParameterError(f"n_steps must be an integer >= 1 (got {self.n_steps})")

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


def _stream(key: np.ndarray, first_path: int, n_steps: int) -> np.random.Generator:
    """Generator of the stream keyed ``key``, at the first counter of path ``first_path``."""
    counter = int(first_path) * _counters_per_path(n_steps)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def _draw_uniforms(stream: np.random.Generator, n_paths: int, n_steps: int, out=None) -> np.ndarray:
    """Uniforms of the next ``n_paths`` paths of ``stream``, one row each, in ``out`` if given.

    A row takes ``C`` whole counters of 4 variates each, so the draw ends
    where the next path's counters begin: row ``j`` of any draw is exactly
    what a fresh :func:`_stream` at that path would emit.  ``out`` is then
    an ``(n_paths, 4 C)`` float64 array.
    """
    return stream.random((n_paths, 4 * _counters_per_path(n_steps)), out=out)[:, :n_steps]


def _streams(tr, grid, master_seed, first_path, bridge):
    """Price and bridge streams at path ``first_path``; the bridge one is None when unused."""
    key_price, key_bridge = _stream_keys(master_seed)
    uses_bridge = bridge and tr.s_star is not None
    return (
        _stream(key_price, first_path, grid.n_steps),
        _stream(key_bridge, first_path, grid.n_steps) if uses_bridge else None,
    )


def _normals_from_uniforms(u: np.ndarray) -> np.ndarray:
    """Standard normals from ``u``, computed in place: the uniforms are consumed."""
    return ndtri(np.maximum(u, _U_FLOOR, out=u), out=u)


# Path-steps per row block of the chunk kernel.  A float64 temporary is then
# 128 KiB, glibc's default mmap threshold, and a block's half dozen fit in a
# 2 MiB L2 cache.  Blocks of 2**15 and 2**16 cells made glibc hand their
# temporaries back to the OS and fault them in again for every block (250k to
# 540k minor faults per 50000 x 1024 batch, against about 400); blocks of
# 2**13 cells or fewer spent more on per-block calls than they saved.
_BLOCK_CELLS = 2**14

# Row blocks per group of price increments the chunk kernel draws at once.
# An in-process chunk draws each group on a helper thread while it searches
# the previous one, and a hand-off per group rather than per block keeps the
# two threads from trading the GIL at every block.
_DRAW_BLOCKS = 4

# A bridge cell whose exponent is at most this cannot cross unless its draw is
# exactly 0: exp(-40) < 2**-54, below the smallest positive Philox uniform.
_BRIDGE_CUT = -40.0


def _first_touch(log_rel, log_bar, sigma, dt, uniforms):
    """First stop index per row of one row block, in [1, n]; n+1 when never touched.

    ``log_rel``: (b, n) log prices relative to the start, excluding time 0,
    on a grid of step ``dt``; a grid point at or below ``log_bar`` is a touch.
    ``uniforms``: (b, n) bridge draws, or None to disable the correction.
    With the bridge, a crossing between two grid points above the barrier is
    sampled with the Brownian-bridge probability
    ``exp(-2 ln(S_i/s_star) ln(S_{i+1}/s_star) / (sigma**2 dt))`` and stamped
    at the interval's right endpoint, so it only ever adds earlier stops.
    When ``sigma**2 dt`` underflows to 0 no crossing is possible and only the
    grid touches count.

    The draws must be multiples of 2**-53 in [0, 1), as Philox ``random()``
    gives.  Then a cell whose exponent is at most :data:`_BRIDGE_CUT` crosses
    only on a draw of exactly 0, so ``exp`` runs only on the cells that can
    cross (both ends above the barrier, and an exponent above the cut or a
    zero draw) and the stops are those of evaluating every cell.

    The caller runs it under ``np.errstate(over="ignore")``, entered once a
    chunk: an exponent past the float range is -inf on a cell that cannot
    cross, or +inf on a cell that is no candidate.
    """
    n = log_rel.shape[1]
    hit = log_rel <= log_bar
    var = sigma**2 * dt
    if uniforms is not None and var > 0:
        rhs = log_rel - log_bar
        e = np.empty_like(rhs)  # -2 lhs rhs / var, lhs being rhs one step earlier
        e[:, 0] = -2.0 * -log_bar
        np.multiply(rhs[:, :-1], -2.0, out=e[:, 1:])
        e *= rhs
        e /= var
        above = rhs > 0
        cand = np.empty_like(above)  # both ends above the barrier
        cand[:, 0] = above[:, 0] & (-log_bar > 0)
        np.logical_and(above[:, 1:], above[:, :-1], out=cand[:, 1:])
        cand &= (e > _BRIDGE_CUT) | (uniforms == 0)
        np.exp(e, out=e, where=cand)
        cand &= uniforms < e
        hit |= cand
    return np.where(hit.any(axis=1), hit.argmax(axis=1) + 1, n + 1)


@dataclass(frozen=True)
class TrajectoryStats:
    """Extremes and violation counts over every step of every path of a batch.

    Taken at each grid time after the start: the account value
    ``v = v0 + g``, the investment ``u`` (``u0 + k g`` while active, 0 from
    the stop on) and the excess ``|u| - (u0 + k v0 + k v)`` of the
    investment over its bound.  Only the active investment is reduced: the
    kernel itself sets ``u = 0`` from the stop on.  Mins, maxes and counts do
    not depend on the order paths are visited in, so chunks and workers merge
    exactly.  The defaults are the statistics of an empty batch.
    """

    min_account_value: float = math.inf
    min_active_investment: float = math.inf
    max_bound_excess: float = -math.inf
    survivability_violations: int = 0  # steps with v < 0
    long_only_violations: int = 0  # active steps with u <= 0
    control_bound_violations: int = 0  # steps with a positive excess

    def merge(self, other: "TrajectoryStats") -> "TrajectoryStats":
        return TrajectoryStats(
            min(self.min_account_value, other.min_account_value),
            min(self.min_active_investment, other.min_active_investment),
            max(self.max_bound_excess, other.max_bound_excess),
            self.survivability_violations + other.survivability_violations,
            self.long_only_violations + other.long_only_violations,
            self.control_bound_violations + other.control_bound_violations,
        )


@dataclass(frozen=True)
class BatchResult:
    """Terminal outcomes of a batch: one row per path, in path-index order.

    ``free_gain`` is the terminal gain each path would have reached with no
    stop order, and ``trajectory`` the per-step statistics, None unless
    :func:`run_batch` was asked for them.
    """

    terminal_gain: np.ndarray
    stop_time: np.ndarray  # NaN where the stop never fired
    free_gain: np.ndarray
    trajectory: TrajectoryStats | None = None

    @property
    def stopped(self) -> np.ndarray:
        return ~np.isnan(self.stop_time)

    @property
    def p_stopped(self) -> float:
        return float(self.stopped.mean())


def _price_increments(m, grid, price, n_paths, out=None):
    """Log price increments of the next ``n_paths`` paths of the ``price`` stream, one row each.

    The first stage of the chunk kernel: the drift plus the scaled normal of
    each step, which is all a path's price draws feed.  They are computed in
    ``out`` if given, as for :func:`_draw_uniforms`.
    """
    dt = grid.dt
    z = _normals_from_uniforms(_draw_uniforms(price, n_paths, grid.n_steps, out))
    np.multiply(z, m.sigma * math.sqrt(dt), out=z)
    z += m.drift_rate * dt
    return z


def _block_paths(m, tr, grid, bridge, z):
    """Log-relative price matrix and stop indices of the paths whose increments are ``z``.

    The second stage of the chunk kernel; ``z`` is consumed.  ``bridge`` is
    the bridge stream of :func:`_streams` at the block's first path (or
    None), and is left at the first path after it.  Returns ``(log_rel,
    stop_idx)``: ``log_rel[j, i]`` is the log price ratio at grid time
    ``i + 1`` for the block's path ``j``, and ``stop_idx`` is the per-path
    first-touch index in ``[1, n_steps]`` (``n_steps + 1`` when the path
    never stops, everywhere when the trade has no stop order).
    """
    n_paths, n = z.shape
    log_rel = np.cumsum(z, axis=1, out=z)
    if tr.s_star is None:
        return log_rel, np.full(n_paths, n + 1, dtype=np.int64)
    log_bar = math.log(tr.s_star / m.s0)
    uniforms = None if bridge is None else _draw_uniforms(bridge, n_paths, n)
    return log_rel, _first_touch(log_rel, log_bar, m.sigma, grid.dt, uniforms)


def _stops(tr, m, grid):
    """Stop time and the gain a stop then locks in, as tables over stop indices 0..n+1.

    Both are NaN at n+1, the index of a path whose stop never fired.
    """
    stop_time = np.append(grid.times, np.nan)
    if tr.s_star is None:
        return stop_time, np.full_like(stop_time, np.nan)
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
    u = tr.u0 + tr.k * g
    u[stopped] = 0.0
    return g, u, stopped


def _trajectory_stats(tr, m, log_rel, stop_idx, frozen, times):
    """:class:`TrajectoryStats` of one row block of paths.

    ``frozen`` is the per-path gain locked in at the stop, and ``times`` the
    grid times after the start.
    """
    cap = tr.u0 + tr.k * tr.v0  # |u| bound is this plus k times the account value
    col = np.arange(1, len(times) + 1)
    g, u, stopped = _rule_steps(tr, m, log_rel, col, stop_idx, frozen, times)
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
    return TrajectoryStats(
        float(min_v), float(min_u_active), float(excess.max()),
        int(survivability), int(long_only), int(np.count_nonzero(excess > 0)),
    )


# The stop event of a worker process of :func:`_pool`; None in any other process.
_stop = None


def _set_stop(event):
    """Worker initializer of :func:`_pool`: keep the pool's stop event."""
    global _stop
    _stop = event


def _ahead(items):
    """The items of ``items``, none of them None, the next drawn on a helper thread while the caller uses this one.

    One item is in flight at a time, drawn in a copy of the caller's context,
    so numpy's error state holds on the helper too.  The thread is joined
    when the items run out, when either side raises and when the generator
    is closed.
    """
    items = iter(items)
    with ThreadPoolExecutor(max_workers=1) as helper:

        def fetch():
            return helper.submit(contextvars.copy_context().run, next, items, None)

        pending = fetch()
        while (item := pending.result()) is not None:
            pending = fetch()
            yield item


def _simulate_chunk(m, tr, grid, master_seed, first_path, n_paths, bridge, trajectory):
    """Outcomes of one contiguous block of paths, a row block at a time.

    Returns ``(terminal, stop_time, free, stats)``: the terminal gain, the
    stop time (NaN where the stop never fired), the terminal gain without a
    stop order, and the block's :class:`TrajectoryStats` (None unless
    ``trajectory``).  Every gain comes from :func:`model.gain`.  The price
    increments are drawn :data:`_DRAW_BLOCKS` row blocks at a time, and each
    row block is then summed, searched with its bridge draws and reduced,
    from one pair of streams set up for the chunk; the paths' own counters
    make that the chunk-wide draw.  In this process a helper thread draws the
    next group of increments while the row blocks of this one are searched;
    each stream is still read by one thread, in path order.  A pool worker,
    whose process already has a core of its own, draws inline, and when its
    stop event is set it returns before the next row block, with the
    outcomes of the paths searched so far.
    """
    n = grid.n_steps
    stop_time, frozen = _stops(tr, m, grid)
    stop_idx = np.empty(n_paths, dtype=np.int64)
    last = np.empty(n_paths)  # log price ratio at t_end
    stats = TrajectoryStats() if trajectory else None
    price, bridge = _streams(tr, grid, master_seed, first_path, bridge)
    step = max(1, _BLOCK_CELLS // n)
    size = _DRAW_BLOCKS * step
    # group g is drawn into buffer g % 2 once the loop below has asked for
    # group g - 1, and so is done with group g - 2: at most one is drawn ahead
    buffers = np.empty((2, min(size, n_paths), 4 * _counters_per_path(n)))
    groups = (
        _price_increments(m, grid, price, min(size, n_paths - start), buffers[g % 2, : n_paths - start])
        for g, start in enumerate(range(0, n_paths, size))
    )
    if _stop is None:
        groups = _ahead(groups)
    first = 0
    # for _first_touch; an overflowing gain in the trajectory pass still warns,
    # as the inf - inf of its bound excess
    with np.errstate(over="ignore"), closing(groups):
        for z in (group[i : i + step] for group in groups for i in range(0, len(group), step)):
            if _stop is not None and _stop.is_set():
                break
            rows = slice(first, first + len(z))
            log_rel, stop_idx[rows] = _block_paths(m, tr, grid, bridge, z)
            last[rows] = log_rel[:, -1]
            if trajectory:
                block = stop_idx[rows]
                stats = stats.merge(_trajectory_stats(tr, m, log_rel, block, frozen[block], stop_time[1:-1]))
            first = rows.stop
    stop_idx, last = stop_idx[:first], last[:first]
    free = gain(tr, m, last, grid.t_end)
    return np.where(stop_idx <= n, frozen[stop_idx], free), stop_time[stop_idx], free, stats


def _sink_chunk(*job):
    """The terminal gains and stop times of :func:`_simulate_chunk`: what a sink writes."""
    return _simulate_chunk(*job)[:2]


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
    price, bridge = _streams(tr, grid, master_seed, path_index, bridge)
    with np.errstate(over="ignore"):  # for _first_touch
        log_rel, stop_idx = _block_paths(m, tr, grid, bridge, _price_increments(m, grid, price, 1))
    log_rel = np.pad(log_rel, ((0, 0), (1, 0)))  # time 0, where the log price ratio is 0
    frozen = _stops(tr, m, grid)[1][stop_idx]
    g, u, _ = _rule_steps(tr, m, log_rel, np.arange(grid.n_steps + 1), stop_idx, frozen, grid.times)
    stop = int(stop_idx[0])
    return PathTrajectory(
        times=grid.times, prices=m.s0 * np.exp(log_rel[0]), g=g[0], u=u[0], v=tr.v0 + g[0],
        stop_index=stop if stop <= grid.n_steps else None,
    )


def _in_order(pool, kernel, jobs, window):
    """Results of ``kernel`` on each of ``jobs`` in job order, run on ``pool``.

    At most ``window`` chunks are submitted and not yet taken, so the pool
    runs ahead of a slow consumer by a bounded amount and no finished result
    waits long in memory.
    """
    pending = deque()
    for job in jobs:
        pending.append(pool.submit(kernel, *job))
        if len(pending) == window:
            yield pending.popleft().result()
    while pending:
        yield pending.popleft().result()


@contextmanager
def _pool(n_workers, n_chunks, streamed):
    """A pool of ``n_workers`` processes for the chunks, or None when this process runs them.

    A batch of more than one chunk ``streamed`` to a sink always gets a pool,
    one worker included, so this process writes a chunk while the workers
    draw the next.  An in-memory batch has nothing to overlap and runs here
    with one worker, as does a batch of one chunk.

    It is left once every submitted chunk is done.  When the caller raised
    (a failing sink, a reader that closed the pipe), the pool's stop event is
    set, so each worker's chunk returns at its next row block, and the chunks
    no worker has taken yet are cancelled.
    """
    if n_chunks == 1 or (n_workers == 1 and not streamed):
        yield None
        return
    stop = multiprocessing.Event()
    pool = ProcessPoolExecutor(max_workers=n_workers, initializer=_set_stop, initargs=(stop,))
    try:
        yield pool
    except BaseException:
        stop.set()
        pool.shutdown(cancel_futures=True)
        raise
    pool.shutdown()


def _check_batch_args(m, tr, grid, n_paths, master_seed, n_workers, memory_budget_mb=DEFAULT_MEMORY_BUDGET_MB):
    """Reject a bad :func:`run_batch` request before any output is opened; return its chunk size."""
    counts = {"n_paths": n_paths, "n_workers": n_workers, "memory_budget_mb": memory_budget_mb}
    for name, value in counts.items():
        if not (isinstance(value, (int, np.integer)) and value >= 1):
            raise ParameterError(f"{name} must be an integer >= 1 (got {value})")
    _check_stream(master_seed, 0)
    if tr.s_star is not None:
        require_stop(tr, m)

    # six padded float64 rows bound the working set of a one-path row block;
    # the same figure per path sets the chunk size, the unit of work for workers
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
    trajectory: bool = False,
) -> BatchResult | None:
    """Simulate ``n_paths`` paths and collect terminal gains and stop times.

    Output order is by path index and is bit-identical for any ``n_workers``
    and any chunking, because every path owns its own random stream.  Chunks
    are simulated a row block at a time, so the working set is one block and
    two buffers of :data:`_DRAW_BLOCKS` blocks of price increments, plus
    about 40 bytes a path of the chunk, and 24 bytes a path of the batch for
    the result.  ``memory_budget_mb`` sets the chunk size, and a grid so fine
    that one path's block exceeds it raises :class:`ResourceError`.
    With ``n_workers > 1`` the chunks run in worker processes, at most
    ``2 * n_workers`` of them submitted and not yet taken at any time.  A
    chunk run in this process draws its next group of price increments on a
    helper thread while it searches the current one, so it uses up to two
    cores; a worker process draws inline.

    With a ``sink`` (writable text stream), rows ``path_index,t_star,gain``
    are written in index order instead, with 17 significant digits and an
    empty ``t_star`` field for paths that never stop, and ``None`` is
    returned.  Rows are formatted a chunk at a time as each chunk arrives,
    and nothing is kept per path, so the memory used is that of a few chunks
    whatever ``n_paths`` and however slow the sink.  A sink batch of more
    than one chunk draws its chunks in ``n_workers`` worker processes, one
    included, while this process writes; when the sink raises, the workers
    stop at their next row block.  The bytes depend only on the seed and the
    model, grid and trade arguments, not on ``n_workers`` or
    ``memory_budget_mb``.

    An in-memory batch also keeps each path's terminal gain without the
    stop order, from the same price path, so no caller simulates the paths
    again.  ``trajectory=True`` reduces every step of every path to the
    :class:`TrajectoryStats` of the result in the same pass; a batch
    streamed to a sink cannot take it (:class:`ParameterError`).

    ``tr.s_star is None`` disables stop detection entirely: the result then
    holds always-active terminal gains and all-NaN stop times.
    """
    chunk = _check_batch_args(m, tr, grid, n_paths, master_seed, n_workers, memory_budget_mb)
    if sink is not None and trajectory:
        raise ParameterError("a batch streamed to a sink keeps no trajectory statistics")
    n_paths = int(n_paths)
    starts = range(0, n_paths, chunk)
    jobs = (
        (m, tr, grid, int(master_seed), s, min(chunk, n_paths - s), bridge, trajectory)
        for s in starts
    )
    kernel = _simulate_chunk if sink is None else _sink_chunk
    with _pool(int(n_workers), len(starts), sink is not None) as pool:
        results = _in_order(pool, kernel, jobs, 2 * int(n_workers)) if pool else starmap(kernel, jobs)
        chunks = zip(starts, results)
        if sink is not None:
            for s, (term, st) in chunks:
                _write_rows(sink, s, term, st)
            return None
        terminal, stop_time, free = np.empty(n_paths), np.empty(n_paths), np.empty(n_paths)
        stats = TrajectoryStats() if trajectory else None
        for s, (term, st, fr, part) in chunks:
            rows = slice(s, s + len(term))
            terminal[rows], stop_time[rows], free[rows] = term, st, fr
            if trajectory:
                stats = stats.merge(part)
    return BatchResult(terminal_gain=terminal, stop_time=stop_time, free_gain=free, trajectory=stats)


def _write_rows(sink, first_path, terminal, stop_time):
    """CSV rows ``path_index,t_star,gain`` of one chunk; each distinct (grid) stop time is formatted once."""
    times, which = np.unique(stop_time, return_inverse=True)
    text = np.array(["" if math.isnan(t) else "%.17g" % t for t in times.tolist()], dtype=object)
    index = np.arange(first_path, first_path + len(terminal))
    write_csv(sink, [index, text[which], terminal], ("%d", "%s", "%.17g"))


# Rows per block of write_csv: one % operation over a flat tuple formats a block
# with the bytes of a per-field %, and keeps its text and tuple well under 1 MiB.
# 2048 rows format as fast as 4096 and leave room for the chunks a pipelined
# sink batch holds while it writes.
_CSV_BLOCK_ROWS = 2048


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
