"""A slow reference for :func:`stopgain.simulate.run_batch`: every path drawn alone, no chunks or row blocks.

It shares only the stream addressing and ``model.gain`` with the chunk kernel.
"""

import math
from types import SimpleNamespace

import numpy as np
from scipy.special import ndtri

from stopgain.model import gain
from stopgain.simulate import _U_FLOOR, TrajectoryStats, _stream, _stream_keys


def first_touch(log_rel, log_bar, sigma, dt, uniforms):
    """Stop index in [1, n] of each row of log prices after the start; n + 1 where it never stops.

    A step stops a path when it ends at or below ``log_bar``, or when both its
    ends lie above and its bridge draw falls under ``exp(-2 lhs rhs / (sigma**2 dt))``.
    """
    hit = log_rel <= log_bar
    if uniforms is not None:
        start = np.zeros_like(log_rel[..., :1])
        lhs = np.concatenate([start, log_rel[..., :-1]], axis=-1) - log_bar  # each step's left end
        rhs = log_rel - log_bar
        with np.errstate(all="ignore"):  # no crossing where this is inf or NaN
            p_cross = np.exp(-2.0 * lhs * rhs / (sigma**2 * dt))
        hit |= (lhs > 0) & (rhs > 0) & (uniforms < p_cross)
    return np.where(hit.any(axis=-1), hit.argmax(axis=-1) + 1, log_rel.shape[-1] + 1)


def batch(m, tr, grid, n_paths, master_seed, bridge=True):
    """Paths ``0 .. n_paths - 1`` at the grid times after the start, and what ``run_batch`` reports of them.

    Row ``i`` of ``log_rel``, ``g`` (gain) and ``u`` (investment) is path ``i``.
    """
    n, dt, times = grid.n_steps, grid.dt, grid.times
    key_price, key_bridge = _stream_keys(master_seed)

    def draws(key, i):  # path i's uniforms, from a fresh stream at its own counters
        return _stream(key, i, n).random(n)

    z = [ndtri(np.maximum(draws(key_price, i), _U_FLOOR)) for i in range(n_paths)]
    log_rel = np.array([np.cumsum(m.drift_rate * dt + m.sigma * math.sqrt(dt) * row) for row in z])
    g = gain(tr, m, log_rel, times[1:])
    free = g[:, -1].copy()
    stop, locked = np.full(n_paths, n + 1), np.zeros(n_paths)
    if tr.s_star is not None:
        log_bar = math.log(tr.s_star / m.s0)
        uniforms = np.array([draws(key_bridge, i) for i in range(n_paths)]) if bridge else None
        stop = first_touch(log_rel, log_bar, m.sigma, dt, uniforms)
        locked = gain(tr, m, log_bar, times)[np.minimum(stop, n)]  # the gain at the stop level
    # from the stop index on the gain is frozen at the locked value and nothing is invested
    stopped = np.arange(1, n + 1) >= stop[:, None]
    g = np.where(stopped, locked[:, None], g)
    u = np.where(stopped, 0.0, tr.u0 + tr.k * g)
    v = tr.v0 + g
    excess = np.abs(u) - (tr.u0 + tr.k * tr.v0 + tr.k * v)
    stats = TrajectoryStats(
        float(v.min()), float(u[~stopped].min(initial=math.inf)), float(excess.max()),
        int(np.count_nonzero(v < 0)), int(np.count_nonzero(u[~stopped] <= 0)), int(np.count_nonzero(excess > 0)),
    )
    stop_time = np.append(times, math.nan)[stop]  # NaN at n + 1
    rows = [row(i, t, x) for i, (t, x) in enumerate(zip(stop_time, g[:, -1]))]
    return SimpleNamespace(log_rel=log_rel, stop=stop, g=g, u=u, terminal_gain=g[:, -1], stop_time=stop_time,
                           free_gain=free, trajectory=stats, rows=rows)


def row(path_index, stop_time, terminal):
    """One CSV row ``path_index,t_star,gain``, the stop time empty when it is NaN."""
    t_field = "" if math.isnan(stop_time) else f"{stop_time:.17g}"
    return f"{path_index},{t_field},{terminal:.17g}\n"
