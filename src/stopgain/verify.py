"""Monte Carlo verification of the closed-form laws plus trajectory checks.

Comparisons are sup-distance between an empirical CDF and the closed form on
a fixed grid.  No p-values: the gain law mixes an atom (or a band) with a
continuous part, so classical goodness-of-fit distributions do not apply;
the gates are calibrated directly from the empirical-CDF concentration bound
at the batch size used.
"""

import math
from dataclasses import dataclass

import numpy as np

from .cdf import CdfQuery, ShorthandContext, _band, cdf_no_stop, cdf_with_stop
from .errors import EmptySampleError, ParameterError
from .model import MarketParams, TradeSpec, check_survivability, expected_gain_lower_bound
from .simulate import BatchResult, PathGrid, run_batch

__all__ = [
    "ComparisonReport",
    "FigureResult",
    "FIGURE_PARAMS",
    "compare",
    "comparison_grid",
    "law_report",
    "property_report",
    "reproduce_figure",
]

DEFAULT_SUP_GATE = 0.015  # calibrated for 50,000-path batches
DEFAULT_FIGURE_PATHS = 50_000
DEFAULT_FIGURE_SEED = 13
COMPARISON_POINTS = 512  # evenly spaced levels of the comparison grid, before the floor joins them

# the three demo parameter sets: one market, one feedback gain per regime
FIGURE_PARAMS = {
    1: dict(mu=0.5, sigma=1.0, s0=1.0, s_star=0.5, u0=1.0, k=1.0, t_end=1.0),
    2: dict(mu=0.5, sigma=1.0, s0=1.0, s_star=0.5, u0=1.0, k=2.0, t_end=1.0),
    3: dict(mu=0.5, sigma=1.0, s0=1.0, s_star=0.5, u0=1.0, k=0.5, t_end=1.0),
}


@dataclass(frozen=True)
class ComparisonReport:
    """Empirical-vs-theory comparison on a fixed grid.

    ``residual[i] = empirical[i] - theory[i]`` and ``sup_distance`` is the
    maximum absolute residual.
    """

    grid: np.ndarray
    theory: np.ndarray
    empirical: np.ndarray
    residual: np.ndarray
    sup_distance: float
    n_samples: int


def compare(samples, theory, grid) -> ComparisonReport:
    """Compare the right-continuous empirical CDF of ``samples`` with ``theory`` on ``grid``.

    ``theory`` is the law's values on ``grid``, or one scalar that is broadcast.
    """
    samples = np.sort(np.asarray(samples, dtype=float).ravel())
    if samples.size == 0:
        raise EmptySampleError("empirical CDF requires at least one sample")
    if np.isnan(samples[-1]):  # sorting puts any NaN last
        raise ParameterError("samples must not contain NaN")
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise EmptySampleError("comparison grid must not be empty")
    theory_vals = np.full(grid.shape, theory, dtype=float)
    empirical_vals = np.searchsorted(samples, grid, side="right") / samples.size
    residual = empirical_vals - theory_vals
    return ComparisonReport(
        grid=grid,
        theory=theory_vals,
        empirical=empirical_vals,
        residual=residual,
        sup_distance=float(np.max(np.abs(residual))),
        n_samples=int(samples.size),
    )


def _quantile(ctx: ShorthandContext, t_end: float, q: float) -> float:
    """First level ``floor + span/2 (1 + j/128)``, j = 1..128, where the gain CDF reaches ``q``.

    ``span`` is ``start 2**e`` with ``start = max(1, |floor|) u0/k``: the
    first ``e`` in 0..200 whose level ``floor + span`` reaches ``q`` or, when
    ``e = 0`` already does, the lowest ``e`` down to -200 above which every
    level stays above the floor and reaches ``q``.  The quantile then lies
    in ``(span/2, span]``.  The levels of all 401 ``e`` are tested in one
    call, and a second call picks the level.
    """
    floor = _band(ctx, t_end)[0]
    start = max(1.0, abs(floor)) * ctx.trade.u0 / ctx.trade.k
    exps = np.arange(-200, 201)
    x = floor + np.ldexp(start, exps)
    reached = cdf_with_stop(CdfQuery(x, t_end), ctx).p >= q
    if reached[exps == 0][0]:
        misses = exps[(exps < 0) & ~(reached & (x > floor))]
        e = int(misses.max()) + 1 if misses.size else -200
    else:
        hits = exps[(exps > 0) & reached]
        e = int(hits.min()) if hits.size else 200
    span = float(np.ldexp(start, e))
    levels = floor + 0.5 * span * (1.0 + np.arange(1, 129) / 128)
    reached = cdf_with_stop(CdfQuery(levels, t_end), ctx).p >= q
    reached[-1] = True  # the last level is floor + span, already checked
    return float(levels[np.argmax(reached)])


def comparison_grid(ctx: ShorthandContext, t_end: float) -> np.ndarray:
    """Gain levels from just under the law's floor to the 99.9% quantile, on a lattice.

    :data:`COMPARISON_POINTS` evenly spaced levels, and the exact floor value
    as one more abscissa, so atoms sitting on it show up in datasets and
    comparisons.
    """
    floor = _band(ctx, t_end)[0]
    lo = floor - 0.05 * ctx.trade.u0 / ctx.trade.k
    hi = _quantile(ctx, t_end, 0.999)
    return np.union1d(np.linspace(lo, hi, COMPARISON_POINTS), [floor])


def law_report(batch: BatchResult, ctx: ShorthandContext, t_end: float) -> ComparisonReport:
    """Compare a batch's terminal gains with the stop-protected gain law.

    The law is evaluated on :func:`comparison_grid`; ``batch`` must come
    from the market and trade of ``ctx`` at horizon ``t_end``.
    """
    xs = comparison_grid(ctx, t_end)
    return compare(batch.terminal_gain, cdf_with_stop(CdfQuery(xs, t_end), ctx).p, xs)


@dataclass(frozen=True)
class FigureResult:
    """One reproduced comparison figure: dataset columns plus both reports.

    ``config`` describes the run: the figure, its market and trade, and the
    batch that was simulated.
    """

    config: dict
    dataset: dict[str, np.ndarray]
    report: ComparisonReport
    no_stop_report: ComparisonReport


def _figure_case(which: int, n_steps: int | None):
    """Market, trade and path grid of figure ``which``; ``n_steps=None`` picks the default grid."""
    if which not in FIGURE_PARAMS:
        raise ParameterError(f"which must be one of {sorted(FIGURE_PARAMS)} (got {which})")
    p = FIGURE_PARAMS[which]
    m = MarketParams(mu=p["mu"], sigma=p["sigma"], s0=p["s0"])
    tr = TradeSpec(u0=p["u0"], k=p["k"], s_star=p["s_star"])
    grid = PathGrid(p["t_end"], n_steps)
    return m, tr, grid


def reproduce_figure(
    which: int,
    n_paths: int = DEFAULT_FIGURE_PATHS,
    master_seed: int = DEFAULT_FIGURE_SEED,
    n_steps: int | None = None,
    n_workers: int = 1,
    bridge: bool = True,
) -> FigureResult:
    """Rebuild one of the three demo comparisons (k = 1, 2 and 0.5).

    Simulates one batch with the stop order and compares both its terminal
    gains and the free-running gains of the same price paths with their
    laws.  Emits the five-column dataset and the comparison report of the
    stop-protected law.
    """
    m, tr, grid = _figure_case(which, n_steps)
    ctx = ShorthandContext(m, tr)
    t_end = grid.t_end

    batch = run_batch(m, tr, grid, n_paths, master_seed, bridge=bridge, n_workers=n_workers)
    report = law_report(batch, ctx, t_end)
    no_stop_report = compare(
        batch.free_gain, cdf_no_stop(CdfQuery(report.grid, t_end), ctx).p, report.grid
    )
    dataset = {
        "x": report.grid,
        "F0_theory": no_stop_report.theory,
        "F_theory": report.theory,
        "F0_empirical": no_stop_report.empirical,
        "F_empirical": report.empirical,
    }
    config = dict(
        which=which, mu=m.mu, sigma=m.sigma, s0=m.s0, s_star=tr.s_star,
        u0=tr.u0, k=tr.k, t_end=t_end, n_paths=n_paths, n_steps=grid.n_steps,
        master_seed=master_seed, bridge=bridge,
    )
    return FigureResult(config=config, dataset=dataset, report=report, no_stop_report=no_stop_report)


def property_report(batch: BatchResult, ctx: ShorthandContext, t_end: float) -> dict[str, dict]:
    """Check the trajectory guarantees and the expected-gain bound on a simulated batch.

    ``batch`` must be run with ``trajectory=True``, from the market and trade
    of ``ctx`` at horizon ``t_end``.  Each leg maps its name to
    ``{"status": "pass" | "fail" | "skipped", **details}``.

    Legs
    ----
    survivability
        Account value ``v0 + g`` never negative, provided ``u0 <= k * v0``;
        reported as skipped when that precondition does not hold.
    long_only
        Investment strictly positive before the stop.  It is exactly zero
        from the stop on by construction (the simulator sets it so), so only
        the active half is tested, and the leg reports
        ``max_abs_stopped_investment`` as the constant 0.0.
    control_bound
        ``|u| <= u0 + k*v0 + k*v`` at every grid time of every path.
    lower_bound
        Sample mean of the terminal gain is at least
        ``c * (1 - F(c - v0)) - v0`` within three standard errors, for
        cutoffs ``c`` at half, once and twice ``v0``.
    """
    if batch.trajectory is None:
        raise ParameterError("property legs need a batch run with trajectory=True")
    tr = ctx.trade
    traj = batch.trajectory
    # both the account and the bound's derivation need u0 <= k v0
    survives = check_survivability(tr)
    unmet = f"u0={tr.u0} > k*v0={tr.k * tr.v0}"
    return {
        "survivability": _count_leg(
            traj.survivability_violations, min_account_value=traj.min_account_value,
        ) if survives else {"status": "skipped", "reason": unmet},
        "long_only": _count_leg(
            traj.long_only_violations,
            min_active_investment=traj.min_active_investment,
            # the simulator sets u = 0 from the stop on, so the stopped half
            # of the property holds by construction
            max_abs_stopped_investment=0.0,
        ),
        "control_bound": _count_leg(traj.control_bound_violations, max_excess=traj.max_bound_excess),
        "lower_bound": _lower_bound_leg(batch.terminal_gain, ctx, t_end)
        if survives else {"status": "skipped", "reason": unmet},
    }


def _leg(passed: bool, **detail) -> dict:
    """A leg that either passed or failed; every such leg of a report is built here."""
    return {"status": "pass" if passed else "fail", **detail}


def _count_leg(violations: int, **detail) -> dict:
    """A leg that fails on any violation, with the count as the detail's ``violations``."""
    return _leg(violations == 0, **detail, violations=violations)


def _lower_bound_leg(terminal: np.ndarray, ctx: ShorthandContext, t_end: float) -> dict:
    """The ``lower_bound`` leg: the mean gain against the bound at each cutoff, within 3 SE."""
    v0 = ctx.trade.v0
    mean_g = float(terminal.mean())
    se = float(terminal.std(ddof=1) / math.sqrt(len(terminal))) if len(terminal) > 1 else 0.0
    cutoffs = {}
    for label, c in (("half_v0", v0 / 2), ("v0", v0), ("twice_v0", 2 * v0)):
        bound = expected_gain_lower_bound(c, v0, cdf_with_stop(CdfQuery(c - v0, t_end), ctx).p)
        cutoffs[label] = {"c": c, "bound": bound, "ok": mean_g >= bound - 3.0 * se}
    passed = all(cut["ok"] for cut in cutoffs.values())
    return _leg(passed, mean_gain=mean_g, standard_error=se, cutoffs=cutoffs)
