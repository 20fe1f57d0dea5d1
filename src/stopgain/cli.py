"""Command-line front end.

Subcommands cover closed-form evaluation (``eval``, ``curve``, ``stoptime``),
simulation (``simulate``) and verification (``verify``, ``figure``).  Exit
codes: 0 success, 1 a verification gate failed, 2 invalid input, 141 the
reader of standard output closed it (as for a tool SIGPIPE ended).  Every flag
may also come from a ``key=value`` config file; explicit flags win.
"""

import argparse
import json
import math
import os
import sys
from contextlib import nullcontext

import numpy as np

from . import verify as _verify
from .cdf import CdfQuery, ShorthandContext, cdf_no_stop, cdf_with_stop, stopping_time_cdf
from .errors import ParameterError, StopgainError
from .model import MarketParams, TradeSpec
from .simulate import PathGrid, _check_batch_args, run_batch, write_csv

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_GATE = 1
EXIT_USAGE = 2
EXIT_PIPE = 128 + 13  # 128 + SIGPIPE, what a shell shows for a tool SIGPIPE ended

OUT_DIR_ENV = "STOPGAIN_OUT_DIR"


def _parse_bool(text: str) -> bool:
    lowered = str(text).strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _config_types(subparsers: dict) -> dict:
    """Value parser per config key, one per optional flag (set_defaults() skips type=)."""
    types = {}
    for p in subparsers.values():
        for action in p._actions:
            if not action.option_strings or action.dest in ("config", "help"):
                continue
            if isinstance(action, (argparse._StoreTrueAction, argparse._StoreFalseAction)):
                types[action.dest] = _parse_bool
            else:
                types[action.dest] = action.type or str
    return types


def _load_config(path: str, types: dict) -> dict:
    """Parse a key=value file into defaults typed by ``types``; '#' starts a comment."""
    overrides = {}
    with open(path, encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value (got {line!r})")
            key, value = line.split("=", 1)
            key = key.strip().lower().replace("-", "_")
            if key not in types:
                raise ValueError(f"{path}:{lineno}: unknown option {key!r}")
            try:
                overrides[key] = types[key](value.strip())
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from None
    return overrides


def _market_args(p: argparse.ArgumentParser):
    g = p.add_argument_group("market")
    g.add_argument("--mu", type=float, default=0.5, help="price drift per unit time")
    g.add_argument("--sigma", type=float, default=1.0, help="price volatility, > 0")
    g.add_argument("--s0", type=float, default=1.0, help="initial price, > 0")


def _trade_args(p: argparse.ArgumentParser):
    g = p.add_argument_group("trading rule")
    g.add_argument("--sstar", type=float, default=None, help="stop price, 0 < sstar < s0")
    g.add_argument("--u0", type=float, default=1.0, help="initial investment, > 0")
    g.add_argument("--k", type=float, default=1.0, help="feedback gain, > 0")
    g.add_argument("--v0", type=float, default=None, help="initial account value (default u0/k)")
    g.add_argument(
        "--no-stop", action="store_true", help="disable the stop order; use the free-running law"
    )


def _horizon_arg(p: argparse.ArgumentParser):
    p.add_argument("--t", type=float, default=1.0, help="time horizon, > 0")


def _sim_args(p: argparse.ArgumentParser, default_paths: int, default_seed: int):
    g = p.add_argument_group("simulation")
    g.add_argument("--paths", type=int, default=default_paths, help="number of sample paths")
    g.add_argument(
        "--steps", type=int, default=None, help="grid steps over the horizon (default 1024 per unit time)"
    )
    g.add_argument("--seed", type=int, default=default_seed, help="master seed")
    g.add_argument("--bridge", dest="bridge", action="store_true", default=True,
                   help="sample intra-step barrier crossings (default)")
    g.add_argument("--no-bridge", dest="bridge", action="store_false",
                   help="grid-only stop detection")
    g.add_argument("--workers", type=int, default=1, help="worker processes")


def _config_arg(p: argparse.ArgumentParser):
    p.add_argument("--config", default=None, metavar="FILE",
                   help="key=value file supplying defaults for any flag")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="stopgain",
        description="Profit/loss distribution of a stop-protected feedback trading rule.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers = {}

    # "required" flags default to None and are checked in the command
    # functions instead, so a config file can supply them
    p = sub.add_parser("eval", help="evaluate the gain distribution at one point")
    _market_args(p); _trade_args(p); _horizon_arg(p); _config_arg(p)
    p.add_argument("--x", type=float, default=None, help="gain level to evaluate at")
    p.set_defaults(func=cmd_eval)
    subparsers["eval"] = p

    p = sub.add_parser("curve", help="tabulate the gain distribution over a range")
    _market_args(p); _trade_args(p); _horizon_arg(p); _config_arg(p)
    p.add_argument("--xmin", type=float, default=None)
    p.add_argument("--xmax", type=float, default=None)
    p.add_argument("--points", type=int, default=256, help="row count, >= 2")
    p.add_argument("--with-no-stop", action="store_true",
                   help="add the free-running law as a third column")
    p.add_argument("--out", default=None, metavar="FILE", help="CSV destination (default stdout)")
    p.set_defaults(func=cmd_curve)
    subparsers["curve"] = p

    p = sub.add_parser("stoptime", help="probability the stop has fired by the horizon")
    _market_args(p); _trade_args(p); _horizon_arg(p); _config_arg(p)
    p.set_defaults(func=cmd_stoptime)
    subparsers["stoptime"] = p

    p = sub.add_parser("simulate", help="sample terminal gains and stop times")
    _market_args(p); _trade_args(p); _horizon_arg(p); _config_arg(p)
    _sim_args(p, default_paths=1000, default_seed=1234)
    p.add_argument("--out", default=None, metavar="FILE", help="CSV destination (default stdout)")
    p.set_defaults(func=cmd_simulate)
    subparsers["simulate"] = p

    p = sub.add_parser("verify", help="compare simulation against the closed forms")
    _market_args(p); _trade_args(p); _horizon_arg(p); _config_arg(p)
    _sim_args(p, default_paths=50_000, default_seed=1234)
    p.add_argument("--gate", type=float, default=_verify.DEFAULT_SUP_GATE,
                   help="sup-distance threshold for the CDF comparison")
    p.add_argument("--out", default=None, metavar="FILE", help="JSON destination (default stdout)")
    p.set_defaults(func=cmd_verify)
    subparsers["verify"] = p

    p = sub.add_parser("figure", help="reproduce one of the three demo comparisons")
    p.add_argument("which", type=int, choices=(1, 2, 3))
    _config_arg(p)
    _sim_args(p, default_paths=_verify.DEFAULT_FIGURE_PATHS, default_seed=_verify.DEFAULT_FIGURE_SEED)
    p.add_argument("--gate", type=float, default=_verify.DEFAULT_SUP_GATE,
                   help="sup-distance threshold for both comparison legs")
    p.add_argument("--out-dir", default=None, metavar="DIR",
                   help=f"dataset/report directory (default ${OUT_DIR_ENV} or '.')")
    p.set_defaults(func=cmd_figure)
    subparsers["figure"] = p

    return parser, subparsers


def _build_market(args) -> MarketParams:
    return MarketParams(mu=args.mu, sigma=args.sigma, s0=args.s0)


def _build_trade(args) -> TradeSpec:
    s_star = None if args.no_stop else args.sstar
    return TradeSpec(u0=args.u0, k=args.k, v0=args.v0, s_star=s_star)


def _resolved_config(args, tr: TradeSpec, grid: PathGrid) -> dict:
    return {
        "mu": args.mu, "sigma": args.sigma, "s0": args.s0,
        "u0": tr.u0, "k": tr.k, "v0": tr.v0,
        "s_star": tr.s_star, "stop_enabled": tr.s_star is not None,
        "t": args.t, "paths": args.paths, "steps": grid.n_steps, "seed": args.seed,
        "bridge": args.bridge, "workers": args.workers,
    }


def _jsonable(obj):
    """Recursively convert to JSON-safe plain types; non-finite floats -> None."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        return f if math.isfinite(f) else None
    return obj


def _dump_json(report: dict, out: str | None):
    text = json.dumps(_jsonable(report), indent=2, sort_keys=True) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as f:
            f.write(text)


def _probe_out(out: str | None):
    """Fail at once on an ``out`` file that cannot be written; leave it as it was."""
    if out is not None:
        existed = os.path.lexists(out)
        open(out, "a", encoding="utf-8").close()
        if not existed:
            os.remove(out)


def _open_out(out: str | None):
    return nullcontext(sys.stdout) if out is None else open(out, "w", encoding="utf-8", newline="")


def cmd_eval(args) -> int:
    if args.x is None:
        raise ParameterError("--x is required (flag or config file)")
    m = _build_market(args)
    tr = _build_trade(args)
    ctx = ShorthandContext(m, tr)
    law = cdf_with_stop if tr.s_star is not None else cdf_no_stop
    value = law(CdfQuery(args.x, args.t), ctx)
    print(f"{value.p:.17g} {value.branch}")
    return EXIT_OK


def cmd_curve(args) -> int:
    if args.xmin is None or args.xmax is None:
        raise ParameterError("--xmin and --xmax are required (flag or config file)")
    m = _build_market(args)
    tr = _build_trade(args)
    ctx = ShorthandContext(m, tr)
    if not args.xmin < args.xmax:
        raise ParameterError(f"xmin must be < xmax (got {args.xmin}, {args.xmax})")
    if args.points < 2:
        raise ParameterError(f"points must be >= 2 (got {args.points})")
    law = cdf_with_stop if tr.s_star is not None else cdf_no_stop
    q = CdfQuery(np.linspace(args.xmin, args.xmax, args.points), args.t)
    columns = [q.x, law(q, ctx).p]
    if args.with_no_stop:
        columns.append(cdf_no_stop(q, ctx).p)
    with _open_out(args.out) as f:
        f.write("x,F,F0\n" if args.with_no_stop else "x,F\n")
        write_csv(f, columns)
    return EXIT_OK


def cmd_stoptime(args) -> int:
    m = _build_market(args)
    tr = _build_trade(args)
    if tr.s_star is None:
        raise ParameterError("stoptime requires a stop order (--sstar without --no-stop)")
    ctx = ShorthandContext(m, tr)
    if not args.t > 0:
        raise ParameterError(f"t must be > 0 (got {args.t})")
    print(f"{stopping_time_cdf(args.t, ctx):.17g}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    m = _build_market(args)
    tr = _build_trade(args)
    grid = PathGrid(args.t, args.steps)
    _check_batch_args(m, tr, grid, args.paths, args.seed, args.workers)  # before --out is touched
    with _open_out(args.out) as f:
        f.write("path_index,t_star,terminal_g\n")
        run_batch(
            m, tr, grid, args.paths, args.seed,
            bridge=args.bridge, n_workers=args.workers, sink=f,
        )
    return EXIT_OK


def cmd_verify(args) -> int:
    m = _build_market(args)
    tr = _build_trade(args)
    grid = PathGrid(args.t, args.steps)
    report = {"config": _resolved_config(args, tr, grid), "gate": args.gate}
    # a bad request or --out fails before any path is drawn, and leaves --out as it was
    _check_batch_args(m, tr, grid, args.paths, args.seed, args.workers)
    ctx = ShorthandContext(m, tr)
    _probe_out(args.out)

    # one batch feeds both the law comparison and the property legs
    batch = run_batch(
        m, tr, grid, args.paths, args.seed,
        bridge=args.bridge, n_workers=args.workers, trajectory=True,
    )
    if tr.s_star is not None:
        comparison = _verify.law_report(batch, ctx, args.t)
        cdf_ok = comparison.sup_distance <= args.gate
        report["cdf_comparison"] = {
            "sup_distance": comparison.sup_distance,
            "n_grid": len(comparison.grid),
            "passed": cdf_ok,
        }
    else:
        cdf_ok = True
        report["cdf_comparison"] = {"skipped": "no stop order; nothing to gate"}

    props = _verify.property_report(batch, ctx, args.t)
    report["properties"] = {name: {"status": leg.status, **leg.detail} for name, leg in props.legs.items()}
    passed = cdf_ok and props.passed
    report["passed"] = passed
    _dump_json(report, args.out)
    return EXIT_OK if passed else EXIT_GATE


def cmd_figure(args) -> int:
    m, tr, grid = _verify._figure_case(args.which, args.steps)
    _check_batch_args(m, tr, grid, args.paths, args.seed, args.workers)
    # created once the arguments are accepted, so a rejected run leaves no
    # directory, and before simulating, so a bad one fails at once
    out_dir = args.out_dir or os.environ.get(OUT_DIR_ENV) or "."
    os.makedirs(out_dir, exist_ok=True)
    result = _verify.reproduce_figure(
        args.which, n_paths=args.paths, master_seed=args.seed,
        n_steps=args.steps, n_workers=args.workers, bridge=args.bridge,
    )
    csv_path = os.path.join(out_dir, f"figure{args.which}.csv")
    columns = ["x", "F0_theory", "F_theory", "F0_empirical", "F_empirical"]
    with open(csv_path, "w", encoding="utf-8", newline="") as f:
        f.write(",".join(columns) + "\n")
        write_csv(f, [result.dataset[c] for c in columns])

    stop_ok = result.report.sup_distance <= args.gate
    free_ok = result.no_stop_report.sup_distance <= args.gate
    report = {
        "config": dict(result.config, workers=args.workers, gate=args.gate),
        "sup_distance": result.report.sup_distance,
        "sup_distance_no_stop": result.no_stop_report.sup_distance,
        "n_grid": len(result.report.grid),
        "passed": stop_ok and free_ok,
        "dataset": csv_path,
    }
    json_path = os.path.join(out_dir, f"figure{args.which}.json")
    _dump_json(report, json_path)
    _dump_json(report, None)
    return EXIT_OK if report["passed"] else EXIT_GATE


def main(argv=None) -> int:
    parser, subparsers = build_parser()
    args = parser.parse_args(argv)
    if args.config is not None:
        try:
            overrides = _load_config(args.config, _config_types(subparsers))
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        subparsers[args.command].set_defaults(**overrides)
        args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # the reader is gone (`| head`): stop quietly, and let the final flush
        # of what is still buffered go to devnull instead of failing again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    except (StopgainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
