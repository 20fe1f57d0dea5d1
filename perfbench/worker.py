"""Runs benchmark passes in-process through ``stopgain.cli.main``.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``, so this process runs
nothing but the workload and its peak RSS is the workload's.  Prints one JSON
object: every pass with its seed, wall time, exit codes and output files,
plus peak RSS, library versions and, in trace mode, the per-layer metrics.
Checking the outputs is left to the parent.
"""

import argparse
import json
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

from stopgain import cli

import tracer as _tracer
from workloads import FIXED_SEED, FULL, SMOKE, WORKLOADS, commands, pass_seed, requested_paths


def run_pass(workload, seed, out_dir, kind, sizes, trace=None):
    """Run one pass; wall time covers every command of the pass."""
    cmds = commands(workload, seed, str(Path(out_dir) / f"{workload}-{kind}-{seed}"), sizes)
    rcs = []
    start = time.perf_counter()
    for label, argv, _ in cmds:
        if trace is not None:
            trace.label = label
        rcs.append(_call(argv))
    wall = time.perf_counter() - start
    return {"workload": workload, "kind": kind, "seed": seed, "sizes": sizes, "wall_s": wall,
            "rcs": rcs, "outputs": [out for _, _, out in cmds]}


def _call(argv):
    # looked up at call time, so a traced pass goes through the wrapper
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code
    except Exception:  # a crashing command is a failed pass, not a failed benchmark
        traceback.print_exc()
        return "exception"


def timed_run(workload, seed, seconds, out_dir, sizes):
    """Passes until ``seconds`` have passed, and at least two.

    The first pass runs at the fixed seed and warms the process up; the
    timed passes after it run at seeds derived from ``seed``.  Peak RSS is
    read after the first pass, so it is that of a process that has run the
    workload once: later passes raise it by however much their allocation
    history fragments the heap, which differs from run to run.
    """
    passes = [run_pass(workload, FIXED_SEED, out_dir, "first", sizes)]
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    start = time.monotonic() - passes[0]["wall_s"]
    while len(passes) < 2 or time.monotonic() - start < seconds:
        passes.append(run_pass(workload, pass_seed(seed, len(passes)), out_dir, "timed", sizes))
    return {"passes": passes, "peak_rss_mib": peak_rss_mib}


def traced_run(out_dir, sizes, trace_file):
    """An untraced and a traced pass of every workload, at the fixed seed.

    Each workload gets a small warm-up pass first.  Both passes see identical
    inputs, so the traced wall time minus the untraced one is the tracing
    overhead.
    """
    passes, layers, spans, missing = [], {}, [], set()
    for workload in WORKLOADS:
        passes.append(run_pass(workload, FIXED_SEED, out_dir, "warmup", SMOKE))
        untraced = run_pass(workload, FIXED_SEED, out_dir, "untraced", sizes)
        with _tracer.Tracer(pass_id=len(passes) + 1) as trace:
            traced = run_pass(workload, FIXED_SEED, out_dir, "traced", sizes, trace)
        passes += [untraced, traced]
        missing.update(trace.missing)
        metrics = _tracer.layer_metrics(trace.spans, requested_paths(workload, sizes))
        peak, ratio, sink_s = _tracer.replay_run_batch(trace)
        metrics.update({
            "simulate.peak_traced_mib": peak,
            "simulate.budget_ratio": ratio,
            "simulate.sink_s": sink_s,
            "trace_overhead_s": traced["wall_s"] - untraced["wall_s"],
        })
        layers[workload] = metrics
        spans += [dict(_tracer.span_dict(sp), workload=workload) for sp in trace.spans]
    with open(trace_file, "w", encoding="utf-8") as f:
        for sp in spans:
            f.write(json.dumps(sp) + "\n")
    return {"passes": passes, "layers": layers, "unwrapped": sorted(missing)}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=FIXED_SEED)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--trace-file", help="trace every workload and write the spans here")
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)
    sizes = SMOKE if args.smoke else FULL
    if args.trace_file:
        report = traced_run(args.out_dir, sizes, args.trace_file)
    else:
        report = timed_run(args.workload, args.seed, args.seconds, args.out_dir, sizes)
    report["versions"] = {"python": platform.python_version(), "numpy": np.__version__,
                          "scipy": scipy.__version__}
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
