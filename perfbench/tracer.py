"""Layer spans recorded from outside the ``stopgain`` package.

``from .x import y`` binds ``y`` in each importing module, so every function
is wrapped under the name its caller looks it up by; a wrapper on the
defining module alone would let those calls escape their span.  Calls a
module makes to its own helpers are not wrapped, except inside ``verify``,
whose public functions call each other through the module globals patched
here.
"""

import importlib
import inspect
import time
import tracemalloc

import numpy as np

from workloads import REGIMES

# (module, attribute, span name)
TARGETS = (
    ("stopgain.cli", "main", "cli.main"),
    ("stopgain.cli", "run_batch", "simulate.run_batch"),
    ("stopgain.verify", "run_batch", "simulate.run_batch"),
    ("stopgain.verify", "replicate", "verify.replicate"),
    ("stopgain.verify", "property_suite", "verify.property_suite"),
    ("stopgain.verify", "compare", "verify.compare"),
    ("stopgain.verify", "comparison_grid", "verify.comparison_grid"),
    ("stopgain.verify", "empirical_cdf", "verify.empirical_cdf"),
    ("stopgain.cli", "cdf_with_stop", "cdf.cdf_with_stop"),
    ("stopgain.cli", "cdf_no_stop", "cdf.cdf_no_stop"),
    ("stopgain.cli", "stopping_time_cdf", "cdf.stopping_time_cdf"),
    ("stopgain.verify", "cdf_with_stop", "cdf.cdf_with_stop"),
    ("stopgain.verify", "cdf_no_stop", "cdf.cdf_no_stop"),
)
# spans whose bound arguments are kept, for path counts and replays
_KEEP_ARGS = ("simulate.run_batch", "verify.property_suite")
VERIFY_FUNCTIONS = ("replicate", "property_suite", "compare", "comparison_grid", "empirical_cdf")

# Per-layer metrics reported for each workload, as (name, unit).  Each one is
# measured on the workload that exercises its layer; see README.md.
LAYER_METRICS = {
    "law_curve": [
        ("cli.self_s", "s"),
        ("cdf.calls", "count"),
        ("cdf.points", "count"),
        ("cdf.s", "s"),
        ("cdf.us_per_point.k1", "us"),
        ("cdf.us_per_point.k2", "us"),
        ("cdf.us_per_point.k0_5", "us"),
        ("trace_overhead_s", "s"),
    ],
    "verify_k2": [
        ("cli.self_s", "s"),
        ("simulate.run_batch.s", "s"),
        ("simulate.run_batch.calls", "count"),
        ("simulate.path_steps", "count"),
        ("simulate.path_steps_per_s", "1/s"),
        ("simulate.peak_traced_mib", "MiB"),
        ("simulate.budget_ratio", "ratio"),
        *((f"verify.{name}.s", "s") for name in VERIFY_FUNCTIONS),
        ("verify.paths_simulated_per_path", "ratio"),
        ("cdf.calls", "count"),
        ("cdf.points", "count"),
        ("cdf.s", "s"),
        ("trace_overhead_s", "s"),
    ],
    "simulate_coarse": [
        ("cli.self_s", "s"),
        ("simulate.run_batch.s", "s"),
        ("simulate.run_batch.calls", "count"),
        ("simulate.path_steps", "count"),
        ("simulate.path_steps_per_s", "1/s"),
        ("simulate.sink_s", "s"),
        ("simulate.peak_traced_mib", "MiB"),
        ("simulate.budget_ratio", "ratio"),
        ("trace_overhead_s", "s"),
    ],
}


# span fields; a span is a list so that recording one stays cheap
NAME, START, END, PARENT, PASS, LABEL, POINTS, ARGS = range(8)


def span_dict(span):
    return {"name": span[NAME], "start": span[START], "end": span[END], "parent": span[PARENT],
            "pass": span[PASS], "label": span[LABEL], "points": span[POINTS]}


class Tracer:
    """Keeps spans in memory while installed; ``label`` tags the current command."""

    def __init__(self, pass_id):
        self.pass_id = pass_id
        self.label = None
        self.spans = []
        self.missing = []
        self._stack = []
        self._saved = []
        self.originals = {}

    def __enter__(self):
        for mod_name, attr, name in TARGETS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr, None)
            if not callable(fn):
                self.missing.append(f"{mod_name}.{attr}")
                continue
            self._saved.append((mod, attr, fn))
            self.originals[name] = fn
            setattr(mod, attr, self._wrap(fn, name))
        return self

    def __exit__(self, *exc):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack
        signature = inspect.signature(fn) if name in _KEEP_ARGS else None
        is_cdf = name.startswith("cdf.")
        perf_counter = time.perf_counter

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.pass_id, self.label, 0, None]
            stack.append(len(spans))
            spans.append(span)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                span[START] = start
                stack.pop()
                if is_cdf:
                    # a CdfQuery carries x; stopping_time_cdf takes t itself
                    x = getattr(args[0], "x", args[0])
                    span[POINTS] = 1 if type(x) is float else int(np.size(x))
                elif signature is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span[ARGS] = bound.arguments

        wrapper.__wrapped__ = fn
        return wrapper


def replay_run_batch(tracer):
    """Re-run each recorded ``run_batch`` call without its sink, untraced.

    Returns ``(peak_traced_mib, budget_ratio, sink_s)``.  The peak is taken
    with tracemalloc in a call of its own, because tracemalloc slows the
    per-row CSV sink about fivefold.  ``sink_s`` is the traced call's time
    minus the same call with ``sink=None``, over calls that had a sink.
    """
    run_batch = tracer.originals.get("simulate.run_batch")
    peak_mib, ratio, sink_s = 0.0, 0.0, 0.0
    for span in tracer.spans:
        if span[NAME] != "simulate.run_batch":
            continue
        kwargs = dict(span[ARGS], sink=None)
        tracemalloc.start()
        try:
            run_batch(**kwargs)
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        if peak > peak_mib:
            peak_mib, ratio = peak, peak / kwargs["memory_budget_mb"]
        if span[ARGS]["sink"] is not None:
            start = time.perf_counter()
            run_batch(**kwargs)
            sink_s += (span[END] - span[START]) - (time.perf_counter() - start)
    return peak_mib, ratio, sink_s


def layer_metrics(spans, requested_paths):
    """Per-layer totals over ``spans``; names as in :data:`LAYER_METRICS`.

    Times are inclusive except ``cli.self_s``, which is ``cli.main`` time
    minus its child spans.  No span of one layer nests inside another span
    of the same name, so inclusive sums count no interval twice.
    """
    dur = [s[END] - s[START] for s in spans]
    child = [0.0] * len(spans)
    for s, d in zip(spans, dur):
        if s[PARENT] >= 0:
            child[s[PARENT]] += d

    def named(name):
        return [(s, d) for s, d in zip(spans, dur) if s[NAME] == name]

    batches = named("simulate.run_batch")
    suites = named("verify.property_suite")
    cdf = [(s, d) for s, d in zip(spans, dur) if s[NAME].startswith("cdf.")]
    path_steps = sum(s[ARGS]["n_paths"] * s[ARGS]["grid"].n_steps for s, _ in batches)
    run_batch_s = sum(d for _, d in batches)
    simulated = sum(s[ARGS]["n_paths"] for s, _ in batches + suites)
    out = {
        "cli.self_s": sum(d - c for s, d, c in zip(spans, dur, child) if s[NAME] == "cli.main"),
        "simulate.run_batch.s": run_batch_s,
        "simulate.run_batch.calls": len(batches),
        "simulate.path_steps": path_steps,
        "simulate.path_steps_per_s": path_steps / run_batch_s if run_batch_s > 0 else 0.0,
        "verify.paths_simulated_per_path": simulated / requested_paths if requested_paths else 0.0,
        "cdf.calls": len(cdf),
        "cdf.points": sum(s[POINTS] for s, _ in cdf),
        "cdf.s": sum(d for _, d in cdf),
    }
    for name in VERIFY_FUNCTIONS:
        out[f"verify.{name}.s"] = sum(d for _, d in named(f"verify.{name}"))
    for label in REGIMES:
        points = sum(s[POINTS] for s, _ in cdf if s[LABEL] == label)
        seconds = sum(d for s, d in cdf if s[LABEL] == label)
        out[f"cdf.us_per_point.{label}"] = 1e6 * seconds / points if points else 0.0
    return out
