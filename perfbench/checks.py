"""Correctness checks, one per workload, run on every pass's output files.

Each check returns ``None`` when the pass is correct and a one-line reason
when it is not.  The closed-form values come from the independent 50-digit
mpmath transcription ``Closed`` in ``tests/make_reference_values.py``, which
the caller puts on ``sys.path``.
"""

import io
import json
import math

import mpmath as mp
import numpy as np

import make_reference_values as ref
from workloads import CURVE_RANGE, REGIMES

ORACLE_POINTS = 32  # seeded grid points per regime compared with the oracle
ORACLE_TOL = 1e-12
# README worst case at k=2: (u0/k)[(s*/s0)^k e^{sigma^2 (k-k^2) t/2} - 1]
WORST_CASE_K2 = 0.5 * (0.25 * math.exp(-1) - 1)
P_STOP_SIGMAS = 5.0


def _oracle(k: str):
    return ref.Closed(ref.MU, ref.SIGMA, ref.S0, ref.SSTAR, ref.U0, k)


def check_law_curve(seed, outputs, rcs, sizes):
    """Both columns in [0, 1], nondecreasing in x, and equal to the oracle."""
    points = sizes["points"]
    xs_expected = np.linspace(float(CURVE_RANGE[0]), float(CURVE_RANGE[1]), points)
    rng = np.random.default_rng(seed)
    t = mp.mpf(1)
    for (label, k), path, rc in zip(REGIMES.items(), outputs, rcs):
        if rc != 0:
            return f"{label}: exit code {rc}"
        with open(path, encoding="utf-8") as f:
            header = f.readline()
            data = np.loadtxt(f, delimiter=",", ndmin=2)
        if header != "x,F,F0\n" or data.shape != (points, 3):
            return f"{label}: expected header x,F,F0 and {points} rows of 3 columns"
        if not np.array_equal(data[:, 0], xs_expected):
            return f"{label}: x column is not the requested grid"
        cols = data[:, 1:]
        if not ((cols >= 0) & (cols <= 1)).all():
            return f"{label}: a value lies outside [0, 1]"
        if (np.diff(cols, axis=0) < 0).any():
            return f"{label}: a column decreases in x"
        law = _oracle(k)
        for i in rng.choice(points, size=min(ORACLE_POINTS, points), replace=False):
            x = mp.mpf(float(data[i, 0]))
            for col, name, want in ((1, "F", law.cdf(x, t)), (2, "F0", law.cdf_no_stop(x, t))):
                if not abs(data[i, col] - float(want)) <= ORACLE_TOL:
                    return f"{label}: {name}({data[i, 0]!r}) = {data[i, col]!r}, oracle {float(want)!r}"
    return None


def check_verify_k2(seed, outputs, rcs, sizes):
    """Exit code 0 and a report that says it passed."""
    if rcs[0] != 0:
        return f"exit code {rcs[0]}"
    with open(outputs[0], encoding="utf-8") as f:
        report = json.load(f)
    if report.get("passed") is not True:
        return "report does not say passed"
    return None


def check_simulate_coarse(seed, outputs, rcs, sizes):
    """One row per path in index order, no gain below the worst case, P(stop) on the law."""
    if rcs[0] != 0:
        return f"exit code {rcs[0]}"
    with open(outputs[0], encoding="utf-8") as f:
        header = f.readline()
        body = f.read()
    n = sizes["coarse_paths"]
    # paths that never stopped leave t_star empty
    data = np.loadtxt(io.StringIO(body.replace(",,", ",nan,")), delimiter=",", ndmin=2)
    if header != "path_index,t_star,terminal_g\n" or data.shape != (n, 3):
        return f"expected header path_index,t_star,terminal_g and {n} rows of 3 columns"
    if not np.array_equal(data[:, 0], np.arange(n)):
        return "rows are not in path-index order"
    worst = data[:, 2].min()
    if not worst >= WORST_CASE_K2 - 1e-12:
        return f"terminal gain {worst!r} below the worst case {WORST_CASE_K2!r}"
    p = float(_oracle(REGIMES["k2"]).stop_cdf(mp.mpf(1)))
    p_hat = float((~np.isnan(data[:, 1])).mean())
    se = math.sqrt(p * (1 - p) / n)
    if not abs(p_hat - p) <= P_STOP_SIGMAS * se:
        return f"P(stop) {p_hat!r} is {abs(p_hat - p) / se:.1f} standard errors from {p!r}"
    return None


CHECKS = {
    "law_curve": check_law_curve,
    "verify_k2": check_verify_k2,
    "simulate_coarse": check_simulate_coarse,
}
