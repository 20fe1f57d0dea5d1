"""Acceptance gate: eleven end-to-end checks of the package's core claims.

Each criterion is one test so a verbose run prints one pass/fail line per
criterion.  The heavy checks (million-path first-passage gate, hundred
-thousand-path bound check) run at full size; the whole module finishes in
a couple of minutes on one desktop core.
"""

import math
import time

import numpy as np
import pytest
from scipy.special import ndtr

from reference_values import PHI_TABLE
from stopgain.cdf import (
    CdfQuery,
    ShorthandContext,
    cdf_no_stop,
    cdf_with_stop,
    joint_cdf_stopped,
    joint_cdf_unstopped,
    stopping_time_cdf,
)
from stopgain.cli import EXIT_OK, main
from stopgain.model import MarketParams, TradeSpec, expected_gain_lower_bound, g_star_t
from stopgain.simulate import PathGrid, run_batch
from stopgain.verify import comparison_grid, property_report, reproduce_figure

DEMO = MarketParams(mu=0.5, sigma=1.0, s0=1.0)


def demo_ctx(k, v0=None):
    tr = TradeSpec(u0=1.0, k=k, v0=(1.0 / k) if v0 is None else v0, s_star=0.5)
    return ShorthandContext(DEMO, tr)


def test_criterion_01_golden_point():
    """Stop-protected gain law at the atom: F(-0.5, 1) = 0.4882 within 5e-4."""
    p = cdf_with_stop(CdfQuery(-0.5, 1.0), demo_ctx(1.0)).p
    assert abs(p - 0.4882) <= 5e-4, f"F(-0.5, 1) = {p}"


def test_criterion_02_golden_floor():
    """Timid worst case: floor = -0.5858 within 1e-4 and F is exactly 0 there."""
    ctx = demo_ctx(0.5)
    floor = g_star_t(ctx.trade, DEMO, 0.0)
    assert abs(floor - (-0.5858)) <= 1e-4, f"timid floor = {floor}"
    for t in (0.25, 1.0, 4.0):
        assert cdf_with_stop(CdfQuery(floor, t), ctx).p == 0.0
        assert cdf_with_stop(CdfQuery(floor - 1e-9, t), ctx).p == 0.0
        assert cdf_with_stop(CdfQuery(-0.7, t), ctx).p == 0.0


def test_criterion_03_figure_replication():
    """50,000 bridged paths reproduce each demo law: sup <= 0.015, < 30 s each."""
    for which in (1, 2, 3):
        start = time.perf_counter()
        result = reproduce_figure(which, n_paths=50_000, master_seed=13, n_steps=1024)
        elapsed = time.perf_counter() - start
        sup = result.report.sup_distance
        assert sup <= 0.015, f"figure {which}: sup-distance {sup}"
        assert elapsed < 30.0, f"figure {which}: took {elapsed:.1f} s"


def test_criterion_04_first_passage_gate():
    """Million-path bridged stop frequency lands within 0.005 of 0.48814."""
    tr = TradeSpec(u0=1.0, k=1.0, v0=1.0, s_star=0.5)
    batch = run_batch(DEMO, tr, PathGrid(1.0, 1024), 1_000_000, 99, bridge=True)
    assert abs(batch.p_stopped - 0.48814) <= 0.005, f"P(stop by 1) = {batch.p_stopped}"


def test_criterion_05_decomposition_identity():
    """Stopped plus unstopped joint laws rebuild the total law to 1e-12."""
    for k in (1.0, 2.0, 0.5):
        ctx = demo_ctx(k)
        for t in (0.25, 1.0, 4.0):
            grid = comparison_grid(ctx, t)
            for x in grid:
                x = float(x)
                total = cdf_with_stop(CdfQuery(x, t), ctx).p
                parts = joint_cdf_stopped(x, t, ctx) + joint_cdf_unstopped(x, t, ctx)
                assert abs(total - parts) <= 1e-12, f"k={k} t={t} x={x}"


def test_criterion_06_no_stop_limit():
    """A barrier at 1e-8 makes the stop-protected law match the free law to 1e-6."""
    for k in (0.5, 1.0, 2.0):
        tr = TradeSpec(u0=1.0, k=k, v0=1.0 / k, s_star=1e-8)
        ctx = ShorthandContext(DEMO, tr)
        for x in np.linspace(-1.0 / k + 1e-3, -1.0 / k + 8.0, 400):
            q = CdfQuery(float(x), 1.0)
            gap = abs(cdf_with_stop(q, ctx).p - cdf_no_stop(q, ctx).p)
            assert gap <= 1e-6, f"k={k} x={x} gap={gap}"


def test_criterion_07_atom_identity():
    """The k=1 atom carries exactly the stop-time mass, to 1e-12."""
    ctx = demo_ctx(1.0)
    for t in (0.1, 1.0, 10.0):
        atom = cdf_with_stop(CdfQuery(-0.5, t), ctx).p
        assert abs(atom - stopping_time_cdf(t, ctx)) <= 1e-12, f"t={t}"


def test_criterion_08_property_suite():
    """Ten thousand paths, zero violations of the three trajectory guarantees."""
    tr = TradeSpec(u0=1.0, k=1.0, v0=2.0, s_star=0.5)  # u0 <= k * v0
    batch = run_batch(DEMO, tr, PathGrid(1.0, 1024), 10_000, 404, trajectory=True)
    report = property_report(batch, ShorthandContext(DEMO, tr), 1.0)
    for name in ("survivability", "long_only", "control_bound"):
        leg = report[name]
        assert leg["status"] == "pass", f"{name}: {leg}"
        assert leg["violations"] == 0
    assert report["lower_bound"]["status"] == "pass"
    assert all(leg["status"] != "fail" for leg in report.values())


def test_criterion_09_lower_bound():
    """Mean gain over 1e5 paths clears the distribution-derived bound at each cutoff."""
    v0 = 2.0
    tr = TradeSpec(u0=1.0, k=1.0, v0=v0, s_star=0.5)
    ctx = ShorthandContext(DEMO, tr)
    batch = run_batch(DEMO, tr, PathGrid(1.0, 1024), 100_000, 2024, bridge=True)
    g = batch.terminal_gain
    mean = float(g.mean())
    se = float(g.std(ddof=1) / math.sqrt(len(g)))
    for c in (v0 / 2, v0, 2 * v0):
        f_at = cdf_with_stop(CdfQuery(c - v0, 1.0), ctx).p
        bound = expected_gain_lower_bound(c, v0, f_at)
        assert mean >= bound - 3 * se, f"c={c}: mean {mean} < bound {bound} - 3*{se}"


def test_criterion_10_determinism(tmp_path):
    """Fixed-seed simulate CSV is byte-identical across runs and worker counts."""
    base = ["simulate", "--sstar", "0.5", "--paths", "2000", "--steps", "256",
            "--seed", "1234"]
    outputs = []
    for tag, workers in (("a", 1), ("b", 1), ("c", 4), ("d", 8)):
        path = tmp_path / f"run_{tag}.csv"
        rc = main(base + ["--workers", str(workers), "--out", str(path)])
        assert rc == EXIT_OK
        outputs.append(path.read_bytes())
    assert all(blob == outputs[0] for blob in outputs[1:])


def test_criterion_11_normal_cdf_accuracy():
    """Phi matches 50-digit references to 1e-15 and obeys the symmetry identity."""
    special = {"log2": math.log(2.0), "neg_log4": -math.log(4.0)}
    for key, reference in PHI_TABLE.items():
        x = special.get(key)
        if x is None:
            x = float(key)
        assert abs(x) <= 8.0
        assert abs(ndtr(x) - reference) <= 1e-15, f"x={key}"
    for x in np.linspace(-8.0, 8.0, 1601):
        x = float(x)
        assert abs(ndtr(x) + ndtr(-x) - 1.0) <= 1e-15, f"x={x}"
