"""Smoke tests of the benchmark: every workload once at tiny sizes.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "tests")]

import checks  # noqa: E402
import run  # noqa: E402
from workloads import SMOKE  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(done):
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def _units(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


def _spec_units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_end_to_end_metric(workload):
    r = _result(_bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0", "--smoke"))
    assert r["correct"] and r["failed"] == 0 and r["attempted"] >= 2
    assert _units(r["metrics"]) == _spec_units("end_to_end")
    assert all(m["value"] > 0 for m in r["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    r = _result(_bench("--workload", "verify_k2", "--seed", "3", "--seconds", "1", "--trace", "1", "--smoke"))
    assert r["correct"] and r["failed"] == 0
    assert _units(r["metrics"]) == _spec_units("per_layer")
    m = {name: v["value"] for name, v in r["metrics"].items()}
    assert m["law_curve.cdf.calls"] == m["law_curve.cdf.points"] == 3 * 2 * SMOKE["points"]
    assert m["verify_k2.verify.paths_simulated_per_path"] == 2.0
    assert m["verify_k2.simulate.path_steps"] == SMOKE["verify_paths"] * SMOKE["verify_steps"]
    assert m["simulate_coarse.simulate.run_batch.calls"] == 1
    assert m["simulate_coarse.simulate.sink_s"] > 0
    assert m["simulate_coarse.simulate.peak_traced_mib"] > 0


def _scale_k2_curve(path):
    # off the oracle by a relative 1e-9, still monotone and inside [0, 1]
    with open(path, encoding="utf-8") as f:
        header, *rows = f.read().splitlines()
    scaled = []
    for row in rows:
        x, p, p0 = row.split(",")
        scaled.append(f"{x},{float(p) * (1 - 1e-9):.17g},{p0}")
    Path(path).write_text("\n".join([header, *scaled]) + "\n", encoding="utf-8")


def _fail_verify_report(path):
    report = json.loads(Path(path).read_text())
    Path(path).write_text(json.dumps(dict(report, passed=False)))


def _drop_last_row(path):
    lines = Path(path).read_text().splitlines(keepends=True)
    Path(path).write_text("".join(lines[:-1]))


@pytest.mark.parametrize("workload, corrupt, output, reason", [
    ("law_curve", _scale_k2_curve, 1, "oracle"),
    ("verify_k2", _fail_verify_report, 0, "passed"),
    ("simulate_coarse", _drop_last_row, 0, "rows"),
])
def test_broken_output_counts_in_fail_frac(monkeypatch, capsys, workload, corrupt, output, reason):
    real = checks.CHECKS[workload]

    def corrupt_then_check(seed, outputs, rcs, sizes):
        corrupt(outputs[output])
        return real(seed, outputs, rcs, sizes)

    monkeypatch.setitem(checks.CHECKS, workload, corrupt_then_check)
    result, info = run.run_workload(workload, 3, 0, trace=False, smoke=True)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 2
    assert info["fail_frac"] == 1.0
    assert reason in capsys.readouterr().err


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _bench("--workload", "law_curve", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
