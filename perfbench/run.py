"""stopgain benchmark: end-to-end metrics per workload, or a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload verify_k2 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--trace 0`` measures ``setup_s``, ``wall_s`` and ``peak_rss_mib`` for one
workload; ``--trace 1`` runs every workload traced and reports the per-layer
metrics.  Every pass's output is checked.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it holds informational fields (output hashes at
the fixed seed, machine, library versions, git commit).  See README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracer import LAYER_METRICS
from workloads import FIXED_SEED, FULL, SMOKE, WORKLOADS, pass_seed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
REQUIRED = (ROOT / "src" / "stopgain" / "cli.py", ROOT / "tests" / "make_reference_values.py")

SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 165
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mib", "MiB"))
# what a user pays before the first command runs: interpreter, imports, parser
_SETUP_PROBE = "import time, stopgain.cli as c; c.build_parser(); print(time.monotonic())"


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def measure_setup(samples=SETUP_SAMPLES):
    """Seconds from starting a fresh interpreter until ``stopgain.cli`` is ready."""
    times = []
    for _ in range(samples):
        start = time.monotonic()
        done = subprocess.run([sys.executable, "-c", _SETUP_PROBE], env=_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        times.append(float(done.stdout.split()[-1]) - start)
    return times


def run_worker(args):
    done = subprocess.run([sys.executable, str(BENCH_DIR / "worker.py"), *args], env=_env(),
                          cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"worker exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _sha256(paths):
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def check_passes(passes, seed):
    """Check every pass, deleting its files after.

    Returns the failure reasons by pass index, and the SHA-256 of each
    workload's first full-size output at the fixed seed.  ``law_curve``
    passes take their oracle points from ``seed`` and the pass index.
    """
    import checks

    failures, hashes = {}, {}
    for i, p in enumerate(passes):
        try:
            reason = checks.CHECKS[p["workload"]](pass_seed(seed, i), p["outputs"], p["rcs"], p["sizes"])
        except (OSError, ValueError) as exc:
            reason = f"unreadable output: {exc}"
        if reason is None and p["kind"] != "warmup" and p["seed"] == FIXED_SEED:
            hashes.setdefault(p["workload"], _sha256(p["outputs"]))
        if reason is not None:
            failures[i] = reason
            print(f"pass {i} ({p['workload']}, seed {p['seed']}) failed: {reason}", file=sys.stderr)
        for out in p["outputs"]:
            Path(out).unlink(missing_ok=True)
    return failures, hashes


def run_workload(workload, seed, seconds, trace, smoke=False):
    """One benchmark run; returns ``(result, info)``."""
    sizes = SMOKE if smoke else FULL
    OUT_DIR.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=OUT_DIR)
    try:
        common = ["--out-dir", tmp] + (["--smoke"] if smoke else [])
        if trace:
            report = run_worker(common + ["--trace-file", str(OUT_DIR / "trace.jsonl")])
        else:
            setup = measure_setup()
            report = run_worker(common + ["--workload", workload, "--seed", str(seed),
                                          "--seconds", str(seconds)])
        failures, hashes = check_passes(report["passes"], seed)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    passes = report["passes"]
    if trace:
        metrics = {
            f"{w}.{name}": {"value": report["layers"][w][name], "unit": unit}
            for w, names in LAYER_METRICS.items() for name, unit in names
        }
    else:
        walls = [p["wall_s"] for p in passes if p["kind"] == "timed"]
        values = {"setup_s": statistics.median(setup), "wall_s": statistics.median(walls),
                  "peak_rss_mib": report["peak_rss_mib"]}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    result = {"correct": not failures, "attempted": len(passes), "failed": len(failures),
              "metrics": metrics}
    info = {
        "workload": "all (traced)" if trace else workload,
        "seed": seed,
        "sizes": sizes,
        "fail_frac": len(failures) / len(passes),
        "pass_wall_s": [[p["workload"], p["kind"], p["seed"], p["wall_s"]] for p in passes],
        "output_sha256": {"seed": FIXED_SEED, **hashes},
        "nproc": os.cpu_count(),
        "ram_gib": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30,
        **report["versions"],
        "git_commit": _git_commit(),
    }
    if trace:
        info["unwrapped"] = report["unwrapped"]
    else:
        info["setup_s_samples"] = setup
        info["timed_passes"] = len(walls)
    return result, info


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own tests")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")

    missing = [str(path.relative_to(ROOT)) for path in REQUIRED if not path.is_file()]
    if missing:
        print(f"error: not a stopgain checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "tests"))

    if args.workload != "all":
        result, info = run_workload(args.workload, args.seed, args.seconds, args.trace, args.smoke)
        print(json.dumps({"info": info}))
        print(json.dumps(result))
        return 0
    results = {}
    for workload in WORKLOADS:
        result, info = run_workload(workload, args.seed, args.seconds, args.trace, args.smoke)
        print(json.dumps({"info": info}))
        for name, m in result["metrics"].items():
            print(f"{workload:16} {name:44} {m['value']:>14.6g} {m['unit']}")
        results[workload] = result
        if args.trace:
            break  # one traced run covers every workload
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
