"""The three benchmark workloads as ``stopgain`` command lines.

A pass is the list of commands one workload runs, executed in-process
through ``stopgain.cli.main``.  Every command uses the demo market
(mu=0.5, sigma=1, s0=1, s*=0.5, u0=1, t=1) and writes its output to a file,
so the checks in ``checks.py`` can read it after the pass.  This module
imports nothing from ``stopgain``: the benchmark's parent process uses it
too, and must not import the program it measures.
"""

import numpy as np

WORKLOADS = ("law_curve", "verify_k2", "simulate_coarse")

# Every run starts with a warm-up pass at this seed; the SHA-256 of its output
# shows whether a later change kept the seeded output bytes.
FIXED_SEED = 7

DEMO = ["--mu", "0.5", "--sigma", "1", "--s0", "1", "--sstar", "0.5", "--u0", "1", "--t", "1"]

# label -> feedback gain of the three regimes tabulated by law_curve
REGIMES = {"k1": "1", "k2": "2", "k0_5": "0.5"}
CURVE_RANGE = ("-0.6", "3")

FULL = {
    "points": 16384,
    "verify_paths": 50_000,
    "verify_steps": 1024,
    "coarse_paths": 1_000_000,
    "coarse_steps": 16,
}
# Small enough for a test, large enough that the 0.015 verify gate and the
# five-standard-error P(stop) band hold at any seed.
SMOKE = {
    "points": 512,
    "verify_paths": 20_000,
    "verify_steps": 256,
    "coarse_paths": 20_000,
    "coarse_steps": 16,
}


def pass_seed(seed: int, index: int) -> int:
    """Master seed of timed pass ``index`` (1-based) of a run seeded ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def commands(workload: str, seed: int, out_stem: str, sizes: dict) -> list[tuple[str, list[str], str]]:
    """``(label, argv, output path)`` for each command of one pass.

    ``law_curve`` does not use ``seed``: it only picks which points the check
    compares against the oracle.
    """
    if workload == "law_curve":
        xmin, xmax = CURVE_RANGE
        return [
            (
                label,
                ["curve", *DEMO, "--k", k, "--with-no-stop", "--xmin", xmin, "--xmax", xmax,
                 "--points", str(sizes["points"]), "--out", f"{out_stem}-{label}.csv"],
                f"{out_stem}-{label}.csv",
            )
            for label, k in REGIMES.items()
        ]
    if workload == "verify_k2":
        out = f"{out_stem}.json"
        return [(
            "k2",
            ["verify", *DEMO, "--k", "2", "--paths", str(sizes["verify_paths"]),
             "--steps", str(sizes["verify_steps"]), "--seed", str(seed), "--workers", "1", "--out", out],
            out,
        )]
    if workload == "simulate_coarse":
        out = f"{out_stem}.csv"
        return [(
            "k2",
            ["simulate", *DEMO, "--k", "2", "--paths", str(sizes["coarse_paths"]),
             "--steps", str(sizes["coarse_steps"]), "--seed", str(seed), "--workers", "1", "--out", out],
            out,
        )]
    raise ValueError(f"unknown workload {workload!r}")


def requested_paths(workload: str, sizes: dict) -> int:
    """Paths the user asked for in one pass; 0 for the closed-form workload."""
    return {"law_curve": 0, "verify_k2": sizes["verify_paths"],
            "simulate_coarse": sizes["coarse_paths"]}[workload]
