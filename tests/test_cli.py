"""Command-line interface: output formats, exit codes and config files."""

import hashlib
import io
import json
import math
import os
import subprocess
import sys

import pytest

from stopgain import cli, simulate, verify
from stopgain.cdf import CdfQuery, ShorthandContext, cdf_with_stop
from stopgain.cli import EXIT_GATE, EXIT_OK, EXIT_PIPE, EXIT_USAGE, main
from stopgain.errors import DomainError
from stopgain.model import MarketParams, TradeSpec
from stopgain.simulate import PathGrid, run_batch

DEMO_EVAL = ["eval", "--sstar", "0.5", "--x", "-0.5"]


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestEval:
    def test_demo_point(self, capsys):
        rc, out, _ = run(capsys, DEMO_EVAL)
        assert rc == EXIT_OK
        value, branch = out.split()
        assert float(value) == pytest.approx(0.4882171915711655, rel=1e-12)
        assert branch == "upper"

    def test_below_floor_branch(self, capsys):
        rc, out, _ = run(capsys, ["eval", "--sstar", "0.5", "--x", "-0.7"])
        assert rc == EXIT_OK
        value, branch = out.split()
        assert float(value) == 0.0
        assert branch == "floor"

    def test_no_stop_law(self, capsys):
        rc, out, _ = run(capsys, ["eval", "--no-stop", "--x", "-0.5"])
        assert rc == EXIT_OK
        value, branch = out.split()
        assert float(value) == pytest.approx(0.24410859578558275, rel=1e-12)
        assert branch == "no-stop"

    def test_missing_x(self, capsys):
        rc, _, err = run(capsys, ["eval", "--sstar", "0.5"])
        assert rc == EXIT_USAGE
        assert "--x" in err

    def test_bad_sigma(self, capsys):
        rc, _, err = run(capsys, ["eval", "--sstar", "0.5", "--x", "0.0", "--sigma", "0"])
        assert rc == EXIT_USAGE
        assert "sigma" in err

    def test_barrier_above_start(self, capsys):
        rc, _, err = run(capsys, ["eval", "--sstar", "2.0", "--x", "0.0"])
        assert rc == EXIT_USAGE
        assert err.startswith("error:")

    def test_bad_horizon(self, capsys):
        rc, _, err = run(capsys, ["eval", "--sstar", "0.5", "--x", "0.0", "--t", "-1"])
        assert rc == EXIT_USAGE

    def test_reflection_weight_overflow(self, capsys):
        rc, out, err = run(
            capsys,
            ["eval", "--mu", "-1", "--sigma", "0.01", "--s0", "1", "--sstar", "0.9",
             "--k", "2", "--x", "0.1"],
        )
        assert rc == EXIT_USAGE
        assert out == ""
        assert err.startswith("error:") and "overflows" in err

    def test_huge_level_over_tiny_investment(self, capsys):
        # k x / u0 overflows to +inf on the way to the level's log price; the
        # level is far above the band, where F is 1, and no warning is raised
        rc, out, _ = run(
            capsys,
            ["eval", "--u0", "1e-300", "--k", "0.94", "--sigma", "2.28", "--sstar", "0.5",
             "--x", "1e200"],
        )
        assert rc == EXIT_OK
        assert out == "1 upper\n"

    def test_free_law_where_the_level_ratio_overflows(self, capsys):
        # k x / u0 overflows, but its log does not, and the law depends on it
        rc, out, _ = run(
            capsys,
            ["eval", "--u0", "1e-300", "--k", "0.999999", "--sigma", "1000", "--mu", "500000",
             "--x", "1e200", "--t", "1"],
        )
        assert rc == EXIT_OK
        p, branch = out.split()
        assert float(p) == pytest.approx(0.8750914407289243, rel=1e-12)
        assert branch == "no-stop"

    def test_stop_time_of_a_level_whose_ratio_overflows(self, capsys):
        # a_of_x takes the log of the same overflowing k x / u0, with no warning
        rc, out, _ = run(
            capsys,
            ["eval", "--mu=0.013438572624139089", "--sigma=0.0026411845493779598",
             "--s0=14.940993977861613", "--sstar=0.019895085858610845",
             "--u0=2.151582031474922e-112", "--k=0.027034706775861457",
             "--t=2.1676659750922875e+162", "--x=6.046618481030597e+252"],
        )
        assert rc == EXIT_OK
        assert out == "0 middle\n"


class TestStoptime:
    def test_demo_value(self, capsys):
        rc, out, _ = run(capsys, ["stoptime", "--sstar", "0.5"])
        assert rc == EXIT_OK
        assert float(out) == pytest.approx(0.4882171915711655, rel=1e-12)

    def test_requires_stop(self, capsys):
        rc, _, err = run(capsys, ["stoptime", "--sstar", "0.5", "--no-stop"])
        assert rc == EXIT_USAGE
        assert "stop" in err
        rc, _, err = run(capsys, ["stoptime"])
        assert rc == EXIT_USAGE

    def test_bad_horizon(self, capsys):
        rc, _, err = run(capsys, ["stoptime", "--sstar", "0.5", "--t", "0"])
        assert rc == EXIT_USAGE
        assert "t must be" in err

    def test_drift_term_past_the_largest_float(self, capsys):
        # the drift times t overflows; the exact argument of the normal CDF is
        # then far out in its tail, where the CDF is exactly 0 or 1
        rc, out, _ = run(
            capsys, ["stoptime", "--mu", "-139.93", "--sstar", "0.2116", "--k", "1.68", "--t", "1.7e308"]
        )
        assert rc == EXIT_OK
        assert out == "1\n"


class TestCurve:
    def test_row_count_and_header(self, capsys):
        rc, out, _ = run(
            capsys,
            ["curve", "--sstar", "0.5", "--xmin", "0", "--xmax", "1", "--points", "2"],
        )
        assert rc == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0] == "x,F"
        assert len(lines) == 3

    def test_values_on_grid(self, capsys):
        # 37 points over [-0.6, 3.0] puts x = -0.5 exactly on the grid
        rc, out, _ = run(
            capsys,
            ["curve", "--sstar", "0.5", "--xmin", "-0.6", "--xmax", "3.0", "--points", "37"],
        )
        assert rc == EXIT_OK
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        fs = [float(r[1]) for r in rows]
        assert fs == sorted(fs)
        by_x = {round(float(r[0]), 10): float(r[1]) for r in rows}
        assert by_x[-0.5] == pytest.approx(0.4882171915711655, rel=1e-12)
        assert by_x[-0.6] == 0.0

    def test_no_stop_column(self, capsys):
        rc, out, _ = run(
            capsys,
            ["curve", "--sstar", "0.5", "--xmin", "-0.5", "--xmax", "0.5", "--points", "3",
             "--with-no-stop"],
        )
        assert rc == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0] == "x,F,F0"
        first = lines[1].split(",")
        assert float(first[1]) == pytest.approx(0.4882171915711655, rel=1e-12)
        assert float(first[2]) == pytest.approx(0.24410859578558275, rel=1e-12)

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        argv = ["curve", "--sstar", "0.5", "--xmin", "0", "--xmax", "1", "--points", "5"]
        rc, out, _ = run(capsys, argv)
        assert rc == EXIT_OK
        path = tmp_path / "curve.csv"
        assert main(argv + ["--out", str(path)]) == EXIT_OK
        capsys.readouterr()
        assert path.read_text() == out

    def test_bad_range(self, capsys):
        rc, _, err = run(capsys, ["curve", "--sstar", "0.5", "--xmin", "1", "--xmax", "0"])
        assert rc == EXIT_USAGE
        assert "xmin" in err

    def test_bad_points(self, capsys):
        rc, _, err = run(
            capsys, ["curve", "--sstar", "0.5", "--xmin", "0", "--xmax", "1", "--points", "1"]
        )
        assert rc == EXIT_USAGE
        assert "points" in err

    def test_missing_range(self, capsys):
        rc, _, err = run(capsys, ["curve", "--sstar", "0.5"])
        assert rc == EXIT_USAGE
        assert "--xmin" in err

    def test_late_stop_gain_past_the_largest_float(self, capsys):
        # at k < 1 a stop at t = 3e8 would lock in a gain that overflows; the
        # band then ends at +inf, without a warning, and the rows keep their bytes
        rc, out, _ = run(
            capsys,
            ["curve", "--sstar", "0.8", "--k", "0.83", "--mu", "1.9", "--t", "3e8",
             "--xmin", "-0.001", "--xmax", "1e-9"],
        )
        assert rc == EXIT_OK
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "2dc8c7c97986a5509e984760b5f98a80dbf9ffb0cc48fa9c1f386b957cf2207a"


class TestFiniteFlagsAreUsageErrors:
    # each of these used to end in an OverflowError, a ZeroDivisionError or a
    # ValueError, or print nan: the first six from a float overflowing, the
    # rest from a default (v0 = u0/k, 1024 steps per unit time) or a log of
    # s_star/s0 computed before its inputs were checked; "OUT" stands for a
    # file that must be left as it was
    @pytest.mark.parametrize("argv", [
        ["eval", "--sstar", "0.5", "--x", "0", "--sigma", "1e200"],
        ["stoptime", "--sstar", "0.5", "--sigma", "1e200"],
        ["curve", "--sstar", "0.5", "--xmin", "0", "--xmax", "1", "--sigma", "1e200"],
        ["eval", "--sstar", "0.5", "--x", "0", "--k", "2", "--sigma", "1e-200"],
        ["eval", "--sstar", "0.5", "--x", "0", "--k", "1e300"],
        ["simulate", "--sstar", "0.5", "--sigma", "1e200", "--out", "OUT"],
        *(pytest.param([*cmd, "--k", k], id=f"{cmd[0]}-k{k}")
          for cmd in (["eval", "--sstar", "0.5", "--x", "0"],
                      ["curve", "--sstar", "0.5", "--xmin", "-1", "--xmax", "1", "--out", "OUT"],
                      ["stoptime", "--sstar", "0.5"],
                      ["simulate", "--sstar", "0.5", "--paths", "2", "--out", "OUT"],
                      ["verify", "--sstar", "0.5", "--paths", "2", "--out", "OUT"])
          for k in ("0", "-0.0")),
        *(pytest.param([cmd, "--sstar", "0.5", "--paths", "2", "--t", t, "--out", "OUT"], id=f"{cmd}-t{t}")
          for cmd in ("simulate", "verify") for t in ("inf", "nan")),
        pytest.param(["stoptime", "--sstar", "1e-310", "--s0", "1e5", "--mu", "1"], id="log-ratio-inf"),
        pytest.param(["eval", "--sstar", "5e-324", "--s0", "2", "--mu", "1", "--x", "0"], id="ratio-0-eval"),
        pytest.param(["stoptime", "--sstar", "5e-324", "--s0", "2", "--mu", "0"], id="ratio-0-stoptime"),
    ])
    def test_exit_2_without_traceback(self, capsys, tmp_path, argv):
        out = tmp_path / "f"
        out.write_text("kept\n")
        rc, stdout, err = run(capsys, [str(out) if a == "OUT" else a for a in argv])
        assert rc == EXIT_USAGE
        assert stdout == ""
        assert err.startswith("error:") and "Traceback" not in err
        assert out.read_text() == "kept\n"


class TestSimulate:
    ARGS = ["simulate", "--sstar", "0.5", "--paths", "400", "--steps", "64"]

    def test_header_and_shape(self, capsys):
        rc, out, _ = run(capsys, self.ARGS)
        assert rc == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0] == "path_index,t_star,terminal_g"
        assert len(lines) == 401
        assert [line.split(",")[0] for line in lines[1:]] == [str(i) for i in range(400)]

    def test_deterministic_output(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(self.ARGS + ["--out", str(f1)]) == EXIT_OK
        assert main(self.ARGS + ["--out", str(f2)]) == EXIT_OK
        capsys.readouterr()
        assert f1.read_bytes() == f2.read_bytes()

    def test_worker_count_invisible(self, capsys, tmp_path):
        f1, f2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
        assert main(self.ARGS + ["--out", str(f1), "--workers", "1"]) == EXIT_OK
        assert main(self.ARGS + ["--out", str(f2), "--workers", "2"]) == EXIT_OK
        capsys.readouterr()
        assert f1.read_bytes() == f2.read_bytes()

    def test_stopped_rows_sit_on_the_atom(self, capsys):
        rc, out, _ = run(capsys, self.ARGS)
        assert rc == EXIT_OK
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        stopped = [r for r in rows if r[1] != ""]
        assert stopped  # the demo parameters stop about half the paths
        assert all(float(r[2]) == -0.5 for r in stopped)
        assert all(0.0 < float(r[1]) <= 1.0 for r in stopped)

    def test_seed_changes_output(self, capsys):
        _, out_a, _ = run(capsys, self.ARGS + ["--seed", "1"])
        _, out_b, _ = run(capsys, self.ARGS + ["--seed", "2"])
        assert out_a != out_b

    def test_bad_paths(self, capsys):
        rc, _, err = run(capsys, ["simulate", "--sstar", "0.5", "--paths", "0"])
        assert rc == EXIT_USAGE
        assert "n_paths" in err

    @pytest.mark.parametrize(
        "bad",
        [["--paths", "0"], ["--sstar", "2"], ["--seed", "-1"], ["--workers", "0"],
         ["--steps", "20000000"]],  # one path over the default memory budget
    )
    def test_failed_run_leaves_out_alone(self, capsys, tmp_path, bad):
        kept, fresh = tmp_path / "kept.csv", tmp_path / "fresh.csv"
        kept.write_bytes(b"earlier output\n")
        for out in (kept, fresh):
            rc, _, err = run(capsys, self.ARGS + bad + ["--out", str(out)])
            assert rc == EXIT_USAGE
            assert err.startswith("error:")
        assert kept.read_bytes() == b"earlier output\n"
        assert not fresh.exists()

    def test_vanishing_bridge_variance(self, capsys, tmp_path):
        # sigma**2 dt underflows to 0: no crossing is possible, so the bridged
        # run writes the grid-only bytes, with no divide-by-zero warning
        args = ["simulate", "--mu", "0.5", "--sigma", "1e-161", "--s0", "1", "--sstar", "0.5",
                "--u0", "1", "--t", "1", "--k", "2", "--paths", "3", "--steps", "1024",
                "--seed", "1"]
        bridged, plain = tmp_path / "bridged.csv", tmp_path / "plain.csv"
        assert main(args + ["--out", str(bridged)]) == EXIT_OK
        assert main(args + ["--no-bridge", "--out", str(plain)]) == EXIT_OK
        capsys.readouterr()
        assert bridged.read_bytes() == plain.read_bytes()
        assert len(bridged.read_text().splitlines()) == 4

    def test_closed_pipe_exits_quietly(self):
        # `stopgain simulate ... | head -n 2`: the reader leaves after two
        # lines, and the run stops as SIGPIPE would stop it, saying nothing
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        argv = ["simulate", "--sstar", "0.5", "--paths", "200000", "--steps", "4", "--seed", "7"]
        proc = subprocess.Popen([sys.executable, "-m", "stopgain", *argv], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        lines = [proc.stdout.readline() for _ in range(2)]
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == EXIT_PIPE == 141
        assert err == b""
        assert lines == [b"path_index,t_star,terminal_g\n", b"0,1,-0.5\n"]


# SHA-256 of seeded `simulate` CSVs as the per-row formatter wrote them.  20000
# paths of 16 steps make two chunks of the default budget, so the two-worker
# run really uses two processes and gives the one-worker bytes.
SIMULATE_ARGS = ["simulate", "--sstar", "0.5", "--k", "2", "--paths", "20000", "--steps", "16",
                 "--seed", "7"]
PINNED_SIMULATE_SHA256 = {
    "stop": "9602de70053fa11ee55fbabc2e7016291f3c4759344ca660844102c1fc4269f0",
    "no_stop": "3ebf807f027fd3885f22292cbd86ba77c337e9ca43bab05fdc15d7525faa00df",
    "no_bridge": "bccacb89965f2047cf14f0b85bff594a4dd412755231630fdb6b899a2cf174b4",
}
# the run_batch sink of 3000 paths of 64 steps at seed 11 in 341-path chunks
PINNED_SINK_SHA256 = "428c4e0aaa44aeb66dad8a97fa74028d237ad97317c17ea483f66e5737cf5f9d"


class TestSimulateBytes:
    @pytest.mark.parametrize(
        "case,extra",
        [("stop", []), ("no_stop", ["--no-stop"]), ("no_bridge", ["--no-bridge"]),
         ("stop", ["--workers", "2"])],
    )
    def test_cli_csv(self, capsys, tmp_path, case, extra):
        out = tmp_path / "sim.csv"
        assert main(SIMULATE_ARGS + extra + ["--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        data = out.read_bytes()
        assert hashlib.sha256(data).hexdigest() == PINNED_SIMULATE_SHA256[case]
        if case == "no_stop":
            assert all(line.split(b",")[1] == b"" for line in data.splitlines()[1:])

    def test_run_batch_sink_across_chunks(self):
        m = MarketParams(mu=0.5, sigma=1.0, s0=1.0)
        tr = TradeSpec(u0=1.0, k=2.0, v0=0.5, s_star=0.5)
        args = (m, tr, PathGrid(1.0, 64), 3000, 11)
        batch = run_batch(*args)
        # 9 chunks; two workers hold at most four of them submitted and not yet written
        for n_workers in (1, 2):
            sink = io.StringIO()
            assert run_batch(*args, memory_budget_mb=1, sink=sink, n_workers=n_workers) is None
            assert hashlib.sha256(sink.getvalue().encode()).hexdigest() == PINNED_SINK_SHA256
            rows = [line.split(",") for line in sink.getvalue().splitlines()]
            assert [int(r[0]) for r in rows] == list(range(3000))
            assert [float(r[1] or "nan") for r in rows] == pytest.approx(
                batch.stop_time.tolist(), rel=0, abs=0, nan_ok=True
            )
            assert [float(r[2]) for r in rows] == batch.terminal_gain.tolist()


class TestConfigFile:
    def test_supplies_flags(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# demo point\nsstar = 0.5\nx = -0.5\n\n")
        rc, out, _ = run(capsys, ["eval", "--config", str(cfg)])
        assert rc == EXIT_OK
        assert float(out.split()[0]) == pytest.approx(0.4882171915711655, rel=1e-12)

    def test_explicit_flag_wins(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sstar = 0.5\nx = -0.5\n")
        rc, out, _ = run(capsys, ["eval", "--config", str(cfg), "--x", "0.25"])
        assert rc == EXIT_OK
        ctx = ShorthandContext(
            MarketParams(mu=0.5, sigma=1.0, s0=1.0),
            TradeSpec(u0=1.0, k=1.0, v0=1.0, s_star=0.5),
        )
        expected = cdf_with_stop(CdfQuery(0.25, 1.0), ctx).p
        assert float(out.split()[0]) == pytest.approx(expected, rel=1e-12)

    def test_boolean_value(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bridge = false\n")
        base = ["simulate", "--sstar", "0.5", "--paths", "200", "--steps", "32"]
        f1, f2 = tmp_path / "cfg.csv", tmp_path / "flag.csv"
        assert main(base + ["--config", str(cfg), "--out", str(f1)]) == EXIT_OK
        assert main(base + ["--no-bridge", "--out", str(f2)]) == EXIT_OK
        capsys.readouterr()
        assert f1.read_bytes() == f2.read_bytes()

    def test_unknown_key(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("xx = 1\n")
        rc, _, err = run(capsys, ["eval", "--config", str(cfg)])
        assert rc == EXIT_USAGE
        assert "unknown option" in err

    def test_bad_value(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sigma = wide\n")
        rc, _, err = run(capsys, ["eval", "--config", str(cfg)])
        assert rc == EXIT_USAGE
        assert "bad value" in err

    def test_malformed_line(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sigma\n")
        rc, _, err = run(capsys, ["eval", "--config", str(cfg)])
        assert rc == EXIT_USAGE
        assert "key=value" in err

    def test_missing_file(self, capsys, tmp_path):
        rc, _, err = run(capsys, ["eval", "--config", str(tmp_path / "nope.cfg")])
        assert rc == EXIT_USAGE

    def test_every_optional_flag_is_a_key(self, capsys, tmp_path):
        _, subparsers = cli.build_parser()
        samples = {float: "0.5", int: "3", str: "out.csv", bool: "yes"}
        cfg = tmp_path / "all.cfg"
        for name, p in subparsers.items():
            flags = [a for a in p._actions if a.option_strings and a.dest not in ("config", "help")]
            assert flags, name
            for action in flags:
                kind = bool if action.nargs == 0 else (action.type or str)
                cfg.write_text(f"{action.dest.replace('_', '-')} = {samples[kind]}\n")
                parsed = cli._load_config(str(cfg), cli._config_types(subparsers))
                assert parsed == {action.dest: kind(samples[kind])}, (name, action.dest)
        for key in ("which", "config"):
            cfg.write_text(f"{key} = 1\n")
            rc, _, err = run(capsys, ["figure", "1", "--config", str(cfg)])
            assert rc == EXIT_USAGE
            assert "unknown option" in err


class TestVerify:
    BASE = ["verify", "--sstar", "0.5", "--paths", "1200", "--steps", "128"]

    def test_report_structure_and_pass(self, capsys, tmp_path):
        out_file = tmp_path / "verify.json"
        rc = main(self.BASE + ["--gate", "0.08", "--out", str(out_file)])
        capsys.readouterr()
        assert rc == EXIT_OK
        report = json.loads(out_file.read_text())
        assert report["passed"] is True
        assert report["gate"] == 0.08
        cfg = report["config"]
        assert cfg["v0"] == 1.0  # defaulted to u0 / k
        assert cfg["stop_enabled"] is True
        assert cfg["steps"] == 128
        assert cfg["paths"] == 1200
        comparison = report["cdf_comparison"]
        assert comparison["passed"] is True
        assert 0.0 < comparison["sup_distance"] <= 0.08
        legs = report["properties"]
        assert set(legs) == {"survivability", "long_only", "control_bound", "lower_bound"}
        assert all(leg["status"] == "pass" for leg in legs.values())

    @pytest.mark.parametrize("s_star", ["0.42", "0.75"])
    def test_k1_atom_lands_on_the_floor_point(self, capsys, s_star):
        # the simulated k = 1 stop gain equals the law's atom g_star bit for
        # bit; one ulp above it put the whole stopped mass past the grid's
        # floor point and read a sup distance of 0.39 at s* = 0.42
        rc, out, _ = run(capsys, ["verify", "--k", "1", "--sstar", s_star, "--paths", "20000",
                                  "--steps", "256", "--seed", "3"])
        assert rc == EXIT_OK
        assert json.loads(out)["cdf_comparison"]["sup_distance"] < 0.015

    def test_gate_failure_exit(self, capsys):
        rc, out, _ = run(capsys, self.BASE + ["--gate", "1e-9"])
        assert rc == EXIT_GATE
        report = json.loads(out)
        assert report["passed"] is False
        assert report["cdf_comparison"]["passed"] is False

    def test_no_stop_skips_comparison(self, capsys):
        rc, out, _ = run(
            capsys, ["verify", "--no-stop", "--paths", "400", "--steps", "64"]
        )
        assert rc == EXIT_OK
        report = json.loads(out)
        assert "skipped" in report["cdf_comparison"]
        assert report["passed"] is True

    @pytest.mark.parametrize(
        "bad",
        [["--paths", "0"], ["--sstar", "2"], ["--seed", "-1"], ["--workers", "0"],
         ["--steps", "20000000"]],  # one path over the default memory budget
    )
    def test_rejected_run_simulates_nothing_and_leaves_out_alone(
        self, capsys, tmp_path, simulated, bad
    ):
        kept, fresh = tmp_path / "kept.json", tmp_path / "fresh.json"
        kept.write_bytes(b"earlier report\n")
        for out in (kept, fresh):
            rc, _, err = run(capsys, self.BASE + bad + ["--out", str(out)])
            assert rc == EXIT_USAGE
            assert err.startswith("error:")
        assert kept.read_bytes() == b"earlier report\n"
        assert not fresh.exists()
        assert simulated["run_batch"] == 0

    @pytest.mark.parametrize("where", ["under_a_file", "a_directory", "missing_directory"])
    def test_bad_out_fails_before_simulating(self, capsys, tmp_path, simulated, where):
        (tmp_path / "afile").write_text("")
        out = {"under_a_file": tmp_path / "afile" / "x.json", "a_directory": tmp_path,
               "missing_directory": tmp_path / "none" / "x.json"}[where]
        rc, _, err = run(capsys, self.BASE + ["--out", str(out)])
        assert rc == EXIT_USAGE
        assert err.startswith("error:")
        assert simulated["run_batch"] == 0
        assert (tmp_path / "afile").read_text() == ""
        assert not (tmp_path / "none").exists()

    def test_late_failure_leaves_out_alone(self, capsys, tmp_path, monkeypatch):
        # a law that fails after the simulation must not have truncated --out
        def fail(*args, **kwargs):
            raise DomainError("no law here")

        monkeypatch.setattr(verify, "law_report", fail)
        kept, fresh = tmp_path / "kept.json", tmp_path / "fresh.json"
        kept.write_bytes(b"earlier report\n")
        for out in (kept, fresh):
            rc, _, err = run(capsys, self.BASE + ["--out", str(out)])
            assert rc == EXIT_USAGE
            assert "no law here" in err
        assert kept.read_bytes() == b"earlier report\n"
        assert not fresh.exists()

    def test_unsurvivable_legs_reported_skipped(self, capsys):
        rc, out, _ = run(
            capsys,
            ["verify", "--sstar", "0.5", "--u0", "3", "--v0", "1",
             "--paths", "400", "--steps", "64", "--gate", "0.5"],
        )
        assert rc == EXIT_OK
        report = json.loads(out)
        assert report["properties"]["survivability"]["status"] == "skipped"
        assert report["properties"]["lower_bound"]["status"] == "skipped"
        assert report["properties"]["long_only"]["status"] == "pass"


class TestFigure:
    ARGS = ["figure", "2", "--paths", "500", "--steps", "64", "--gate", "0.25"]

    def test_writes_dataset_and_report(self, capsys, tmp_path):
        rc = main(self.ARGS + ["--out-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        csv_path = tmp_path / "figure2.csv"
        json_path = tmp_path / "figure2.json"
        assert csv_path.exists() and json_path.exists()
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0] == "x,F0_theory,F_theory,F0_empirical,F_empirical"
        report = json.loads(json_path.read_text())
        assert len(lines) - 1 == report["n_grid"]
        assert report["passed"] is True
        assert report["config"]["k"] == 2.0
        assert json.loads(out) == report  # same report goes to stdout

    def test_env_var_out_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("STOPGAIN_OUT_DIR", str(tmp_path))
        rc = main(self.ARGS)
        capsys.readouterr()
        assert rc == EXIT_OK
        assert (tmp_path / "figure2.csv").exists()

    def test_flag_beats_env_var(self, capsys, tmp_path, monkeypatch):
        env_dir = tmp_path / "env"
        flag_dir = tmp_path / "flag"
        env_dir.mkdir()
        monkeypatch.setenv("STOPGAIN_OUT_DIR", str(env_dir))
        rc = main(self.ARGS + ["--out-dir", str(flag_dir)])
        capsys.readouterr()
        assert rc == EXIT_OK
        assert (flag_dir / "figure2.csv").exists()
        assert not (env_dir / "figure2.csv").exists()

    def test_gate_failure_exit(self, capsys, tmp_path):
        rc = main(
            ["figure", "1", "--paths", "500", "--steps", "64", "--gate", "1e-9",
             "--out-dir", str(tmp_path)]
        )
        out = capsys.readouterr().out
        assert rc == EXIT_GATE
        assert json.loads(out)["passed"] is False

    @pytest.mark.parametrize("bad", [["--paths", "0"], ["--seed", "-1"], ["--workers", "0"]])
    def test_rejected_run_creates_no_out_dir(self, capsys, tmp_path, bad):
        out_dir = tmp_path / "d" / "sub"
        rc = main(["figure", "1", "--steps", "8", "--out-dir", str(out_dir)] + bad)
        capsys.readouterr()
        assert rc == EXIT_USAGE
        assert not (tmp_path / "d").exists()

    def test_bad_out_dir_fails_before_simulating(self, capsys, tmp_path, simulated):
        (tmp_path / "afile").write_text("")
        rc = main(["figure", "2", "--paths", "20000", "--steps", "256",
                   "--out-dir", str(tmp_path / "afile" / "sub")])
        _, err = capsys.readouterr()
        assert rc == EXIT_USAGE
        assert err.startswith("error:")
        assert simulated["run_batch"] == 0

    def test_report_config(self, capsys, tmp_path):
        rc = main(["figure", "2", "--paths", "2000", "--steps", "64", "--out-dir", str(tmp_path)])
        capsys.readouterr()
        assert rc == EXIT_GATE  # 2000 paths miss the 50,000-path gate
        assert json.loads((tmp_path / "figure2.json").read_text())["config"] == {
            "which": 2, "mu": 0.5, "sigma": 1.0, "s0": 1.0, "s_star": 0.5, "u0": 1.0, "k": 2.0,
            "t_end": 1.0, "n_paths": 2000, "n_steps": 64, "master_seed": 13, "bridge": True,
            "workers": 1, "gate": 0.015,
        }

    def test_rejects_unknown_figure(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["figure", "4"])
        capsys.readouterr()
        assert exc.value.code == 2


# `verify` report of the small run below; its simulated fields are as written
# when the law comparison and the property legs each simulated the batch
# themselves
PINNED_VERIFY_JSON = """\
{
  "cdf_comparison": {
    "n_grid": 513,
    "passed": true,
    "sup_distance": 0.013546160905596794
  },
  "config": {
    "bridge": true,
    "k": 2.0,
    "mu": 0.5,
    "paths": 2000,
    "s0": 1.0,
    "s_star": 0.5,
    "seed": 3,
    "sigma": 1.0,
    "steps": 64,
    "stop_enabled": true,
    "t": 1.0,
    "u0": 1.0,
    "v0": 0.5,
    "workers": 1
  },
  "gate": 0.015,
  "passed": true,
  "properties": {
    "control_bound": {
      "max_excess": -1.9999999999999964,
      "status": "pass",
      "violations": 0
    },
    "long_only": {
      "max_abs_stopped_investment": 0.0,
      "min_active_investment": 0.09605431174763712,
      "status": "pass",
      "violations": 0
    },
    "lower_bound": {
      "cutoffs": {
        "half_v0": {
          "bound": -0.40569580151101897,
          "c": 0.25,
          "ok": true
        },
        "twice_v0": {
          "bound": -0.3141624070346921,
          "c": 1.0,
          "ok": true
        },
        "v0": {
          "bound": -0.3605450553203352,
          "c": 0.5,
          "ok": true
        }
      },
      "mean_gain": 0.5653615980822205,
      "standard_error": 0.07988673817911886,
      "status": "pass"
    },
    "survivability": {
      "min_account_value": 0.04598493014643029,
      "status": "pass",
      "violations": 0
    }
  }
}
"""
# SHA-256 of the CSV of `figure 2 --paths 2000 --steps 64`; its empirical
# columns are as written when it ran one batch with the stop order and a
# second one without
PINNED_FIGURE2_CSV_SHA256 = "a3f405815fa278d30d028aaf2ae6f638ba3d6924dce070a962dd634e5d5133cc"


@pytest.fixture
def simulated(monkeypatch):
    """Counts ``run_batch`` calls and the paths the chunk kernel draws."""
    counts = {"run_batch": 0, "paths": 0}
    real_run_batch, real_price_increments = simulate.run_batch, simulate._price_increments

    def run_batch(*args, **kwargs):
        counts["run_batch"] += 1
        return real_run_batch(*args, **kwargs)

    def price_increments(m, grid, price, n_paths, out=None):
        counts["paths"] += n_paths
        return real_price_increments(m, grid, price, n_paths, out)

    monkeypatch.setattr(cli, "run_batch", run_batch)
    monkeypatch.setattr(verify, "run_batch", run_batch)
    monkeypatch.setattr(simulate, "_price_increments", price_increments)
    return counts


class TestSimulatesOnce:
    def test_verify(self, capsys, tmp_path, simulated):
        out_file = tmp_path / "verify.json"
        rc = main(["verify", "--sstar", "0.5", "--k", "2", "--paths", "2000", "--steps", "64",
                   "--seed", "3", "--out", str(out_file)])
        capsys.readouterr()
        assert rc == EXIT_OK
        assert simulated == {"run_batch": 1, "paths": 2000}
        assert out_file.read_text() == PINNED_VERIFY_JSON

    def test_figure(self, capsys, tmp_path, simulated):
        result = verify.reproduce_figure(2, n_paths=2000, n_steps=64)
        assert simulated == {"run_batch": 1, "paths": 2000}
        assert result.report.n_samples == result.no_stop_report.n_samples == 2000
        rc = main(["figure", "2", "--paths", "2000", "--steps", "64", "--gate", "0.5",
                   "--out-dir", str(tmp_path)])
        capsys.readouterr()
        assert rc == EXIT_OK
        assert simulated == {"run_batch": 2, "paths": 4000}
        digest = hashlib.sha256((tmp_path / "figure2.csv").read_bytes()).hexdigest()
        assert digest == PINNED_FIGURE2_CSV_SHA256
