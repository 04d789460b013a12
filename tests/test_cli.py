"""Tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main

#: Runs the in-tree package in a fresh interpreter.
_ENV = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))


def _assert_one_error_line(argv: list[str]) -> None:
    """``python -m repro ARGV`` exits 2 with one ``error:`` line."""
    done = subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True, text=True, env=_ENV, timeout=120,
    )
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    lines = done.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), done.stderr
    # The message itself, not the repr of a KeyError.
    assert not lines[0].startswith(("error: '", 'error: "'))


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate", "llama3-8b-prefill"])
        assert args.workload == "llama3-8b-prefill"
        assert args.chip == "NPU-D"
        assert args.num_chips is None

    def test_simulate_overrides(self):
        args = build_parser().parse_args(
            ["simulate", "dlrm-m", "--chip", "NPU-E", "--num-chips", "16",
             "--batch-size", "2048", "--policy", "ReGate-Full"]
        )
        assert args.chip == "NPU-E"
        assert args.num_chips == 16
        assert args.batch_size == 2048
        assert args.policy == ["ReGate-Full"]


class TestCommands:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "llama3-70b-prefill" in output
        assert "dlrm-l-inference" in output

    def test_chips_command(self, capsys):
        assert main(["chips"]) == 0
        output = capsys.readouterr().out
        assert "NPU-A" in output and "NPU-E" in output

    def test_simulate_command(self, capsys):
        code = main(
            ["simulate", "llama3-8b-decode", "--policy", "ReGate-Full", "--utilization"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "ReGate-Full" in output
        assert "NoPG" in output  # always included as the baseline
        assert "Systolic Array" in output

    def test_simulate_unknown_workload_fails_gracefully(self, capsys):
        assert main(["simulate", "resnet50"]) == 2
        assert "error" in capsys.readouterr().err

    def test_simulate_unknown_policy_exits(self):
        with pytest.raises(SystemExit):
            main(["simulate", "llama3-8b-decode", "--policy", "dvfs"])


class TestSweepCommand:
    #: 2 chips x 3 workloads (x 5 policies by default): the acceptance grid.
    GRID = [
        "sweep",
        "-w", "llama3-8b-prefill",
        "-w", "llama3-8b-decode",
        "-w", "dlrm-s-inference",
        "--chip", "NPU-C",
        "--chip", "NPU-D",
        "--batch-size", "1",
    ]

    def test_sweep_requires_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep"])

    def test_sweep_grid_end_to_end(self, capsys):
        assert main(self.GRID) == 0
        output = capsys.readouterr().out
        assert "3 workload(s) x 2 chip(s)" in output
        assert "result rows   : 30" in output  # 6 points x 5 policies
        for policy in ("NoPG", "ReGate-Base", "ReGate-HW", "ReGate-Full", "Ideal"):
            assert policy in output

    def test_sweep_csv_export_and_warm_cache(self, capsys, tmp_path):
        from repro.simulator.engine import NPUSimulator

        cache = str(tmp_path / "cache.json")
        cold_csv = str(tmp_path / "cold.csv")
        warm_csv = str(tmp_path / "warm.csv")
        assert main([*self.GRID, "--cache", cache, "--csv", cold_csv]) == 0
        capsys.readouterr()
        NPUSimulator.reset_simulate_calls()
        assert main([*self.GRID, "--cache", cache, "--csv", warm_csv]) == 0
        assert "0 misses" in capsys.readouterr().out
        assert NPUSimulator.simulate_calls == 0
        with open(cold_csv) as cold, open(warm_csv) as warm:
            assert cold.read() == warm.read()

    def test_sweep_parallel_matches_serial_csv(self, capsys, tmp_path):
        serial_csv = str(tmp_path / "serial.csv")
        parallel_csv = str(tmp_path / "parallel.csv")
        assert main([*self.GRID, "--csv", serial_csv]) == 0
        assert main([*self.GRID, "--parallel", "2", "--csv", parallel_csv]) == 0
        capsys.readouterr()
        with open(serial_csv) as serial, open(parallel_csv) as parallel:
            assert serial.read() == parallel.read()

    def test_sweep_json_export(self, capsys, tmp_path):
        import json

        path = tmp_path / "sweep.json"
        assert main(["sweep", "-w", "dlrm-s-inference", "--batch-size", "64",
                     "--json", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert len(payload["rows"]) == 5
        assert "total_energy_j" in payload["columns"]

    @pytest.mark.parametrize(
        "flags",
        [
            ["--batch-size", "0"],
            ["--batch-size", "-3"],
            ["--num-chips", "0"],
            ["--policy", "bogus"],
            ["--chip", "NPU-Z"],
            ["-w", "no-such-workload"],
            ["--shard", "3/2"],
            ["--shard", "x"],
            ["--parallel", "-2"],
        ],
        ids=lambda flags: " ".join(flags),
    )
    def test_sweep_bad_grid_exits_with_one_error_line(self, flags):
        _assert_one_error_line(["sweep", "-w", "llama3-8b-decode", *flags])


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "nope"],
        ["simulate", "llama3-8b-decode", "--chip", "NPU-Z"],
        ["serve", "-w", "nope", "--rate", "10", "--duration", "1"],
        ["serve", "-w", "llama3-8b-decode", "--rate", "10", "--duration", "1",
         "--chip", "NPU-Z"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_unknown_name_exits_with_one_error_line(argv):
    _assert_one_error_line(argv)


def test_imports_leave_out_database_and_network_modules():
    """The CLI, sweep and serving entry points pay no startup cost for
    SQLite, an HTTP server or a URL client."""
    code = (
        "import sys, repro.cli, repro.experiments, repro.serving; "
        "print(sorted(name for name in "
        "('sqlite3', 'http.server', 'urllib.request', 'ssl') "
        "if name in sys.modules))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=_ENV, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
