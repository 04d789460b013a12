"""Tests for the command-line interface."""

import argparse
import json
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

    def test_commands(self):
        parser = build_parser()
        (subparsers,) = [
            action for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        assert list(subparsers.choices) == [
            "list", "chips", "simulate", "sweep", "serve"
        ]

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

    @pytest.mark.parametrize(
        "content", ["workload,chip\nllama3-8b-decode,NPU-D\n", "[1, 2]"],
        ids=["csv", "json-list"],
    )
    def test_sweep_refuses_a_cache_file_that_is_not_a_json_object(
        self, tmp_path, content
    ):
        path = tmp_path / "results.csv"
        path.write_text(content)
        _assert_one_error_line(
            ["sweep", "-w", "llama3-8b-decode", "--chip", "NPU-D",
             "--batch-size", "1", "--cache", str(path)]
        )
        assert path.read_text() == content

    def test_sweep_json_export(self, capsys, tmp_path):
        import json

        path = tmp_path / "sweep.json"
        assert main(["sweep", "-w", "dlrm-s-inference", "--batch-size", "64",
                     "--json", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert len(payload["rows"]) == 5
        assert "total_energy_j" in payload["columns"]

    #: One grid point: its cache file holds exactly one ``rows:`` entry.
    ONE_POINT = ["sweep", "-w", "llama3-8b-decode", "--chip", "NPU-D",
                 "--batch-size", "1"]

    @staticmethod
    def _old_release_entry(lines):
        """The ``{"columns", "values"}`` entry an older release wrote for ``lines``."""
        from repro.experiments import ROW_COLUMNS, ROW_KINDS, SweepResult

        table = SweepResult.from_lines(ROW_COLUMNS, lines, ROW_KINDS)
        return {
            "columns": list(ROW_COLUMNS),
            "values": [list(row.values()) for row in table.rows],
        }

    @pytest.mark.parametrize(
        "foreign",
        [
            lambda entry: {"columns": ["a"], "values": [[1]]},
            lambda entry: {"columns": ["a"], "values": []},
            lambda entry: TestSweepCommand._old_release_entry(entry),
            lambda entry: entry[:-1],
            lambda entry: [entry[0].rsplit(",", 1)[0], *entry[1:]],
            lambda entry: [entry[0] + ",1.0", *entry[1:]],
            lambda entry: [None, *entry[1:]],
        ],
        ids=["other-columns", "other-columns-no-rows", "old-release-entry",
             "row-removed", "cell-dropped", "cell-added", "non-string-line"],
    )
    def test_sweep_treats_a_foreign_row_entry_as_a_miss(
        self, capsys, tmp_path, foreign
    ):
        cache = tmp_path / "cache.json"
        cold_csv, rerun_csv = tmp_path / "cold.csv", tmp_path / "rerun.csv"
        assert main([*self.ONE_POINT, "--cache", str(cache),
                     "--csv", str(cold_csv)]) == 0
        payload = json.loads(cache.read_text())
        header = payload.pop("header")
        (key, entry), = payload.items()
        cache.write_text(json.dumps({"header": header, key: foreign(entry)}))
        capsys.readouterr()

        assert main([*self.ONE_POINT, "--cache", str(cache),
                     "--csv", str(rerun_csv)]) == 0
        output = capsys.readouterr().out
        assert "result rows   : 5" in output
        assert "cache         : 0 hits / 1 misses" in output
        assert rerun_csv.read_bytes() == cold_csv.read_bytes()
        # The recomputed rows replaced the foreign entry at flush.
        assert json.loads(cache.read_text()) == {"header": header, key: entry}

    def test_warm_sweep_prints_the_cold_runs_table(self, capsys, tmp_path):
        """A warm sweep prints every row of the cold run's table, byte for
        byte: only the cache statistics line differs."""
        argv = [*self.GRID, "--cache", str(tmp_path / "cache.json")]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "cache         : 0 hits / 6 misses" in cold
        assert "cache         : 6 hits / 0 misses" in warm

        def without_cache_line(text):
            return [line for line in text.splitlines()
                    if not line.startswith("cache         :")]

        assert without_cache_line(warm) == without_cache_line(cold)
        assert len(without_cache_line(warm)) == len(cold.splitlines()) - 1
        # The full table: all 30 rows (6 points x 5 policies) are printed.
        assert sum("NPU-" in line for line in warm.splitlines()) == 30

    @pytest.mark.parametrize(
        "flags",
        [
            ["--batch-size", "0"],
            ["--batch-size", "-3"],
            ["--num-chips", "0"],
            ["--policy", "bogus"],
            ["--chip", "NPU-Z"],
            ["-w", "no-such-workload"],
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


@pytest.mark.parametrize(
    "content", ["", "timestamp_s,workload\n"], ids=["empty", "header-only"]
)
def test_serve_replay_of_an_empty_trace_exits_with_one_error_line(
    tmp_path, content
):
    trace = tmp_path / "trace.csv"
    trace.write_text(content)
    _assert_one_error_line(["serve", "--arrival", "trace", "--trace", str(trace)])


@pytest.mark.parametrize(
    "content",
    [
        "timestamp_s,workload\nnan,llama3-8b-decode\n",
        '{"timestamp_s": 1e10, "workload": "llama3-8b-decode"}\n',
    ],
    ids=["csv-nan", "jsonl-1e10"],
)
def test_serve_replay_of_a_bad_timestamp_exits_with_one_error_line(
    tmp_path, content
):
    trace = tmp_path / "trace.csv"
    trace.write_text(content)
    _assert_one_error_line(["serve", "--arrival", "trace", "--trace", str(trace)])


def test_serve_trace_arrivals_without_a_file_exit_with_one_error_line():
    _assert_one_error_line(["serve", "--arrival", "trace"])


@pytest.mark.parametrize(
    "flags",
    [
        ["--seed", "-1"],
        ["--seed", "-1", "--arrival", "diurnal"],
        ["--curve", "--load-factor", "1e-300"],
    ],
    ids=lambda flags: " ".join(flags),
)
def test_serve_bad_seed_or_load_factor_exits_with_one_error_line(flags):
    _assert_one_error_line(
        ["serve", "-w", "llama3-8b-decode", "--rate", "50", "--duration", "2",
         *flags]
    )


@pytest.mark.parametrize(
    "argv",
    [["list"], ["sweep", "-w", "llama3-8b-decode", "--chip", "NPU-D",
                "--batch-size", "1"]],
    ids=["list", "sweep"],
)
def test_closed_stdout_exits_1_without_a_traceback(argv):
    """``repro ... | head -1``: a reader that has gone away costs exit 1
    and nothing on stderr."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=_ENV,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert done.returncode == 1
    assert done.stderr == ""


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


#: Runs ``repro.cli.main(ARGV)`` in a fresh interpreter, then prints the
#: exit code and every loaded module as the last line of standard output.
_PROBE = (
    "import json, sys\n"
    "from repro.cli import main\n"
    "try:\n"
    "    code = main(sys.argv[1:])\n"
    "except SystemExit as exit_:\n"
    "    code = exit_.code\n"
    "print(json.dumps([code, sorted(sys.modules)]))\n"
)

_NETWORK = ("sqlite3", "http.server", "urllib.request", "ssl")
_WARM_GRID = ["-w", "llama3-8b-prefill", "-w", "dlrm-s", "--chip", "NPU-C",
              "--batch-size", "1"]


def _run_probe(argv: list[str]) -> tuple[str, set[str]]:
    """The output of ``repro ARGV`` and the modules it loaded."""
    done = subprocess.run(
        [sys.executable, "-c", _PROBE, *argv],
        capture_output=True, text=True, env=_ENV, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    *output, last = done.stdout.strip().splitlines()
    code, modules = json.loads(last)
    assert code in (0, None), done.stderr
    return "\n".join(output), set(modules)


def _loaded(modules: set[str], packages: tuple[str, ...]) -> list[str]:
    """The loaded modules that are, or are inside, one of ``packages``."""
    return sorted(
        name for name in modules
        if any(name == p or name.startswith(p + ".") for p in packages)
    )


@pytest.mark.parametrize("argv", [["--help"], ["list"], ["chips"]], ids=" ".join)
def test_registry_commands_load_no_numpy_or_kernels(argv):
    """Help and the registry dumps load neither numpy nor any layer
    that simulates or prices."""
    _, modules = _run_probe(argv)
    assert _loaded(
        modules,
        ("numpy", "repro.gating", "repro.simulator", "repro.compiler", *_NETWORK),
    ) == []


def test_warm_sweep_loads_no_simulator(tmp_path):
    """A sweep whose every row is a cache hit never loads numpy, the
    simulator, the compiler, the policy kernels or a workload family,
    even while it writes its CSV; the cold run that filled the cache
    loads all of them."""
    argv = ["sweep", *_WARM_GRID, "--cache", str(tmp_path / "cache.json")]
    families = ("repro.workloads.llm", "repro.workloads.dlrm",
                "repro.workloads.diffusion")
    layers = ("numpy", "repro.simulator", "repro.compiler",
              "repro.gating.policies", *families)
    _, cold = _run_probe([*argv, "--csv", str(tmp_path / "cold.csv")])
    assert "repro.simulator.engine" in cold and "repro.gating.policies" in cold
    assert "numpy" in cold
    output, warm = _run_probe([*argv, "--csv", str(tmp_path / "warm.csv")])
    assert " 0 misses" in output
    assert _loaded(warm, (*layers, *_NETWORK)) == []
    assert (tmp_path / "warm.csv").read_bytes() == (tmp_path / "cold.csv").read_bytes()


def test_serve_loads_no_sweep_runner():
    """Serving prices batches through the cache and the simulator, but
    never loads the sweep runner or the sensitivity analyses."""
    _, modules = _run_probe(
        ["serve", "-w", "llama3-8b-decode", "--rate", "50", "--duration", "2"]
    )
    assert "repro.serving.simulate" in modules
    assert _loaded(
        modules,
        ("repro.experiments.runner", "repro.analysis.sensitivity",
         *_NETWORK),
    ) == []
