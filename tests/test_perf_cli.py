"""The `repro perf` harness, BENCH_perf payloads and CSV streaming."""

from __future__ import annotations

import json

import pytest

from repro.analysis.perf import (
    PERF_GRIDS,
    check_regression,
    format_report,
    perf_sweep_spec,
    run_perf_suite,
    write_payload,
)
from repro.cli import main
from repro.experiments import SimulationCache, SweepSpec, run_sweep

EXPECTED_BENCHMARKS = {
    "graph_construction",
    "cold_simulate",
    "policy_evaluation",
    "batch_policy_evaluation",
    "sensitivity_sweep",
    "sensitivity_grid",
    "multi_chip_sweep",
    "multi_machine_shard",
    "idle_detector",
    "serving_sim",
    "cold_sweep",
}


@pytest.fixture(scope="module")
def tiny_payload():
    return run_perf_suite(grid="tiny", repeat=1)


class TestPerfSuite:
    def test_payload_structure(self, tiny_payload):
        assert set(tiny_payload["benchmarks"]) == EXPECTED_BENCHMARKS
        for entry in tiny_payload["benchmarks"].values():
            assert entry["object_s"] > 0
            assert entry["columnar_s"] > 0
            assert entry["speedup"] > 0
            # Min-of-repeats is what the speedup uses; the mean rides
            # along and can never undercut the min.
            assert entry["object_mean_s"] >= entry["object_s"]
            assert entry["columnar_mean_s"] >= entry["columnar_s"]
        assert tiny_payload["grid"] == "tiny"
        assert tiny_payload["schema"] == 6

    def test_grids_pick_largest_graphs(self):
        spec = perf_sweep_spec("tiny")
        assert "gligen-inference" in spec.workloads
        assert spec.num_points == PERF_GRIDS["tiny"][0] * len(PERF_GRIDS["tiny"][1])
        with pytest.raises(KeyError, match="unknown perf grid"):
            perf_sweep_spec("gigantic")

    def test_write_and_report(self, tiny_payload, tmp_path):
        path = write_payload(tiny_payload, tmp_path / "BENCH_perf.json")
        loaded = json.loads(path.read_text())
        assert set(loaded["benchmarks"]) == EXPECTED_BENCHMARKS
        report = format_report(tiny_payload)
        assert "cold_sweep" in report and "speedup" in report

    def test_compare_payloads(self, tiny_payload):
        from repro.analysis.perf import compare_payloads

        report, failures = compare_payloads(tiny_payload, tiny_payload)
        assert failures == []
        assert "cold_sweep" in report and "+0.0%" in report
        inflated = json.loads(json.dumps(tiny_payload))
        inflated["benchmarks"]["cold_sweep"]["speedup"] *= 1000
        report, failures = compare_payloads(inflated, tiny_payload, tolerance=0.25)
        assert failures and "cold_sweep" in failures[0]

    def test_regression_check(self, tiny_payload):
        assert check_regression(tiny_payload, tiny_payload) == []
        inflated = json.loads(json.dumps(tiny_payload))
        inflated["benchmarks"]["cold_sweep"]["speedup"] *= 1000
        failures = check_regression(tiny_payload, inflated, tolerance=0.25)
        assert failures and "cold_sweep" in failures[0]
        missing = {
            "version": tiny_payload["version"],
            "benchmarks": {"nonexistent": {"speedup": 5.0}},
        }
        assert check_regression(tiny_payload, missing) == [
            "nonexistent: missing from current run"
        ]

    def test_multi_machine_shard_is_gated(self, tiny_payload):
        """The scale-out pair is a real speedup now (N=8 machines modelled,
        fused simulate→price per shard, columnar merge) and
        must trip the gate when it regresses, like every other benchmark."""
        from repro.analysis.perf import MULTI_MACHINE_SHARDS, UNGATED_BENCHMARKS

        assert UNGATED_BENCHMARKS == frozenset()
        assert MULTI_MACHINE_SHARDS == 8
        assert tiny_payload["benchmarks"]["multi_machine_shard"]["shards"] == 8
        regressed = json.loads(json.dumps(tiny_payload))
        regressed["benchmarks"]["multi_machine_shard"]["speedup"] /= 1000
        failures = check_regression(regressed, tiny_payload, tolerance=0.25)
        assert failures and "multi_machine_shard" in failures[0]

    def test_version_drift_fails_the_gate_and_warns_in_compare(
        self, tiny_payload
    ):
        """Regression: BENCH payloads were committed with a stale
        version stamp (1.4.0 under a 1.7.0 package) and nothing
        noticed.  The gate (--check) must fail loudly on a stale
        baseline; --compare of historical payloads warns instead."""
        from repro.analysis.perf import compare_payloads, payload_version_drift

        stale = json.loads(json.dumps(tiny_payload))
        stale["version"] = "1.4.0"
        drift = payload_version_drift(stale)
        assert drift is not None and "1.4.0" in drift and "regenerate" in drift
        assert payload_version_drift(tiny_payload) is None
        assert payload_version_drift({"version": "999.0.0"}) is None
        assert payload_version_drift({}) is not None

        failures = check_regression(tiny_payload, stale)
        assert any(
            "baseline" in failure and "1.4.0" in failure for failure in failures
        )
        # Speedups are identical — only the stamp is stale — so
        # disabling the version check passes, proving the drift failure
        # comes from the stamp and not a timing delta.
        assert check_regression(tiny_payload, stale, check_version=False) == []

        report, failures = compare_payloads(stale, tiny_payload)
        assert failures == []  # --compare never fails on drift alone
        assert "warning: OLD" in report and "1.4.0" in report
        report, _ = compare_payloads(tiny_payload, stale)
        assert "warning: NEW" in report

    def test_committed_payloads_are_current(self):
        """The repo's committed BENCH payloads must carry the current
        package version — the bug this PR fixes."""
        from pathlib import Path

        from repro import __version__
        from repro.analysis.perf import payload_version_drift

        root = Path(__file__).resolve().parent.parent
        for name in ("BENCH_perf.json", "benchmarks/BENCH_perf_baseline.json"):
            payload = json.loads((root / name).read_text())
            assert payload_version_drift(payload) is None, name
            assert payload["version"] == __version__, name
            assert payload["schema"] == 6, name
            assert "serving_sim" in payload["benchmarks"], name

    def test_compare_schema_drift_reports_per_name(self, tiny_payload):
        """Regression: payloads whose benchmark sets or entry shapes have
        drifted must report per-name, never raise KeyError."""
        from repro.analysis.perf import compare_payloads

        old = json.loads(json.dumps(tiny_payload))
        new = json.loads(json.dumps(tiny_payload))
        # A benchmark that only exists in NEW (e.g. comparing a schema-3
        # baseline against a schema-4 run that grew a pair)...
        del old["benchmarks"]["multi_machine_shard"]
        # ... and entries from an older schema without a speedup field.
        new["benchmarks"]["cold_sweep"] = {"object_s": 1.0}
        old["benchmarks"]["idle_detector"] = {"wrong": "shape"}
        report, failures = compare_payloads(old, new, tolerance=0.25)
        assert "multi_machine_shard" in report
        assert "benchmark missing from OLD payload" in report
        # The drifted NEW entry is a per-name failure, not a KeyError.
        assert any(
            "cold_sweep" in failure and "schema drift" in failure
            for failure in failures
        )
        # Benchmarks absent from NEW read as missing per-name too.
        del new["benchmarks"]["sensitivity_grid"]
        report, failures = compare_payloads(old, new, tolerance=0.25)
        assert "benchmark missing from NEW payload" in report
        assert "sensitivity_grid: missing from current run" in failures


class TestPerfCli:
    def test_perf_command_writes_payload(self, tmp_path, capsys):
        output = tmp_path / "BENCH_perf.json"
        code = main(
            ["perf", "--grid", "tiny", "--repeat", "1", "--output", str(output)]
        )
        assert code == 0
        payload = json.loads(output.read_text())
        assert set(payload["benchmarks"]) == EXPECTED_BENCHMARKS
        assert "speedup" in capsys.readouterr().out

    def test_perf_compare_flag(self, tmp_path, capsys):
        payload = run_perf_suite(grid="tiny", repeat=1)
        old_path = tmp_path / "old.json"
        new_path = tmp_path / "new.json"
        old_path.write_text(json.dumps(payload))
        new_path.write_text(json.dumps(payload))
        code = main(["perf", "--compare", str(old_path), str(new_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "old speedup" in out and "regression    : ok" in out
        # A regressed NEW payload exits nonzero with the failing pairs.
        regressed = json.loads(json.dumps(payload))
        regressed["benchmarks"]["sensitivity_grid"]["speedup"] /= 1000
        new_path.write_text(json.dumps(regressed))
        with pytest.raises(SystemExit, match="sensitivity_grid"):
            main(["perf", "--compare", str(old_path), str(new_path)])

    def test_perf_profile_flag(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(
            ["perf", "--profile", "idle_detector", "--grid", "tiny",
             "--repeat", "1", "--profile-top", "5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "idle_detector" in out and "cumulative" in out
        assert (tmp_path / "perf-idle_detector.prof").exists()

    def test_perf_profile_unknown_name(self):
        with pytest.raises(SystemExit, match="unknown benchmark"):
            main(["perf", "--profile", "nonexistent"])

    def test_perf_check_failure_exits_nonzero(self, tmp_path):
        baseline = run_perf_suite(grid="tiny", repeat=1)
        baseline["benchmarks"]["cold_sweep"]["speedup"] *= 1000
        baseline_path = tmp_path / "baseline.json"
        baseline_path.write_text(json.dumps(baseline))
        with pytest.raises(SystemExit, match="performance regression"):
            main(
                [
                    "perf", "--grid", "tiny", "--repeat", "1",
                    "--output", str(tmp_path / "out.json"),
                    "--check", str(baseline_path),
                ]
            )


class TestCsvStreaming:
    @pytest.fixture(scope="class")
    def table(self):
        spec = SweepSpec(workloads=("llama3-8b-decode",), chips=("NPU-D",))
        return run_sweep(spec, cache=SimulationCache())

    def test_iter_csv_matches_to_csv(self, table):
        assert "".join(table.iter_csv()) == table.to_csv()

    def test_write_csv_streams_identical_bytes(self, table, tmp_path):
        path = tmp_path / "sweep.csv"
        rows_written = table.write_csv(path)
        assert rows_written == len(table)
        assert path.read_text() == table.to_csv()

    def test_header_first(self, table):
        first = next(iter(table.iter_csv()))
        assert first.rstrip("\n").split(",")[: len(table.columns)] == list(
            table.columns
        )

    def test_empty_table(self, tmp_path):
        from repro.experiments import SweepResult

        empty = SweepResult.from_rows([])
        assert empty.write_csv(tmp_path / "empty.csv") == 0
        assert (tmp_path / "empty.csv").read_text() == empty.to_csv()
