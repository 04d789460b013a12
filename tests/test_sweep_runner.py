"""Tests for the sweep runner: grid order, row assembly and caching."""

from __future__ import annotations

import pytest

from repro.experiments import (
    ROW_COLUMNS,
    SimulationCache,
    SweepRunner,
    SweepSpec,
    run_sweep,
)
from repro.gating.report import PolicyName
from repro.simulator.engine import NPUSimulator


@pytest.fixture()
def small_spec():
    """A tiny but multi-axis grid (2 workloads x 2 chips x 5 policies)."""
    return SweepSpec(
        workloads=("llama3-8b-prefill", "llama3-8b-decode"),
        chips=("NPU-C", "NPU-D"),
        batch_sizes=(1,),
    )


class TestRunnerModes:
    def test_serial_run_produces_full_table(self, small_spec):
        result = run_sweep(small_spec)
        assert len(result) == small_spec.num_points * len(small_spec.policies)
        assert set(result.column("policy")) == {p.value for p in PolicyName}
        # Grid order: workloads outer, chips inner.
        assert result[0]["workload"] == "llama3-8b-prefill"
        assert result[0]["chip"] == "NPU-C"


class TestCaching:
    def test_warm_cache_is_identical_and_simulation_free(self, small_spec):
        cache = SimulationCache()
        cold = run_sweep(small_spec, cache=cache)
        NPUSimulator.reset_simulate_calls()
        warm = run_sweep(small_spec, cache=cache)
        # The acceptance criterion: a warm sweep performs ZERO new
        # NPUSimulator.simulate calls.
        assert NPUSimulator.simulate_calls == 0
        assert warm.to_csv() == cold.to_csv()

    def test_disk_cache_warms_a_fresh_process_equivalent(self, small_spec, tmp_path):
        path = tmp_path / "cache.json"
        cold = run_sweep(small_spec, cache=SimulationCache(path))
        assert path.exists()
        # A brand-new cache object backed by the same file models a new
        # process; the rows must come back from disk without simulating.
        NPUSimulator.reset_simulate_calls()
        warm = run_sweep(small_spec, cache=SimulationCache(path))
        assert NPUSimulator.simulate_calls == 0
        assert warm.to_csv() == cold.to_csv()

    def test_profiles_shared_across_gating_points(self):
        """Gating parameters do not affect the performance simulation, so
        a leakage sweep simulates each (workload, chip) exactly once."""
        from repro.gating.bet import DEFAULT_PARAMETERS

        spec = SweepSpec(
            workloads=("llama3-8b-decode",),
            chips=("NPU-D",),
            batch_sizes=(1,),
            gating_parameters=tuple(
                (f"leak-{index}", DEFAULT_PARAMETERS.with_leakage(leak, 0.25, 0.002))
                for index, leak in enumerate((0.03, 0.10, 0.20))
            ),
        )
        cache = SimulationCache()
        NPUSimulator.reset_simulate_calls()
        result = run_sweep(spec, cache=cache)
        assert NPUSimulator.simulate_calls == 1
        assert len(result) == 3 * len(spec.policies)
        assert cache.stats()["profiles"] == 1

    def test_serial_no_cache_still_shares_profiles(self):
        """Even without a caller-supplied cache, one run simulates each
        (workload, chip) profile once across gating-parameter points."""
        from repro.gating.bet import DEFAULT_PARAMETERS

        spec = SweepSpec(
            workloads=("llama3-8b-decode",),
            chips=("NPU-D",),
            batch_sizes=(1,),
            gating_parameters=tuple(
                (f"x{multiplier}", DEFAULT_PARAMETERS.with_delay_multiplier(multiplier))
                for multiplier in (1.0, 2.0, 4.0)
            ),
        )
        NPUSimulator.reset_simulate_calls()
        run_sweep(spec)
        assert NPUSimulator.simulate_calls == 1

    def test_cache_keys_are_version_stamped(self, monkeypatch):
        """A cache written by another release must not hit."""
        from repro.core.config import SimulationConfig
        from repro.experiments import keys

        config = SimulationConfig()
        current = keys.point_key("llama3-8b-decode", config)
        monkeypatch.setattr(keys, "CACHE_SCHEMA_VERSION", "0.0.0-other")
        assert keys.point_key("llama3-8b-decode", config) != current

    def test_mutating_returned_rows_does_not_poison_cache(self):
        spec = SweepSpec(
            workloads=("llama3-8b-decode",), chips=("NPU-D",), batch_sizes=(1,)
        )
        cache = SimulationCache()
        first = run_sweep(spec, cache=cache)
        original = first[0]["workload"]
        first[0]["workload"] = "MUTATED"
        second = run_sweep(spec, cache=cache)
        assert second[0]["workload"] == original

    def test_cache_differentiates_configurations(self):
        """Different batch sizes must not collide in the cache."""
        cache = SimulationCache()
        base = dict(workloads=("llama3-8b-decode",), chips=("NPU-D",))
        first = run_sweep(SweepSpec(batch_sizes=(1,), **base), cache=cache)
        second = run_sweep(SweepSpec(batch_sizes=(4,), **base), cache=cache)
        assert first[0]["total_energy_j"] != second[0]["total_energy_j"]


class TestRowsOnlyPersistence:
    """Persistent caches hold sweep rows only; energy reports stay in memory."""

    @staticmethod
    def _keys(path):
        import json

        return set(json.loads(path.read_text()))

    def test_cache_file_holds_one_row_key_per_point(self, small_spec, tmp_path):
        path = tmp_path / "cache.json"
        run_sweep(small_spec, cache=SimulationCache(path))
        keys = self._keys(path)
        # One entry per point, plus the file's one header key.
        assert len(keys) == small_spec.num_points + 1
        assert "header" in keys
        assert all(key.startswith("rows:") for key in keys - {"header"})

    def test_legacy_report_entries_are_ignored_then_dropped(
        self, small_spec, tmp_path
    ):
        """A file as an older release wrote it (no header, ``{"columns",
        "values"}`` rows and ``report:`` entries) is all misses once and is
        rewritten as header plus row lines, without the ``report:`` keys."""
        import json

        path = tmp_path / "cache.json"
        cold = run_sweep(small_spec, cache=SimulationCache(path))
        payload = json.loads(path.read_text())
        header = payload.pop("header")
        old = {key: self._old_release_entry(lines) for key, lines in payload.items()}
        for index in range(3):
            old[f"report:legacy{index}"] = {"policy": "NoPG", "peak_power_w": 1.0}
        path.write_text(json.dumps(old))

        NPUSimulator.reset_simulate_calls()
        cache = SimulationCache(path)
        rerun = run_sweep(small_spec, cache=cache)
        assert NPUSimulator.simulate_calls > 0
        assert cache.row_misses == small_spec.num_points and cache.row_hits == 0
        assert rerun.to_csv() == cold.to_csv()
        assert json.loads(path.read_text()) == {"header": header, **payload}

        NPUSimulator.reset_simulate_calls()
        warm_cache = SimulationCache(path)
        assert run_sweep(small_spec, cache=warm_cache).to_csv() == cold.to_csv()
        assert NPUSimulator.simulate_calls == 0
        assert warm_cache.row_hits == small_spec.num_points

    @staticmethod
    def _old_release_entry(lines):
        """The ``{"columns", "values"}`` entry an older release wrote for ``lines``."""
        from repro.experiments import ROW_KINDS, SweepResult

        table = SweepResult.from_lines(ROW_COLUMNS, lines, ROW_KINDS)
        return {
            "columns": list(ROW_COLUMNS),
            "values": [list(row.values()) for row in table.rows],
        }

    @pytest.mark.parametrize(
        "foreign",
        [
            lambda lines: 5,
            lambda lines: "rows",
            lambda lines: [],
            lambda lines: {"values": []},
            lambda lines: {"columns": 5, "values": []},
            lambda lines: {"columns": ["workload"], "values": 5},
            lambda lines: {"columns": ["workload"], "values": [5]},
            lambda lines: TestRowsOnlyPersistence._old_release_entry(lines),
            lambda lines: [lines[0] + ",0.0", *lines[1:]],
            lambda lines: [lines[0].rsplit(",", 1)[0], *lines[1:]],
            lambda lines: [5, *lines[1:]],
            lambda lines: [lines[0].split(","), *lines[1:]],
            lambda lines: lines[:-1],
            lambda lines: [*lines, lines[-1]],
            lambda lines: [lines[0][:1] + "\n" + lines[0][1:], *lines[1:]],
            lambda lines: [lines[0] + "\n", *lines[1:]],
            lambda lines: ['"' + lines[0], *lines[1:]],
        ],
        ids=["int", "str", "list", "no-columns", "int-columns", "int-values",
             "int-row", "old-release-entry", "cell-added", "cell-dropped",
             "int-line", "list-line", "row-removed", "row-added",
             "unquoted-line-break", "line-terminator", "unterminated-quote"],
    )
    def test_malformed_row_entries_are_misses(self, small_spec, tmp_path, foreign):
        import json

        path = tmp_path / "cache.json"
        cold = run_sweep(small_spec, cache=SimulationCache(path))
        payload = json.loads(path.read_text())
        header = payload.pop("header")
        assert header == list(ROW_COLUMNS)
        stored = dict(payload)
        payload = {key: foreign(lines) for key, lines in payload.items()}
        path.write_text(json.dumps({"header": header, **payload}))

        cache = SimulationCache(path)
        rerun = run_sweep(small_spec, cache=cache)
        assert cache.row_misses == small_spec.num_points and cache.row_hits == 0
        assert rerun.to_csv() == cold.to_csv()
        # The re-simulated rows replace the malformed entries at flush,
        # as CSV lines under the same header.
        assert json.loads(path.read_text()) == {"header": header, **stored}
        warm_cache = SimulationCache(path)
        assert run_sweep(small_spec, cache=warm_cache).to_csv() == cold.to_csv()
        assert warm_cache.row_hits == small_spec.num_points

    @pytest.mark.parametrize(
        "header",
        [None, list(ROW_COLUMNS)[::-1], list(ROW_COLUMNS)[:-1], ",".join(ROW_COLUMNS)],
        ids=["no-header", "reordered", "column-missing", "csv-text"],
    )
    def test_a_file_under_another_header_is_all_misses(
        self, small_spec, tmp_path, header
    ):
        import json

        path = tmp_path / "cache.json"
        cold = run_sweep(small_spec, cache=SimulationCache(path))
        payload = json.loads(path.read_text())
        stored = dict(payload)
        if header is None:
            del payload["header"]
        else:
            payload["header"] = header
        path.write_text(json.dumps(payload))

        cache = SimulationCache(path)
        assert run_sweep(small_spec, cache=cache).to_csv() == cold.to_csv()
        assert cache.row_misses == small_spec.num_points and cache.row_hits == 0
        # Rewritten under the ROW_COLUMNS header, every point once.
        assert json.loads(path.read_text()) == stored


class TestSweepResultHelpers:
    @pytest.fixture()
    def table(self, small_spec):
        return run_sweep(small_spec, cache=SimulationCache())

    def test_filter_and_column(self, table):
        nopg = table.filter(policy="NoPG")
        assert len(nopg) == 4
        assert all(value == 0.0 for value in nopg.column("savings_vs_nopg"))

    def test_group_by(self, table):
        groups = table.group_by("workload")
        assert set(groups) == {("llama3-8b-prefill",), ("llama3-8b-decode",)}
        assert all(len(group) == 10 for group in groups.values())

    def test_pivot_requires_unambiguous_keys(self, table):
        with pytest.raises(ValueError, match="ambiguous"):
            table.pivot(("workload", "chip"), "total_energy_j")
        pivoted = table.filter(policy="Ideal").pivot(
            ("workload", "chip"), "total_energy_j"
        )
        assert len(pivoted) == 4

    def test_misspelled_columns_fail_fast(self, table):
        with pytest.raises(KeyError, match="unknown column"):
            table.pivot(("workload", "chip"), "energy_per_work")  # missing _j
        with pytest.raises(KeyError, match="unknown column"):
            table.filter(polcy="NoPG")
        with pytest.raises(KeyError, match="unknown column"):
            table.group_by("workloads")

    def test_json_roundtrip(self, table):
        from repro.experiments import SweepResult

        clone = SweepResult.from_json(table.to_json())
        assert clone.columns == table.columns
        assert clone.rows == table.rows

    def test_csv_export_writes_file(self, table, tmp_path):
        path = tmp_path / "sweep.csv"
        text = table.to_csv(path)
        assert path.read_text() == text
        header = text.splitlines()[0].split(",")
        assert header[: len(table.columns)] == list(table.columns)
        assert len(text.splitlines()) == len(table) + 1


class TestPackedRowPipeline:
    def test_row_schema_matches_oracle(self, small_spec):
        """ROW_COLUMNS (the columnar assembly order) == the oracle's keys."""
        from repro.experiments import rows_from_result, simulate_cached

        point = small_spec.points()[0]
        result = simulate_cached(point.workload, point.config, SimulationCache())
        rows = rows_from_result(point, result)
        assert tuple(rows[0]) == ROW_COLUMNS

    def test_assembled_rows_equal_oracle_rows(self, small_spec):
        """Column-wise assembly is cell-for-cell identical to the oracle."""
        from repro.experiments import (
            rows_from_result,
            run_points_packed,
            simulate_cached,
        )

        points = small_spec.points()
        blocks = run_points_packed(points, SimulationCache())
        oracle_cache = SimulationCache()
        for point, block in zip(points, blocks):
            oracle = rows_from_result(
                point, simulate_cached(point.workload, point.config, oracle_cache)
            )
            assert [dict(zip(ROW_COLUMNS, row)) for row in block] == oracle

    def test_disk_cache_stores_packed_rows(self, small_spec, tmp_path):
        """A file-backed cache stores each point's rows as the CSV lines
        the sweep exports, under one ``ROW_COLUMNS`` header per file."""
        import csv
        import json

        path = tmp_path / "cache.json"
        table = run_sweep(small_spec, cache=SimulationCache(path))
        payload = json.loads(path.read_text())
        assert payload.pop("header") == list(ROW_COLUMNS)
        assert len(payload) == small_spec.num_points
        lines = []
        for key, entry in payload.items():
            assert key.startswith("rows:")
            assert len(entry) == len(small_spec.policies)
            assert all(isinstance(line, str) for line in entry)
            assert all(
                len(next(csv.reader([line]))) == len(ROW_COLUMNS) for line in entry
            )
            lines.extend(entry)
        # The stored lines are the CSV body, byte for byte.
        body = table.to_csv().splitlines(keepends=True)[1:]
        assert sorted(line + "\n" for line in lines) == sorted(body)

    def test_flush_refuses_a_file_replaced_by_a_non_object(self, tmp_path):
        from repro.experiments.cache import CacheFileError, JsonFileStore

        path = tmp_path / "cache.json"
        store = JsonFileStore(path, list(ROW_COLUMNS))
        store.put("rows:k", ["a,1.0"])
        path.write_text("[1, 2]")
        with pytest.raises(CacheFileError, match="not a JSON object"):
            store.flush()
        assert path.read_text() == "[1, 2]"


class TestColumnarSweepResult:
    def test_dict_api_reads_copies_of_the_packed_store(self):
        from repro.experiments import SweepResult

        table = SweepResult.from_packed(("name", "value"), [("a", 1.0), ("b", 2.5)])
        assert table.columns == ("name", "value")
        assert len(table) == 2
        assert table.column("value") == [1.0, 2.5]
        assert "".join(table.iter_csv()).splitlines()[1] == "a,1.0"
        assert table[0] == {"name": "a", "value": 1.0}
        assert table[1:] == [{"name": "b", "value": 2.5}]
        assert list(table) == table.rows
        # Rows, iteration and indexing hand out new dicts: editing one
        # leaves the table (and its export) unchanged.
        table.rows[0]["value"] = 9.0
        table[0]["value"] = 9.0
        next(iter(table))["value"] = 9.0
        assert table.column("value") == [1.0, 2.5]
        assert "9.0" not in table.to_csv()

    def test_from_rows_packs_a_missing_key_as_an_empty_cell(self):
        from repro.experiments import SweepResult

        table = SweepResult.from_rows([{"a": 1, "b": 2.5}, {"b": 3.5}, {"a": 2}])
        assert table.columns == ("a", "b")
        assert table.rows == [
            {"a": 1, "b": 2.5},
            {"a": None, "b": 3.5},
            {"a": 2, "b": None},
        ]
        assert table.to_csv().splitlines()[1:] == ["1,2.5", ",3.5", "2,"]
        assert table.filter(a=None).column("b") == [3.5]
        assert table == SweepResult.from_packed(
            ("a", "b"), [(1, 2.5), (None, 3.5), (2, None)]
        )

    def test_packed_and_dict_backed_tables_export_identically(self, small_spec):
        table = run_sweep(small_spec, cache=SimulationCache())
        from repro.experiments import SweepResult

        clone = SweepResult.from_rows([dict(row) for row in table.rows])
        assert clone.to_csv() == table.to_csv()
        assert clone.to_json() == table.to_json()
        assert clone == table


class TestTextRows:
    """Rows stored as CSV text: the file-backed cache and the tables it feeds."""

    def test_awkward_cells_round_trip_through_a_cache_file(self, tmp_path):
        """Non-finite, signed-zero and subnormal floats and a label that
        needs quoting come back from a cache file bit for bit, and the
        table's CSV equals the freshly computed block's."""
        import json
        import math

        from repro.experiments import ROW_KINDS, SweepResult
        from repro.experiments.result import render_rows
        from repro.experiments.runner import run_points_packed

        spec = SweepSpec(
            workloads=("llama3-8b-decode",), chips=("NPU-D",), batch_sizes=(1,)
        )
        (point,) = spec.points()
        (values,) = run_points_packed([point], SimulationCache())
        awkward = (math.nan, math.inf, -math.inf, -0.0, 5e-324)
        floats = [i for i, kind in enumerate(ROW_KINDS) if kind is float]
        label = ROW_COLUMNS.index("gating_label")
        block = []
        for row_index, row in enumerate(values):
            row = list(row)
            for offset, column in enumerate(floats):
                row[column] = awkward[(row_index + offset) % len(awkward)]
            row[label] = 'leak, "hot"'
            block.append(tuple(row))
        fresh = SweepResult.from_packed(ROW_COLUMNS, block)

        path = tmp_path / "cache.json"
        writer = SimulationCache(path)
        writer.put_rows(point.cache_key, render_rows(block))
        writer.flush()
        json.loads(path.read_text())  # strict JSON: no NaN/Infinity tokens
        reader = SimulationCache(path)
        lines = reader.get_rows(point.cache_key, len(block))
        assert lines is not None and reader.row_hits == 1
        table = SweepResult.from_lines(ROW_COLUMNS, lines, ROW_KINDS)

        assert table.to_csv() == fresh.to_csv()
        for decoded, expected in zip(table.rows, fresh.rows):
            for name, kind in zip(ROW_COLUMNS, ROW_KINDS):
                if kind is float:
                    assert decoded[name].hex() == expected[name].hex(), name
                else:
                    assert type(decoded[name]) is kind
                    assert decoded[name] == expected[name], name

    def test_column_decodes_only_its_own_column(self):
        from repro.experiments import SweepResult

        table = SweepResult.from_lines(
            ("name", "count", "value"),
            ['a,1,0.5', '"b,""c""",2,-0.0', 'd,3,inf'],
            (str, int, float),
        )
        assert len(table) == 3
        assert table.column("name") == ["a", 'b,"c"', "d"]
        assert table.column("count") == [1, 2, 3]
        # Neither read decoded the float column, nor built a row.
        assert table._store is None and set(table._decoded) == {0, 1}
        assert table.to_csv() == 'name,count,value\na,1,0.5\n"b,""c""",2,-0.0\nd,3,inf\n'
        assert table.rows[1] == {"name": 'b,"c"', "count": 2, "value": -0.0}
        assert table == SweepResult.from_packed(
            ("name", "count", "value"),
            [("a", 1, 0.5), ('b,"c"', 2, -0.0), ("d", 3, float("inf"))],
        )
        assert table.filter(count=3).to_csv().splitlines()[1] == "d,3,inf"

    def test_text_and_value_tables_of_one_sweep_agree(self, small_spec, tmp_path):
        """A file-backed run (text rows) and a memory-only run (value rows)
        give equal tables, CSV, JSON and oracle CSV."""
        from repro.experiments.result import iter_csv_oracle

        text = run_sweep(small_spec, cache=SimulationCache(tmp_path / "cache.json"))
        values = run_sweep(small_spec, cache=SimulationCache())
        assert text._lines is not None and values._lines is None
        assert text.to_csv() == values.to_csv()
        assert "".join(iter_csv_oracle(text)) == text.to_csv()
        assert text.to_json() == values.to_json()
        assert text == values
        assert text.column("total_energy_j") == values.column("total_energy_j")


class TestSavingsConsistency:
    def test_rows_match_direct_simulation(self, small_spec):
        """Sweep rows must agree with the plain simulate_workload path."""
        from repro.core.config import SimulationConfig
        from repro.core.regate import simulate_workload

        table = run_sweep(small_spec, cache=SimulationCache())
        direct = simulate_workload(
            "llama3-8b-decode", SimulationConfig(chip="NPU-D", batch_size=1)
        )
        row = table.filter(
            workload="llama3-8b-decode", chip="NPU-D", policy="ReGate-Full"
        )[0]
        assert row["total_energy_j"] == pytest.approx(
            direct.report(PolicyName.REGATE_FULL).total_energy_j, rel=1e-12
        )
        assert row["savings_vs_nopg"] == pytest.approx(
            direct.energy_savings(PolicyName.REGATE_FULL), rel=1e-12
        )
