"""Unit tests for the experiments subsystem: keys, spec, cache layers."""

from __future__ import annotations

import pytest

from repro.core.config import SimulationConfig
from repro.experiments import (
    JsonFileStore,
    SimulationCache,
    SweepSpec,
    canonical,
    point_key,
    simulate_cached,
    stable_hash,
)
from repro.gating.bet import DEFAULT_PARAMETERS
from repro.gating.report import PolicyName
from repro.hardware.chips import get_chip
from repro.simulator.columnar import use_fast_path


class TestStableHash:
    def test_deterministic(self):
        config = SimulationConfig(chip="NPU-C", batch_size=8)
        assert stable_hash(config) == stable_hash(config)
        assert stable_hash(config) == stable_hash(
            SimulationConfig(chip="NPU-C", batch_size=8)
        )

    def test_sensitive_to_any_field(self):
        base = SimulationConfig()
        assert stable_hash(base) != stable_hash(SimulationConfig(batch_size=2))
        assert stable_hash(base) != stable_hash(SimulationConfig(duty_cycle=0.5))
        assert stable_hash(base) != stable_hash(
            SimulationConfig(gating_parameters=DEFAULT_PARAMETERS.with_leakage(0.1, 0.3, 0.01))
        )

    def test_chip_name_and_spec_address_same_point(self):
        by_name = point_key("llama3-8b-prefill", SimulationConfig(chip="NPU-D"))
        by_spec = point_key(
            "llama3-8b-prefill", SimulationConfig(chip=get_chip("NPU-D"))
        )
        assert by_name == by_spec

    def test_canonical_rejects_opaque_objects(self):
        with pytest.raises(TypeError):
            canonical(object())

    def test_canonical_enum_and_float_forms(self):
        rendered = canonical(
            {"policy": PolicyName.IDEAL, "value": 0.1, "flag": True}
        )
        assert rendered["policy"] == {"__enum__": "PolicyName", "value": "Ideal"}
        assert rendered["value"] == repr(0.1)
        assert rendered["flag"] is True


class TestJsonFileStore:
    HEADER = ["key", "value"]

    def test_persistence_roundtrip(self, tmp_path):
        path = tmp_path / "store.json"
        store = JsonFileStore(path, self.HEADER)
        store.put("a", {"x": 1.5})
        store.flush()
        reloaded = JsonFileStore(path, self.HEADER)
        assert "a" in reloaded and reloaded.get("a") == {"x": 1.5}

    def test_corrupt_file_starts_empty(self, tmp_path):
        path = tmp_path / "store.json"
        path.write_text("{ not json")
        assert len(JsonFileStore(path, self.HEADER)) == 0

    def test_damaged_file_is_logged_once_by_name(self, tmp_path, caplog):
        path = tmp_path / "store.json"
        path.write_text('{"rows:a": {"columns": [')  # truncated mid-write
        with caplog.at_level("WARNING", logger="repro.experiments.cache"):
            store = JsonFileStore(path, self.HEADER)
            assert len(store) == 0
            store.put("rows:b", 1)
            store.flush()  # re-reads the damaged file: still one warning
        assert JsonFileStore(path, self.HEADER).get("rows:b") == 1
        records = [r for r in caplog.records if r.name == "repro.experiments.cache"]
        assert len(records) == 1 and records[0].levelname == "WARNING"
        assert str(path) in records[0].getMessage()

    @pytest.mark.parametrize("content", ["", "  \n"], ids=["empty", "blank"])
    def test_blank_file_starts_empty_without_a_warning(
        self, tmp_path, caplog, content
    ):
        path = tmp_path / "store.json"
        path.write_text(content)
        with caplog.at_level("WARNING", logger="repro.experiments.cache"):
            assert len(JsonFileStore(path, self.HEADER)) == 0
        assert not caplog.records

    def test_flush_merges_concurrent_writers(self, tmp_path):
        path = tmp_path / "store.json"
        first = JsonFileStore(path, self.HEADER)
        second = JsonFileStore(path, self.HEADER)
        first.put("a", 1)
        second.put("b", 2)
        first.flush()
        second.flush()  # must not drop the first writer's entry
        reloaded = JsonFileStore(path, self.HEADER)
        assert reloaded.get("a") == 1 and reloaded.get("b") == 2

    def test_flush_without_changes_is_noop(self, tmp_path):
        path = tmp_path / "store.json"
        store = JsonFileStore(path, self.HEADER)
        store.flush()
        assert not path.exists()


class TestSweepSpecNormalization:
    def test_single_values_become_axes(self):
        spec = SweepSpec(workloads="llama3-8b-prefill", chips="NPU-C")
        assert spec.workloads == ("llama3-8b-prefill",)
        assert spec.chips == ("NPU-C",)
        assert spec.num_points == 1

    def test_nopg_always_included(self):
        spec = SweepSpec(workloads=("dlrm-s-inference",), policies=("ReGate-Full",))
        assert spec.policies[0] is PolicyName.NOPG
        assert PolicyName.REGATE_FULL in spec.policies

    def test_policies_accept_strings(self):
        spec = SweepSpec(workloads=("dlrm-s-inference",), policies=("ideal", "NoPG"))
        assert spec.policies == (PolicyName.IDEAL, PolicyName.NOPG)

    def test_unknown_policy_rejected(self):
        with pytest.raises(KeyError):
            SweepSpec(workloads=("dlrm-s-inference",), policies=("dvfs",))

    def test_empty_workloads_rejected(self):
        with pytest.raises(ValueError):
            SweepSpec(workloads=())

    @pytest.mark.parametrize(
        "axes",
        [
            {"batch_sizes": (8, 0)},
            {"batch_sizes": -3},
            {"batch_sizes": (True,)},
            {"num_chips": (0,)},
            {"num_chips": (4, 2.0)},
        ],
    )
    def test_bad_size_axes_rejected(self, axes):
        with pytest.raises(ValueError, match="positive integer"):
            SweepSpec(workloads=("dlrm-s-inference",), **axes)

    def test_bare_labeled_pair_is_one_entry(self):
        spec = SweepSpec(
            workloads=("dlrm-s-inference",),
            gating_parameters=("my-point", DEFAULT_PARAMETERS),
        )
        assert spec.gating_parameters == (("my-point", DEFAULT_PARAMETERS),)

    @pytest.mark.parametrize(
        "workloads",
        [("dlrm-s-inference", 7), ("dlrm-s-inference", b"llama3-8b-decode"), "spec"],
        ids=["int", "bytes", "workload-spec"],
    )
    def test_non_string_workload_rejected_at_construction(self, workloads):
        from repro.workloads.registry import get_workload

        if workloads == "spec":
            workloads = (get_workload("dlrm-s-inference"),)
        bad = workloads[-1]
        with pytest.raises(TypeError, match="registry names") as raised:
            SweepSpec(workloads=workloads)
        assert repr(bad) in str(raised.value)

    def test_invalid_gating_parameter_entry_rejected(self):
        with pytest.raises(TypeError, match="gating_parameters"):
            SweepSpec(workloads=("dlrm-s-inference",), gating_parameters=("oops",))

    def test_unlabeled_gating_parameters_get_labels(self):
        spec = SweepSpec(
            workloads=("dlrm-s-inference",),
            gating_parameters=(
                DEFAULT_PARAMETERS,
                DEFAULT_PARAMETERS.with_delay_multiplier(2.0),
            ),
        )
        assert [label for label, _ in spec.gating_parameters] == ["g0", "g1"]

    def test_points_are_indexed_in_grid_order(self):
        spec = SweepSpec(
            workloads=("llama3-8b-prefill", "llama3-8b-decode"), chips=("NPU-C", "NPU-D")
        )
        points = spec.points()
        assert [point.index for point in points] == [0, 1, 2, 3]
        assert points[0].workload == points[1].workload == "llama3-8b-prefill"
        assert points[0].config.chip == "NPU-C"
        keys = {point.cache_key for point in points}
        assert len(keys) == 4

    def test_describe_mentions_axes(self):
        spec = SweepSpec(
            workloads=("a", "b", "c"), chips=("NPU-C", "NPU-D"), batch_sizes=(1, 2)
        )
        assert "3 workload(s)" in spec.describe()
        assert "2 chip(s)" in spec.describe()
        assert "2 batch size(s)" in spec.describe()


class TestSimulateCached:
    def test_matches_uncached_simulation(self):
        from repro.core.regate import simulate_workload

        config = SimulationConfig(chip="NPU-D", batch_size=1)
        cache = SimulationCache()
        cached = simulate_cached("llama3-8b-decode", config, cache)
        direct = simulate_workload("llama3-8b-decode", config)
        assert cached.workload == direct.workload
        assert cached.num_chips == direct.num_chips
        assert cached.batch_size == direct.batch_size
        for policy in config.policies:
            assert cached.report(policy).total_energy_j == pytest.approx(
                direct.report(policy).total_energy_j, rel=1e-12
            )

    def test_without_cache_is_passthrough(self):
        config = SimulationConfig(chip="NPU-D", batch_size=1)
        result = simulate_cached("llama3-8b-decode", config, cache=None)
        assert result.report(PolicyName.NOPG).total_energy_j > 0

    def test_profile_reused_across_gating_parameters(self):
        import dataclasses

        from repro.simulator.engine import NPUSimulator

        cache = SimulationCache()
        base = SimulationConfig(chip="NPU-D", batch_size=1)
        NPUSimulator.reset_simulate_calls()
        simulate_cached("llama3-8b-decode", base, cache)
        assert NPUSimulator.simulate_calls == 1
        varied = dataclasses.replace(
            base, gating_parameters=DEFAULT_PARAMETERS.with_delay_multiplier(2.0)
        )
        simulate_cached("llama3-8b-decode", varied, cache)
        assert NPUSimulator.simulate_calls == 1  # profile cache hit

    def test_custom_spec_bypasses_cache(self):
        """A hand-built WorkloadSpec must not collide with a registered
        workload's cache entries (profile keys identify specs by name)."""
        import dataclasses

        from repro.workloads.registry import get_workload

        custom = dataclasses.replace(
            get_workload("llama3-8b-decode"), default_batch_size=2
        )
        cache = SimulationCache()
        # Warm the cache with the registered workload first.
        simulate_cached("llama3-8b-decode", SimulationConfig(chip="NPU-D"), cache)
        cached = simulate_cached(custom, SimulationConfig(chip="NPU-D"), cache)
        from repro.core.regate import simulate_workload

        direct = simulate_workload(custom, SimulationConfig(chip="NPU-D"))
        assert cached.batch_size == direct.batch_size == 2
        assert cached.report(PolicyName.NOPG).total_energy_j == pytest.approx(
            direct.report(PolicyName.NOPG).total_energy_j, rel=1e-12
        )

    def test_cached_reports_are_isolated(self):
        """Mutating a returned report must not poison later cache hits."""
        from repro.hardware.components import Component

        cache = SimulationCache()
        config = SimulationConfig(chip="NPU-D", batch_size=1)
        first = simulate_cached("llama3-8b-decode", config, cache)
        original = first.report(PolicyName.NOPG).static_energy_j[Component.SA]
        first.report(PolicyName.NOPG).static_energy_j[Component.SA] = 0.0
        second = simulate_cached("llama3-8b-decode", config, cache)
        assert second.report(PolicyName.NOPG).static_energy_j[Component.SA] == original

    def test_cache_stats_track_hits(self):
        cache = SimulationCache()
        config = SimulationConfig(chip="NPU-D", batch_size=1)
        simulate_cached("llama3-8b-decode", config, cache)
        misses = cache.stats()["misses"]
        simulate_cached("llama3-8b-decode", config, cache)
        stats = cache.stats()
        assert stats["misses"] == misses  # warm pass adds no misses
        assert stats["hits"] > 0


class TestBatchedEntryPoints:
    @staticmethod
    def _hand_built():
        import dataclasses

        from repro.workloads.registry import get_workload

        return dataclasses.replace(
            get_workload("llama3-8b-decode"), default_batch_size=2
        )

    def test_hand_built_spec_is_refused_with_one_value_error(self):
        from repro.experiments import simulate_cached_many
        from repro.experiments.cache import simulate_cached_cells

        items = [
            ("llama3-8b-decode", SimulationConfig(chip="NPU-D", batch_size=1)),
            (self._hand_built(), SimulationConfig(chip="NPU-D")),
        ]
        for fast in (True, False):
            for batched in (simulate_cached_many, simulate_cached_cells):
                cache = SimulationCache()
                with use_fast_path(fast), pytest.raises(
                    ValueError, match="hand-built WorkloadSpec"
                ) as raised:
                    batched(items, cache)
                assert "'llama3-8b-decode'" in str(raised.value)
                # Refused before anything was simulated or cached.
                assert cache.stats()["profiles"] == 0

    def test_registered_spec_object_is_batched(self):
        from repro.experiments import simulate_cached_many
        from repro.workloads.registry import get_workload

        config = SimulationConfig(chip="NPU-D", batch_size=1)
        (by_spec,) = simulate_cached_many([(get_workload("llama3-8b-decode"), config)])
        by_name = simulate_cached("llama3-8b-decode", config, SimulationCache())
        assert by_spec.reports == by_name.reports
