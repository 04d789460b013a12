"""ProfileTable memoization, invalidation, lazy profiles and seq_sum."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.config import SimulationConfig
from repro.core.regate import simulate_workload
from repro.gating.policies import get_policy
from repro.hardware.chips import get_chip
from repro.hardware.components import Component
from repro.simulator.columnar import seq_sum, set_fast_path, use_fast_path
from repro.simulator.engine import NPUSimulator, _LazyOperatorProfiles
from repro.workloads.base import OperatorGraph, WorkloadPhase, matmul_op
from repro.workloads.registry import get_workload


@pytest.fixture()
def profile():
    return simulate_workload("llama3-8b-decode").profile


def _small_graph(name="tiny"):
    graph = OperatorGraph(name=name, phase=WorkloadPhase.INFERENCE)
    graph.add(matmul_op("mm0", m=256, k=512, n=512))
    graph.add(matmul_op("mm1", m=64, k=256, n=1024, count=4))
    return graph


class TestSeqSum:
    def test_matches_python_sum_bitwise(self):
        rng = random.Random(20260728)
        for _ in range(100):
            values = [
                rng.uniform(-1e9, 1e9) * 10 ** rng.randint(-12, 12)
                for _ in range(rng.randint(0, 300))
            ]
            assert seq_sum(np.asarray(values, dtype=np.float64)) == sum(values)

    def test_empty(self):
        assert seq_sum(np.asarray([], dtype=np.float64)) == 0.0


class TestTableMemoization:
    def test_table_is_memoized(self, profile):
        assert profile.table is profile.table

    def test_gap_tables_shared_across_policies(self, profile):
        """Five policies reuse one gap table per component (satellite)."""
        table = profile.table
        first = table.gap_table(Component.VU)
        for policy_name in SimulationConfig().policies:
            get_policy(policy_name).evaluate(profile)
        assert profile.table is table
        assert table.gap_table(Component.VU) is first

    def test_append_invalidates(self, profile):
        table = profile.table
        extra = NPUSimulator(profile.chip).simulate(_small_graph()).profiles[0]
        old_total = profile.total_time_s
        profile.profiles.append(extra)
        assert profile.table is not table
        assert profile.total_time_s > old_total

    def test_replacement_invalidates(self, profile):
        table = profile.table
        other = NPUSimulator(profile.chip).simulate(_small_graph()).profiles[0]
        profile.profiles[0] = other
        assert profile.table is not table

    def test_invalidate_caches(self, profile):
        table = profile.table
        profile.invalidate_caches()
        rebuilt = profile.table
        assert rebuilt is not table
        # The rebuilt table reduces to the same aggregates.
        assert rebuilt.total_time_s() == table.total_time_s()

    def test_aggregates_match_between_table_builds(self, profile):
        """from_profiles (rebuild) equals the attached batch table."""
        attached = profile.table
        profile.invalidate_caches()
        rebuilt = profile.table
        for component in Component.all():
            assert rebuilt.active_total_s(component) == attached.active_total_s(
                component
            )
            assert rebuilt.dynamic_total_j(component) == attached.dynamic_total_j(
                component
            )
        assert rebuilt.sa_spatial_utilization() == attached.sa_spatial_utilization()


class TestFastPathSwitch:
    def test_set_fast_path_returns_previous(self):
        previous = set_fast_path(False)
        try:
            assert set_fast_path(True) is False
        finally:
            set_fast_path(previous)

    def test_context_restores_on_exception(self):
        from repro.simulator.columnar import fast_path_enabled

        before = fast_path_enabled()
        with pytest.raises(RuntimeError):
            with use_fast_path(not before):
                raise RuntimeError("boom")
        assert fast_path_enabled() is before


class TestLazyProfiles:
    def test_simulate_returns_lazy_list(self):
        chip = get_chip("NPU-D")
        with use_fast_path(True):
            profile = NPUSimulator(chip).simulate(_small_graph())
            assert isinstance(profile.profiles, _LazyOperatorProfiles)
            assert profile.profiles.pending
            # Aggregates do not force materialization.
            _ = profile.total_time_s
            assert profile.profiles.pending
        # Any list access materializes the real objects.
        assert len(profile.profiles) == 2
        assert not profile.profiles.pending

    def test_lazy_list_materializes_same_objects_as_object_path(self):
        chip = get_chip("NPU-D")
        graph = _small_graph()
        with use_fast_path(True):
            fast = NPUSimulator(chip).simulate(graph)
        with use_fast_path(False):
            reference = NPUSimulator(chip).simulate(graph)
        for fast_op, ref_op in zip(fast.profiles, reference.profiles):
            assert fast_op.times == ref_op.times
            assert fast_op.tile_info == ref_op.tile_info
            assert fast_op.dynamic_energy_j == ref_op.dynamic_energy_j

    def test_mutation_after_materialization_is_seen(self):
        chip = get_chip("NPU-D")
        profile = NPUSimulator(chip).simulate(_small_graph())
        spec = get_workload("llama3-8b-decode")
        extra_graph = spec.build_graph(
            batch_size=1, parallelism=profile.graph.parallelism
        )
        extra = NPUSimulator(chip).simulate(extra_graph).profiles[0]
        profile.profiles.append(extra)
        assert len(profile.profiles) == 3
        assert profile.table.n_ops == 3
