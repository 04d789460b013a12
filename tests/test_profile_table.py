"""ProfileTable memoization, the two profile representations and seq_sum."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.config import SimulationConfig
from repro.core.regate import simulate_workload
from repro.gating.policies import get_policy
from repro.hardware.chips import get_chip
from repro.hardware.components import Component
from repro.simulator.columnar import ProfileTable, seq_sum, set_fast_path, use_fast_path
from repro.simulator.engine import NPUSimulator
from repro.workloads.base import OperatorGraph, WorkloadPhase, matmul_op
from repro.workloads.table import GraphTable


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

    def test_aggregates_match_between_table_builds(self, profile):
        """from_profiles of the oracle's objects equals the batch table."""
        with use_fast_path(False):
            oracle = simulate_workload("llama3-8b-decode").profile
        batch = profile.table
        rebuilt = ProfileTable.from_profiles(oracle.profiles)
        for component in Component.all():
            assert rebuilt.active_total_s(component) == batch.active_total_s(
                component
            )
            assert rebuilt.dynamic_total_j(component) == batch.dynamic_total_j(
                component
            )
        assert rebuilt.sa_spatial_utilization() == batch.sa_spatial_utilization()


class TestProfileRepresentations:
    def test_fast_profile_holds_only_its_table(self):
        chip = get_chip("NPU-D")
        with use_fast_path(True):
            profile = NPUSimulator(chip).simulate(_small_graph())
        assert isinstance(profile.graph, GraphTable)
        assert profile.table.n_ops == 2
        with pytest.raises(AttributeError, match="REPRO_FAST_PATH=0"):
            profile.profiles
        # Switching the oracle on does not make the objects appear: the
        # profile is still priced from its table.
        with use_fast_path(False):
            assert not hasattr(profile, "profiles")
            assert profile.on_fast_path
            report = get_policy("ReGate-Full").evaluate(profile)
        with use_fast_path(True):
            assert get_policy("ReGate-Full").evaluate(profile) == report

    def test_oracle_profile_is_immutable_and_tabled_once(self):
        chip = get_chip("NPU-D")
        with use_fast_path(False):
            profile = NPUSimulator(chip).simulate(_small_graph())
            assert not profile.on_fast_path
        assert isinstance(profile.profiles, tuple)
        assert len(profile.profiles) == 2
        assert profile.table is profile.table
        with use_fast_path(True):
            assert profile.on_fast_path


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
