"""Tests for the operator-level simulator (timing + engine)."""

import pytest

from repro.hardware.chips import get_chip
from repro.hardware.components import Component
from repro.simulator.engine import NPUSimulator
from repro.simulator.timing import OperatorTimingModel, SA_MAPPING_MIN_M
from repro.workloads.base import (
    CollectiveKind,
    OperatorGraph,
    WorkloadPhase,
    collective_op,
    elementwise_op,
    matmul_op,
)


@pytest.fixture(scope="module")
def chip():
    return get_chip("NPU-D")


@pytest.fixture(scope="module")
def timing(chip):
    return OperatorTimingModel(chip)


class TestOperatorTiming:
    def test_large_matmul_is_sa_bound(self, timing, chip):
        op = matmul_op("mm", m=8192, k=8192, n=8192)
        times = timing.times(op)
        assert times.sa_mapped
        assert times.sa_s > max(times.vu_s, times.hbm_s, times.ici_s)
        # Within 2x of the ideal peak-FLOPs time.
        ideal = op.sa_flops / chip.peak_sa_flops
        assert ideal <= times.sa_s <= 2 * ideal

    def test_small_m_matmul_maps_to_vu(self, timing):
        op = matmul_op("mm", m=SA_MAPPING_MIN_M - 1, k=4096, n=4096)
        times = timing.times(op)
        assert not times.sa_mapped
        assert times.vu_s > 0

    def test_streaming_op_is_hbm_bound(self, timing):
        op = elementwise_op("norm", elements=int(5e8), flops_per_element=2.0)
        times = timing.times(op)
        assert times.hbm_s > max(times.sa_s, times.vu_s, times.ici_s)

    def test_collective_is_ici_bound(self, timing):
        op = collective_op("ar", CollectiveKind.ALL_REDUCE, payload_bytes=1e9, num_chips=8)
        times = timing.times(op)
        assert times.ici_s > max(times.sa_s, times.vu_s, times.hbm_s)

    def test_latency_is_max_plus_overhead(self, timing):
        op = matmul_op("mm", m=1024, k=1024, n=1024)
        times = timing.times(op)
        assert times.latency_s >= max(times.sa_s, times.vu_s, times.hbm_s, times.ici_s)

    def test_spatial_util_reduces_throughput(self, timing):
        narrow = matmul_op("narrow", m=4096, k=72, n=4096)
        wide = matmul_op("wide", m=4096, k=128, n=4096)
        narrow_time = timing.times(narrow).sa_s
        wide_time = timing.times(wide).sa_s
        # The narrow matmul has ~56% of the FLOPs but takes about as long.
        assert narrow_time > 0.8 * wide_time

    def test_sram_active_tracks_busiest_mover(self, timing):
        op = matmul_op("mm", m=2048, k=2048, n=2048)
        times = timing.times(op)
        assert times.active(Component.SRAM) == pytest.approx(
            max(times.sa_s, times.vu_s, times.hbm_s)
        )


class TestEngine:
    def _single_op_graph(self, op):
        graph = OperatorGraph(name="single", phase=WorkloadPhase.INFERENCE)
        graph.add(op)
        return graph

    def test_profile_totals_scale_with_count(self, chip):
        sim = NPUSimulator(chip, apply_fusion=False)
        one = sim.simulate(self._single_op_graph(matmul_op("mm", m=1024, k=1024, n=1024)))
        four = sim.simulate(
            self._single_op_graph(matmul_op("mm", m=1024, k=1024, n=1024, count=4))
        )
        assert four.total_time_s == pytest.approx(4 * one.total_time_s)
        assert four.dynamic_energy_j(Component.SA) == pytest.approx(
            4 * one.dynamic_energy_j(Component.SA)
        )

    def test_active_never_exceeds_total_time(self, chip, prefill_profile_small):
        for component in Component.all():
            assert prefill_profile_small.active_s(component) <= (
                prefill_profile_small.total_time_s * 1.0000001
            )

    def test_temporal_utilization_bounds(self, prefill_profile_small):
        for component in Component.all():
            util = prefill_profile_small.temporal_utilization(component)
            assert 0.0 <= util <= 1.0

    def test_prefill_is_sa_heavy(self, prefill_profile_small):
        assert prefill_profile_small.temporal_utilization(Component.SA) > 0.5
        assert prefill_profile_small.temporal_utilization(Component.VU) < 0.4

    def test_decode_is_memory_heavy(self, decode_profile_small):
        assert decode_profile_small.temporal_utilization(Component.HBM) > 0.4
        assert decode_profile_small.temporal_utilization(Component.SA) < 0.1

    def test_gap_totals_match_idle_time(self, prefill_profile_small):
        for component in (Component.SA, Component.VU, Component.HBM, Component.ICI):
            gap_total = sum(
                g.total_idle_s for g in prefill_profile_small.gap_profiles(component)
            )
            idle = prefill_profile_small.idle_s(component)
            assert gap_total <= idle * 1.01 + 1e-9
            assert gap_total >= idle * 0.55 - 1e-9

    def test_dynamic_energy_positive(self, prefill_profile_small):
        energies = [
            prefill_profile_small.dynamic_energy_j(component)
            for component in Component.all()
        ]
        assert sum(energies) > 0
        assert all(energy >= 0 for energy in energies)

    def test_sa_spatial_utilization_range(self, prefill_profile_small):
        assert 0.5 < prefill_profile_small.sa_spatial_utilization() <= 1.0

    def test_sram_demand_distribution_covers_all_operators(self, prefill_profile_small):
        distribution = prefill_profile_small.sram_demand_distribution()
        assert len(distribution) == prefill_profile_small.table.n_ops
        assert all(demand >= 0 and duration >= 0 for demand, duration in distribution)

    def test_collective_graph_has_ici_activity(self, chip):
        graph = self._single_op_graph(
            collective_op("ar", CollectiveKind.ALL_REDUCE, payload_bytes=1e9, num_chips=8)
        )
        profile = NPUSimulator(chip).simulate(graph)
        assert profile.temporal_utilization(Component.ICI) > 0.5

    def test_fusion_reduces_time_for_fusable_chains(self, chip):
        graph = OperatorGraph(name="chain", phase=WorkloadPhase.INFERENCE)
        graph.add(matmul_op("mm", m=2048, k=2048, n=2048))
        graph.add(elementwise_op("gelu", elements=2048 * 2048))
        fused = NPUSimulator(chip, apply_fusion=True).simulate(graph)
        unfused = NPUSimulator(chip, apply_fusion=False).simulate(graph)
        assert fused.total_time_s <= unfused.total_time_s

    def test_newer_chip_is_faster(self, prefill_graph_small):
        old = NPUSimulator(get_chip("NPU-A")).simulate(prefill_graph_small)
        new = NPUSimulator(get_chip("NPU-D")).simulate(prefill_graph_small)
        assert new.total_time_s < old.total_time_s
