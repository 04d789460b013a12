"""Tests for tiling, fusion and SRAM allocation."""

import pytest

from repro.compiler.allocation import BufferAllocation, BufferRequest, SramAllocator
from repro.compiler.fusion import FusionPass
from repro.compiler.tiling import TilingPass
from repro.hardware.chips import get_chip
from repro.workloads.base import (
    OperatorGraph,
    WorkloadPhase,
    elementwise_op,
    matmul_op,
)


class TestTiling:
    @pytest.fixture(scope="class")
    def tiling(self):
        return TilingPass(get_chip("NPU-D"))

    def test_streaming_demand_hides_hbm_latency(self, tiling):
        chip = get_chip("NPU-D")
        expected = chip.hbm_bandwidth_bytes * 400e-9 * 2
        assert tiling.streaming_demand_bytes() == pytest.approx(expected)

    def test_matmul_demand_includes_weights(self, tiling):
        op = matmul_op("mm", m=4096, k=8192, n=8192)
        info = tiling.tile(op)
        assert info.sram_demand_bytes >= 8192 * 8192 * 2

    def test_larger_matmul_has_larger_demand(self, tiling):
        small = tiling.tile(matmul_op("s", m=1024, k=1024, n=1024))
        large = tiling.tile(matmul_op("l", m=4096, k=8192, n=8192))
        assert large.sram_demand_bytes > small.sram_demand_bytes

    def test_weight_tile_count(self, tiling):
        op = matmul_op("mm", m=256, k=256, n=512)
        info = tiling.tile(op)
        assert info.num_weight_tiles == (256 // 128) * (512 // 128)

    def test_output_tiles_positive(self, tiling):
        info = tiling.tile(matmul_op("mm", m=8, k=128, n=128))
        assert info.num_output_tiles >= 1

    def test_elementwise_demand_is_streaming(self, tiling):
        op = elementwise_op("act", elements=int(1e8))
        info = tiling.tile(op)
        assert info.sram_demand_bytes == pytest.approx(tiling.streaming_demand_bytes())
        assert info.num_weight_tiles == 0

    def test_dma_bursts_scale_with_traffic(self, tiling):
        small = tiling.tile(elementwise_op("a", elements=int(1e6)))
        large = tiling.tile(elementwise_op("b", elements=int(1e9)))
        assert large.num_dma_bursts > small.num_dma_bursts


class TestFusion:
    def test_fusion_removes_intermediate_traffic(self):
        chip = get_chip("NPU-D")
        graph = OperatorGraph(name="g", phase=WorkloadPhase.INFERENCE)
        graph.add(matmul_op("mm", m=1024, k=1024, n=1024))
        graph.add(elementwise_op("relu", elements=1024 * 1024))
        fused, groups = FusionPass(chip).run(graph)
        assert fused.total_hbm_bytes < graph.total_hbm_bytes

    def test_fusion_preserves_flops(self):
        chip = get_chip("NPU-D")
        graph = OperatorGraph(name="g", phase=WorkloadPhase.INFERENCE)
        graph.add(matmul_op("mm", m=1024, k=1024, n=1024))
        graph.add(elementwise_op("relu", elements=1024 * 1024))
        fused, _ = FusionPass(chip).run(graph)
        assert fused.total_sa_flops == graph.total_sa_flops
        assert fused.total_vu_flops == graph.total_vu_flops

    def test_fusion_does_not_merge_mismatched_counts(self):
        chip = get_chip("NPU-D")
        graph = OperatorGraph(name="g", phase=WorkloadPhase.INFERENCE)
        graph.add(matmul_op("mm", m=1024, k=1024, n=1024, count=2))
        graph.add(elementwise_op("relu", elements=1024 * 1024, count=3))
        fused, _ = FusionPass(chip).run(graph)
        assert fused.total_hbm_bytes == graph.total_hbm_bytes

    def test_original_graph_untouched(self):
        chip = get_chip("NPU-D")
        graph = OperatorGraph(name="g", phase=WorkloadPhase.INFERENCE)
        graph.add(matmul_op("mm", m=1024, k=1024, n=1024))
        graph.add(elementwise_op("relu", elements=1024 * 1024))
        before = graph.total_hbm_bytes
        FusionPass(chip).run(graph)
        assert graph.total_hbm_bytes == before


class TestSramAllocator:
    @pytest.fixture()
    def allocator(self):
        return SramAllocator(get_chip("NPU-D"))

    def test_simple_allocation(self, allocator):
        requests = [
            BufferRequest("a", 8192, 0, 10),
            BufferRequest("b", 8192, 0, 10),
        ]
        allocations = allocator.allocate(requests)
        assert len(allocations) == 2
        first, second = allocations
        assert (
            first.end_address <= second.start_address
            or second.end_address <= first.start_address
        )

    def test_non_overlapping_lifetimes_can_share_addresses(self, allocator):
        requests = [
            BufferRequest("a", 64 * 1024 * 1024, 0, 10),
            BufferRequest("b", 64 * 1024 * 1024, 11, 20),
            BufferRequest("c", 64 * 1024 * 1024, 21, 30),
        ]
        allocations = allocator.allocate(requests)
        assert allocator.peak_usage_bytes(allocations) <= 64 * 1024 * 1024

    def test_over_capacity_raises(self, allocator):
        requests = [
            BufferRequest("a", 100 * 1024 * 1024, 0, 10),
            BufferRequest("b", 100 * 1024 * 1024, 0, 10),
        ]
        with pytest.raises(MemoryError):
            allocator.allocate(requests)

    def test_invalid_request_rejected(self):
        with pytest.raises(ValueError):
            BufferRequest("bad", 0, 0, 1)
        with pytest.raises(ValueError):
            BufferRequest("bad", 10, 5, 1)

    def test_segment_lifetimes_cover_buffer(self, allocator):
        requests = [BufferRequest("a", 16 * 1024, 3, 7)]
        allocations = allocator.allocate(requests)
        lifetimes = allocator.segment_lifetimes(allocations)
        used = [life for life in lifetimes if life.ever_used]
        assert len(used) == 4  # 16 KB / 4 KB segments
        assert all(life.busy_at(5) for life in used)
        assert not used[0].busy_at(8)

    def test_used_segments_count(self, allocator):
        requests = [BufferRequest("a", 40 * 1024, 0, 2)]
        allocations = allocator.allocate(requests)
        lifetimes = allocator.segment_lifetimes(allocations)
        assert sum(life.ever_used for life in lifetimes) == 10

    def test_peak_usage_empty(self, allocator):
        assert allocator.peak_usage_bytes([]) == 0
