"""Tests for the operator IR (workloads.base)."""

import pytest

from repro.workloads.base import (
    CollectiveKind,
    MatmulDims,
    Operator,
    OperatorGraph,
    OpKind,
    ParallelismConfig,
    WorkloadPhase,
    collective_op,
    elementwise_op,
    matmul_op,
)


class TestMatmulDims:
    def test_flops(self):
        dims = MatmulDims(m=4, k=8, n=16)
        assert dims.flops == 2 * 4 * 8 * 16

    def test_output_elements(self):
        assert MatmulDims(m=3, k=5, n=7).output_elements == 21

    def test_scaled(self):
        dims = MatmulDims(m=100, k=200, n=300).scaled(m=0.5, n=1.0 / 3)
        assert dims == MatmulDims(m=50, k=200, n=100)

    def test_scaled_never_below_one(self):
        assert MatmulDims(m=2, k=2, n=2).scaled(m=0.01).m == 1


class TestParallelismConfig:
    def test_num_chips(self):
        assert ParallelismConfig(data=2, tensor=4, pipeline=2).num_chips == 16

    def test_default_is_single_chip(self):
        assert ParallelismConfig().num_chips == 1

    def test_invalid_degree_raises(self):
        with pytest.raises(ValueError):
            ParallelismConfig(data=0)

    def test_describe(self):
        text = ParallelismConfig(data=2, tensor=4, pipeline=1).describe()
        assert "dp=2" in text and "tp=4" in text


class TestOperator:
    def test_negative_flops_rejected(self):
        with pytest.raises(ValueError):
            Operator(name="bad", kind=OpKind.MATMUL, sa_flops=-1)

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            Operator(name="bad", kind=OpKind.MATMUL, count=0)

    def test_collective_requires_kind(self):
        with pytest.raises(ValueError):
            Operator(name="bad", kind=OpKind.COLLECTIVE, ici_bytes=10)

    def test_scaled_counts(self):
        op = Operator(name="op", kind=OpKind.MATMUL, sa_flops=1.0, count=3)
        assert op.scaled_counts(4).count == 12
        assert op.count == 3

    def test_uses_sa_classification(self):
        assert OpKind.MATMUL.uses_sa and OpKind.CONV.uses_sa and OpKind.ATTENTION.uses_sa
        assert not OpKind.SOFTMAX.uses_sa
        assert not OpKind.COLLECTIVE.uses_sa


class TestBuilders:
    def test_matmul_op_flops_and_bytes(self):
        op = matmul_op("mm", m=64, k=128, n=256, dtype_bytes=2)
        assert op.sa_flops == 2 * 64 * 128 * 256
        assert op.hbm_read_bytes == (64 * 128 + 128 * 256) * 2
        assert op.hbm_write_bytes == 64 * 256 * 2
        assert op.dims == MatmulDims(64, 128, 256)

    def test_matmul_op_without_weight_read(self):
        op = matmul_op("mm", m=64, k=128, n=256, read_weights=False)
        assert op.hbm_read_bytes == 64 * 128 * 2

    def test_matmul_vu_postprocessing(self):
        op = matmul_op("mm", m=10, k=10, n=10, vu_postprocess_flops_per_output=3.0)
        assert op.vu_flops == 300

    def test_elementwise_streaming_traffic(self):
        op = elementwise_op("act", elements=1000, flops_per_element=2.0, dtype_bytes=2)
        assert op.vu_flops == 2000
        assert op.hbm_read_bytes == 2000
        assert op.hbm_write_bytes == 2000

    def test_elementwise_fused_no_traffic(self):
        op = elementwise_op("act", elements=1000, streams_hbm=False)
        assert op.hbm_bytes == 0

    def test_allreduce_wire_traffic_ring_formula(self):
        op = collective_op("ar", CollectiveKind.ALL_REDUCE, payload_bytes=800, num_chips=4)
        assert op.ici_bytes == pytest.approx(2 * 800 * 3 / 4)

    def test_allgather_wire_traffic(self):
        op = collective_op("ag", CollectiveKind.ALL_GATHER, payload_bytes=800, num_chips=8)
        assert op.ici_bytes == pytest.approx(800 * 7 / 8)

    def test_single_chip_collective_has_no_wire_traffic(self):
        op = collective_op("ar", CollectiveKind.ALL_REDUCE, payload_bytes=800, num_chips=1)
        assert op.ici_bytes == 0

    def test_send_recv_traffic(self):
        op = collective_op("sr", CollectiveKind.SEND_RECV, payload_bytes=123, num_chips=4)
        assert op.ici_bytes == 123


class TestOperatorGraph:
    def _graph(self):
        graph = OperatorGraph(name="g", phase=WorkloadPhase.INFERENCE)
        graph.add(matmul_op("mm", m=64, k=64, n=64, count=2))
        graph.add(elementwise_op("act", elements=100, count=3))
        graph.add(collective_op("ar", CollectiveKind.ALL_REDUCE, 1000, num_chips=4))
        return graph

    def test_totals_respect_counts(self):
        graph = self._graph()
        assert graph.total_sa_flops == 2 * (2 * 64 * 64 * 64)

    def test_total_ici_bytes(self):
        graph = self._graph()
        assert graph.total_ici_bytes == pytest.approx(2 * 1000 * 3 / 4)

    def test_collectives_helper(self):
        assert len(self._graph().collectives()) == 1

    def test_empty_graph_invalid(self):
        graph = OperatorGraph(name="empty", phase=WorkloadPhase.INFERENCE)
        with pytest.raises(ValueError):
            graph.validate()

    def test_nonpositive_work_invalid(self):
        graph = self._graph()
        graph.work_per_iteration = 0.0
        with pytest.raises(ValueError):
            graph.validate()

    def test_extend(self):
        graph = self._graph()
        before = len(graph.operators)
        graph.extend([elementwise_op("x", 10), elementwise_op("y", 10)])
        assert len(graph.operators) == before + 2
