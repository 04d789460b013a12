"""Contract hazards around the columnar fast path (review regressions).

Covers the failure modes the bit-for-bit equivalence suite cannot see
because it only exercises fresh objects: fusion-pass reuse across
graphs and in-place mutation of supposedly-frozen gating parameters.
"""

from __future__ import annotations

import pickle

import pytest

from repro.compiler.fusion import FusionPass
from repro.gating.bet import DEFAULT_PARAMETERS, GatingParameters
from repro.hardware.chips import get_chip
from repro.simulator.columnar import use_fast_path
from repro.workloads.base import OperatorGraph, WorkloadPhase, elementwise_op, matmul_op


def _graph(name: str, elements: int) -> OperatorGraph:
    graph = OperatorGraph(name=name, phase=WorkloadPhase.INFERENCE)
    graph.add(matmul_op(f"{name}-mm", m=256, k=512, n=512))
    graph.add(elementwise_op(f"{name}-act", elements=elements))
    return graph


class TestFusionPassReuse:
    @pytest.mark.parametrize("fast", [True, False])
    def test_reused_pass_does_not_serve_stale_demands(self, fast):
        """Recycled operator ids across run() calls must not alias."""
        chip = get_chip("NPU-D")
        fusion = FusionPass(chip)
        with use_fast_path(fast):
            for index in range(20):
                graph = _graph(f"g{index}", elements=10_000 + index)
                fused, _ = fusion.run(graph)
                fresh, _ = FusionPass(chip).run(graph)
                assert [op.hbm_read_bytes for op in fused.operators] == [
                    op.hbm_read_bytes for op in fresh.operators
                ]


class TestFrozenParameters:
    def test_timings_are_immutable(self):
        parameters = GatingParameters()
        with pytest.raises(TypeError, match="immutable"):
            parameters.timings["vu"] = parameters.timings["hbm"]
        with pytest.raises(TypeError, match="immutable"):
            parameters.timings.clear()
        with pytest.raises(TypeError, match="immutable"):
            del parameters.timings["vu"]

    def test_construction_copies_the_caller_dict(self):
        source = dict(DEFAULT_PARAMETERS.timings)
        parameters = GatingParameters(timings=source)
        source["vu"] = source["hbm"]  # caller's alias must not leak in
        assert parameters.timings["vu"] == DEFAULT_PARAMETERS.timings["vu"]

    def test_parameters_pickle_roundtrip(self):
        """Frozen timings still cross the process pool."""
        parameters = DEFAULT_PARAMETERS.with_delay_multiplier(2.0)
        clone = pickle.loads(pickle.dumps(parameters))
        assert clone == parameters
        with pytest.raises(TypeError, match="immutable"):
            clone.timings["vu"] = clone.timings["hbm"]
