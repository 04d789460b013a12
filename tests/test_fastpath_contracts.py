"""Contract hazards around the columnar fast path (review regressions).

Covers the failure modes the bit-for-bit equivalence suite cannot see
because it only exercises default configurations and fresh objects:
fusion-pass reuse across graphs, non-default tiling configurations and
in-place mutation of supposedly-frozen gating parameters.
"""

from __future__ import annotations

import pickle

import pytest

from repro.compiler.fusion import FusionPass
from repro.compiler.tiling import TilingPass
from repro.gating.bet import DEFAULT_PARAMETERS, GatingParameters
from repro.hardware.chips import get_chip
from repro.simulator.columnar import use_fast_path
from repro.simulator.engine import NPUSimulator
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


class TestCustomTiling:
    def test_non_default_double_buffer_stays_bit_identical(self):
        """batch_simulate_table must honor the simulator's TilingPass config."""
        chip = get_chip("NPU-D")
        graph = _graph("db", elements=10_000)

        def simulate():
            simulator = NPUSimulator(chip)
            simulator.tiling = TilingPass(chip, double_buffer=False)
            return simulator.simulate(graph)

        with use_fast_path(False):
            reference = simulate()
        with use_fast_path(True):
            fast = simulate()
        for ref_op, fast_op in zip(reference.profiles, fast.profiles):
            assert ref_op.tile_info == fast_op.tile_info
        # Single-buffered demand differs from the default, so this test
        # would catch a fast path that ignores the configuration.
        default = NPUSimulator(chip).simulate(graph)
        assert (
            fast.profiles[0].sram_demand_bytes
            != default.profiles[0].sram_demand_bytes
        )


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
