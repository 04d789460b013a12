"""Columnar compiler frontend: the GraphTable IR and its vectorized passes.

Every ``GraphTable`` is read off an object graph
(``GraphTable.from_graph``); the tables themselves are pinned by
``tests/test_golden_regression.py``.  The frontend past that point has
the same hard contract as the columnar simulation core: **exact
equality with the object path, not approximation**.  These tests hold
it at every stage —

* a table round-trips through ``to_graph`` to the same operators;
* the vectorized fusion/tiling passes produce bit-identical rewrites,
  group boundaries and SRAM demands to the object passes;
* a ``ProfileTable`` reached through the columnar frontend is
  byte-identical to one assembled from the object-path oracle;
* a one-point ``grid_evaluate`` reproduces per-profile ``evaluate``
  reports with ``==`` across a mixed-chip batch;

plus hypothesis property tests over random graphs and the explicit
fusion-demand regression (no ``_fused_demand`` attribute stashing, no
``id()``-keyed staleness when passes or operators are reused).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler.fusion import FusionPass
from repro.compiler.tiling import TilingPass
from repro.core.config import SimulationConfig
from repro.core.regate import resolve_execution, simulate_workload
from repro.gating.bet import DEFAULT_PARAMETERS
from repro.gating.policies import PackedProfiles, get_policy, list_policies
from repro.hardware.chips import chips_in_order, get_chip
from repro.simulator.columnar import ProfileTable, use_fast_path
from repro.simulator.engine import NPUSimulator
from repro.workloads.base import (
    CollectiveKind,
    OperatorGraph,
    WorkloadPhase,
    collective_op,
    elementwise_op,
    matmul_op,
)
from repro.workloads.registry import get_workload
from repro.workloads.table import GraphTable

ALL_CHIPS = tuple(chip.name for chip in chips_in_order())

_COLUMNS = (
    "kind", "sa_flops", "vu_flops", "hbm_read_bytes", "hbm_write_bytes",
    "ici_bytes", "collective", "dims_m", "dims_k", "dims_n", "has_dims",
    "count", "fusable", "dtype_bytes",
)
_METADATA = (
    "name", "phase", "parallelism", "iteration_unit", "work_per_iteration",
    "model_name", "batch_size",
)


def _assert_tables_identical(fast: GraphTable, reference: GraphTable):
    assert fast.names == reference.names
    for column in _COLUMNS:
        assert np.array_equal(getattr(fast, column), getattr(reference, column)), column
    for field in _METADATA:
        assert getattr(fast, field) == getattr(reference, field), field


def _build_pair(workload: str, chip_name: str):
    spec = get_workload(workload)
    chip, batch, parallelism = resolve_execution(
        spec, SimulationConfig(chip=chip_name)
    )
    graph = spec.build_graph(batch_size=batch, parallelism=parallelism)
    table = spec.build_table(batch_size=batch, parallelism=parallelism)
    return chip, graph, table


# ---------------------------------------------------------------------- #
# Round trips: GraphTable -> OperatorGraph -> GraphTable
# ---------------------------------------------------------------------- #
def test_roundtrip_through_operator_graph():
    _chip, graph, table = _build_pair("llama3-70b-decode", "NPU-D")
    rebuilt = GraphTable.from_graph(table.to_graph())
    _assert_tables_identical(rebuilt, GraphTable.from_graph(graph))


# ---------------------------------------------------------------------- #
# Vectorized fusion == object fusion (rewrite, groups, demands)
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "workload",
    ["llama3-8b-prefill", "llama3-70b-decode", "llama3.1-405b-training",
     "dlrm-l-inference", "gligen-inference", "dit-xl-inference"],
)
def test_fusion_table_matches_object_pass(workload):
    chip, graph, table = _build_pair(workload, "NPU-D")
    fusion = FusionPass(chip)
    fused_graph, groups = fusion.run(graph)
    result = fusion.run_table(table)

    _assert_tables_identical(result.table, GraphTable.from_graph(fused_graph))
    assert result.num_groups == len(groups)
    # Group boundaries: group_id runs map exactly onto the object groups.
    boundaries = [
        [table.names[i] for i in np.nonzero(result.group_id == g)[0]]
        for g in range(result.num_groups)
    ]
    assert boundaries == [[op.name for op in group.operators] for group in groups]
    # Demands: explicit, aligned, and equal to one tiling per operator.
    tiling = TilingPass(chip)
    expected = [tiling.tile(op).sram_demand_bytes for op in graph.operators]
    assert result.demands.tolist() == expected
    position = 0
    for group in groups:
        assert group.demands == expected[position:position + len(group.operators)]
        assert group.sram_demand_bytes == sum(group.demands)
        position += len(group.operators)


def test_fusion_group_demand_is_explicit_and_nonzero():
    """Regression: group demand came from a never-written attribute stash."""
    chip = get_chip("NPU-D")
    graph = OperatorGraph(name="g", phase=WorkloadPhase.INFERENCE)
    graph.add(matmul_op("mm", m=1024, k=1024, n=1024))
    graph.add(elementwise_op("relu", elements=1024 * 1024))
    _fused, groups = FusionPass(chip).run(graph)
    fused_group = next(group for group in groups if len(group.operators) == 2)
    tiling = TilingPass(chip)
    assert fused_group.sram_demand_bytes == sum(
        tiling.tile(op).sram_demand_bytes for op in graph.operators
    )
    assert fused_group.sram_demand_bytes > 0.0


def test_fusion_demands_follow_operator_reuse_across_chips():
    """Reusing one pass or operator list can never serve stale demands."""
    graph = OperatorGraph(name="g", phase=WorkloadPhase.INFERENCE)
    graph.add(matmul_op("mm", m=2048, k=2048, n=2048))
    graph.add(elementwise_op("relu", elements=2048 * 2048))
    by_chip = {}
    for chip_name in ("NPU-A", "NPU-D"):
        fusion = FusionPass(get_chip(chip_name))
        for _ in range(2):  # reuse the same pass on the same operators
            _fused, groups = fusion.run(graph)
            demands = [demand for group in groups for demand in group.demands]
            expected = [
                fusion.tiling.tile(op).sram_demand_bytes for op in graph.operators
            ]
            assert demands == expected
        by_chip[chip_name] = demands
    # Different chips tile differently; the same operator objects must
    # report each chip's own demands, not a cached first answer.
    assert by_chip["NPU-A"] != by_chip["NPU-D"]


def test_fusion_demands_identical_across_paths():
    chip, graph, table = _build_pair("llama3-8b-decode", "NPU-D")
    fusion = FusionPass(chip)
    fast = fusion.run_table(table).demands
    _fused, groups = fusion.run(graph)
    oracle = [demand for group in groups for demand in group.demands]
    assert fast.tolist() == oracle


# ---------------------------------------------------------------------- #
# End to end: byte-identical ProfileTables from both frontends
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "workload", ["llama3-70b-prefill", "dlrm-m-inference", "gligen-inference"]
)
def test_profile_tables_byte_identical_across_frontends(workload):
    for chip_name in ALL_CHIPS:
        chip, graph, table = _build_pair(workload, chip_name)
        with use_fast_path(False):
            reference = NPUSimulator(chip).simulate(graph)
            oracle = ProfileTable.from_profiles(reference.profiles)
        with use_fast_path(True):
            fast = NPUSimulator(chip).simulate(table).table
        assert fast.count.tobytes() == oracle.count.tobytes()
        assert fast.latency_s.tobytes() == oracle.latency_s.tobytes()
        assert fast.sa_mapped.tobytes() == oracle.sa_mapped.tobytes()
        assert fast.sa_spatial_util.tobytes() == oracle.sa_spatial_util.tobytes()
        assert fast.sram_demand_bytes.tobytes() == oracle.sram_demand_bytes.tobytes()
        assert fast.num_weight_tiles.tobytes() == oracle.num_weight_tiles.tobytes()
        assert fast.num_output_tiles.tobytes() == oracle.num_output_tiles.tobytes()
        assert fast.num_dma_bursts.tobytes() == oracle.num_dma_bursts.tobytes()
        for component in fast.active:
            assert (
                fast.active[component].tobytes()
                == oracle.active[component].tobytes()
            )
            assert (
                fast.dynamic[component].tobytes()
                == oracle.dynamic[component].tobytes()
            )


# ---------------------------------------------------------------------- #
# Batched multi-profile policy evaluation
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def fleet():
    workloads = (
        "llama3-8b-prefill", "llama3-8b-decode", "llama3-70b-training",
        "dlrm-m-inference", "gligen-inference",
    )
    return [
        simulate_workload(workload, chip=chip).profile
        for chip in ("NPU-C", "NPU-D")
        for workload in workloads
    ]


def test_batch_evaluate_equals_per_profile_evaluate(fleet):
    # Pinned fast path: the packed batch path must actually run (and be
    # compared against per-profile evaluate) even when the process
    # started with REPRO_FAST_PATH=0.
    with use_fast_path(True):
        for policy_name in list_policies():
            expected = [get_policy(policy_name).evaluate(p) for p in fleet]
            observed = get_policy(policy_name).grid_evaluate(
                fleet, [DEFAULT_PARAMETERS]
            )
            assert observed.reports(0) == expected, policy_name


def test_batch_evaluate_shares_one_packing(fleet):
    with use_fast_path(True):
        single_chip = [p for p in fleet if p.chip.name == "NPU-D"]
        packed = PackedProfiles.pack(single_chip)
        for policy_name in list_policies():
            expected = [get_policy(policy_name).evaluate(p) for p in single_chip]
            observed = get_policy(policy_name).grid_evaluate(
                packed, [DEFAULT_PARAMETERS]
            )
            assert observed.reports(0) == expected


def test_packed_profiles_reject_mixed_chips(fleet):
    with pytest.raises(ValueError, match="single chip"):
        PackedProfiles(fleet, [p.table for p in fleet])


# ---------------------------------------------------------------------- #
# Hypothesis: random graphs through the columnar frontend
# ---------------------------------------------------------------------- #
def _matmul(index: int, m: int, k: int, n: int, count: int):
    return matmul_op(f"mm{index}", m=m, k=k, n=n, count=count)


def _elementwise(index: int, elements: int, flops: int, count: int):
    return elementwise_op(
        f"ew{index}", elements=elements, flops_per_element=flops, count=count
    )


def _collective(index: int, kind: CollectiveKind, payload: int, chips: int, count: int):
    return collective_op(
        f"coll{index}", kind=kind, payload_bytes=float(payload), num_chips=chips,
        count=count,
    )


operator_strategy = st.one_of(
    st.builds(
        _matmul,
        index=st.integers(0, 9),
        m=st.integers(1, 4096),
        k=st.integers(1, 4096),
        n=st.integers(1, 4096),
        count=st.integers(1, 64),
    ),
    st.builds(
        _elementwise,
        index=st.integers(0, 9),
        elements=st.integers(1, 10**8),
        flops=st.integers(1, 8),
        count=st.integers(1, 64),
    ),
    st.builds(
        _collective,
        index=st.integers(0, 9),
        kind=st.sampled_from(list(CollectiveKind)),
        payload=st.integers(1, 10**9),
        chips=st.integers(1, 64),
        count=st.integers(1, 16),
    ),
)

graph_strategy = st.builds(
    lambda ops: OperatorGraph(
        name="random", phase=WorkloadPhase.INFERENCE, operators=ops
    ),
    st.lists(operator_strategy, min_size=1, max_size=12),
)


@given(graph=graph_strategy)
@settings(max_examples=40, deadline=None)
def test_random_graphs_roundtrip_exactly(graph):
    table = GraphTable.from_graph(graph)
    _assert_tables_identical(GraphTable.from_graph(table.to_graph()), table)


@given(graph=graph_strategy, chip_name=st.sampled_from(ALL_CHIPS))
@settings(max_examples=25, deadline=None)
def test_random_graphs_fuse_identically(graph, chip_name):
    chip = get_chip(chip_name)
    fusion = FusionPass(chip)
    fused_graph, groups = fusion.run(graph)
    result = fusion.run_table(GraphTable.from_graph(graph))
    _assert_tables_identical(result.table, GraphTable.from_graph(fused_graph))
    assert result.num_groups == len(groups)
