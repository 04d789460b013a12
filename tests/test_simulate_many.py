"""One columnar pass per chip: ``NPUSimulator.simulate_many`` and ``Segments``.

``simulate_many`` lays a batch's graph tables end to end and runs
fusion, tiling, timing, dynamic energy and the ``ProfileTotals``
reduction once over the whole batch.  Its contract is exactness: every
profile it hands out equals simulating that graph alone, byte for byte.
``Segments.sums`` is the ragged sequential row sum behind every
per-profile reduction; it must equal ``cumsum`` of each segment bit for
bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler.fusion import FusionPass
from repro.core.config import SimulationConfig, resolve_execution
from repro.hardware.chips import chips_in_order, get_chip
from repro.hardware.components import Component
from repro.simulator.columnar import (
    GAP_COMPONENTS,
    ProfileTable,
    Segments,
    seq_sum,
    use_fast_path,
)
from repro.simulator.engine import NPUSimulator
from repro.workloads.base import (
    OperatorGraph,
    WorkloadPhase,
    elementwise_op,
    matmul_op,
)
from repro.workloads.registry import get_workload, list_workloads
from repro.workloads.table import COLUMNS, GraphTable

BATCH_SIZES = (3, 96)
POD_SIZES = (1, 16)

PROFILE_ARRAYS = (
    "count", "latency_s", "sa_mapped", "sa_spatial_util", "sram_demand_bytes",
    "num_weight_tiles", "num_output_tiles", "num_dma_bursts",
    "dims_m", "dims_k", "dims_n", "has_dims",
)


def _registry_graphs() -> list[GraphTable]:
    """Every registry workload at two batch sizes and two pod sizes."""
    graphs = []
    for name in list_workloads():
        spec = get_workload(name)
        for batch_size in BATCH_SIZES:
            for pods in POD_SIZES:
                config = SimulationConfig(batch_size=batch_size, num_chips=pods)
                _, batch, parallelism = resolve_execution(spec, config)
                graphs.append(spec.build_table(batch, parallelism))
    return graphs


def _same(observed: np.ndarray, expected: np.ndarray, what) -> None:
    assert observed.dtype == expected.dtype, what
    assert observed.shape == expected.shape, what
    assert observed.tobytes() == expected.tobytes(), what


def _as_bytes(value: float) -> bytes:
    return np.float64(value).tobytes()


def _assert_profiles_identical(batched, alone) -> None:
    """Table, fused graph and reduction of two profiles, byte for byte."""
    name = alone.graph.name
    assert batched.graph.name == name
    assert batched.graph.names == alone.graph.names
    assert batched.graph.parallelism == alone.graph.parallelism
    for column in COLUMNS:
        fused, reference = getattr(batched.graph, column), getattr(alone.graph, column)
        _same(fused, reference, (name, column))
    table, reference = batched.table, alone.table
    assert table.n_ops == reference.n_ops
    for array in PROFILE_ARRAYS:
        _same(getattr(table, array), getattr(reference, array), (name, array))
    for component in Component.all():
        _same(table.active[component], reference.active[component], (name, component))
        _same(table.dynamic[component], reference.dynamic[component], (name, component))
    totals, expected = table.totals, reference.totals
    _same(totals.arrays, expected.arrays, (name, "totals.arrays"))
    assert _as_bytes(totals.total_time_s) == _as_bytes(expected.total_time_s), name
    assert _as_bytes(totals.sa_spatial_utilization) == _as_bytes(
        expected.sa_spatial_utilization
    ), name
    for component in Component.all():
        for field in ("active_total_s", "dynamic_total_j"):
            observed = getattr(totals, field)[component]
            assert _as_bytes(observed) == _as_bytes(
                getattr(expected, field)[component]
            ), (name, field, component)
    for component in GAP_COMPONENTS:
        for field in ("gap_count", "idle_total_s"):
            observed = getattr(totals, field)[component]
            assert _as_bytes(observed) == _as_bytes(
                getattr(expected, field)[component]
            ), (name, field, component)


@pytest.mark.parametrize("chip", [chip.name for chip in chips_in_order()])
def test_batched_equals_one_at_a_time_on_every_chip(chip):
    graphs = _registry_graphs()
    simulator = NPUSimulator(get_chip(chip))
    with use_fast_path(True):
        before = NPUSimulator.simulate_calls
        batched = simulator.simulate_many(graphs)
        assert NPUSimulator.simulate_calls - before == len(graphs)
        alone = [simulator.simulate(graph) for graph in graphs]
    assert len(batched) == len(graphs)
    for batched_profile, alone_profile in zip(batched, alone):
        _assert_profiles_identical(batched_profile, alone_profile)


def test_batched_equals_one_at_a_time_without_fusion():
    graphs = _registry_graphs()[::7]
    simulator = NPUSimulator(get_chip("NPU-D"), apply_fusion=False)
    with use_fast_path(True):
        batched = simulator.simulate_many(graphs)
        alone = [simulator.simulate(graph) for graph in graphs]
    for batched_profile, alone_profile in zip(batched, alone):
        _assert_profiles_identical(batched_profile, alone_profile)


# ---------------------------------------------------------------------- #
# The fusion boundary
# ---------------------------------------------------------------------- #
def _graph(name: str, operators) -> GraphTable:
    return GraphTable.from_graph(
        OperatorGraph(name=name, phase=WorkloadPhase.INFERENCE, operators=operators)
    )


def _boundary_pair() -> tuple[GraphTable, GraphTable]:
    """Graph B's first operator would fuse into graph A's last one."""
    producer = _graph("a", [matmul_op("a.proj", 256, 256, 256)])
    consumer = _graph(
        "b",
        [
            elementwise_op("b.act", 256 * 256, flops_per_element=4),
            matmul_op("b.proj", 256, 256, 256),
        ],
    )
    return producer, consumer


def test_fusion_would_cross_an_unmarked_boundary():
    """The pair is a real boundary case: joined as one graph, B's first
    operator fuses into A's last and their HBM traffic is rewritten."""
    producer, consumer = _boundary_pair()
    joined = FusionPass(get_chip("NPU-D")).run_table(
        GraphTable.concat([producer, consumer])
    )
    assert joined.group_id.tolist() == [0, 0, 1]
    assert joined.table.hbm_read_bytes[1] < consumer.hbm_read_bytes[0]
    assert joined.table.hbm_write_bytes[0] < producer.hbm_write_bytes[0]


def test_fusion_never_crosses_a_segment():
    producer, consumer = _boundary_pair()
    fusion = FusionPass(get_chip("NPU-D"))
    batched = fusion.run_table(
        GraphTable.concat([producer, consumer]), starts=np.array([0, 1])
    )
    assert batched.group_id.tolist() == [0, 0, 1]
    for column in ("hbm_read_bytes", "hbm_write_bytes"):
        alone = np.concatenate(
            [getattr(fusion.run_table(g).table, column) for g in (producer, consumer)]
        )
        _same(getattr(batched.table, column), alone, column)
    simulator = NPUSimulator(get_chip("NPU-D"))
    with use_fast_path(True):
        pair = simulator.simulate_many([producer, consumer])
        for batched_profile, graph in zip(pair, (producer, consumer)):
            _assert_profiles_identical(batched_profile, simulator.simulate(graph))


def test_group_ids_restart_in_every_segment():
    graphs = _registry_graphs()[:6]
    fusion = FusionPass(get_chip("NPU-C"))
    segments = Segments([graph.n_ops for graph in graphs])
    batched = fusion.run_table(
        GraphTable.concat(graphs), starts=segments.bounds[:-1]
    )
    for graph, (start, end) in zip(graphs, segments.spans()):
        _same(batched.group_id[start:end], fusion.run_table(graph).group_id, graph.name)


# ---------------------------------------------------------------------- #
# Validation, counting and the oracle route
# ---------------------------------------------------------------------- #
def test_each_graph_is_validated_on_its_own():
    producer, _ = _boundary_pair()
    empty = producer.replace(name="hollow", names=[], **{
        column: getattr(producer, column)[:0] for column in COLUMNS
    })
    with use_fast_path(True), pytest.raises(ValueError, match="hollow"):
        NPUSimulator(get_chip("NPU-D")).simulate_many([producer, empty])


def test_empty_batch_simulates_nothing():
    before = NPUSimulator.simulate_calls
    assert NPUSimulator(get_chip("NPU-D")).simulate_many([]) == []
    assert NPUSimulator.simulate_calls == before


def test_oracle_route_counts_and_matches():
    graphs = list(_boundary_pair())
    simulator = NPUSimulator(get_chip("NPU-B"))
    with use_fast_path(False):
        before = NPUSimulator.simulate_calls
        oracle = simulator.simulate_many(graphs)
        assert NPUSimulator.simulate_calls - before == len(graphs)
    with use_fast_path(True):
        fast = simulator.simulate_many(graphs)
    for oracle_profile, fast_profile in zip(oracle, fast):
        assert oracle_profile.profiles  # built as operator objects
        expected = ProfileTable.from_profiles(oracle_profile.profiles)
        for array in PROFILE_ARRAYS:
            _same(getattr(fast_profile.table, array), getattr(expected, array), array)


def test_segment_tables_are_views_of_the_batch():
    graphs = _registry_graphs()[:4]
    with use_fast_path(True):
        profiles = NPUSimulator(get_chip("NPU-E")).simulate_many(graphs)
    latency = [profile.table.latency_s for profile in profiles]
    assert all(array.base is not None for array in latency)
    assert len({id(array.base) for array in latency}) == 1
    # The graph columns are each graph's own arrays, not batch copies.
    for profile, graph in zip(profiles, graphs):
        assert profile.table.count is graph.count


# ---------------------------------------------------------------------- #
# The ragged sequential row sum
# ---------------------------------------------------------------------- #
_FLOATS = st.one_of(
    st.floats(allow_nan=False, width=64),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e16, -1e16, 1e-300, float("inf")]),
)


@st.composite
def _ragged(draw):
    """A ``(rows, n)`` matrix cut into segments (some of length 0 or 1)."""
    lengths = draw(st.lists(st.integers(0, 9), min_size=1, max_size=8))
    rows = draw(st.integers(1, 3))
    n = sum(lengths)
    values = draw(
        st.lists(
            st.lists(_FLOATS, min_size=n, max_size=n), min_size=rows, max_size=rows
        )
    )
    return lengths, np.asarray(values, dtype=np.float64).reshape(rows, n)


def _per_segment(lengths, values, reduce) -> np.ndarray:
    segments = Segments(lengths)
    out = np.zeros((values.shape[0], len(lengths)))
    for index, (start, end) in enumerate(segments.spans()):
        if end > start:
            out[:, index] = reduce(values[:, start:end])
    return out


@settings(max_examples=300, deadline=None)
@given(_ragged())
def test_segment_sums_equal_cumsum_bit_for_bit(case):
    lengths, values = case
    with np.errstate(invalid="ignore", over="ignore"):
        observed = Segments(lengths).sums(values)
        expected = _per_segment(
            lengths, values, lambda block: block.cumsum(axis=1)[:, -1]
        )
        by_seq_sum = _per_segment(
            lengths, values, lambda block: [seq_sum(row) for row in block]
        )
        one_row = Segments(lengths).sums(values[0])
    _same(np.ascontiguousarray(observed), expected, lengths)
    _same(np.ascontiguousarray(observed), by_seq_sum, lengths)
    _same(np.ascontiguousarray(one_row), expected[0], lengths)


@pytest.mark.parametrize("lengths", [[1, 1, 1], [4, 4], [5], [3, 1, 4, 1, 5]])
def test_segment_sums_keep_a_leading_negative_zero(lengths):
    n = sum(lengths)
    values = np.full((2, n), -0.0)
    values[1, 1:] = 0.0
    observed = np.ascontiguousarray(Segments(lengths).sums(values))
    expected = _per_segment(lengths, values, lambda block: block.cumsum(axis=1)[:, -1])
    _same(observed, expected, lengths)
    assert np.signbit(observed[0]).all()


@settings(max_examples=300, deadline=None)
@given(_ragged())
def test_segment_maxes_equal_max_with_a_zero_floor(case):
    lengths, values = case
    # ``-0.0`` is left out: which of two equal zeros a max returns is
    # not ordered, and no priced quantity is a negative zero.
    values = values + 0.0
    observed = Segments(lengths).maxes(values)
    expected = _per_segment(
        lengths, values, lambda block: block.max(axis=1, initial=0.0)
    )
    _same(np.ascontiguousarray(observed), expected, lengths)
