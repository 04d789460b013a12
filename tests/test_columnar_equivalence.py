"""Bit-for-bit equivalence of the columnar fast path and the object path.

The columnar core's contract is exact equality, not approximation: the
golden fixtures and every cached artifact were produced by the loop
implementations, so the vectorized reductions must reproduce the same
doubles bit for bit.  These tests sweep **every registry workload on
every NPU generation under every policy** and compare both paths with
``==`` (no tolerances anywhere), plus hypothesis-generated random graphs
for structures the registry does not cover.  A fast-path profile holds
only its ``ProfileTable``, so the per-operator comparison is array by
array against the table extracted from the oracle's objects.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import SimulationConfig
from repro.core.regate import simulate_workload
from repro.experiments import SimulationCache, SweepSpec, run_sweep
from repro.gating.policies import get_policy
from repro.hardware.chips import chips_in_order, get_chip
from repro.hardware.components import Component
from repro.hardware.power import ChipPowerModel
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
from repro.workloads.registry import list_workloads

ALL_CHIPS = tuple(chip.name for chip in chips_in_order())


def _table_arrays(table: ProfileTable) -> dict:
    arrays = {
        name: getattr(table, name)
        for name in (
            "count", "latency_s", "sa_mapped", "sa_spatial_util",
            "sram_demand_bytes", "num_weight_tiles", "num_output_tiles",
            "num_dma_bursts", "dims_m", "dims_k", "dims_n", "has_dims",
        )
    }
    for component in Component.all():
        arrays[f"active[{component.value}]"] = table.active[component]
        arrays[f"dynamic[{component.value}]"] = table.dynamic[component]
    return arrays


def _assert_tables_byte_identical(reference, fast):
    """Every array of the fast table equals the oracle objects' bytes."""
    assert not hasattr(fast, "profiles")  # built as its table alone
    assert fast.graph.name == reference.graph.name
    expected = _table_arrays(ProfileTable.from_profiles(reference.profiles))
    observed = _table_arrays(fast.table)
    assert observed.keys() == expected.keys()
    for name, array in expected.items():
        assert observed[name].dtype == array.dtype, name
        assert observed[name].tobytes() == array.tobytes(), name


def _assert_aggregates_identical(reference, fast):
    with use_fast_path(False):
        ref_total = reference.total_time_s
        ref_active = {c: reference.active_s(c) for c in Component.all()}
        ref_dynamic = {c: reference.dynamic_energy_j(c) for c in Component.all()}
        ref_spatial = reference.sa_spatial_utilization()
        ref_sram = reference.sram_demand_distribution()
        ref_gaps = {
            c: [(g.gap_s, g.num_gaps) for g in reference.gap_profiles(c)]
            for c in Component.gateable()
        }
    with use_fast_path(True):
        assert fast.total_time_s == ref_total
        for component in Component.all():
            assert fast.active_s(component) == ref_active[component]
            assert fast.dynamic_energy_j(component) == ref_dynamic[component]
        assert fast.sa_spatial_utilization() == ref_spatial
        assert fast.sram_demand_distribution() == ref_sram
        for component in Component.gateable():
            fast_gaps = [
                (g.gap_s, g.num_gaps) for g in fast.gap_profiles(component)
            ]
            assert fast_gaps == ref_gaps[component], component


# ---------------------------------------------------------------------- #
# Full registry coverage: every workload x chip x policy
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("workload", list_workloads())
def test_registry_workloads_bit_identical_on_all_chips(workload):
    for chip in ALL_CHIPS:
        with use_fast_path(False):
            reference = simulate_workload(workload, chip=chip)
        with use_fast_path(True):
            fast = simulate_workload(workload, chip=chip)
        _assert_tables_byte_identical(reference.profile, fast.profile)
        _assert_aggregates_identical(reference.profile, fast.profile)
        assert set(reference.reports) == set(fast.reports)
        for policy in reference.reports:
            assert reference.reports[policy] == fast.reports[policy], (
                workload, chip, policy,
            )


def test_sweep_tables_byte_identical():
    """A cold sweep renders the same CSV bytes on either path."""
    spec = SweepSpec(
        workloads=("llama3-8b-prefill", "gligen-inference"),
        chips=("NPU-C", "NPU-D"),
    )
    with use_fast_path(False):
        reference = run_sweep(spec, cache=SimulationCache())
    with use_fast_path(True):
        fast = run_sweep(spec, cache=SimulationCache())
    assert fast.to_csv() == reference.to_csv()


def test_sensitivity_points_identical():
    """The gating-parameter sweeps agree across paths (Figure 22 shape)."""
    from repro.analysis.sensitivity import delay_sensitivity

    with use_fast_path(False):
        reference = delay_sensitivity("llama3-8b-decode", chip="NPU-D")
    with use_fast_path(True):
        fast = delay_sensitivity("llama3-8b-decode", chip="NPU-D")
    assert fast == reference


# ---------------------------------------------------------------------- #
# Hypothesis: random operator graphs
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


@given(graph=graph_strategy, chip_name=st.sampled_from(ALL_CHIPS))
@settings(max_examples=25, deadline=None)
def test_random_graphs_bit_identical(graph, chip_name):
    chip = get_chip(chip_name)
    with use_fast_path(False):
        reference = NPUSimulator(chip).simulate(graph)
    with use_fast_path(True):
        fast = NPUSimulator(chip).simulate(graph)
    _assert_tables_byte_identical(reference, fast)
    _assert_aggregates_identical(reference, fast)

    power_model = ChipPowerModel.for_chip(chip)
    for policy_name in SimulationConfig().policies:
        with use_fast_path(False):
            ref_report = get_policy(policy_name).evaluate(reference, power_model)
        with use_fast_path(True):
            fast_report = get_policy(policy_name).evaluate(fast, power_model)
        assert ref_report == fast_report, policy_name
