"""Property-based invariants of the simulator and the gating policies.

Randomized operator graphs and gating parameters must always satisfy:

* temporal utilization lies in [0, 1] (checked strictly — the engine's
  over-unity clamp must never actually trigger on simulated profiles);
* component active time never exceeds the busy time;
* every energy term (static, dynamic, per component, total) is
  non-negative and performance overheads are non-negative;
* the designs order as ``Ideal <= ReGate-Full <= ReGate-HW <=
  ReGate-Base <= NoPG`` on the static energy of every gateable
  component.  (The never-gated OTHER block additionally carries the
  exposed wake-delay surcharge, which a marginally-gated gap may not
  amortize, so the provable ordering is per gateable component.)

Also covers the over-unity strict mode of
:meth:`WorkloadProfile.temporal_utilization` (a hand-built inconsistent
profile must warn by default and raise under ``strict=True``).
"""

from __future__ import annotations

import dataclasses
import logging

import pytest
from hypothesis import given, settings, strategies as st

from repro.gating.bet import DEFAULT_PARAMETERS
from repro.gating.policies import get_policy
from repro.gating.report import PolicyName
from repro.hardware.chips import get_chip
from repro.hardware.components import Component
from repro.simulator.columnar import use_fast_path
from repro.simulator.engine import NPUSimulator, UtilizationError, WorkloadProfile
from repro.workloads.base import (
    CollectiveKind,
    OperatorGraph,
    WorkloadPhase,
    collective_op,
    elementwise_op,
    matmul_op,
)

#: Slack for floating-point accumulation across operators.
EPS = 1e-9

POLICY_ORDER = (
    PolicyName.IDEAL,
    PolicyName.REGATE_FULL,
    PolicyName.REGATE_HW,
    PolicyName.REGATE_BASE,
    PolicyName.NOPG,
)


# ---------------------------------------------------------------------- #
# Strategies
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
        m=st.integers(1, 2048),
        k=st.integers(1, 2048),
        n=st.integers(1, 2048),
        count=st.integers(1, 3),
    ),
    st.builds(
        _elementwise,
        index=st.integers(0, 9),
        elements=st.integers(1, 10_000_000),
        flops=st.sampled_from([1, 2, 4]),
        count=st.integers(1, 3),
    ),
    st.builds(
        _collective,
        index=st.integers(0, 9),
        kind=st.sampled_from(list(CollectiveKind)),
        payload=st.integers(1_000, 50_000_000),
        chips=st.integers(2, 16),
        count=st.integers(1, 2),
    ),
)

graph_strategy = st.builds(
    lambda ops: OperatorGraph(
        name="property-graph", phase=WorkloadPhase.INFERENCE, operators=ops
    ),
    ops=st.lists(operator_strategy, min_size=1, max_size=6),
)


@st.composite
def gating_parameters_strategy(draw):
    """Randomized but physically-consistent gating parameters.

    ``sram_off <= sram_sleep`` is enforced: powering a retention cell
    fully off cannot leak more than keeping it drowsy, and the policy
    ordering relies on that physical fact.
    """
    logic_off = draw(st.floats(0.0, 0.9, allow_nan=False))
    sram_sleep = draw(st.floats(0.0, 1.0, allow_nan=False))
    sram_off = sram_sleep * draw(st.floats(0.0, 1.0, allow_nan=False))
    delay_multiplier = draw(st.floats(0.25, 4.0, allow_nan=False))
    window_fraction = draw(st.floats(0.05, 1.0, allow_nan=False))
    parameters = DEFAULT_PARAMETERS.with_leakage(logic_off, sram_sleep, sram_off)
    parameters = parameters.with_delay_multiplier(delay_multiplier)
    return dataclasses.replace(
        parameters, detection_window_bet_fraction=window_fraction
    )


chip_strategy = st.sampled_from(["NPU-A", "NPU-B", "NPU-C", "NPU-D", "NPU-E"])


# ---------------------------------------------------------------------- #
# Simulator invariants
# ---------------------------------------------------------------------- #
class TestSimulatorInvariants:
    @given(graph=graph_strategy, chip_name=chip_strategy)
    @settings(max_examples=30, deadline=None)
    def test_profile_invariants(self, graph, chip_name):
        profile = NPUSimulator(get_chip(chip_name)).simulate(graph)
        total = profile.total_time_s
        assert total > 0
        for component in Component.all():
            # strict=True: the over-unity clamp must never fire for a
            # profile the simulator itself produced.
            utilization = profile.temporal_utilization(component, strict=True)
            assert 0.0 <= utilization <= 1.0
            assert profile.active_s(component) <= total * (1.0 + EPS)
            assert profile.dynamic_energy_j(component) >= 0.0
            assert profile.idle_s(component) >= 0.0
        assert 0.0 <= profile.sa_spatial_utilization() <= 1.0 + EPS
        for gaps in (profile.gap_profiles(c) for c in Component.gateable()):
            for gap in gaps:
                assert gap.gap_s >= 0.0 and gap.num_gaps >= 0.0


# ---------------------------------------------------------------------- #
# Policy invariants
# ---------------------------------------------------------------------- #
class TestPolicyInvariants:
    @given(
        graph=graph_strategy,
        chip_name=chip_strategy,
        parameters=gating_parameters_strategy(),
    )
    @settings(max_examples=30, deadline=None)
    def test_energy_invariants_and_static_ordering(self, graph, chip_name, parameters):
        chip = get_chip(chip_name)
        profile = NPUSimulator(chip).simulate(graph)
        reports = {
            name: get_policy(name, parameters).evaluate(profile)
            for name in POLICY_ORDER
        }

        for report in reports.values():
            assert report.overhead_time_s >= 0.0
            assert report.total_time_s >= report.baseline_time_s
            assert report.peak_power_w >= 0.0
            for component in Component.all():
                assert report.static_energy_j.get(component, 0.0) >= -EPS
                assert report.dynamic_energy_j.get(component, 0.0) >= -EPS
            assert report.total_energy_j >= 0.0
            assert 0.0 <= report.static_fraction() <= 1.0

        # Ideal <= Full <= HW <= Base <= NoPG per gateable component.
        for component in Component.gateable():
            energies = [
                reports[name].static_energy_j.get(component, 0.0)
                for name in POLICY_ORDER
            ]
            for better, worse in zip(energies, energies[1:]):
                assert better <= worse * (1.0 + EPS) + 1e-15, (
                    f"{component.value}: {list(zip(POLICY_ORDER, energies))}"
                )

    @given(
        graph=graph_strategy,
        chip_name=chip_strategy,
        parameters=gating_parameters_strategy(),
    )
    @settings(max_examples=15, deadline=None)
    def test_dynamic_energy_policy_independent(self, graph, chip_name, parameters):
        """Policies only re-account static energy; dynamic energy is fixed."""
        profile = NPUSimulator(get_chip(chip_name)).simulate(graph)
        reports = [
            get_policy(name, parameters).evaluate(profile) for name in POLICY_ORDER
        ]
        baseline = reports[0].total_dynamic_j
        for report in reports[1:]:
            assert report.total_dynamic_j == pytest.approx(baseline, rel=1e-12)


# ---------------------------------------------------------------------- #
# Over-unity temporal utilization (strict mode)
# ---------------------------------------------------------------------- #
class _OverUnityProfile:
    """An operator profile whose reported active time exceeds its latency.

    The real :class:`OperatorProfile` clamps per-operator active time to
    the latency, so this inconsistency can only come from a bug (or a
    hand-built profile like this one) — exactly what strict mode exists
    to surface.
    """

    latency_s = 1.0
    count = 1

    def active_s(self, component):
        return 2.0  # twice the latency: impossible for a valid profile


class TestOverUnityUtilization:
    @pytest.fixture(autouse=True)
    def _object_path(self):
        # The hand-built stand-in has no columnar table: only the
        # object-path aggregates can read it.
        with use_fast_path(False):
            yield

    def _profile(self, npu_d, prefill_graph_small):
        return WorkloadProfile(
            graph=prefill_graph_small, chip=npu_d, profiles=[_OverUnityProfile()]
        )

    def test_default_mode_warns_and_clamps(self, npu_d, prefill_graph_small, caplog):
        profile = self._profile(npu_d, prefill_graph_small)
        with caplog.at_level(logging.WARNING, logger="repro.simulator.engine"):
            value = profile.temporal_utilization(Component.SA)
        assert value == 1.0
        assert any("temporal utilization" in message for message in caplog.messages)

    def test_strict_mode_raises(self, npu_d, prefill_graph_small):
        profile = self._profile(npu_d, prefill_graph_small)
        with pytest.raises(UtilizationError, match="exceeds busy time"):
            profile.temporal_utilization(Component.SA, strict=True)

    def test_valid_profile_is_quiet(self, prefill_profile_small, caplog):
        with caplog.at_level(logging.WARNING, logger="repro.simulator.engine"):
            for component in Component.all():
                value = prefill_profile_small.temporal_utilization(
                    component, strict=True
                )
                assert 0.0 <= value <= 1.0
        assert not caplog.messages
