"""Tests for the top-level simulation API, configuration and results."""

import math

import pytest

from repro.core.config import SimulationConfig
from repro.core.regate import simulate_graph, simulate_workload
from repro.core.slo import SLOSearch
from repro.gating.bet import DEFAULT_PARAMETERS
from repro.gating.report import PolicyName
from repro.hardware.chips import get_chip
from repro.hardware.components import Component
from repro.workloads.base import (
    OperatorGraph,
    ParallelismConfig,
    WorkloadPhase,
    matmul_op,
)


class TestSimulationConfig:
    def test_defaults(self):
        config = SimulationConfig()
        assert config.resolve_chip().name == "NPU-D"
        assert len(config.policies) == 5
        assert config.duty_cycle == pytest.approx(0.6)
        assert config.pue == pytest.approx(1.1)

    def test_invalid_duty_cycle(self):
        with pytest.raises(ValueError):
            SimulationConfig(duty_cycle=0.0)

    def test_invalid_pue(self):
        with pytest.raises(ValueError):
            SimulationConfig(pue=0.9)

    def test_invalid_num_chips(self):
        with pytest.raises(ValueError):
            SimulationConfig(num_chips=0)

    @pytest.mark.parametrize("batch_size", [0, -3])
    def test_invalid_batch_size(self, batch_size):
        with pytest.raises(ValueError, match="batch_size"):
            SimulationConfig(batch_size=batch_size)

    def test_with_policy_subset(self):
        config = SimulationConfig().with_policy_subset(PolicyName.NOPG)
        assert config.policies == (PolicyName.NOPG,)

    def test_with_chip(self):
        config = SimulationConfig().with_chip("NPU-A")
        assert config.resolve_chip().name == "NPU-A"

    def test_accepts_chip_spec_instance(self):
        config = SimulationConfig(chip=get_chip("NPU-C"))
        assert config.resolve_chip().name == "NPU-C"


class TestSimulateWorkload:
    def test_returns_all_policies(self, prefill_result_70b):
        assert set(prefill_result_70b.reports) == set(SimulationConfig().policies)

    def test_energy_savings_in_paper_band(self, prefill_result_70b):
        """Full ReGate savings for compute-bound LLM work: ~8-20%."""
        savings = prefill_result_70b.energy_savings(PolicyName.REGATE_FULL)
        assert 0.05 < savings < 0.25

    def test_decode_savings_larger_than_prefill(self, prefill_result_70b, decode_result_70b):
        assert decode_result_70b.energy_savings(PolicyName.REGATE_FULL) > (
            prefill_result_70b.energy_savings(PolicyName.REGATE_FULL)
        )

    def test_dlrm_savings_band(self, dlrm_result):
        """DLRM is the paper's best case (~33%); accept 25-45%."""
        assert 0.25 < dlrm_result.energy_savings(PolicyName.REGATE_FULL) < 0.45

    def test_config_overrides(self):
        result = simulate_workload(
            "llama3-8b-prefill", chip="NPU-C", num_chips=2, batch_size=2,
        )
        assert result.chip.name == "NPU-C"
        assert result.num_chips == 2
        assert result.batch_size == 2

    def test_parallelism_override(self):
        parallelism = ParallelismConfig(data=1, tensor=4, pipeline=1)
        result = simulate_workload(
            "llama3-70b-prefill",
            SimulationConfig(parallelism=parallelism, policies=(PolicyName.NOPG,)),
        )
        assert result.parallelism == parallelism

    def test_unknown_workload_raises(self):
        with pytest.raises(KeyError):
            simulate_workload("alexnet")

    def test_energy_per_work_scales_with_pod(self, prefill_result_70b):
        per_work = prefill_result_70b.energy_per_work(PolicyName.NOPG)
        expected = (
            prefill_result_70b.report(PolicyName.NOPG).total_energy_j
            * prefill_result_70b.num_chips
            / prefill_result_70b.work_per_iteration
        )
        assert per_work == pytest.approx(expected)

    def test_throughput_positive(self, prefill_result_70b):
        assert prefill_result_70b.throughput() > 0

    def test_summary_keys(self, prefill_result_70b):
        summary = prefill_result_70b.summary()
        assert "savings_regate_full" in summary
        assert "sa_temporal_util" in summary
        assert 0 <= summary["sa_spatial_util"] <= 1

    def test_missing_policy_raises(self):
        result = simulate_workload(
            "llama3-8b-prefill", SimulationConfig(policies=(PolicyName.NOPG,))
        )
        with pytest.raises(KeyError):
            result.report(PolicyName.IDEAL)


class TestSimulateGraph:
    def test_custom_graph(self):
        graph = OperatorGraph(name="custom", phase=WorkloadPhase.INFERENCE)
        graph.add(matmul_op("mm", m=4096, k=4096, n=4096))
        result = simulate_graph(graph)
        assert result.workload == "custom"
        assert result.report(PolicyName.NOPG).total_time_s > 0

    def test_custom_gating_parameters_change_savings(self):
        graph = OperatorGraph(name="custom", phase=WorkloadPhase.INFERENCE)
        graph.add(matmul_op("mm", m=256, k=4096, n=4096))
        default = simulate_graph(graph)
        leaky = simulate_graph(
            graph,
            SimulationConfig(
                gating_parameters=DEFAULT_PARAMETERS.with_leakage(0.6, 0.8, 0.4)
            ),
        )
        assert leaky.energy_savings(PolicyName.REGATE_FULL) < default.energy_savings(
            PolicyName.REGATE_FULL
        )


class TestSLOSearch:
    @pytest.fixture(scope="class")
    def search(self):
        return SLOSearch(chip_counts=(1, 2, 4, 8), batch_scales=(1.0,))

    def test_reference_throughput_cached(self, search):
        first = search.reference_throughput("llama3-8b-prefill")
        second = search.reference_throughput("llama3-8b-prefill")
        assert first == second > 0

    def test_selection_meets_slo_on_reference_chip(self, search):
        selection = search.search("llama3-8b-prefill", "NPU-D")
        assert selection.meets_slo
        assert selection.num_chips in (1, 2, 4, 8)

    def test_selection_scales_up_for_old_generation(self, search):
        new = search.search("llama3-8b-prefill", "NPU-D")
        old = search.search("llama3-8b-prefill", "NPU-A")
        assert old.num_chips >= new.num_chips

    def test_infeasible_workload_returns_explicit_selection(self, search):
        """Llama3-70B weights cannot fit in 8 NPU-A chips (16 GB HBM each).

        Regression: the no-candidate path used to raise RuntimeError;
        it must instead return an explicit infeasible selection so
        callers (the serving autoscaler, sweep drivers) can branch on
        feasibility without catching exceptions.
        """
        selection = search.search("llama3-70b-prefill", "NPU-A")
        assert not selection.feasible
        assert not selection.meets_slo
        assert selection.num_chips == 0
        assert selection.batch_size == 0
        assert selection.workload == "llama3-70b-prefill"
        assert selection.chip == "NPU-A"
        assert math.isinf(selection.energy_per_work_j)
        assert math.isinf(selection.attained_slo)

    def test_feasible_selection_reports_feasible(self, search):
        selection = search.search("llama3-8b-prefill", "NPU-D")
        assert selection.feasible

    def test_energy_per_work_positive(self, search):
        selection = search.search("dlrm-s-inference", "NPU-D")
        assert selection.energy_per_work_j > 0
