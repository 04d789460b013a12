"""End-to-end checks that the reproduction preserves the paper's headline claims.

These are *shape* checks, not absolute-number checks: our power model is
calibrated, not measured, so we verify who wins, by roughly what factor,
and where the qualitative crossovers fall.  The claims are the abstract's
(PAPER.md); ``benchmarks/bench_fig*.py`` print the full figures.
"""

import pytest

from repro.core.config import SimulationConfig
from repro.core.regate import simulate_workload
from repro.gating.report import PolicyName
from repro.hardware.area import AreaModel
from repro.hardware.chips import get_chip
from repro.hardware.components import Component


@pytest.fixture(scope="module")
def results():
    workloads = (
        "llama3-70b-training",
        "llama3-70b-prefill",
        "llama3-70b-decode",
        "dlrm-m-inference",
        "dit-xl-inference",
        "gligen-inference",
    )
    return {name: simulate_workload(name) for name in workloads}


class TestHeadlineClaims:
    def test_full_savings_within_paper_band(self, results):
        """Abstract: 8.5%-32.8% energy savings across workloads."""
        savings = [r.energy_savings(PolicyName.REGATE_FULL) for r in results.values()]
        assert all(0.05 <= s <= 0.40 for s in savings)

    def test_average_savings_near_paper_mean(self, results):
        """Abstract: 15.5% on average (accept 10-25% for the reproduction)."""
        savings = [r.energy_savings(PolicyName.REGATE_FULL) for r in results.values()]
        mean = sum(savings) / len(savings)
        assert 0.10 <= mean <= 0.25

    def test_dlrm_is_best_case(self, results):
        """Figure 17: DLRM inference has the largest savings."""
        dlrm = results["dlrm-m-inference"].energy_savings(PolicyName.REGATE_FULL)
        others = [
            r.energy_savings(PolicyName.REGATE_FULL)
            for name, r in results.items()
            if name != "dlrm-m-inference"
        ]
        assert dlrm > max(others)

    def test_training_prefill_are_worst_cases(self, results):
        """Compute-bound workloads benefit the least from power gating."""
        prefill = results["llama3-70b-prefill"].energy_savings(PolicyName.REGATE_FULL)
        decode = results["llama3-70b-decode"].energy_savings(PolicyName.REGATE_FULL)
        dlrm = results["dlrm-m-inference"].energy_savings(PolicyName.REGATE_FULL)
        assert prefill < decode < dlrm

    def test_performance_overhead_below_half_percent(self, results):
        """Abstract: performance degradation of ReGate-Full is < 0.5%."""
        for result in results.values():
            assert result.performance_overhead(PolicyName.REGATE_FULL) < 0.005

    def test_policy_ordering_everywhere(self, results):
        for result in results.values():
            energies = [
                result.report(policy).total_energy_j
                for policy in (
                    PolicyName.NOPG,
                    PolicyName.REGATE_BASE,
                    PolicyName.REGATE_HW,
                    PolicyName.REGATE_FULL,
                    PolicyName.IDEAL,
                )
            ]
            assert energies == sorted(energies, reverse=True)

    def test_full_close_to_ideal(self, results):
        """§6.2: ReGate-Full achieves near-ideal savings (small residual gap)."""
        for result in results.values():
            gap = result.energy_savings(PolicyName.IDEAL) - result.energy_savings(
                PolicyName.REGATE_FULL
            )
            assert 0.0 <= gap < 0.15

    def test_busy_static_share_in_30_to_72_percent(self, results):
        for result in results.values():
            fraction = result.report(PolicyName.NOPG).static_fraction()
            assert 0.30 <= fraction <= 0.90

    def test_area_overhead_below_3p3_percent(self):
        """§4.4: ReGate adds less than 3.3% chip area."""
        area = AreaModel(get_chip("NPU-D")).breakdown()
        assert area.regate_overhead_fraction <= 0.04


class TestUtilizationShapes:
    def test_figure4_sa_temporal_shape(self, results):
        """Prefill/training/SD are SA-heavy; DLRM is not."""
        assert results["llama3-70b-prefill"].temporal_utilization(Component.SA) > 0.6
        assert results["dit-xl-inference"].temporal_utilization(Component.SA) > 0.6
        assert results["dlrm-m-inference"].temporal_utilization(Component.SA) < 0.3

    def test_figure5_sa_spatial_shape(self, results):
        """Prefill fills the SA; decode and diffusion do not."""
        prefill = results["llama3-70b-prefill"].sa_spatial_utilization()
        decode = results["llama3-70b-decode"].sa_spatial_utilization()
        gligen = results["gligen-inference"].sa_spatial_utilization()
        assert prefill > 0.85
        assert decode < 0.5
        assert gligen < 0.8

    def test_figure6_vu_temporal_below_60_percent(self, results):
        for result in results.values():
            assert result.temporal_utilization(Component.VU) < 0.60

    def test_figure8_ici_idle_outside_collectives(self, results):
        """ICI is essentially idle for non-distributed inference."""
        assert results["dit-xl-inference"].temporal_utilization(Component.ICI) < 0.05
        assert results["llama3-70b-decode"].temporal_utilization(Component.ICI) < 0.3

    def test_figure9_hbm_shape(self, results):
        """HBM is mostly idle for compute-bound work, busy for decode."""
        assert results["llama3-70b-prefill"].temporal_utilization(Component.HBM) < 0.36
        assert results["llama3-70b-decode"].temporal_utilization(Component.HBM) > 0.35

    def test_vu_savings_full_vs_hw(self, results):
        """§6.2: software-managed VU gating beats hardware idle detection."""
        for result in results.values():
            hw = result.report(PolicyName.REGATE_HW).static_energy_j[Component.VU]
            full = result.report(PolicyName.REGATE_FULL).static_energy_j[Component.VU]
            assert full <= hw * 1.0000001

    def test_sram_savings_full_vs_hw(self, results):
        """§6.2: powering off unused SRAM beats putting it to sleep."""
        for result in results.values():
            hw = result.report(PolicyName.REGATE_HW).static_energy_j[Component.SRAM]
            full = result.report(PolicyName.REGATE_FULL).static_energy_j[Component.SRAM]
            assert full <= hw * 1.0000001


class TestCrossGeneration:
    def test_npu_e_saves_more_on_memory_bound_work(self):
        """Figure 23: larger SRAM/SAs on NPU-E mean more idle silicon to gate
        for decode/DLRM-style workloads."""
        d = simulate_workload("llama3-70b-decode", SimulationConfig(chip="NPU-D"))
        e = simulate_workload("llama3-70b-decode", SimulationConfig(chip="NPU-E"))
        assert e.energy_savings(PolicyName.REGATE_FULL) > 0.5 * d.energy_savings(
            PolicyName.REGATE_FULL
        )

    def test_all_generations_see_substantial_savings(self):
        for chip in ("NPU-A", "NPU-C", "NPU-E"):
            result = simulate_workload("dlrm-s-inference", SimulationConfig(chip=chip))
            assert result.energy_savings(PolicyName.REGATE_FULL) > 0.10
