"""Tests for the power-gating policies and their energy reports."""

import pytest

from repro.gating.bet import DEFAULT_PARAMETERS
from repro.gating.policies import get_policy, list_policies
from repro.gating.report import PolicyName
from repro.hardware.components import Component
from repro.hardware.power import ChipPowerModel

ALL_POLICIES = (
    PolicyName.NOPG,
    PolicyName.REGATE_BASE,
    PolicyName.REGATE_HW,
    PolicyName.REGATE_FULL,
    PolicyName.IDEAL,
)


@pytest.fixture(scope="module")
def reports(prefill_profile_small, npu_d):
    power_model = ChipPowerModel(npu_d)
    return {
        name: get_policy(name).evaluate(prefill_profile_small, power_model)
        for name in ALL_POLICIES
    }


@pytest.fixture(scope="module")
def decode_reports(decode_profile_small, npu_d):
    power_model = ChipPowerModel(npu_d)
    return {
        name: get_policy(name).evaluate(decode_profile_small, power_model)
        for name in ALL_POLICIES
    }


class TestPolicyRegistry:
    def test_five_policies(self):
        assert list_policies() == list(ALL_POLICIES)

    def test_get_policy_by_string(self):
        assert get_policy("ReGate-Full").name is PolicyName.REGATE_FULL
        assert get_policy("nopg").name is PolicyName.NOPG
        assert get_policy("regate_hw").name is PolicyName.REGATE_HW

    def test_unknown_policy_raises(self):
        with pytest.raises(KeyError):
            get_policy("dvfs")

    def test_policy_flags(self):
        assert not get_policy(PolicyName.REGATE_BASE).spatial_sa_gating
        assert get_policy(PolicyName.REGATE_HW).spatial_sa_gating
        assert get_policy(PolicyName.REGATE_FULL).software_managed
        assert not get_policy(PolicyName.REGATE_HW).software_managed

    def test_subclassing_a_policy_is_refused(self):
        """An override the grid kernel would not mirror is refused when
        the class is defined, not silently ignored when it is priced."""
        base = type(get_policy(PolicyName.REGATE_BASE))
        with pytest.raises(TypeError, match="get_policy"):

            class DoubledIdle(base):
                def _idle_energy(self, component, gaps, static_power_w, chip):
                    accounting = super()._idle_energy(
                        component, gaps, static_power_w, chip
                    )
                    accounting.energy_j *= 2.0
                    return accounting


class TestEnergyOrdering:
    def test_savings_monotone_across_designs(self, reports):
        """NoPG >= Base >= HW >= Full >= Ideal in total energy."""
        energies = [reports[name].total_energy_j for name in ALL_POLICIES]
        for better, worse in zip(energies[1:], energies[:-1]):
            assert better <= worse * 1.0000001

    def test_savings_monotone_decode(self, decode_reports):
        energies = [decode_reports[name].total_energy_j for name in ALL_POLICIES]
        for better, worse in zip(energies[1:], energies[:-1]):
            assert better <= worse * 1.0000001

    def test_dynamic_energy_identical_across_policies(self, reports):
        base = reports[PolicyName.NOPG].total_dynamic_j
        for name in ALL_POLICIES:
            assert reports[name].total_dynamic_j == pytest.approx(base)

    def test_nopg_static_is_power_times_time(self, reports, npu_d, prefill_profile_small):
        power_model = ChipPowerModel(npu_d)
        expected = power_model.total_static_w * prefill_profile_small.total_time_s
        assert reports[PolicyName.NOPG].total_static_j == pytest.approx(expected, rel=1e-6)

    def test_other_component_never_gated(self, reports):
        other_energy = {
            name: reports[name].static_energy_j[Component.OTHER] for name in ALL_POLICIES
        }
        assert other_energy[PolicyName.IDEAL] == pytest.approx(
            other_energy[PolicyName.NOPG], rel=0.02
        )

    def test_ideal_gates_all_idle_leakage(self, decode_reports, npu_d, decode_profile_small):
        """Under Ideal, a mostly-idle component's static energy is near zero."""
        power_model = ChipPowerModel(npu_d)
        ici_static = decode_reports[PolicyName.IDEAL].static_energy_j[Component.ICI]
        nopg_static = decode_reports[PolicyName.NOPG].static_energy_j[Component.ICI]
        assert ici_static < 0.05 * nopg_static

    def test_full_saves_more_sram_than_hw(self, decode_reports):
        hw = decode_reports[PolicyName.REGATE_HW].static_energy_j[Component.SRAM]
        full = decode_reports[PolicyName.REGATE_FULL].static_energy_j[Component.SRAM]
        assert full < hw

    def test_hw_saves_more_sa_than_base_when_spatially_underutilized(self, decode_reports):
        base = decode_reports[PolicyName.REGATE_BASE].static_energy_j[Component.SA]
        hw = decode_reports[PolicyName.REGATE_HW].static_energy_j[Component.SA]
        assert hw <= base

    def test_full_saves_more_vu_than_hw(self, reports):
        hw = reports[PolicyName.REGATE_HW].static_energy_j[Component.VU]
        full = reports[PolicyName.REGATE_FULL].static_energy_j[Component.VU]
        assert full <= hw


class TestPerformanceOverhead:
    def test_nopg_and_ideal_have_no_overhead(self, reports):
        assert reports[PolicyName.NOPG].performance_overhead == 0.0
        assert reports[PolicyName.IDEAL].performance_overhead == 0.0

    def test_full_overhead_below_half_percent(self, reports, decode_reports):
        """The paper reports under 0.5% overhead for ReGate-Full."""
        assert reports[PolicyName.REGATE_FULL].performance_overhead < 0.005
        assert decode_reports[PolicyName.REGATE_FULL].performance_overhead < 0.005

    def test_base_overhead_bounded(self, reports, decode_reports):
        """ReGate-Base stays below the paper's ~5% worst case."""
        assert reports[PolicyName.REGATE_BASE].performance_overhead < 0.05
        assert decode_reports[PolicyName.REGATE_BASE].performance_overhead < 0.05

    def test_full_overhead_not_above_hw(self, reports):
        assert (
            reports[PolicyName.REGATE_FULL].performance_overhead
            <= reports[PolicyName.REGATE_HW].performance_overhead + 1e-12
        )


class TestReportStructure:
    def test_average_power_consistent(self, reports):
        for report in reports.values():
            assert report.average_power_w == pytest.approx(
                report.total_energy_j / report.total_time_s
            )

    def test_peak_power_at_least_average(self, reports):
        for name in (PolicyName.NOPG, PolicyName.REGATE_FULL):
            report = reports[name]
            assert report.peak_power_w >= report.average_power_w * 0.8

    def test_peak_power_nopg_highest(self, reports):
        assert (
            reports[PolicyName.REGATE_FULL].peak_power_w
            <= reports[PolicyName.NOPG].peak_power_w + 1e-9
        )

    def test_static_fraction_in_paper_range(self, reports):
        """Busy static share should be within the paper's 30-72% window."""
        assert 0.30 <= reports[PolicyName.NOPG].static_fraction() <= 0.72

    def test_savings_vs_self_is_zero(self, reports):
        nopg = reports[PolicyName.NOPG]
        assert nopg.savings_vs(nopg) == pytest.approx(0.0)

    def test_component_savings_sum_close_to_total(self, reports):
        nopg = reports[PolicyName.NOPG]
        full = reports[PolicyName.REGATE_FULL]
        component_sum = sum(
            full.component_savings_vs(nopg, component)
            for component in Component.all()
        )
        # Component savings plus the (small) overhead term should explain
        # the total savings.
        assert component_sum == pytest.approx(full.savings_vs(nopg), abs=0.02)

    def test_gating_events_nonnegative(self, reports):
        for report in reports.values():
            assert all(count >= 0 for count in report.gating_events.values())

    def test_custom_parameters_respected(self, prefill_profile_small, npu_d):
        """Higher gated leakage must reduce the savings."""
        power_model = ChipPowerModel(npu_d)
        leaky = DEFAULT_PARAMETERS.with_leakage(0.6, 0.8, 0.4)
        default_report = get_policy(PolicyName.REGATE_FULL).evaluate(
            prefill_profile_small, power_model
        )
        leaky_report = get_policy(PolicyName.REGATE_FULL, leaky).evaluate(
            prefill_profile_small, power_model
        )
        assert leaky_report.total_energy_j > default_report.total_energy_j
