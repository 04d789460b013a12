"""Tests for the area and power models."""

import pytest

from repro.hardware.area import AreaModel
from repro.hardware.chips import chips_in_order, get_chip
from repro.hardware.components import Component, PowerState
from repro.hardware.power import ChipPowerModel


class TestComponents:
    def test_gateable_excludes_other(self):
        assert Component.OTHER not in Component.gateable()
        assert len(Component.gateable()) == 5

    def test_all_components_count(self):
        assert len(Component.all()) == 6

    def test_pretty_names(self):
        assert Component.SA.pretty == "Systolic Array"
        assert Component.HBM.pretty.startswith("HBM")

    def test_power_states(self):
        assert PowerState.AUTO.value == "auto"
        assert {s.value for s in PowerState} == {"on", "sleep", "off", "auto"}


class TestAreaModel:
    def test_total_area_reasonable_for_npu_d(self):
        area = AreaModel(get_chip("NPU-D")).breakdown()
        assert 200 < area.total_mm2 < 900

    def test_sa_area_share_close_to_tpu_floorplan(self):
        # The paper cites ~10.7% of the TPUv4i die for the SAs.
        area = AreaModel(get_chip("NPU-D")).breakdown()
        assert 0.10 < area.fraction(Component.SA) < 0.30

    def test_regate_overhead_below_paper_bound(self):
        # The paper reports <3.3% total area overhead for ReGate.
        for chip in chips_in_order():
            area = AreaModel(chip).breakdown()
            assert area.regate_overhead_fraction < 0.04

    def test_regate_overhead_positive(self):
        area = AreaModel(get_chip("NPU-D")).breakdown()
        assert area.regate_total_overhead_mm2 > 0

    def test_sa_gating_overhead_dominated_by_pe_transistors(self):
        area = AreaModel(get_chip("NPU-D")).breakdown()
        sa_overhead = area.regate_overhead_mm2[Component.SA]
        assert sa_overhead == pytest.approx(
            area.areas_mm2[Component.SA] * 0.0636, rel=0.01
        )

    def test_other_area_fraction(self):
        area = AreaModel(get_chip("NPU-D")).breakdown()
        assert 0.35 < area.fraction(Component.OTHER) < 0.50

    def test_newer_node_smaller_logic(self):
        a16 = AreaModel(get_chip("NPU-A"))
        a7 = AreaModel(get_chip("NPU-C"))
        # Per-PE area shrinks with the node (same SA width).
        assert a16.sa_area_mm2() / get_chip("NPU-A").total_pes > a7.sa_area_mm2() / get_chip(
            "NPU-C"
        ).total_pes

    def test_area_scales_with_sram_capacity(self):
        small = AreaModel(get_chip("NPU-C").with_overrides(sram_mb=64)).sram_area_mm2()
        large = AreaModel(get_chip("NPU-C")).sram_area_mm2()
        assert large == pytest.approx(2 * small, rel=1e-6)


class TestPowerModel:
    @pytest.fixture(scope="class")
    def model(self):
        return ChipPowerModel(get_chip("NPU-D"))

    def test_static_breakdown_matches_paper_ranges(self, model):
        """§3: per-component share of busy static power."""
        total = model.total_static_w
        shares = {c: model.static_power_w(c) / total for c in Component.all()}
        assert 0.08 <= shares[Component.SA] <= 0.14
        assert 0.019 <= shares[Component.VU] <= 0.056
        assert 0.154 <= shares[Component.SRAM] <= 0.244
        assert 0.09 <= shares[Component.HBM] <= 0.224
        assert 0.053 <= shares[Component.ICI] <= 0.12
        assert 0.391 <= shares[Component.OTHER] <= 0.458

    def test_tdp_in_plausible_range(self, model):
        assert 300 < model.tdp_w < 900

    def test_idle_power_below_tdp(self, model):
        assert model.idle_power_w < model.tdp_w
        assert model.idle_power_w > model.total_static_w

    def test_static_power_grows_with_generation_size(self):
        static = [ChipPowerModel(chip).total_static_w for chip in chips_in_order()]
        assert static[0] < static[3] < static[4]  # A < D < E

    def test_peak_dynamic_positive_per_component(self, model):
        for component in Component.all():
            assert model.breakdown().peak_dynamic_w[component] > 0

    def test_dynamic_energy_per_op_scales_with_node(self):
        old = ChipPowerModel(get_chip("NPU-A")).dynamic
        new = ChipPowerModel(get_chip("NPU-D")).dynamic
        assert new.mac_energy_j < old.mac_energy_j
        assert new.sram_energy_j_per_byte < old.sram_energy_j_per_byte

    def test_sa_energy_linear_in_flops(self, model):
        dyn = model.dynamic
        assert dyn.sa_energy(2e12) == pytest.approx(2 * dyn.sa_energy(1e12))

    def test_hbm_energy_depends_on_generation(self):
        hbm2 = ChipPowerModel(get_chip("NPU-C")).dynamic.hbm_energy_j_per_byte
        hbm3e = ChipPowerModel(get_chip("NPU-E")).dynamic.hbm_energy_j_per_byte
        assert hbm3e < hbm2

    def test_other_dynamic_is_fraction_of_gateable(self, model):
        dyn = model.dynamic
        assert dyn.other_energy(100.0) == pytest.approx(12.0)

    def test_breakdown_totals_consistent(self, model):
        breakdown = model.breakdown()
        assert breakdown.tdp_w == pytest.approx(
            breakdown.total_static_w + breakdown.total_peak_dynamic_w
        )

    def test_validation_against_published_idle_tdp_ratio(self):
        """The paper validates idle/TDP against TPUv2/v3; we check that the
        idle-to-TDP ratio lands in the published 20-45% window."""
        for name in ("NPU-A", "NPU-B"):
            model = ChipPowerModel(get_chip(name))
            ratio = model.idle_power_w / model.tdp_w
            assert 0.15 < ratio < 0.55
