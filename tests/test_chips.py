"""Tests for the NPU chip specifications (Table 2)."""

import pytest

from repro.hardware.chips import (
    NPU_A,
    NPU_B,
    NPU_C,
    NPU_D,
    NPU_E,
    chips_in_order,
    get_chip,
    list_chips,
)


class TestTable2Values:
    def test_five_generations_registered(self):
        assert list_chips() == ["NPU-A", "NPU-B", "NPU-C", "NPU-D", "NPU-E"]

    @pytest.mark.parametrize(
        "name, freq, num_sa, sram_mb, hbm_bw, hbm_gb",
        [
            ("NPU-A", 700, 2, 32, 600, 16),
            ("NPU-B", 940, 4, 32, 900, 32),
            ("NPU-C", 1050, 8, 128, 1200, 32),
            ("NPU-D", 1750, 8, 128, 2765, 95),
            ("NPU-E", 2000, 8, 256, 7400, 192),
        ],
    )
    def test_table2_rows(self, name, freq, num_sa, sram_mb, hbm_bw, hbm_gb):
        chip = get_chip(name)
        assert chip.frequency_mhz == freq
        assert chip.num_sa == num_sa
        assert chip.sram_mb == sram_mb
        assert chip.hbm.bandwidth_gbps == hbm_bw
        assert chip.hbm.capacity_gb == hbm_gb

    def test_sa_width_256_only_on_npu_e(self):
        assert NPU_E.sa_width == 256
        for chip in (NPU_A, NPU_B, NPU_C, NPU_D):
            assert chip.sa_width == 128

    def test_technology_nodes(self):
        assert NPU_A.technology_nm == 16
        assert NPU_B.technology_nm == 16
        assert NPU_C.technology_nm == 7
        assert NPU_D.technology_nm == 7
        assert NPU_E.technology_nm == 4

    def test_ici_topology_shift(self):
        assert NPU_A.ici.topology == "2d_torus"
        assert NPU_D.ici.topology == "3d_torus"
        assert NPU_D.ici.links_per_chip == 6


class TestDerivedQuantities:
    def test_peak_sa_flops_matches_public_tpu_numbers(self):
        # NPU-D (TPUv5p) is ~459 TFLOPS bf16; NPU-A (TPUv2) is ~46 TFLOPS.
        assert NPU_D.peak_sa_flops == pytest.approx(459e12, rel=0.01)
        assert NPU_A.peak_sa_flops == pytest.approx(45.9e12, rel=0.01)
        assert NPU_C.peak_sa_flops == pytest.approx(275e12, rel=0.01)

    def test_npu_e_is_petaflop_class(self):
        assert NPU_E.peak_sa_flops > 2e15

    def test_pes_per_sa(self):
        assert NPU_D.pes_per_sa == 128 * 128
        assert NPU_E.pes_per_sa == 256 * 256

    def test_total_pes(self):
        assert NPU_D.total_pes == 8 * 128 * 128

    def test_vu_alus(self):
        assert NPU_D.vu_alus == 6 * 8 * 128

    def test_peak_vu_flops_positive_and_below_sa(self):
        for chip in chips_in_order():
            assert 0 < chip.peak_vu_flops < chip.peak_sa_flops

    def test_sram_segments_are_4kb(self):
        assert NPU_D.sram_segment_kb == 4

    def test_cycle_round_trip(self):
        cycles = 1234.0
        assert NPU_D.seconds_to_cycles(NPU_D.cycles_to_seconds(cycles)) == pytest.approx(cycles)

    def test_cycle_time(self):
        assert NPU_D.cycle_time_s == pytest.approx(1.0 / 1.75e9)

    def test_hbm_capacity_bytes(self):
        assert NPU_D.hbm.capacity_bytes == pytest.approx(95e9)

    def test_ici_bandwidth_aggregates_links(self):
        assert NPU_D.ici_bandwidth_bytes == pytest.approx(6 * 100e9)


class TestLookup:
    def test_lookup_by_letter(self):
        assert get_chip("d") is NPU_D

    def test_lookup_by_tpu_alias(self):
        assert get_chip("TPUv4") is NPU_C
        assert get_chip("tpuv5p") is NPU_D

    def test_lookup_canonical(self):
        assert get_chip("NPU-E") is NPU_E

    def test_unknown_chip_raises(self):
        with pytest.raises(KeyError):
            get_chip("NPU-Z")

    def test_chips_in_order_monotone_compute(self):
        flops = [chip.peak_sa_flops for chip in chips_in_order()]
        assert flops == sorted(flops)

    def test_with_overrides(self):
        modified = NPU_D.with_overrides(sram_mb=256)
        assert modified.sram_mb == 256
        assert modified.num_sa == NPU_D.num_sa
        assert NPU_D.sram_mb == 128  # original untouched
