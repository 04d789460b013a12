"""Tests for BETs, idle detection, SA spatial gating and SRAM gating."""

from dataclasses import replace

import numpy as np
import pytest

from repro.gating.bet import (
    DEFAULT_PARAMETERS,
    FIGURE21_LEAKAGE_POINTS,
    FIGURE22_DELAY_MULTIPLIERS,
    ComponentTiming,
    GatingParameters,
    LeakageRatios,
    TABLE3_TIMINGS,
    idle_gating_coefficients,
)
from repro.gating.idle_detection import DetectorState, IdleDetector
from repro.gating.sa_gating import (
    SpatialGatingModel,
    active_pe_mask,
    column_nonzero_bitmap,
    column_on_bitmap,
    padding_efficiency,
    pipeline_fill_efficiency,
    row_on_bitmap,
    row_nonzero_bitmap,
    spatial_utilization,
)
from repro.gating.sram_gating import SramGatingModel, SramStateShares
from repro.hardware.chips import get_chip
from repro.hardware.components import Component
from repro.workloads.base import MatmulDims


class TestTable3:
    def test_table3_values(self):
        assert TABLE3_TIMINGS["sa_pe"].delay_cycles == 1
        assert TABLE3_TIMINGS["sa_pe"].bet_cycles == 47
        assert TABLE3_TIMINGS["sa_full"].delay_cycles == 10
        assert TABLE3_TIMINGS["sa_full"].bet_cycles == 469
        assert TABLE3_TIMINGS["vu"].bet_cycles == 32
        assert TABLE3_TIMINGS["hbm"].bet_cycles == 412
        assert TABLE3_TIMINGS["ici"].bet_cycles == 459
        assert TABLE3_TIMINGS["sram_sleep"].bet_cycles == 41
        assert TABLE3_TIMINGS["sram_off"].bet_cycles == 82

    def test_default_leakage_ratios(self):
        leak = DEFAULT_PARAMETERS.leakage
        assert leak.logic_off == 0.03
        assert leak.sram_sleep == 0.25
        assert leak.sram_off == 0.002

    def test_leakage_ratio_validation(self):
        nan = float("nan")
        invalid = (
            ("logic_off", lambda: LeakageRatios(logic_off=1.5)),
            ("delay_cycles", lambda: DEFAULT_PARAMETERS.with_delay_multiplier(nan)),
            ("delay_cycles", lambda: DEFAULT_PARAMETERS.with_delay_multiplier(-2.0)),
            ("delay_cycles", lambda: ComponentTiming(float("inf"), 10.0)),
            ("bet_cycles", lambda: ComponentTiming(1.0, -1.0)),
            (
                "detection_window_bet_fraction",
                lambda: replace(DEFAULT_PARAMETERS, detection_window_bet_fraction=nan),
            ),
            (
                "detection_window_bet_fraction",
                lambda: replace(DEFAULT_PARAMETERS, detection_window_bet_fraction=1.5),
            ),
            (
                "pe_weight_register_share",
                lambda: replace(DEFAULT_PARAMETERS, pe_weight_register_share=nan),
            ),
            (
                "pe_weight_register_share",
                lambda: replace(DEFAULT_PARAMETERS, pe_weight_register_share=-0.1),
            ),
        )
        for field, build in invalid:
            with pytest.raises(ValueError, match=field):
                build()

    def test_delay_multiplier_scales_bet(self):
        scaled = DEFAULT_PARAMETERS.with_delay_multiplier(2.0)
        assert scaled.timing(Component.VU).bet_cycles == 64
        assert scaled.timing(Component.VU).delay_cycles == 4
        # Original untouched.
        assert DEFAULT_PARAMETERS.timing(Component.VU).bet_cycles == 32

    def test_with_leakage(self):
        modified = DEFAULT_PARAMETERS.with_leakage(0.1, 0.3, 0.01)
        assert modified.off_leakage(Component.SA) == 0.1
        assert modified.sleep_leakage() == 0.3
        assert modified.off_leakage(Component.SRAM) == 0.01

    def test_detection_window_is_third_of_bet(self):
        window = DEFAULT_PARAMETERS.detection_window_cycles(Component.HBM)
        assert window == pytest.approx(412 / 3)

    def test_transition_energy_makes_bet_break_even(self):
        chip = get_chip("NPU-D")
        static = 10.0
        bet_s = chip.cycles_to_seconds(DEFAULT_PARAMETERS.timing(Component.VU).bet_cycles)
        energy_no_gate = static * bet_s
        coefficients = idle_gating_coefficients(
            DEFAULT_PARAMETERS, Component.VU, None, static, chip, software=True
        )
        energy_gate = (
            static * coefficients.off_leakage * bet_s + coefficients.transition_j
        )
        assert energy_gate == pytest.approx(energy_no_gate, rel=1e-9)

    def test_figure_sweep_constants(self):
        assert len(FIGURE21_LEAKAGE_POINTS) == 5
        assert FIGURE22_DELAY_MULTIPLIERS == (1.0, 1.5, 2.0, 3.0, 4.0)


class TestIdleDetector:
    def test_gates_after_window(self):
        detector = IdleDetector(detection_window_cycles=4, wakeup_delay_cycles=2)
        for _ in range(10):
            detector.step(False)
        assert detector.state is DetectorState.GATED
        assert detector.stats.gate_events == 1

    def test_does_not_gate_short_idle(self):
        detector = IdleDetector(detection_window_cycles=8, wakeup_delay_cycles=2)
        pattern = [True, False, False, True] * 5
        detector.run(pattern)
        assert detector.stats.gate_events == 0

    def test_wakeup_stalls_work(self):
        detector = IdleDetector(detection_window_cycles=2, wakeup_delay_cycles=3)
        activity = [False] * 5 + [True]
        detector.run(activity)
        assert detector.stats.exposed_wakeup_cycles > 0
        assert detector.state in (DetectorState.ACTIVE, DetectorState.WAKING)

    def test_zero_delay_wakes_instantly(self):
        detector = IdleDetector(detection_window_cycles=2, wakeup_delay_cycles=0)
        detector.run([False] * 5 + [True])
        assert detector.stats.exposed_wakeup_cycles == 0

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            IdleDetector(detection_window_cycles=0, wakeup_delay_cycles=1)

    def test_stats_cycles_accumulate(self):
        detector = IdleDetector(detection_window_cycles=2, wakeup_delay_cycles=1)
        detector.run([True, False, False, False, True, True])
        assert detector.stats.total_cycles >= 6


class TestRowColumnGatingLogic:
    def test_column_on_is_suffix_or(self):
        """The paper's example: col_nz = 0100 (column 1 non-zero) ->
        col_on = 1100 (columns 0 and 1 stay on)."""
        col_nz = np.array([False, True, False, False])
        on = column_on_bitmap(col_nz)
        assert on.tolist() == [True, True, False, False]

    def test_row_on_is_prefix_or(self):
        row_nz = np.array([False, True, False, False])
        on = row_on_bitmap(row_nz)
        assert on.tolist() == [False, True, True, True]

    def test_nonzero_bitmaps(self):
        weights = np.zeros((4, 4))
        weights[1, 2] = 5.0
        assert row_nonzero_bitmap(weights).tolist() == [False, True, False, False]
        assert column_nonzero_bitmap(weights).tolist() == [False, False, True, False]

    def test_active_pe_mask_combines_rows_and_columns(self):
        weights = np.zeros((4, 4))
        weights[1, 1] = 1.0
        mask = active_pe_mask(weights)
        # Rows 1..3 forward partial sums; columns 0..1 forward inputs.
        assert mask.sum() == 3 * 2
        assert mask[0].sum() == 0

    def test_all_zero_weights_gate_everything(self):
        mask = active_pe_mask(np.zeros((8, 8)))
        assert mask.sum() == 0

    def test_dense_weights_keep_everything_on(self):
        mask = active_pe_mask(np.ones((8, 8)))
        assert mask.all()


class TestSpatialUtilization:
    def test_padding_efficiency(self):
        assert padding_efficiency(128, 128) == 1.0
        assert padding_efficiency(72, 128) == pytest.approx(72 / 128)
        assert padding_efficiency(130, 128) == pytest.approx(130 / 256)
        assert padding_efficiency(0, 128) == 0.0

    def test_pipeline_fill_efficiency(self):
        assert pipeline_fill_efficiency(4096, 128) == pytest.approx(4096 / (4096 + 256))
        assert pipeline_fill_efficiency(1, 128) == pytest.approx(1 / 257)

    def test_full_matmul_near_unity(self):
        util = spatial_utilization(MatmulDims(4096, 4096, 4096), 128)
        assert util > 0.9

    def test_small_m_kills_utilization(self):
        """Figure 10 case 1: M much smaller than the SA width."""
        util = spatial_utilization(MatmulDims(2, 4096, 4096), 128)
        assert util < 0.02

    def test_small_k_underutilizes(self):
        """Figure 10 case 2 (and DiT-XL's head size of 72)."""
        util = spatial_utilization(MatmulDims(4096, 72, 4096), 128)
        assert util == pytest.approx((72 / 128) * (4096 / 4352), rel=1e-6)

    def test_spatial_shares_sum_to_one(self):
        model = SpatialGatingModel(128, DEFAULT_PARAMETERS)
        shares = model.shares(MatmulDims(64, 72, 300))
        assert shares.active + shares.weight_only + shares.off == pytest.approx(1.0)

    def test_static_factor_below_one_when_underutilized(self):
        model = SpatialGatingModel(128, DEFAULT_PARAMETERS)
        assert model.static_power_factor(MatmulDims(2, 128, 128)) < 0.25
        assert model.static_power_factor(MatmulDims(4096, 4096, 4096)) > 0.9

    def test_static_factor_is_one_without_dims(self):
        model = SpatialGatingModel(128, DEFAULT_PARAMETERS)
        assert model.static_power_factor(None) == 1.0


class TestSramGating:
    def test_shares_for_demand_hw_vs_sw(self):
        chip = get_chip("NPU-D")
        model = SramGatingModel(chip, DEFAULT_PARAMETERS)
        hw = model.shares_for_demand(chip.sram_bytes / 2, software_managed=False)
        sw = model.shares_for_demand(chip.sram_bytes / 2, software_managed=True)
        assert hw.sleep == pytest.approx(0.5) and hw.off == 0.0
        assert sw.off == pytest.approx(0.5) and sw.sleep == 0.0

    def test_leakage_factor_sw_below_hw(self):
        chip = get_chip("NPU-D")
        model = SramGatingModel(chip, DEFAULT_PARAMETERS)
        demand = chip.sram_bytes * 0.1
        assert model.leakage_factor_for_demand(demand, True) < model.leakage_factor_for_demand(
            demand, False
        )

    def test_full_demand_means_full_leakage(self):
        chip = get_chip("NPU-D")
        model = SramGatingModel(chip, DEFAULT_PARAMETERS)
        assert model.leakage_factor_for_demand(2 * chip.sram_bytes, True) == pytest.approx(1.0)

    def test_state_shares_validation(self):
        with pytest.raises(ValueError):
            SramStateShares(on=0.5, sleep=0.2, off=0.2)
