"""Tests for the cycle-level systolic-array simulator."""

import numpy as np
import pytest

from repro.gating.sa_gating import spatial_utilization
from repro.simulator.systolic import SystolicArraySimulator
from repro.workloads.base import MatmulDims


class TestFunctionalCorrectness:
    @pytest.mark.parametrize("m,k,n", [(4, 4, 4), (8, 3, 5), (16, 16, 16), (1, 8, 8)])
    def test_matmul_matches_numpy(self, m, k, n):
        rng = np.random.default_rng(seed=m * 100 + k * 10 + n)
        inputs = rng.normal(size=(m, k))
        weights = rng.normal(size=(k, n))
        sim = SystolicArraySimulator(width=16)
        result = sim.run(inputs, weights)
        np.testing.assert_allclose(result.output, inputs @ weights, rtol=1e-10)

    def test_gating_does_not_change_results(self):
        rng = np.random.default_rng(seed=7)
        inputs = rng.normal(size=(8, 5))
        weights = rng.normal(size=(5, 6))
        gated = SystolicArraySimulator(width=16, power_gating=True).run(inputs, weights)
        ungated = SystolicArraySimulator(width=16, power_gating=False).run(inputs, weights)
        np.testing.assert_allclose(gated.output, ungated.output)

    def test_sparse_weights_still_correct(self):
        inputs = np.arange(12, dtype=float).reshape(4, 3)
        weights = np.zeros((3, 4))
        weights[1, 2] = 2.0
        sim = SystolicArraySimulator(width=8)
        result = sim.run(inputs, weights)
        np.testing.assert_allclose(result.output, inputs @ weights)

    def test_dimension_validation(self):
        sim = SystolicArraySimulator(width=4)
        with pytest.raises(ValueError):
            sim.run(np.zeros((2, 3)), np.zeros((4, 2)))
        with pytest.raises(ValueError):
            sim.run(np.zeros((2, 8)), np.zeros((8, 2)))

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            SystolicArraySimulator(width=0)


class TestGatingBehaviour:
    def test_total_cycles_is_m_plus_2w(self):
        sim = SystolicArraySimulator(width=8)
        result = sim.run(np.ones((10, 8)), np.ones((8, 8)))
        assert result.total_cycles == 10 + 16

    def test_pe_cycle_accounting_sums(self):
        sim = SystolicArraySimulator(width=8)
        result = sim.run(np.ones((4, 8)), np.ones((8, 8)))
        assert result.total_pe_cycles == result.total_cycles * 64

    def test_gating_saves_leakage_for_small_m(self):
        """Figure 13: with M << W most PE-cycles are not fully on."""
        sim = SystolicArraySimulator(width=16)
        result = sim.run(np.ones((2, 16)), np.ones((16, 16)))
        assert result.pe_on_cycles < 0.35 * result.total_pe_cycles

    def test_zero_columns_fully_gated(self):
        """Figure 12: trailing zero-weight columns are powered off."""
        sim = SystolicArraySimulator(width=8)
        weights = np.zeros((8, 8))
        weights[:, :4] = 1.0  # only the first 4 columns are useful
        result = sim.run(np.ones((8, 8)), weights)
        assert result.pe_off_cycles >= 0.49 * result.total_pe_cycles

    def test_no_gating_means_everything_on(self):
        sim = SystolicArraySimulator(width=8, power_gating=False)
        result = sim.run(np.ones((4, 8)), np.ones((8, 8)))
        assert result.pe_off_cycles == 0
        assert result.pe_weight_only_cycles == 0

    def test_cycle_level_utilization_tracks_closed_form(self):
        """The closed-form spatial model used by the operator-level
        simulator should agree with the cycle-level model within ~15%."""
        width = 16
        sim = SystolicArraySimulator(width=width)
        for m in (2, 8, 32):
            result = sim.run(np.ones((m, width)), np.ones((width, width)))
            closed_form = spatial_utilization(MatmulDims(m, width, width), width)
            assert result.spatial_utilization == pytest.approx(closed_form, rel=0.35, abs=0.02)

    def test_more_input_rows_increase_utilization(self):
        sim = SystolicArraySimulator(width=16)
        small = sim.run(np.ones((2, 16)), np.ones((16, 16))).spatial_utilization
        large = sim.run(np.ones((64, 16)), np.ones((16, 16))).spatial_utilization
        assert large > small
