"""Grid-batched policy evaluation: the (profiles × parameters) kernel.

The grid kernel has the same hard contract as every other fast path in
the tree: **exact equality with its oracles, not approximation**.
These tests hold, across workloads × chips × policies × the Figure
21/22 parameter grids:

* ``grid_evaluate`` reports equal per-profile ``evaluate`` reports at
  every parameter point with ``==`` (exact float comparison on every
  cell) — the independent one-profile kernel, not the grid itself;
* both equal the object-path ``evaluate`` oracle with the fast path
  disabled;
* the grid's column arrays are byte-for-byte identical to arrays
  gathered from the per-point oracle's reports;
* chip-heterogeneous batches (:class:`ChipMajorPacks`) reproduce the
  per-profile reports in the caller's order;
* custom subclasses and a disabled fast path fall back to per-profile
  ``evaluate`` at every point.

The suite is written to pass with ``REPRO_FAST_PATH=0`` as well (CI
runs it both ways): every fast-path expectation pins the switch with
``use_fast_path(True)``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.regate import simulate_workload
from repro.gating.bet import (
    DEFAULT_PARAMETERS,
    FIGURE21_LEAKAGE_POINTS,
    FIGURE22_DELAY_MULTIPLIERS,
    GatingParameters,
    IdleCoefficientColumns,
    ParameterTable,
)
from repro.gating.policies import (
    ChipMajorPacks,
    GridEnergyReports,
    PackedProfiles,
    ReGateBasePolicy,
    get_policy,
    list_policies,
)
from repro.hardware.components import Component
from repro.simulator.columnar import use_fast_path

#: The sensitivity figures' parameter axes (Figures 21 and 22).
PARAMETER_GRID = tuple(
    DEFAULT_PARAMETERS.with_leakage(*point) for point in FIGURE21_LEAKAGE_POINTS
) + tuple(
    DEFAULT_PARAMETERS.with_delay_multiplier(multiplier)
    for multiplier in FIGURE22_DELAY_MULTIPLIERS
)

FLEET_WORKLOADS = ("llama3-8b-prefill", "llama3-8b-decode", "dlrm-m-inference")


@pytest.fixture(scope="module")
def fleet():
    """Profiles of three workloads on two chips (fast-path tables)."""
    with use_fast_path(True):
        return [
            simulate_workload(workload, chip=chip).profile
            for chip in ("NPU-C", "NPU-D")
            for workload in FLEET_WORKLOADS
        ]


@pytest.fixture(scope="module")
def single_chip(fleet):
    return [profile for profile in fleet if profile.chip.name == "NPU-D"]


def _per_point_oracle(policy_name, profiles, grid=PARAMETER_GRID):
    """The documented oracle: per-profile ``evaluate`` at every point."""
    return [
        [get_policy(policy_name, parameters).evaluate(p) for p in profiles]
        for parameters in grid
    ]


# ---------------------------------------------------------------------- #
# ParameterTable
# ---------------------------------------------------------------------- #
class TestParameterTable:
    def test_struct_of_arrays_matches_parameters(self):
        table = ParameterTable(PARAMETER_GRID)
        assert table.n_points == len(PARAMETER_GRID) == len(table)
        for index, parameters in enumerate(table):
            assert parameters is PARAMETER_GRID[index]
            assert table.logic_off[index] == parameters.leakage.logic_off
            assert table.sram_sleep[index] == parameters.leakage.sram_sleep
            assert table.sram_off[index] == parameters.leakage.sram_off
            for key in parameters.timings:
                assert (
                    table.delay_cycles[key][index]
                    == parameters.timings[key].delay_cycles
                )
                assert (
                    table.bet_cycles[key][index]
                    == parameters.timings[key].bet_cycles
                )

    def test_of_passes_tables_through(self):
        table = ParameterTable(PARAMETER_GRID)
        assert ParameterTable.of(table) is table
        rebuilt = ParameterTable.of(list(PARAMETER_GRID))
        assert rebuilt.parameters == PARAMETER_GRID

    def test_rejects_empty_and_non_parameters(self):
        with pytest.raises(ValueError, match="at least one"):
            ParameterTable(())
        with pytest.raises(TypeError, match="GatingParameters"):
            ParameterTable((DEFAULT_PARAMETERS, "not parameters"))

    def test_coefficient_columns_require_uniform_software_flag(self):
        from repro.gating.bet import idle_gating_coefficients
        from repro.hardware.chips import get_chip

        chip = get_chip("NPU-D")
        coefficients = [
            idle_gating_coefficients(
                DEFAULT_PARAMETERS, Component.VU, None, 1.0, chip, software=software
            )
            for software in (True, False)
        ]
        with pytest.raises(ValueError, match="software"):
            IdleCoefficientColumns.from_coefficients(coefficients)


# ---------------------------------------------------------------------- #
# Equivalence: grid == per-profile evaluate == object-path evaluate
# ---------------------------------------------------------------------- #
class TestGridEquivalence:
    @pytest.mark.parametrize("policy_name", list_policies())
    def test_grid_equals_per_point_batch(self, single_chip, policy_name):
        with use_fast_path(True):
            packed = PackedProfiles.pack(single_chip)
            assert packed is not None
            expected = _per_point_oracle(policy_name, single_chip)
            observed = get_policy(policy_name).grid_evaluate(packed, PARAMETER_GRID)
            assert observed.n_points == len(PARAMETER_GRID)
            assert observed.n_profiles == len(single_chip)
            for index in range(len(PARAMETER_GRID)):
                assert observed.reports(index) == expected[index], (
                    policy_name,
                    index,
                )

    @pytest.mark.parametrize("policy_name", list_policies())
    def test_grid_equals_object_path_oracle(self, single_chip, policy_name):
        with use_fast_path(False):
            expected = [
                [
                    get_policy(policy_name, parameters).evaluate(profile)
                    for profile in single_chip
                ]
                for parameters in PARAMETER_GRID
            ]
        with use_fast_path(True):
            observed = get_policy(policy_name).grid_evaluate(
                single_chip, PARAMETER_GRID
            )
        for index in range(len(PARAMETER_GRID)):
            assert observed.reports(index) == expected[index], (policy_name, index)

    @pytest.mark.parametrize("policy_name", list_policies())
    def test_grid_arrays_byte_identical_to_oracle(self, single_chip, policy_name):
        with use_fast_path(True):
            packed = PackedProfiles.pack(single_chip)
            oracle = GridEnergyReports.from_reports(
                get_policy(policy_name).name,
                _per_point_oracle(policy_name, single_chip),
            )
            observed = get_policy(policy_name).grid_evaluate(packed, PARAMETER_GRID)
        for component in Component.all():
            assert (
                np.ascontiguousarray(observed.dynamic_energy_j[component]).tobytes()
                == oracle.dynamic_energy_j[component].tobytes()
            ), component
            assert (
                np.ascontiguousarray(observed.static_energy_j[component]).tobytes()
                == oracle.static_energy_j[component].tobytes()
            ), component
        assert (
            np.ascontiguousarray(observed.baseline_time_s).tobytes()
            == oracle.baseline_time_s.tobytes()
        )
        assert (
            np.ascontiguousarray(observed.overhead_time_s).tobytes()
            == oracle.overhead_time_s.tobytes()
        )
        assert (
            np.ascontiguousarray(observed.peak_power_w).tobytes()
            == oracle.peak_power_w.tobytes()
        )

    def test_grid_accepts_plain_profile_lists(self, single_chip):
        with use_fast_path(True):
            from_list = get_policy("ReGate-Full").grid_evaluate(
                list(single_chip), PARAMETER_GRID
            )
            from_pack = get_policy("ReGate-Full").grid_evaluate(
                PackedProfiles.pack(single_chip), PARAMETER_GRID
            )
        for index in range(len(PARAMETER_GRID)):
            assert from_list.reports(index) == from_pack.reports(index)

    def test_parameter_table_input_and_reuse_across_policies(self, single_chip):
        with use_fast_path(True):
            packed = PackedProfiles.pack(single_chip)
            table = ParameterTable(PARAMETER_GRID)
            for policy_name in list_policies():
                expected = _per_point_oracle(policy_name, single_chip)
                observed = get_policy(policy_name).grid_evaluate(packed, table)
                for index in range(len(PARAMETER_GRID)):
                    assert observed.reports(index) == expected[index]


# ---------------------------------------------------------------------- #
# Chip-heterogeneous batches
# ---------------------------------------------------------------------- #
class TestChipMajorPacks:
    def test_pack_is_chip_major_and_order_preserving(self, fleet):
        with use_fast_path(True):
            multi = ChipMajorPacks.pack(fleet)
        assert multi is not None
        assert multi.n_profiles == len(fleet)
        assert [chip.name for chip in multi.chips] == ["NPU-C", "NPU-D"]
        for original, (pack_index, position) in enumerate(multi.index_map):
            pack = multi.packs[pack_index]
            assert pack.profiles[position] is fleet[original]
            assert multi.pack_indices[pack_index][position] == original

    def test_pack_returns_none_off_fast_path(self, fleet):
        with use_fast_path(False):
            assert ChipMajorPacks.pack(fleet) is None

    @pytest.mark.parametrize("policy_name", list_policies())
    def test_batch_evaluate_multi_chip(self, fleet, policy_name):
        with use_fast_path(True):
            multi = ChipMajorPacks.pack(fleet)
            expected = [get_policy(policy_name).evaluate(p) for p in fleet]
            assert get_policy(policy_name).batch_evaluate(multi) == expected

    @pytest.mark.parametrize("policy_name", list_policies())
    def test_grid_evaluate_multi_chip(self, fleet, policy_name):
        with use_fast_path(True):
            multi = ChipMajorPacks.pack(fleet)
            expected = _per_point_oracle(policy_name, fleet)
            observed = get_policy(policy_name).grid_evaluate(multi, PARAMETER_GRID)
        for index in range(len(PARAMETER_GRID)):
            assert observed.reports(index) == expected[index], (policy_name, index)


# ---------------------------------------------------------------------- #
# Fallbacks
# ---------------------------------------------------------------------- #
class TestFallbacks:
    def test_custom_subclass_falls_back_to_oracle(self, single_chip):
        class DoubledIdle(ReGateBasePolicy):
            def _idle_energy(self, component, gaps, static_power_w, chip):
                accounting = super()._idle_energy(
                    component, gaps, static_power_w, chip
                )
                accounting.energy_j *= 2.0
                return accounting

        profiles = single_chip[:2]
        with use_fast_path(True):
            expected = [
                [DoubledIdle(parameters).evaluate(p) for p in profiles]
                for parameters in PARAMETER_GRID[:3]
            ]
            observed = DoubledIdle().grid_evaluate(profiles, PARAMETER_GRID[:3])
        for index in range(3):
            assert observed.reports(index) == expected[index]

    def test_custom_init_subclass_binds_point_parameters(self, single_chip):
        """Regression: a custom __init__ signature must never mis-bind a
        grid point's parameters to another constructor argument."""

        class Scaled(ReGateBasePolicy):
            def __init__(self, scale: float = 2.0, parameters=None):
                super().__init__(parameters)
                self.scale = scale

            def _idle_energy(self, component, gaps, static_power_w, chip):
                accounting = super()._idle_energy(
                    component, gaps, static_power_w, chip
                )
                accounting.energy_j *= self.scale
                return accounting

        profiles = single_chip[:2]
        with use_fast_path(True):
            observed = Scaled(scale=3.0).grid_evaluate(profiles, PARAMETER_GRID[:3])
            for index, parameters in enumerate(PARAMETER_GRID[:3]):
                expected = [
                    Scaled(scale=3.0, parameters=parameters).evaluate(p)
                    for p in profiles
                ]
                assert observed.reports(index) == expected, index

    def test_off_fast_path_falls_back_to_oracle(self, single_chip):
        profiles = single_chip[:2]
        with use_fast_path(False):
            expected = [
                [get_policy("Ideal", parameters).evaluate(p) for p in profiles]
                for parameters in PARAMETER_GRID[:3]
            ]
            observed = get_policy("Ideal").grid_evaluate(
                profiles, PARAMETER_GRID[:3]
            )
        for index in range(3):
            assert observed.reports(index) == expected[index]

    def test_from_reports_round_trips_scalars(self, single_chip):
        with use_fast_path(True):
            per_point = _per_point_oracle("ReGate-HW", single_chip, PARAMETER_GRID[:2])
        grid = GridEnergyReports.from_reports(
            get_policy("ReGate-HW").name, per_point
        )
        # The wrapped oracle reports are handed back verbatim...
        assert grid.report(1, 0) is per_point[1][0]
        # ...and the gathered arrays agree with their scalars.
        assert grid.peak_power_w[1, 0] == per_point[1][0].peak_power_w
        assert (
            grid.static_energy_j[Component.SA][0, 1]
            == per_point[0][1].static_energy_j[Component.SA]
        )


# ---------------------------------------------------------------------- #
# The sweep pipeline on top of the kernel
# ---------------------------------------------------------------------- #
class TestSweepIntegration:
    def test_sensitivity_sweep_byte_identical_to_object_path(self):
        from repro.experiments import SweepSpec, run_sweep

        spec = SweepSpec(
            workloads=("llama3-8b-decode", "dlrm-s-inference"),
            chips=("NPU-C", "NPU-D"),
            batch_sizes=(1,),
            gating_parameters=tuple(
                (f"p{index}", parameters)
                for index, parameters in enumerate(PARAMETER_GRID)
            ),
        )
        with use_fast_path(True):
            fast = run_sweep(spec)
        with use_fast_path(False):
            oracle = run_sweep(spec)
        assert fast.to_csv() == oracle.to_csv()

    def test_simulate_cached_many_grid_matches_per_item(self):
        from repro.core.config import SimulationConfig
        from repro.experiments import SimulationCache, simulate_cached, simulate_cached_many

        items = [
            ("llama3-8b-decode", SimulationConfig(chip="NPU-D", gating_parameters=parameters))
            for parameters in PARAMETER_GRID[:4]
        ] + [
            ("llama3-8b-prefill", SimulationConfig(chip="NPU-C", gating_parameters=parameters))
            for parameters in PARAMETER_GRID[:4]
        ]
        with use_fast_path(True):
            batched = simulate_cached_many(items, SimulationCache())
            reference = [
                simulate_cached(workload, config, SimulationCache())
                for workload, config in items
            ]
        for fast, slow in zip(batched, reference):
            assert fast.reports == slow.reports
