"""Grid-batched policy evaluation: the (profiles × parameters) kernel.

The grid kernel has the same hard contract as every other fast path in
the tree: **exact equality with its oracles, not approximation**.
These tests hold, across workloads × chips × policies × the Figure
21/22 parameter grids:

* ``grid_evaluate`` reports equal per-profile ``evaluate`` reports at
  every parameter point with ``==`` (exact float comparison on every
  cell) — ``evaluate`` runs the same kernel as a one-point grid on a
  one-profile pack, so this checks the batching, not the formulas;
* both equal the object-path ``evaluate`` oracle: oracle-built
  profiles priced with the fast path disabled;
* the grid's column arrays are byte-for-byte identical to arrays
  gathered from the per-point oracle's reports;
* chip-heterogeneous batches (:class:`ChipMajorPacks`) reproduce the
  per-profile reports in the caller's order, and an empty batch gives
  an ``(n_points, 0)`` grid.

``grid_evaluate`` runs the kernel whatever the switch says; only
``evaluate`` forks on it.  The suite is written to pass with
``REPRO_FAST_PATH=0`` as well (CI runs it both ways): every fast-path
expectation pins the switch with ``use_fast_path(True)``.
"""

from __future__ import annotations

import copy
import gc
import pickle
import weakref

import numpy as np
import pytest

from repro.core.regate import simulate_workload
from repro.gating.bet import (
    DEFAULT_PARAMETERS,
    FIGURE21_LEAKAGE_POINTS,
    FIGURE22_DELAY_MULTIPLIERS,
    GatingParameters,
    ParameterTable,
)
from repro.gating.policies import (
    ChipMajorPacks,
    PackedProfiles,
    get_policy,
    list_policies,
)
from repro.gating.report import PolicyName
from repro.hardware.components import Component
from repro.simulator.columnar import GAP_COMPONENTS, use_fast_path

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


@pytest.fixture(scope="module")
def oracle_single_chip():
    """``single_chip``'s profiles built by the object-path oracle."""
    with use_fast_path(False):
        return [
            simulate_workload(workload, chip="NPU-D").profile
            for workload in FLEET_WORKLOADS
        ]


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


# ---------------------------------------------------------------------- #
# evaluate: a one-point grid on the profile's memoized one-profile pack
# ---------------------------------------------------------------------- #
class TestOnePointEvaluate:
    @staticmethod
    def _p1() -> GatingParameters:
        return DEFAULT_PARAMETERS.with_delay_multiplier(3.0)

    @pytest.mark.parametrize("policy_name", list_policies())
    def test_memos_never_serve_another_parameter_set(self, policy_name):
        """P1, then P2, then a P1-equal instance created after P1 was
        collected: each fast ``evaluate`` equals the object-path oracle,
        so neither the one-point table nor the pack memos hand back a
        stale entry."""
        with use_fast_path(True):
            profile = simulate_workload("llama3-8b-prefill", chip="NPU-D").profile
        with use_fast_path(False):
            reference = simulate_workload("llama3-8b-prefill", chip="NPU-D").profile
        assert profile.active_s(Component.SA) > 0.0  # spatial gating matters
        packs = []

        def check(parameters):
            policy = get_policy(policy_name, parameters)
            with use_fast_path(False):
                oracle = policy.evaluate(reference)
            with use_fast_path(True):
                fast = policy.evaluate(profile)
                packs.append(PackedProfiles.single(profile))
            assert fast == oracle
            assert packs[-1] is packs[0]
            return fast

        p1 = self._p1()
        first = check(p1)
        p2 = DEFAULT_PARAMETERS.with_leakage(0.40, 0.50, 0.25)
        second = check(p2)
        if policy_name not in (PolicyName.NOPG, PolicyName.IDEAL):
            assert second != first
        collected = weakref.ref(p1)
        del p1
        gc.collect()
        assert collected() is None, "the point-table memo keeps P1 alive"
        assert check(self._p1()) == first

    def test_point_table_is_memoized_per_instance_and_stays_local(self):
        parameters = self._p1()
        table = ParameterTable.point(parameters)
        assert ParameterTable.point(parameters) is table
        assert table.parameters == (parameters,)
        equal = self._p1()
        assert ParameterTable.point(equal) is not table
        for clone in (copy.copy(parameters), pickle.loads(pickle.dumps(parameters))):
            assert clone == parameters
            assert "_point_table" not in vars(clone)

    def test_single_pack_is_shared_by_every_policy(self, single_chip):
        profile = single_chip[0]
        with use_fast_path(True):
            pack = PackedProfiles.single(profile)
            assert pack is not None and pack.n_profiles == 1
            for policy_name in list_policies():
                get_policy(policy_name).evaluate(profile)
            assert PackedProfiles.single(profile) is pack
        # The switch picks evaluate's route, not whether a pack exists.
        with use_fast_path(False):
            assert PackedProfiles.single(profile) is pack


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
    def test_grid_equals_object_path_oracle(
        self, single_chip, oracle_single_chip, policy_name
    ):
        with use_fast_path(False):
            expected = [
                [
                    get_policy(policy_name, parameters).evaluate(profile)
                    for profile in oracle_single_chip
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
            per_point = _per_point_oracle(policy_name, single_chip)
            observed = get_policy(policy_name).grid_evaluate(packed, PARAMETER_GRID)

        def gathered(read) -> bytes:
            """One report scalar per cell, gathered into grid-shaped bytes."""
            return np.asarray(
                [[read(report) for report in row] for row in per_point],
                dtype=np.float64,
            ).tobytes()

        def grid_bytes(values) -> bytes:
            return np.ascontiguousarray(values).tobytes()

        for component in Component.all():
            assert grid_bytes(observed.dynamic_energy_j[component]) == gathered(
                lambda report: report.dynamic_energy_j[component]
            ), component
            assert grid_bytes(observed.static_energy_j[component]) == gathered(
                lambda report: report.static_energy_j[component]
            ), component
        assert grid_bytes(observed.baseline_time_s) == gathered(
            lambda report: report.baseline_time_s
        )
        assert grid_bytes(observed.overhead_time_s) == gathered(
            lambda report: report.overhead_time_s
        )
        assert grid_bytes(observed.peak_power_w) == gathered(
            lambda report: report.peak_power_w
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

    def test_pack_joins_each_tables_reduction(self, fleet):
        """A pack's per-profile totals and per-operator gap arrays are its
        tables' own, byte for byte: the pack joins, it never reduces."""

        def as_bytes(value) -> bytes:
            return np.float64(value).tobytes()

        with use_fast_path(True):
            multi = ChipMajorPacks.pack(fleet)
        for original, (pack_index, position) in enumerate(multi.index_map):
            pack = multi.packs[pack_index]
            table = fleet[original].table
            totals = table.totals
            start, end = pack.segments.spans()[position]

            def own(packed) -> bytes:
                return packed[position : position + 1].tobytes()

            assert own(pack.total_time_s) == as_bytes(table.total_time_s())
            for component in Component.all():
                assert own(pack.dynamic_total_j[component]) == as_bytes(
                    table.dynamic_total_j(component)
                ), component
            for component in GAP_COMPONENTS:
                assert own(pack.active_total_s[component]) == as_bytes(
                    table.active_total_s(component)
                ), component
                assert own(pack.idle_total_s[component]) == as_bytes(
                    totals.idle_total_s[component]
                ), component
                assert own(pack.gap_count[component]) == as_bytes(
                    totals.gap_count[component]
                ), component
                for packed, tabled in zip(
                    pack.gaps[component], table.gap_table(component)
                ):
                    assert packed[start:end].tobytes() == tabled.tobytes(), component
            assert (
                pack.weighted_latency[start:end].tobytes()
                == totals.weighted_latency.tobytes()
            )
            assert (
                pack.weighted_sa_active[start:end].tobytes()
                == (table.active[Component.SA] * table.count).tobytes()
            )

    @pytest.mark.parametrize("policy_name", list_policies())
    def test_batch_evaluate_multi_chip(self, fleet, policy_name):
        """A one-point grid over a mixed-chip batch is per-profile evaluate."""
        with use_fast_path(True):
            multi = ChipMajorPacks.pack(fleet)
            expected = [get_policy(policy_name).evaluate(p) for p in fleet]
            observed = get_policy(policy_name).grid_evaluate(
                multi, [DEFAULT_PARAMETERS]
            )
            assert observed.reports(0) == expected

    @pytest.mark.parametrize("policy_name", list_policies())
    def test_grid_evaluate_multi_chip(self, fleet, policy_name):
        with use_fast_path(True):
            multi = ChipMajorPacks.pack(fleet)
            expected = _per_point_oracle(policy_name, fleet)
            observed = get_policy(policy_name).grid_evaluate(multi, PARAMETER_GRID)
        for index in range(len(PARAMETER_GRID)):
            assert observed.reports(index) == expected[index], (policy_name, index)

    @pytest.mark.parametrize("fast", [True, False], ids=["fast", "oracle"])
    def test_empty_batch_is_an_empty_grid(self, fast):
        with use_fast_path(fast):
            grid = get_policy("ReGate-Full").grid_evaluate([], PARAMETER_GRID)
        shape = (len(PARAMETER_GRID), 0)
        assert (grid.n_points, grid.n_profiles) == shape
        assert grid.peak_power_w.shape == shape
        for component in Component.all():
            assert grid.static_energy_j[component].shape == shape
        assert grid.reports(0) == []


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

    def test_batch_pass_packs_once_and_shares_memos(self, monkeypatch):
        """A cold 5-policy batch over 2 chips x 2 gating points builds one
        chip-major pack and one parameter table, and every policy prices
        on them: ReGate-Base/HW/Full gate the HBM and ICI controllers
        alike, so each chip's pack holds one idle grid for each."""
        from repro.core.config import SimulationConfig
        from repro.experiments.cache import SimulationCache, simulate_cached_cells

        packs: list[ChipMajorPacks] = []
        parameter_tables: list[ParameterTable] = []
        pack = ChipMajorPacks.pack.__func__
        init = ParameterTable.__init__

        def counting_pack(cls, profiles):
            packs.append(pack(cls, profiles))
            return packs[-1]

        def counting_init(self, parameters):
            parameter_tables.append(self)
            init(self, parameters)

        monkeypatch.setattr(ChipMajorPacks, "pack", classmethod(counting_pack))
        monkeypatch.setattr(ParameterTable, "__init__", counting_init)
        items = [
            (workload, SimulationConfig(chip=chip, gating_parameters=parameters))
            for chip in ("NPU-C", "NPU-D")
            for workload in FLEET_WORKLOADS[:2]
            for parameters in PARAMETER_GRID[:2]
        ]
        with use_fast_path(True):
            _, cells = simulate_cached_cells(items, SimulationCache())
        assert len(packs) == 1, "the batch must be packed once"
        assert len(parameter_tables) == 1, "the batch must build one ParameterTable"
        (batch,) = packs
        assert [p.chip.name for p in batch.packs] == ["NPU-C", "NPU-D"]
        assert all(len(row) == len(list_policies()) for row in cells)
        for chip_pack in batch.packs:
            for component in (Component.HBM, Component.ICI):
                idle_grids = [
                    key
                    for key in chip_pack.memo
                    if isinstance(key, tuple) and key[:2] == ("idle_grid", component)
                ]
                assert len(idle_grids) == 1, (chip_pack.chip.name, component)

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
