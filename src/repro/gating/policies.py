"""Power-gating policies: NoPG, ReGate-Base, ReGate-HW, ReGate-Full, Ideal.

Each policy takes the activity profile produced by the performance
simulator and accounts the static energy of every component, the dynamic
energy of power-state transitions, and the exposed wake-up delays:

* **NoPG** — every component leaks at full static power all the time.
* **ReGate-Base** — conventional hardware idle detection at component
  granularity: whole SAs, VUs, the HBM and ICI controllers are gated
  after an idle-detection window (1/3 of the break-even time); unused
  SRAM can only be put to sleep.
* **ReGate-HW** — adds ReGate's PE-granularity spatial SA gating and the
  cheap (1-cycle) PE wake-up that the diagonal ``PE_on`` wavefront
  provides.
* **ReGate-Full** — adds software-managed gating: the compiler gates VUs
  on exact idle intervals (no detection window, no missed wake-ups) and
  powers unused SRAM capacity fully off.
* **Ideal** — a roofline with zero leakage when gated, zero transition
  cost and perfect idleness knowledge.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from repro.gating.bet import (
    DEFAULT_PARAMETERS,
    GatingParameters,
    IdleCoefficientColumns,
    IdleGatingCoefficients,
    ParameterTable,
    grid_idle_coefficient_columns,
    idle_gating_coefficients,
    parameters_token,
)
from repro.gating.report import EnergyReport, PolicyName
from repro.gating.sa_gating import SpatialGatingModel
from repro.gating.sram_gating import SramGatingModel
from repro.hardware.components import Component
from repro.hardware.power import ChipPowerModel
from repro.simulator import columnar
from repro.simulator.columnar import ProfileTable, seq_sum
from repro.simulator.engine import GapProfile, WorkloadProfile

# The hardware VU idle detector waits at least 8 cycles to avoid blocking
# the SA pipeline (§4.1 of the paper).
MIN_VU_DETECTION_WINDOW_CYCLES = 8.0


@dataclass
class _IdleAccounting:
    """Static energy and bookkeeping for one component's idle time."""

    energy_j: float = 0.0
    gated_gaps: float = 0.0
    exposed_wake_cycles: float = 0.0


def _idle_gap_values(
    coeff: "IdleGatingCoefficients | IdleCoefficientColumns",
    static_power_w: float,
    gap_s: np.ndarray,
    num_gaps: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-gap ``(energy_j, gated-mask)`` arrays of the idle accounting.

    The single definition of the gated-gap energy expressions, shared by
    the per-profile columnar path and the grid path so they can never
    drift apart; only the reduction differs between them.  ``coeff`` is
    either one scalar
    :class:`IdleGatingCoefficients` or, on the grid path, an
    :class:`~repro.gating.bet.IdleCoefficientColumns` whose
    ``(n_points, 1)`` columns broadcast against the per-operator axis —
    elementwise, every point sees exactly the scalar expressions.
    """
    valid = (gap_s > 0.0) & (num_gaps > 0.0)
    below = gap_s <= coeff.threshold_s
    ungated_j = static_power_w * (gap_s * num_gaps)
    gated_s = gap_s - coeff.window_s
    per_gap = (
        static_power_w * coeff.window_s
        + static_power_w * coeff.off_leakage * gated_s
        + coeff.transition_j
    )
    energy_values = np.where(
        valid, np.where(below, ungated_j, per_gap * num_gaps), 0.0
    )
    return energy_values, valid & ~below


def _grid_view(values: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """``values`` as a ``(n_points, n_profiles)`` grid array, copy-free.

    Arrays already of the grid shape pass through, and a one-point grid
    takes a read-only ``(1, n)`` reshape; only a true broadcast pays for
    ``np.broadcast_to``, whose fixed cost dominates small grids.
    """
    if values.shape == shape:
        return values
    if shape[0] == 1:
        view = values.reshape(shape)
        view.flags.writeable = False
        return view
    return np.broadcast_to(values, shape)


def _safe_latency(store) -> np.ndarray:
    """Memoized division-safe latency array of a table/pack ``store``."""
    safe = store.memo.get("safe_latency")
    if safe is None:
        safe = np.where(store.latency_s > 0.0, store.latency_s, 1.0)
        store.memo["safe_latency"] = safe
    return safe


def _peak_dynamic_w(store) -> np.ndarray:
    """Memoized per-operator dynamic power array (peak-power accounting)."""
    dynamic_w = store.memo.get("peak_dynamic_w")
    if dynamic_w is None:
        dynamic = store.dynamic
        # Mirrors sum(op.dynamic_energy_j.values()) over the
        # insertion order SA, VU, SRAM, HBM, ICI, OTHER.
        dynamic_j = (
            dynamic[Component.SA]
            + dynamic[Component.VU]
            + dynamic[Component.SRAM]
            + dynamic[Component.HBM]
            + dynamic[Component.ICI]
            + dynamic[Component.OTHER]
        )
        dynamic_w = dynamic_j / _safe_latency(store)
        store.memo["peak_dynamic_w"] = dynamic_w
    return dynamic_w


def _peak_active_fraction(store, component: Component) -> np.ndarray:
    """Memoized per-operator active-time fraction of one component."""
    key = ("active_fraction", component)
    fraction = store.memo.get(key)
    if fraction is None:
        fraction = np.minimum(1.0, store.active[component] / _safe_latency(store))
        store.memo[key] = fraction
    return fraction


class PackedProfiles:
    """A ragged batch of profile tables packed into offset-indexed arrays.

    The storage of the grid kernel: ``n`` profiles of one chip are
    concatenated into single per-operator arrays so a policy can
    evaluate all of them with single NumPy calls
    (:meth:`PowerGatingPolicy.grid_evaluate`).  Derived arrays that do
    not depend on the policy (gap tables, active fractions, leakage
    factor arrays) are memoized on the pack and shared by every policy
    evaluated on it — pack once, evaluate many.

    Per-profile reductions slice the packed arrays at the segment
    offsets and reduce each segment with :func:`seq_sum`, keeping the
    strictly sequential accumulation the bit-exactness contract
    requires (``np.add.reduceat`` rounds differently).
    """

    def __init__(self, profiles: list[WorkloadProfile], tables: list[ProfileTable]):
        chips = {id(profile.chip) for profile in profiles}
        if len(chips) != 1:
            raise ValueError("PackedProfiles requires profiles of a single chip")
        self.profiles = profiles
        self.tables = tables
        self.chip = profiles[0].chip
        lengths = [table.n_ops for table in tables]
        bounds = np.zeros(len(tables) + 1, dtype=np.int64)
        np.cumsum(lengths, out=bounds[1:])
        self.starts = bounds[:-1]
        self.ends = bounds[1:]
        self.n_profiles = len(tables)
        self.n_ops = np.asarray(lengths, dtype=np.float64)
        self.count = np.concatenate([t.count for t in tables])
        self.latency_s = np.concatenate([t.latency_s for t in tables])
        self.sa_mapped = np.concatenate([t.sa_mapped for t in tables])
        self.active = {
            c: np.concatenate([t.active[c] for t in tables]) for c in Component.all()
        }
        self.dynamic = {
            c: np.concatenate([t.dynamic[c] for t in tables]) for c in Component.all()
        }
        self.sram_demand_bytes = np.concatenate(
            [t.sram_demand_bytes for t in tables]
        )
        self.num_weight_tiles = np.concatenate([t.num_weight_tiles for t in tables])
        self.num_output_tiles = np.concatenate([t.num_output_tiles for t in tables])
        self.num_dma_bursts = np.concatenate([t.num_dma_bursts for t in tables])
        self.dims_m = np.concatenate([t.dims_m for t in tables])
        self.dims_k = np.concatenate([t.dims_k for t in tables])
        self.dims_n = np.concatenate([t.dims_n for t in tables])
        self.has_dims = np.concatenate([t.has_dims for t in tables])
        #: Cross-policy scratchpad (packed analogue of ``ProfileTable.memo``).
        self.memo: dict = {}

    @classmethod
    def pack(cls, profiles: list[WorkloadProfile]) -> "PackedProfiles | None":
        """Pack profiles for batch evaluation, or ``None`` off the fast path.

        Returns ``None`` when the columnar fast path is disabled or any
        profile cannot produce a table (duck-typed stand-ins) — callers
        fall back to per-profile evaluation.
        """
        if not columnar.fast_path_enabled():
            return None
        tables = [profile._fast_table() for profile in profiles]
        if any(table is None for table in tables):
            return None
        return cls(list(profiles), tables)

    # ------------------------------------------------------------------ #
    def seg_sums(self, values: np.ndarray) -> np.ndarray:
        """Per-profile strictly-sequential sums of a packed array."""
        out = np.empty(self.n_profiles, dtype=np.float64)
        starts = self.starts.tolist()
        ends = self.ends.tolist()
        for index in range(self.n_profiles):
            out[index] = seq_sum(values[starts[index]:ends[index]])
        return out

    def seg_sums_matrix(self, stacked: np.ndarray) -> np.ndarray:
        """Per-profile sequential sums of every row of a ``(R, n_ops)`` matrix.

        Each segment accumulates with a single ``cumsum(axis=1)`` —
        row-wise sequential, so every row reduces bit-identically to
        :func:`seq_sum`, with one NumPy call per profile instead of one
        per (row, profile).  The grid kernel feeds it ``(n_points *
        quantities, n_ops)`` matrices so a whole policy × gating-parameter
        grid reduces in one pass (the parameter axis rides along as
        extra rows).
        """
        out = np.empty((stacked.shape[0], self.n_profiles), dtype=np.float64)
        starts = self.starts.tolist()
        ends = self.ends.tolist()
        for index in range(self.n_profiles):
            start, end = starts[index], ends[index]
            if end > start:
                out[:, index] = stacked[:, start:end].cumsum(axis=1)[:, -1]
            else:
                out[:, index] = 0.0
        return out

    def seg_max_matrix(self, values: np.ndarray) -> np.ndarray:
        """Per-profile row-wise max of a ``(R, n_ops)`` matrix (0 floor)."""
        out = np.empty((values.shape[0], self.n_profiles), dtype=np.float64)
        starts = self.starts.tolist()
        ends = self.ends.tolist()
        for index in range(self.n_profiles):
            out[:, index] = np.max(
                values[:, starts[index]:ends[index]], axis=1, initial=0.0
            )
        return out

    def base_totals(self) -> None:
        """Fill the policy-independent reduction memos in one fused pass.

        Busy time, per-component active seconds and dynamic energies of
        every profile reduce together (11 rows, one pass); all five
        policies evaluated on the pack read the same memo entries.
        """
        if "total_time_s" in self.memo:
            return
        components = Component.all()
        active_components = (Component.SA, Component.VU, Component.HBM, Component.ICI)
        rows = (
            (self.weighted_latency(),)
            + tuple(self.weighted_active(c) for c in active_components)
            + tuple(self.dynamic[c] * self.count for c in components)
        )
        totals = self.seg_sums_matrix(np.vstack(rows))
        self.memo["total_time_s"] = totals[0]
        for offset, component in enumerate(active_components):
            self.memo[("active_total", component)] = totals[1 + offset]
        for offset, component in enumerate(components):
            self.memo[("dynamic_total", component)] = totals[5 + offset]
        # Share the reductions with the per-table aggregate caches: the
        # sweep's row assembly reads the same totals per profile, and
        # the fused pass produced bit-identical doubles.
        for index, table in enumerate(self.tables):
            if table._total_time_s is None:
                table._total_time_s = float(totals[0][index])
            for offset, component in enumerate(active_components):
                table._active_totals.setdefault(
                    component, float(totals[1 + offset][index])
                )
            for offset, component in enumerate(components):
                table._dynamic_totals.setdefault(
                    component, float(totals[5 + offset][index])
                )

    # -- packed analogues of the per-table derived arrays ---------------- #
    def weighted_latency(self) -> np.ndarray:
        cached = self.memo.get("weighted_latency")
        if cached is None:
            cached = self.latency_s * self.count
            self.memo["weighted_latency"] = cached
        return cached

    def weighted_active(self, component: Component) -> np.ndarray:
        key = ("weighted_active", component)
        cached = self.memo.get(key)
        if cached is None:
            cached = self.active[component] * self.count
            self.memo[key] = cached
        return cached

    def total_time_s(self) -> np.ndarray:
        """Per-profile busy time (packed ``ProfileTable.total_time_s``)."""
        cached = self.memo.get("total_time_s")
        if cached is None:
            cached = self.seg_sums(self.weighted_latency())
            self.memo["total_time_s"] = cached
        return cached

    def active_total_s(self, component: Component) -> np.ndarray:
        key = ("active_total", component)
        cached = self.memo.get(key)
        if cached is None:
            cached = self.seg_sums(self.weighted_active(component))
            self.memo[key] = cached
        return cached

    def dynamic_total_j(self, component: Component) -> np.ndarray:
        key = ("dynamic_total", component)
        cached = self.memo.get(key)
        if cached is None:
            cached = self.seg_sums(self.dynamic[component] * self.count)
            self.memo[key] = cached
        return cached

    def gap_table(self, component: Component) -> tuple[np.ndarray, np.ndarray]:
        """Packed ``(gap_s, num_gaps_total)`` of one component.

        Elementwise-identical to concatenating each table's
        :meth:`~repro.simulator.columnar.ProfileTable.gap_table` (the
        burst model lives in one shared helper,
        :func:`repro.simulator.columnar.gap_arrays`), and computed once
        per pack for all policies.
        """
        key = ("gap_table", component)
        cached = self.memo.get(key)
        if cached is not None:
            return cached
        family = columnar.gap_arrays(
            component,
            latency=self.latency_s,
            active=self.active[component],
            sa_mapped=self.sa_mapped,
            num_weight_tiles=self.num_weight_tiles,
            num_output_tiles=self.num_output_tiles,
            num_dma_bursts=self.num_dma_bursts,
        )
        if family is None:
            zeros = np.zeros_like(self.latency_s)
            table = (zeros, zeros)
        else:
            gap_s, num_per_invocation = family
            table = (gap_s, num_per_invocation * self.count)
        self.memo[key] = table
        return table


class ChipMajorPacks:
    """A chip-heterogeneous profile batch packed chip-major.

    :class:`PackedProfiles` segments are single-chip (every per-gap
    coefficient is a per-chip scalar); a multi-chip sweep therefore
    packs its profiles *chip-major*: one contiguous
    :class:`PackedProfiles` per distinct chip, in first-appearance
    order, plus the index map back to the caller's profile order.  The
    whole batch is packed once per sweep and shared by every policy and
    every gating-parameter point evaluated on it.
    """

    def __init__(
        self,
        profiles: list[WorkloadProfile],
        packs: list[PackedProfiles],
        index_map: list[tuple[int, int]],
    ):
        self.profiles = profiles
        self.packs = packs
        #: Original profile index -> (pack index, position within pack).
        self.index_map = index_map
        self.n_profiles = len(profiles)
        #: Per pack, the original indices of its profiles (pack order).
        self.pack_indices: list[list[int]] = [[] for _ in packs]
        for original, (pack_index, position) in enumerate(index_map):
            columns = self.pack_indices[pack_index]
            assert position == len(columns)
            columns.append(original)

    @property
    def chips(self) -> list:
        """Distinct chips, in first-appearance (chip-major) order."""
        return [pack.chip for pack in self.packs]

    @staticmethod
    def partition_chip_major(chip_keys) -> list[list[int]]:
        """Group positions by chip key, in first-appearance (chip-major) order.

        The single definition of the chip-major partitioning rule: both
        :meth:`pack` (grouping live profiles by chip identity) and the
        shard planner (:class:`~repro.experiments.sharding.ShardPlan`,
        grouping sweep points by chip *name* so the partition is stable
        across processes) chunk work along these groups, which is what
        keeps every :class:`PackedProfiles` pack — and every shard —
        as close to single-chip as the input allows.
        """
        groups: dict = {}
        for index, key in enumerate(chip_keys):
            groups.setdefault(key, []).append(index)
        return list(groups.values())

    @classmethod
    def pack(cls, profiles: list[WorkloadProfile]) -> "ChipMajorPacks | None":
        """Pack a (possibly multi-chip) batch, or ``None`` off the fast path."""
        profiles = list(profiles)
        if not columnar.fast_path_enabled() or not profiles:
            return None
        groups = cls.partition_chip_major(
            [id(profile.chip) for profile in profiles]
        )
        packs: list[PackedProfiles] = []
        index_map: list[tuple[int, int] | None] = [None] * len(profiles)
        for pack_index, indices in enumerate(groups):
            packed = PackedProfiles.pack([profiles[i] for i in indices])
            if packed is None:
                return None
            packs.append(packed)
            for position, original in enumerate(indices):
                index_map[original] = (pack_index, position)
        return cls(profiles, packs, index_map)


#: Static-energy insertion order of one report (mirrors ``evaluate``).
#: Shared single definition: the runner's vectorized
#: ``sum(static_energy_j.values())`` replication imports this order —
#: reordering it here reorders the bit-exact accumulation everywhere.
STATIC_ENERGY_ORDER = (
    Component.OTHER,
    Component.SA,
    Component.VU,
    Component.HBM,
    Component.ICI,
    Component.SRAM,
)
#: Gating-event insertion order of one report (mirrors ``evaluate``).
GATING_EVENT_ORDER = (
    Component.SA,
    Component.VU,
    Component.HBM,
    Component.ICI,
    Component.SRAM,
)


class GridEnergyReports:
    """Array-native energy reports of one policy over a points × profiles grid.

    The output of :meth:`PowerGatingPolicy.grid_evaluate`: every report
    quantity is one ``(n_points, n_profiles)`` ``float64`` array (the
    gating-parameter axis first), so a sweep can assemble its result
    columns without materializing per-report dictionaries.
    :meth:`report` materializes a single
    :class:`~repro.gating.report.EnergyReport` — bit-identical to what
    per-profile :meth:`~PowerGatingPolicy.evaluate` returns at that
    point — for consumers of the object API (e.g. the report cache).
    """

    def __init__(
        self,
        policy: PolicyName,
        *,
        baseline_time_s: np.ndarray,
        overhead_time_s: np.ndarray,
        static_energy_j: dict[Component, np.ndarray],
        dynamic_energy_j: dict[Component, np.ndarray],
        gating_events: dict[Component, np.ndarray],
        peak_power_w: np.ndarray,
    ):
        self.policy = policy
        self.baseline_time_s = baseline_time_s
        self.overhead_time_s = overhead_time_s
        self.static_energy_j = static_energy_j
        self.dynamic_energy_j = dynamic_energy_j
        self.gating_events = gating_events
        self.peak_power_w = peak_power_w
        self.n_points, self.n_profiles = overhead_time_s.shape
        # Oracle-built reports (fallback path) returned verbatim.
        self._reports: list[list[EnergyReport]] | None = None
        # Per point, the row's cells as Python floats: one ``tolist()``
        # per array instead of a numpy scalar read per report field.
        self._rows: dict[int, tuple] = {}

    # ------------------------------------------------------------------ #
    def _row(self, point: int) -> tuple:
        row = self._rows.get(point)
        if row is None:
            row = (
                self.baseline_time_s[point].tolist(),
                self.overhead_time_s[point].tolist(),
                [self.dynamic_energy_j[c][point].tolist() for c in Component.all()],
                [self.static_energy_j[c][point].tolist() for c in STATIC_ENERGY_ORDER],
                [self.gating_events[c][point].tolist() for c in GATING_EVENT_ORDER],
                self.peak_power_w[point].tolist(),
            )
            self._rows[point] = row
        return row

    def report(self, point: int, profile: int) -> EnergyReport:
        """Materialize the report of one (parameter point, profile) cell."""
        if self._reports is not None:
            return self._reports[point][profile]
        baseline, overhead, dynamic, static, events, peak = self._row(point)
        report = EnergyReport(
            policy=self.policy,
            baseline_time_s=baseline[profile],
            overhead_time_s=overhead[profile],
        )
        for component, values in zip(Component.all(), dynamic):
            report.dynamic_energy_j[component] = values[profile]
        for component, values in zip(STATIC_ENERGY_ORDER, static):
            report.static_energy_j[component] = values[profile]
        for component, values in zip(GATING_EVENT_ORDER, events):
            report.gating_events[component] = values[profile]
        report.peak_power_w = peak[profile]
        return report

    def reports(self, point: int) -> list[EnergyReport]:
        """All profile reports of one parameter point (oracle order)."""
        if self._reports is not None:
            return list(self._reports[point])
        return [self.report(point, profile) for profile in range(self.n_profiles)]

    @classmethod
    def from_reports(
        cls, policy: PolicyName, reports_per_point: list[list[EnergyReport]]
    ) -> "GridEnergyReports":
        """Wrap oracle-built per-point report lists in the grid API.

        :meth:`report` hands back the original objects; the column
        arrays are gathered from their scalars, so array-native
        consumers see the same values either way.
        """

        def gather(read) -> np.ndarray:
            return np.asarray(
                [[read(report) for report in row] for row in reports_per_point],
                dtype=np.float64,
            )

        def per_component(field: str) -> dict[Component, np.ndarray]:
            return {
                c: gather(lambda report: getattr(report, field).get(c, 0.0))
                for c in Component.all()
            }

        grid = cls(
            policy,
            baseline_time_s=gather(lambda report: report.baseline_time_s),
            overhead_time_s=gather(lambda report: report.overhead_time_s),
            static_energy_j=per_component("static_energy_j"),
            dynamic_energy_j=per_component("dynamic_energy_j"),
            gating_events=per_component("gating_events"),
            peak_power_w=gather(lambda report: report.peak_power_w),
        )
        grid._reports = [list(row) for row in reports_per_point]
        return grid


class PowerGatingPolicy:
    """Base class: shared accounting helpers for all policies."""

    name: PolicyName = PolicyName.NOPG
    #: Whether the SA is gated at PE granularity during active time.
    spatial_sa_gating: bool = False
    #: Whether VU / SRAM power gating is driven by the compiler.
    software_managed: bool = False
    #: Whether any power gating happens at all.
    gating_enabled: bool = False

    def __init__(self, parameters: GatingParameters | None = None):
        self.parameters = parameters or DEFAULT_PARAMETERS

    def _fast_kernels(self) -> bool:
        """Whether the columnar and grid kernels may price this policy.

        Only the five stock classes qualify: their hooks are mirrored
        term by term by the vectorized kernels.  Any subclass is priced
        by the object path, per profile and per grid point, so whatever
        it overrides applies everywhere.
        """
        return type(self) in _STOCK_CLASSES

    # ------------------------------------------------------------------ #
    # Idle-period accounting
    # ------------------------------------------------------------------ #
    def _timing_variant(self, component: Component) -> str | None:
        if component is Component.SA:
            return "sa_pe" if self.spatial_sa_gating else "sa_full"
        return None

    def _detection_window_s(self, component: Component, chip) -> float:
        window = self.parameters.detection_window_cycles(
            component, self._timing_variant(component)
        )
        if component is Component.VU:
            window = max(window, MIN_VU_DETECTION_WINDOW_CYCLES)
        return chip.cycles_to_seconds(window)

    def _uses_software_gating(self, component: Component) -> bool:
        return self.software_managed and component is Component.VU

    def _idle_coefficients(
        self, component: Component, static_power_w: float, chip
    ) -> IdleGatingCoefficients:
        """Per-gap gating coefficients shared by both accounting paths.

        The detection window is resolved through
        :meth:`_detection_window_s`, so a subclass overriding that hook
        changes the (object-path) accounting it is priced by.
        """
        software = self._uses_software_gating(component)
        return idle_gating_coefficients(
            self.parameters,
            component,
            self._timing_variant(component),
            static_power_w,
            chip,
            software=software,
            window_s=None if software else self._detection_window_s(component, chip),
        )

    def _idle_energy(
        self,
        component: Component,
        gaps: list[GapProfile],
        static_power_w: float,
        chip,
    ) -> _IdleAccounting:
        """Static energy of a component's idle time (object path)."""
        accounting = _IdleAccounting()
        if not self.gating_enabled:
            accounting.energy_j = static_power_w * sum(g.total_idle_s for g in gaps)
            return accounting

        coeff = self._idle_coefficients(component, static_power_w, chip)
        for gap in gaps:
            if gap.gap_s <= 0 or gap.num_gaps <= 0:
                continue
            if gap.gap_s <= coeff.threshold_s:
                accounting.energy_j += static_power_w * gap.total_idle_s
                continue
            gated_s = gap.gap_s - coeff.window_s
            per_gap = (
                static_power_w * coeff.window_s
                + static_power_w * coeff.off_leakage * gated_s
                + coeff.transition_j
            )
            accounting.energy_j += per_gap * gap.num_gaps
            accounting.gated_gaps += gap.num_gaps
            if not coeff.software:
                accounting.exposed_wake_cycles += coeff.delay_cycles * gap.num_gaps
        return accounting

    def _idle_energy_columnar(
        self, component: Component, table: ProfileTable, static_power_w: float, chip
    ) -> _IdleAccounting:
        """Vectorized :meth:`_idle_energy` over a profile's gap table.

        The arrays are zero-padded per operator; a zero gap contributes
        an exact ``+0.0`` to every sequential reduction, so the result
        is bit-identical to the object path's filtered gap list.  The
        result is memoized on the table keyed by the full coefficient
        set — policies with identical gating behavior for a component
        (e.g. ReGate-Base/HW/Full on the HBM controller) share one
        computation.
        """
        if not self.gating_enabled:
            key = ("total_idle", component)
            total = table.memo.get(key)
            if total is None:
                gap_s, _, num_gaps = table.gap_table(component)
                total = seq_sum(gap_s * num_gaps)
                table.memo[key] = total
            return _IdleAccounting(energy_j=static_power_w * total)

        # Every input of the accounting; a profile table belongs to one
        # chip, so the chip is implied.
        memo_key = (
            "idle",
            component,
            static_power_w,
            self._timing_variant(component),
            self._uses_software_gating(component),
            parameters_token(self.parameters),
        )
        cached = table.memo.get(memo_key)
        if cached is not None:
            return _IdleAccounting(*cached)

        gap_s, _, num_gaps = table.gap_table(component)
        coeff = self._idle_coefficients(component, static_power_w, chip)
        energy_values, gated_mask = _idle_gap_values(
            coeff, static_power_w, gap_s, num_gaps
        )
        accounting = _IdleAccounting(
            energy_j=seq_sum(energy_values),
            gated_gaps=seq_sum(np.where(gated_mask, num_gaps, 0.0)),
        )
        if not coeff.software:
            accounting.exposed_wake_cycles = seq_sum(
                np.where(gated_mask, coeff.delay_cycles * num_gaps, 0.0)
            )
        table.memo[memo_key] = (
            accounting.energy_j,
            accounting.gated_gaps,
            accounting.exposed_wake_cycles,
        )
        return accounting

    # ------------------------------------------------------------------ #
    # Active-period accounting
    # ------------------------------------------------------------------ #
    def _sa_active_energy(
        self, profile: WorkloadProfile, static_power_w: float
    ) -> float:
        """SA leakage while the SA is actively computing."""
        if not self.spatial_sa_gating:
            return static_power_w * profile.active_s(Component.SA)
        model = SpatialGatingModel(profile.chip.sa_width, self.parameters)
        energy = 0.0
        for op_profile in profile.profiles:
            active = op_profile.active_s(Component.SA) * op_profile.count
            if active <= 0:
                continue
            factor = model.static_power_factor(op_profile.operator.dims)
            energy += static_power_w * active * factor
        return energy

    def _sa_active_energy_columnar(
        self, profile: WorkloadProfile, table: ProfileTable, static_power_w: float
    ) -> float:
        """Vectorized :meth:`_sa_active_energy` over the profile table."""
        if not self.spatial_sa_gating:
            return static_power_w * table.active_total_s(Component.SA)
        memo_key = (
            "sa_active_energy",
            static_power_w,
            self.parameters.leakage.logic_off,
            self.parameters.pe_weight_register_share,
        )
        cached = table.memo.get(memo_key)
        if cached is not None:
            return cached
        active = table.weighted_active(Component.SA)
        factor = self._spatial_factor_array(profile.chip, table)
        energy = seq_sum(
            np.where(active > 0.0, static_power_w * active * factor, 0.0)
        )
        table.memo[memo_key] = energy
        return energy

    def _spatial_factor_array(self, chip, table: ProfileTable) -> np.ndarray:
        """Memoized per-operator spatial static-power factor array."""
        memo_key = (
            "spatial_factor",
            self.parameters.leakage.logic_off,
            self.parameters.pe_weight_register_share,
        )
        factor = table.memo.get(memo_key)
        if factor is None:
            model = SpatialGatingModel(chip.sa_width, self.parameters)
            factor = model.static_power_factor_array(
                table.dims_m, table.dims_k, table.dims_n, table.has_dims
            )
            table.memo[memo_key] = factor
        return factor

    def _sram_energy(self, profile: WorkloadProfile, static_power_w: float) -> float:
        """SRAM leakage: used capacity stays on, unused is slept/gated."""
        if not self.gating_enabled:
            return static_power_w * profile.total_time_s
        model = SramGatingModel(profile.chip, self.parameters)
        energy = 0.0
        for op_profile in profile.profiles:
            duration = op_profile.latency_s * op_profile.count
            factor = model.leakage_factor_for_demand(
                op_profile.sram_demand_bytes, software_managed=self.software_managed
            )
            energy += static_power_w * duration * factor
        return energy

    def _sram_energy_columnar(
        self, profile: WorkloadProfile, table: ProfileTable, static_power_w: float
    ) -> float:
        """Vectorized :meth:`_sram_energy` over the profile table."""
        if not self.gating_enabled:
            return static_power_w * table.total_time_s()
        leak = (
            self.parameters.leakage.sram_off
            if self.software_managed
            else self.parameters.sleep_leakage()
        )
        memo_key = ("sram_energy", static_power_w, self.software_managed, leak)
        cached = table.memo.get(memo_key)
        if cached is not None:
            return cached
        duration = table.weighted_latency()
        factor = self._sram_factor_array(profile.chip, table)
        energy = seq_sum(static_power_w * duration * factor)
        table.memo[memo_key] = energy
        return energy

    def _sram_factor_array(self, chip, table: ProfileTable) -> np.ndarray:
        """Memoized per-operator SRAM leakage-factor array."""
        leak = (
            self.parameters.leakage.sram_off
            if self.software_managed
            else self.parameters.sleep_leakage()
        )
        memo_key = ("sram_factor", self.software_managed, leak)
        factor = table.memo.get(memo_key)
        if factor is None:
            model = SramGatingModel(chip, self.parameters)
            factor = model.leakage_factor_for_demand_array(
                table.sram_demand_bytes, self.software_managed
            )
            table.memo[memo_key] = factor
        return factor

    # ------------------------------------------------------------------ #
    def evaluate(
        self, profile: WorkloadProfile, power_model: ChipPowerModel | None = None
    ) -> EnergyReport:
        """Compute the full energy report of this policy for one profile.

        The one-profile kernel.  A stock policy (one of the five classes
        :func:`get_policy` returns) runs its per-gap / per-operator
        accounting on the columnar fast path, vectorized over the
        profile's memoized
        :class:`~repro.simulator.columnar.ProfileTable`.  Every other
        subclass, and every policy while the fast path is disabled, runs
        the object-path loops — the readable oracle — so a subclass's
        overridden hooks always apply.  Both paths produce bit-identical
        reports for the stock policies.
        """
        power_model = power_model or ChipPowerModel.for_chip(profile.chip)
        chip = profile.chip
        table = profile._fast_table() if self._fast_kernels() else None
        fast = table is not None

        def idle_accounting(component: Component) -> _IdleAccounting:
            if fast:
                return self._idle_energy_columnar(
                    component, table, static[component], chip
                )
            return self._idle_energy(
                component, profile.gap_profiles(component), static[component], chip
            )

        total_time_s = table.total_time_s() if fast else profile.total_time_s

        def active_s(component: Component) -> float:
            if fast:
                return table.active_total_s(component)
            return profile.active_s(component)

        report = EnergyReport(
            policy=self.name,
            baseline_time_s=total_time_s,
            overhead_time_s=0.0,
        )
        exposed_cycles = 0.0

        for component in Component.all():
            report.dynamic_energy_j[component] = (
                table.dynamic_total_j(component)
                if fast
                else profile.dynamic_energy_j(component)
            )

        static = power_model.static_power_by_component()

        # Never-gated logic leaks for the whole execution.
        report.static_energy_j[Component.OTHER] = (
            static[Component.OTHER] * total_time_s
        )

        # Systolic arrays: active-time leakage (possibly spatially gated)
        # plus idle-time leakage under the temporal gating scheme.
        sa_idle = idle_accounting(Component.SA)
        sa_active_j = (
            self._sa_active_energy_columnar(profile, table, static[Component.SA])
            if fast
            else self._sa_active_energy(profile, static[Component.SA])
        )
        report.static_energy_j[Component.SA] = sa_active_j + sa_idle.energy_j
        report.gating_events[Component.SA] = sa_idle.gated_gaps
        exposed_cycles += sa_idle.exposed_wake_cycles

        # Vector units.
        vu_idle = idle_accounting(Component.VU)
        report.static_energy_j[Component.VU] = (
            static[Component.VU] * active_s(Component.VU) + vu_idle.energy_j
        )
        report.gating_events[Component.VU] = vu_idle.gated_gaps
        exposed_cycles += vu_idle.exposed_wake_cycles

        # HBM and ICI controllers: hardware idle detection in every ReGate
        # variant; their wake-up delay is amortized by the DMA latency, so
        # it does not show up as a performance overhead.
        for component in (Component.HBM, Component.ICI):
            idle = idle_accounting(component)
            report.static_energy_j[component] = (
                static[component] * active_s(component) + idle.energy_j
            )
            report.gating_events[component] = idle.gated_gaps

        # SRAM capacity gating.
        report.static_energy_j[Component.SRAM] = (
            self._sram_energy_columnar(profile, table, static[Component.SRAM])
            if fast
            else self._sram_energy(profile, static[Component.SRAM])
        )
        report.gating_events[Component.SRAM] = float(
            table.n_ops if fast else len(profile.profiles)
        )

        report.overhead_time_s = chip.cycles_to_seconds(exposed_cycles)
        # The exposed wake-up delays keep the whole chip powered a little
        # longer; charge that time at the un-gated static power.
        if report.overhead_time_s > 0:
            total_static_power = sum(static.values())
            extra = total_static_power * report.overhead_time_s
            report.static_energy_j[Component.OTHER] += extra

        report.peak_power_w = (
            self._peak_power_columnar(profile, table, power_model)
            if fast
            else self._peak_power(profile, power_model)
        )
        return report

    # ------------------------------------------------------------------ #
    def _peak_power(
        self, profile: WorkloadProfile, power_model: ChipPowerModel
    ) -> float:
        """Average power of the most power-hungry operator (Figure 18)."""
        sram_model = SramGatingModel(profile.chip, self.parameters)
        spatial_model = SpatialGatingModel(profile.chip.sa_width, self.parameters)
        off_leak = self.parameters.leakage.logic_off
        peak = 0.0
        for op_profile in profile.profiles:
            latency = op_profile.latency_s
            if latency <= 0:
                continue
            dynamic_w = sum(op_profile.dynamic_energy_j.values()) / latency
            static_w = 0.0
            for component in Component.all():
                base = power_model.static_power_w(component)
                active_fraction = min(1.0, op_profile.active_s(component) / latency)
                if not self.gating_enabled:
                    static_w += base
                    continue
                if component is Component.OTHER:
                    static_w += base
                elif component is Component.SRAM:
                    static_w += base * sram_model.leakage_factor_for_demand(
                        op_profile.sram_demand_bytes, self.software_managed
                    )
                elif component is Component.SA and self.spatial_sa_gating:
                    factor = spatial_model.static_power_factor(op_profile.operator.dims)
                    static_w += base * (
                        active_fraction * factor + (1 - active_fraction) * off_leak
                    )
                else:
                    idle_leak = 0.0 if self.name is PolicyName.IDEAL else off_leak
                    static_w += base * (
                        active_fraction + (1 - active_fraction) * idle_leak
                    )
            peak = max(peak, dynamic_w + static_w)
        return peak

    def _peak_power_columnar(
        self, profile: WorkloadProfile, table: ProfileTable, power_model: ChipPowerModel
    ) -> float:
        """Vectorized :meth:`_peak_power` over the profile table.

        Intermediates are cached on the table and shared by every policy
        whose accounting for a component is identical (e.g.
        ReGate-Base/HW/Full on the HBM controller).
        """
        latency = table.latency_s
        mask = latency > 0.0
        if not bool(mask.any()):
            return 0.0
        chip = profile.chip
        off_leak = self.parameters.leakage.logic_off
        dynamic_w = _peak_dynamic_w(table)
        token = parameters_token(self.parameters)

        def contribution(component: Component) -> np.ndarray | float:
            base = power_model.static_power_w(component)
            if not self.gating_enabled or component is Component.OTHER:
                return base
            if component is Component.SRAM:
                key = ("peak_sram", base, self.software_managed, token)
                value = table.memo.get(key)
                if value is None:
                    value = base * self._sram_factor_array(chip, table)
                    table.memo[key] = value
                return value
            if component is Component.SA and self.spatial_sa_gating:
                key = ("peak_sa_spatial", base, token)
                value = table.memo.get(key)
                if value is None:
                    factor = self._spatial_factor_array(chip, table)
                    fraction = _peak_active_fraction(table, component)
                    value = base * (
                        fraction * factor + (1 - fraction) * off_leak
                    )
                    table.memo[key] = value
                return value
            idle_leak = 0.0 if self.name is PolicyName.IDEAL else off_leak
            key = ("peak_temporal", component, base, idle_leak, token)
            value = table.memo.get(key)
            if value is None:
                fraction = _peak_active_fraction(table, component)
                value = base * (fraction + (1 - fraction) * idle_leak)
                table.memo[key] = value
            return value

        static_w = np.zeros_like(latency)
        for component in Component.all():
            static_w = static_w + contribution(component)
        values = np.where(mask, dynamic_w + static_w, 0.0)
        return float(np.max(values, initial=0.0))

    # ------------------------------------------------------------------ #
    # Multi-profile evaluation (profiles × gating-parameter points)
    # ------------------------------------------------------------------ #
    def batch_evaluate(
        self,
        profiles: "list[WorkloadProfile] | PackedProfiles | ChipMajorPacks",
        power_model: ChipPowerModel | None = None,
    ) -> list[EnergyReport]:
        """Evaluate this policy across a batch of profiles at once.

        Bit-identical to ``[self.evaluate(p, power_model) for p in
        profiles]``: the batch is priced as a one-point
        :meth:`grid_evaluate` at ``self.parameters``, which accepts a
        pre-built :class:`PackedProfiles` or :class:`ChipMajorPacks` so
        several policies can share one packing.
        """
        return self.grid_evaluate(profiles, [self.parameters], power_model).reports(0)

    def grid_evaluate(
        self,
        profiles: "list[WorkloadProfile] | PackedProfiles | ChipMajorPacks",
        parameter_grid: "ParameterTable | list[GatingParameters]",
        power_model: ChipPowerModel | None = None,
    ) -> GridEnergyReports:
        """Evaluate this policy over all profiles × all parameter points.

        The multi-profile kernel: one call prices a whole (profile batch
        × gating-parameter grid) in a handful of vectorized NumPy
        operations, with the parameter axis riding along as extra rows
        of the packed segment reductions.  Bit-identical to the
        per-profile oracle ::

            [[type(self)(parameters).evaluate(profile, power_model)
              for profile in profiles]
             for parameters in parameter_grid]

        ``self.parameters`` never influences the result — every point's
        coefficients come from the grid.  Accepts a pre-built
        :class:`PackedProfiles` (single chip), a :class:`ChipMajorPacks`
        (chip-heterogeneous batch) or a plain profile list, so one
        packing can be shared by every policy of a sweep.

        Only the stock policies run the kernel (see
        :meth:`_fast_kernels`); other subclasses, and plain lists while
        the fast path is off, are priced by :meth:`evaluate` per profile
        and per point, on shallow copies of ``self`` with
        ``parameters`` swapped (so a custom constructor signature can
        never mis-bind a grid point's parameters).
        """
        ptable = ParameterTable.of(parameter_grid)
        fast = self._fast_kernels()
        batch = profiles
        if not isinstance(batch, (PackedProfiles, ChipMajorPacks)):
            profiles = list(profiles)
            batch = ChipMajorPacks.pack(profiles) if fast else None
        if batch is None or not fast:
            listed = profiles if isinstance(profiles, list) else profiles.profiles
            per_point = [
                [policy.evaluate(profile, power_model) for profile in listed]
                for policy in map(self._policy_for_point, ptable.parameters)
            ]
            return GridEnergyReports.from_reports(self.name, per_point)
        packs = [batch] if isinstance(batch, PackedProfiles) else batch.packs
        parts = [
            self._evaluate_grid_pack(
                pack,
                ptable,
                power_model or ChipPowerModel.for_chip(pack.chip),
            )
            for pack in packs
        ]
        if len(parts) == 1:
            return parts[0]
        return self._merge_grid_parts(parts, batch.pack_indices, ptable)

    def _policy_for_point(self, parameters: GatingParameters) -> "PowerGatingPolicy":
        """This policy re-parameterized for one grid point.

        A shallow copy of ``self`` with only ``parameters`` swapped, so
        subclass state carries over and a grid point's parameters can
        never bind to the wrong constructor argument.
        """
        clone = copy.copy(self)
        clone.parameters = parameters
        return clone

    def _merge_grid_parts(
        self,
        parts: list[GridEnergyReports],
        pack_columns: list[list[int]],
        ptable: ParameterTable,
    ) -> GridEnergyReports:
        """Reassemble per-chip grid reports into the caller's profile order."""
        n_profiles = sum(len(columns) for columns in pack_columns)
        shape = (ptable.n_points, n_profiles)

        def merge(read) -> np.ndarray:
            out = np.empty(shape, dtype=np.float64)
            for part, columns in zip(parts, pack_columns):
                out[:, columns] = read(part)
            return out

        return GridEnergyReports(
            self.name,
            baseline_time_s=merge(lambda part: part.baseline_time_s),
            overhead_time_s=merge(lambda part: part.overhead_time_s),
            static_energy_j={
                c: merge(lambda part, c=c: part.static_energy_j[c])
                for c in STATIC_ENERGY_ORDER
            },
            dynamic_energy_j={
                c: merge(lambda part, c=c: part.dynamic_energy_j[c])
                for c in Component.all()
            },
            gating_events={
                c: merge(lambda part, c=c: part.gating_events[c])
                for c in GATING_EVENT_ORDER
            },
            peak_power_w=merge(lambda part: part.peak_power_w),
        )

    def _evaluate_grid_pack(
        self, pack: PackedProfiles, ptable: ParameterTable, power_model: ChipPowerModel
    ) -> GridEnergyReports:
        """Grid counterpart of :meth:`evaluate`'s scalar assembly.

        Every scalar assembly step of the per-profile path reappears
        here as one elementwise operation over ``(n_points,
        n_profiles)`` arrays — same operations, same order,
        bit-identical doubles.
        """
        chip = pack.chip
        static = power_model.static_power_by_component()
        shape = (ptable.n_points, pack.n_profiles)
        pack.base_totals()
        total_time = pack.total_time_s()

        sa_idle = self._idle_energy_grid(
            Component.SA, pack, ptable, static[Component.SA], chip
        )
        vu_idle = self._idle_energy_grid(
            Component.VU, pack, ptable, static[Component.VU], chip
        )
        hbm_idle = self._idle_energy_grid(
            Component.HBM, pack, ptable, static[Component.HBM], chip
        )
        ici_idle = self._idle_energy_grid(
            Component.ICI, pack, ptable, static[Component.ICI], chip
        )
        sa_active_j = self._sa_active_energy_grid(pack, ptable, static[Component.SA])
        sram_j = self._sram_energy_grid(pack, ptable, static[Component.SRAM])
        peak_w = self._peak_power_grid(pack, ptable, power_model)

        # exposed_cycles = 0.0 + SA + VU, as in the scalar assembly.
        exposed_cycles = sa_idle[2] + vu_idle[2]
        overhead_time_s = _grid_view(chip.cycles_to_seconds(exposed_cycles), shape)

        other_j = static[Component.OTHER] * total_time
        total_static_power = sum(static.values())
        extra_j = total_static_power * overhead_time_s
        static_energy = {
            Component.OTHER: np.where(
                overhead_time_s > 0.0, other_j + extra_j, other_j
            ),
            Component.SA: sa_active_j + sa_idle[0],
            Component.VU: (
                static[Component.VU] * pack.active_total_s(Component.VU)
                + vu_idle[0]
            ),
            Component.HBM: (
                static[Component.HBM] * pack.active_total_s(Component.HBM)
                + hbm_idle[0]
            ),
            Component.ICI: (
                static[Component.ICI] * pack.active_total_s(Component.ICI)
                + ici_idle[0]
            ),
            Component.SRAM: sram_j,
        }
        gating_events = {
            Component.SA: sa_idle[1],
            Component.VU: vu_idle[1],
            Component.HBM: hbm_idle[1],
            Component.ICI: ici_idle[1],
            Component.SRAM: pack.n_ops,
        }
        return GridEnergyReports(
            self.name,
            baseline_time_s=_grid_view(total_time, shape),
            overhead_time_s=overhead_time_s,
            static_energy_j={
                c: _grid_view(static_energy[c], shape) for c in STATIC_ENERGY_ORDER
            },
            dynamic_energy_j={
                c: _grid_view(pack.dynamic_total_j(c), shape)
                for c in Component.all()
            },
            gating_events={
                c: _grid_view(gating_events[c], shape) for c in GATING_EVENT_ORDER
            },
            peak_power_w=_grid_view(peak_w, shape),
        )

    def _idle_coefficient_columns(
        self,
        component: Component,
        ptable: ParameterTable,
        static_power_w: float,
        chip,
    ) -> IdleCoefficientColumns:
        """Per-point idle coefficients as aligned ``(n_points, 1)`` columns.

        The vectorized derivation (:func:`grid_idle_coefficient_columns`)
        is elementwise-identical to the scalar
        :meth:`_idle_coefficients`.  The columns are memoized on the
        parameter table per (policy class, component, static power,
        chip).  The chip spec itself (frozen, hashable) is part of the
        key — an ``id()`` key could alias a recycled address to stale
        chip-frequency-dependent coefficients.
        """
        key = ("idle_coeffs", type(self), component, static_power_w, chip)
        cached = ptable.memo.get(key)
        if cached is None:
            cached = grid_idle_coefficient_columns(
                ptable,
                component,
                self._timing_variant(component),
                static_power_w,
                chip,
                software=self._uses_software_gating(component),
                min_window_cycles=(
                    MIN_VU_DETECTION_WINDOW_CYCLES
                    if component is Component.VU
                    else 0.0
                ),
            )
            ptable.memo[key] = cached
        return cached

    def _idle_energy_grid(
        self,
        component: Component,
        pack: PackedProfiles,
        ptable: ParameterTable,
        static_power_w: float,
        chip,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Grid :meth:`_idle_energy_columnar`: ``(n_points, n_profiles)``
        arrays of ``(energy_j, gated_gaps, exposed_wake_cycles)``."""
        gap_s, num_gaps = pack.gap_table(component)
        n_points = ptable.n_points
        shape = (n_points, pack.n_profiles)
        zeros = np.zeros(shape)
        if not self.gating_enabled:
            energy = static_power_w * pack.seg_sums(gap_s * num_gaps)
            return _grid_view(energy, shape), zeros, zeros
        coeffs = self._idle_coefficient_columns(
            component, ptable, static_power_w, chip
        )
        # The shared per-gap expressions, with the coefficient columns
        # broadcasting along the parameter axis.
        energy_values, gated_mask = _idle_gap_values(
            coeffs, static_power_w, gap_s, num_gaps
        )
        gated_values = np.where(gated_mask, num_gaps, 0.0)
        if coeffs.software:
            sums = pack.seg_sums_matrix(np.vstack((energy_values, gated_values)))
            return sums[:n_points], sums[n_points:], zeros
        exposed_values = np.where(gated_mask, coeffs.delay_cycles * num_gaps, 0.0)
        sums = pack.seg_sums_matrix(
            np.vstack((energy_values, gated_values, exposed_values))
        )
        return (
            sums[:n_points],
            sums[n_points : 2 * n_points],
            sums[2 * n_points :],
        )

    def _spatial_factor_grid(
        self, pack: PackedProfiles, ptable: ParameterTable
    ) -> np.ndarray:
        """Grid :meth:`_spatial_factor_array`: ``(n_points, n_ops)``.

        The PE-share split is parameter-independent (it only depends on
        the matmul shapes and the SA width), so it is computed once per
        pack; each point then applies its own leakage scalars — the same
        left-to-right expression as the scalar factor.
        """
        key = ("spatial_factor_grid", ptable.tokens)
        cached = pack.memo.get(key)
        if cached is None:
            shares = pack.memo.get("spatial_shares")
            if shares is None:
                model = SpatialGatingModel(pack.chip.sa_width, self.parameters)
                shares = model.shares_arrays(
                    pack.dims_m, pack.dims_k, pack.dims_n, pack.has_dims
                )
                pack.memo["spatial_shares"] = shares
            active, weight_only, off = shares
            off_leak = ptable.logic_off[:, None]
            weight_share = ptable.pe_weight_register_share[:, None]
            w_on_leak = weight_share + (1.0 - weight_share) * off_leak
            cached = active + weight_only * w_on_leak + off * off_leak
            pack.memo[key] = cached
        return cached

    def _sram_factor_grid(
        self, pack: PackedProfiles, ptable: ParameterTable
    ) -> np.ndarray:
        """Grid :meth:`_sram_factor_array`: ``(n_points, n_ops)``."""
        key = ("sram_factor_grid", self.software_managed, ptable.tokens)
        cached = pack.memo.get(key)
        if cached is None:
            fractions = pack.memo.get("sram_used_fraction")
            if fractions is None:
                capacity = pack.chip.sram_bytes
                used = np.minimum(
                    1.0, np.maximum(0.0, pack.sram_demand_bytes / capacity)
                )
                fractions = (used, 1.0 - used)
                pack.memo["sram_used_fraction"] = fractions
            used, unused = fractions
            leak = ptable.sram_off if self.software_managed else ptable.sram_sleep
            cached = used + unused * leak[:, None]
            pack.memo[key] = cached
        return cached

    def _sa_active_energy_grid(
        self, pack: PackedProfiles, ptable: ParameterTable, static_power_w: float
    ) -> np.ndarray:
        """Grid :meth:`_sa_active_energy_columnar` (points × profiles)."""
        if not self.spatial_sa_gating:
            energy = static_power_w * pack.active_total_s(Component.SA)
            return _grid_view(energy, (ptable.n_points, pack.n_profiles))
        active = pack.weighted_active(Component.SA)
        factor = self._spatial_factor_grid(pack, ptable)
        return pack.seg_sums_matrix(
            np.where(active > 0.0, static_power_w * active * factor, 0.0)
        )

    def _sram_energy_grid(
        self, pack: PackedProfiles, ptable: ParameterTable, static_power_w: float
    ) -> np.ndarray:
        """Grid :meth:`_sram_energy_columnar` (points × profiles)."""
        if not self.gating_enabled:
            energy = static_power_w * pack.total_time_s()
            return _grid_view(energy, (ptable.n_points, pack.n_profiles))
        duration = pack.weighted_latency()
        factor = self._sram_factor_grid(pack, ptable)
        return pack.seg_sums_matrix(static_power_w * duration * factor)

    def _peak_power_grid(
        self, pack: PackedProfiles, ptable: ParameterTable, power_model: ChipPowerModel
    ) -> np.ndarray:
        """Grid :meth:`_peak_power_columnar` (points × profiles)."""
        latency = pack.latency_s
        mask = latency > 0.0
        dynamic_w = _peak_dynamic_w(pack)
        off_leak = ptable.logic_off[:, None]
        ideal = self.name is PolicyName.IDEAL

        def contribution(component: Component) -> np.ndarray | float:
            base = power_model.static_power_w(component)
            if not self.gating_enabled or component is Component.OTHER:
                return base
            if component is Component.SRAM:
                key = ("peak_sram_grid", base, self.software_managed, ptable.tokens)
                value = pack.memo.get(key)
                if value is None:
                    value = base * self._sram_factor_grid(pack, ptable)
                    pack.memo[key] = value
                return value
            if component is Component.SA and self.spatial_sa_gating:
                key = ("peak_sa_spatial_grid", base, ptable.tokens)
                value = pack.memo.get(key)
                if value is None:
                    factor = self._spatial_factor_grid(pack, ptable)
                    fraction = _peak_active_fraction(pack, component)
                    value = base * (
                        fraction * factor + (1 - fraction) * off_leak
                    )
                    pack.memo[key] = value
                return value
            idle_leak = 0.0 if ideal else off_leak
            key = ("peak_temporal_grid", component, base, ideal, ptable.tokens)
            value = pack.memo.get(key)
            if value is None:
                fraction = _peak_active_fraction(pack, component)
                value = base * (fraction + (1 - fraction) * idle_leak)
                pack.memo[key] = value
            return value

        static_w: np.ndarray = np.zeros_like(latency)
        for component in Component.all():
            static_w = static_w + contribution(component)
        values = np.where(mask, dynamic_w + static_w, 0.0)
        if values.ndim == 1:
            # Every contribution was parameter-independent (e.g. NoPG).
            maxes = pack.seg_max_matrix(values[None, :])[0]
            return _grid_view(maxes, (ptable.n_points, pack.n_profiles))
        return pack.seg_max_matrix(values)


class NoPGPolicy(PowerGatingPolicy):
    """No power gating: the baseline the paper normalizes against."""

    name = PolicyName.NOPG
    gating_enabled = False


class ReGateBasePolicy(PowerGatingPolicy):
    """Component-granularity hardware idle detection (ReGate-Base)."""

    name = PolicyName.REGATE_BASE
    gating_enabled = True
    spatial_sa_gating = False
    software_managed = False


class ReGateHWPolicy(PowerGatingPolicy):
    """ReGate-Base plus PE-granularity spatial SA gating (ReGate-HW)."""

    name = PolicyName.REGATE_HW
    gating_enabled = True
    spatial_sa_gating = True
    software_managed = False


class ReGateFullPolicy(PowerGatingPolicy):
    """Full ReGate: hardware gating plus software-managed VU/SRAM gating."""

    name = PolicyName.REGATE_FULL
    gating_enabled = True
    spatial_sa_gating = True
    software_managed = True


class IdealPolicy(PowerGatingPolicy):
    """Roofline: zero leakage when idle, zero transition cost and delay."""

    name = PolicyName.IDEAL
    gating_enabled = True
    spatial_sa_gating = True
    software_managed = True

    def _idle_energy(self, component, gaps, static_power_w, chip) -> _IdleAccounting:
        return _IdleAccounting(energy_j=0.0, gated_gaps=sum(g.num_gaps for g in gaps))

    def _idle_energy_columnar(
        self, component, table: ProfileTable, static_power_w: float, chip
    ) -> _IdleAccounting:
        key = ("ideal_gated_gaps", component)
        gated = table.memo.get(key)
        if gated is None:
            _, _, num_gaps = table.gap_table(component)
            gated = seq_sum(num_gaps)
            table.memo[key] = gated
        return _IdleAccounting(energy_j=0.0, gated_gaps=gated)

    def _sa_active_energy(self, profile: WorkloadProfile, static_power_w: float) -> float:
        model = SpatialGatingModel(profile.chip.sa_width, self.parameters)
        energy = 0.0
        for op_profile in profile.profiles:
            active = op_profile.active_s(Component.SA) * op_profile.count
            if active <= 0:
                continue
            shares = model.shares(op_profile.operator.dims)
            energy += static_power_w * active * shares.active
        return energy

    def _sa_active_energy_columnar(
        self, profile: WorkloadProfile, table: ProfileTable, static_power_w: float
    ) -> float:
        memo_key = ("ideal_sa_active_energy", static_power_w)
        cached = table.memo.get(memo_key)
        if cached is not None:
            return cached
        active = table.weighted_active(Component.SA)
        active_share = self._active_share(table, profile.chip)
        energy = seq_sum(
            np.where(active > 0.0, static_power_w * active * active_share, 0.0)
        )
        table.memo[memo_key] = energy
        return energy

    def _sram_energy(self, profile: WorkloadProfile, static_power_w: float) -> float:
        capacity = profile.chip.sram_bytes
        energy = 0.0
        for op_profile in profile.profiles:
            duration = op_profile.latency_s * op_profile.count
            used = min(1.0, op_profile.sram_demand_bytes / capacity)
            energy += static_power_w * duration * used
        return energy

    def _sram_energy_columnar(
        self, profile: WorkloadProfile, table: ProfileTable, static_power_w: float
    ) -> float:
        memo_key = ("ideal_sram_energy", static_power_w)
        cached = table.memo.get(memo_key)
        if cached is not None:
            return cached
        capacity = profile.chip.sram_bytes
        duration = table.weighted_latency()
        used = np.minimum(1.0, table.sram_demand_bytes / capacity)
        energy = seq_sum(static_power_w * duration * used)
        table.memo[memo_key] = energy
        return energy

    def _active_share(self, store, chip) -> np.ndarray:
        """Memoized per-operator active-PE share of a table or pack."""
        share = store.memo.get("spatial_active_share")
        if share is None:
            model = SpatialGatingModel(chip.sa_width, self.parameters)
            share, _, _ = model.shares_arrays(
                store.dims_m, store.dims_k, store.dims_n, store.has_dims
            )
            store.memo["spatial_active_share"] = share
        return share

    # -- grid (profiles × parameter points) counterparts ------------------ #
    # The Ideal roofline's idle/SA/SRAM accounting is independent of the
    # gating parameters, so each grid hook computes its per-profile
    # values once and repeats them along the parameter axis — exactly
    # the values the per-profile hooks produce at every point.
    def _idle_energy_grid(
        self, component, pack: PackedProfiles, ptable, static_power_w: float, chip
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        shape = (ptable.n_points, pack.n_profiles)
        zeros = np.zeros(shape)
        key = ("ideal_gated_gaps", component)
        gated = pack.memo.get(key)
        if gated is None:
            _, num_gaps = pack.gap_table(component)
            gated = pack.seg_sums(num_gaps)
            pack.memo[key] = gated
        return zeros, _grid_view(gated, shape), zeros

    def _sa_active_energy_grid(
        self, pack: PackedProfiles, ptable, static_power_w: float
    ) -> np.ndarray:
        active = pack.weighted_active(Component.SA)
        active_share = self._active_share(pack, pack.chip)
        energy = pack.seg_sums(
            np.where(active > 0.0, static_power_w * active * active_share, 0.0)
        )
        return _grid_view(energy, (ptable.n_points, pack.n_profiles))

    def _sram_energy_grid(
        self, pack: PackedProfiles, ptable, static_power_w: float
    ) -> np.ndarray:
        capacity = pack.chip.sram_bytes
        duration = pack.weighted_latency()
        used = np.minimum(1.0, pack.sram_demand_bytes / capacity)
        energy = pack.seg_sums(static_power_w * duration * used)
        return _grid_view(energy, (ptable.n_points, pack.n_profiles))


_POLICIES: dict[PolicyName, type[PowerGatingPolicy]] = {
    PolicyName.NOPG: NoPGPolicy,
    PolicyName.REGATE_BASE: ReGateBasePolicy,
    PolicyName.REGATE_HW: ReGateHWPolicy,
    PolicyName.REGATE_FULL: ReGateFullPolicy,
    PolicyName.IDEAL: IdealPolicy,
}


_STOCK_CLASSES = frozenset(_POLICIES.values())


def list_policies() -> list[PolicyName]:
    """All policy names in the paper's presentation order."""
    return list(_POLICIES)


def get_policy(
    name: PolicyName | str, parameters: GatingParameters | None = None
) -> PowerGatingPolicy:
    """Instantiate a policy by name."""
    return _POLICIES[PolicyName.parse(name)](parameters)


__all__ = [
    "ChipMajorPacks",
    "GridEnergyReports",
    "IdealPolicy",
    "NoPGPolicy",
    "PackedProfiles",
    "ParameterTable",
    "PolicyName",
    "PowerGatingPolicy",
    "ReGateBasePolicy",
    "ReGateFullPolicy",
    "ReGateHWPolicy",
    "get_policy",
    "list_policies",
]
