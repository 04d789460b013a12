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
)
from repro.gating.report import EnergyReport, PolicyName
from repro.gating.sa_gating import SpatialGatingModel
from repro.gating.sram_gating import SramGatingModel
from repro.hardware.components import Component
from repro.hardware.power import ChipPowerModel
from repro.simulator.columnar import (
    GAP_COMPONENTS,
    ProfileTable,
    ProfileTotals,
    Segments,
)
from repro.simulator.engine import GapProfile, WorkloadProfile

# The hardware VU idle detector waits at least 8 cycles to avoid blocking
# the SA pipeline (§4.1 of the paper).
MIN_VU_DETECTION_WINDOW_CYCLES = 8.0


def _min_window_cycles(component: Component) -> float:
    """The detection-window floor of a component (VUs only)."""
    return MIN_VU_DETECTION_WINDOW_CYCLES if component is Component.VU else 0.0


@dataclass
class _IdleAccounting:
    """Static energy and bookkeeping for one component's idle time."""

    energy_j: float = 0.0
    gated_gaps: float = 0.0
    exposed_wake_cycles: float = 0.0


def _idle_gap_values(
    coeff: IdleCoefficientColumns,
    static_power_w: float,
    gap_s: np.ndarray,
    num_gaps: np.ndarray,
    idle_s: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-gap ``(energy_j, gated-mask)`` arrays of the idle accounting.

    The vectorized form of the object path's per-gap loop
    (:meth:`PowerGatingPolicy._idle_energy`): the ``(n_points, 1)``
    coefficient columns broadcast against the packed per-operator axis,
    so elementwise every point sees exactly the scalar expressions.
    ``idle_s`` is ``gap_s * num_gaps``.
    """
    valid = (gap_s > 0.0) & (num_gaps > 0.0)
    below = gap_s <= coeff.threshold_s
    ungated_j = static_power_w * idle_s
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


def _safe_latency(pack: "PackedProfiles") -> np.ndarray:
    """Memoized division-safe latency array of a pack."""
    safe = pack.memo.get("safe_latency")
    if safe is None:
        safe = np.where(pack.latency_s > 0.0, pack.latency_s, 1.0)
        pack.memo["safe_latency"] = safe
    return safe


def _peak_dynamic_w(pack: "PackedProfiles") -> np.ndarray:
    """Memoized per-operator dynamic power array (peak-power accounting)."""
    dynamic_w = pack.memo.get("peak_dynamic_w")
    if dynamic_w is None:
        dynamic = pack.dynamic
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
        dynamic_w = dynamic_j / _safe_latency(pack)
        pack.memo["peak_dynamic_w"] = dynamic_w
    return dynamic_w


def _peak_active_fraction(pack: "PackedProfiles", component: Component) -> np.ndarray:
    """Memoized per-operator active-time fraction of one component."""
    key = ("active_fraction", component)
    fraction = pack.memo.get(key)
    if fraction is None:
        fraction = np.minimum(1.0, pack.active[component] / _safe_latency(pack))
        pack.memo[key] = fraction
    return fraction


def _spatial_shares(pack: "PackedProfiles") -> tuple[np.ndarray, ...]:
    """Memoized per-operator ``(active, weight_only, off)`` PE shares.

    Parameter-independent (only the matmul shapes and the SA width
    matter), so ReGate-HW, ReGate-Full and Ideal share one computation
    per pack.
    """
    shares = pack.memo.get("spatial_shares")
    if shares is None:
        model = SpatialGatingModel(pack.chip.sa_width, DEFAULT_PARAMETERS)
        shares = model.shares_arrays(
            pack.dims_m, pack.dims_k, pack.dims_n, pack.has_dims
        )
        pack.memo["spatial_shares"] = shares
    return shares


def _join(arrays: list[np.ndarray]) -> np.ndarray:
    """Concatenate per-table arrays; a one-profile pack shares its table's
    (never mutated) array instead of copying it."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _floats(values: list[float]) -> np.ndarray:
    """Per-profile totals (Python floats) as one ``float64`` array."""
    return np.asarray(values, dtype=np.float64)


class PackedProfiles:
    """A ragged batch of profile tables packed into offset-indexed arrays.

    The storage of the grid kernel: ``n`` profiles of one chip are
    concatenated into single per-operator arrays so a policy can
    evaluate all of them with single NumPy calls
    (:meth:`PowerGatingPolicy.grid_evaluate`).  A pack reduces nothing
    itself: its per-operator arrays join its tables' arrays (the idle-gap
    and weighted rows included, from each table's
    :attr:`~repro.simulator.columnar.ProfileTable.totals`), and its
    per-profile totals are arrays of those reductions' floats.  Derived
    arrays that do not depend on the policy (active fractions, leakage
    factor arrays, shared idle grids) are memoized on the pack and
    shared by every policy evaluated on it — pack once, evaluate many.

    The parameter-dependent sums of the kernel reduce every segment of
    every row at once with :meth:`~repro.simulator.columnar.Segments.sums`,
    keeping the strictly left-to-right accumulation the bit-exactness
    contract requires (``np.add.reduceat`` rounds differently), and the
    peak power with :meth:`~repro.simulator.columnar.Segments.maxes`.
    """

    def __init__(self, profiles: list[WorkloadProfile], tables: list[ProfileTable]):
        chips = {id(profile.chip) for profile in profiles}
        if len(chips) != 1:
            raise ValueError("PackedProfiles requires profiles of a single chip")
        self.profiles = profiles
        self.chip = profiles[0].chip
        #: Every profile's segment of the packed arrays, and the
        #: reductions over them (``segments.sums`` / ``segments.maxes``).
        self.segments = Segments([table.n_ops for table in tables])
        self.n_profiles = len(tables)
        self.n_ops = np.asarray(self.segments.lengths, dtype=np.float64)
        self.latency_s = _join([t.latency_s for t in tables])
        self.sram_demand_bytes = _join([t.sram_demand_bytes for t in tables])
        self.dims_m = _join([t.dims_m for t in tables])
        self.dims_k = _join([t.dims_k for t in tables])
        self.dims_n = _join([t.dims_n for t in tables])
        self.has_dims = _join([t.has_dims for t in tables])
        self.active = {c: _join([t.active[c] for t in tables]) for c in Component.all()}
        self.dynamic = {
            c: _join([t.dynamic[c] for t in tables]) for c in Component.all()
        }
        totals = [table.totals for table in tables]
        arrays = (
            totals[0].arrays
            if len(totals) == 1
            else np.concatenate([t.arrays for t in totals], axis=1)
        )
        #: Per-operator ``latency * count`` and SA ``active * count``, and
        #: per gap component the ``(gap_s, num_gaps, idle_s)`` arrays:
        #: gap length, gaps per iteration and their product.
        self.weighted_latency, self.weighted_sa_active, self.gaps = (
            ProfileTotals.rows(arrays)
        )
        #: Per-profile busy time, active seconds and dynamic energies.
        self.total_time_s = _floats([t.total_time_s for t in totals])
        self.active_total_s = {
            c: _floats([t.active_total_s[c] for t in totals]) for c in GAP_COMPONENTS
        }
        self.dynamic_total_j = {
            c: _floats([t.dynamic_total_j[c] for t in totals]) for c in Component.all()
        }
        #: Per-profile idle seconds and gap counts of the gap components.
        self.idle_total_s = {
            c: _floats([t.idle_total_s[c] for t in totals]) for c in GAP_COMPONENTS
        }
        self.gap_count = {
            c: _floats([t.gap_count[c] for t in totals]) for c in GAP_COMPONENTS
        }
        #: Cross-policy scratchpad (packed analogue of ``ProfileTable.memo``).
        self.memo: dict = {}

    @classmethod
    def pack(cls, profiles: list[WorkloadProfile]) -> "PackedProfiles":
        """Pack single-chip profiles, reading each one's memoized table."""
        profiles = list(profiles)
        return cls(profiles, [profile.table for profile in profiles])

    @classmethod
    def single(cls, profile: WorkloadProfile) -> "PackedProfiles":
        """The memoized one-profile pack of ``profile``.

        Built once per profile table and kept in its memo, so the five
        policies evaluated on one profile share the pack and every
        derived array on it (:meth:`PowerGatingPolicy.evaluate`).
        """
        table = profile.table
        pack = table.memo.get("pack")
        if pack is None:
            pack = table.memo["pack"] = cls([profile], [table])
        return pack

    def grid_totals(
        self, shape: tuple[int, int]
    ) -> tuple[np.ndarray, dict[Component, np.ndarray], np.ndarray]:
        """Parameter-independent report columns as ``shape`` grid arrays.

        ``(baseline_time_s, dynamic_energy_j, n_ops)``, memoized per
        grid shape: every policy priced on the pack reports the same
        busy time, dynamic energies and SRAM gating events.
        """
        key = ("grid_totals", shape)
        cached = self.memo.get(key)
        if cached is None:
            cached = (
                _grid_view(self.total_time_s, shape),
                {
                    c: _grid_view(self.dynamic_total_j[c], shape)
                    for c in Component.all()
                },
                _grid_view(self.n_ops, shape),
            )
            self.memo[key] = cached
        return cached


class ChipMajorPacks:
    """A chip-heterogeneous profile batch packed chip-major.

    :class:`PackedProfiles` segments are single-chip (every per-gap
    coefficient is a per-chip scalar); a multi-chip sweep therefore
    packs its profiles *chip-major*: one contiguous
    :class:`PackedProfiles` per distinct chip, in first-appearance
    order, plus the index map back to the caller's profile order.  The
    fused sweep pass (:func:`repro.experiments.cache.simulate_cached_cells`)
    packs its whole batch once and prices every policy and every
    gating-parameter point on it, so the packs' memos are shared.
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

    @classmethod
    def pack(cls, profiles: list[WorkloadProfile]) -> "ChipMajorPacks":
        """Pack a (possibly multi-chip, possibly empty) batch chip-major."""
        profiles = list(profiles)
        # Group positions by chip identity, in first-appearance
        # (chip-major) order, so each pack is single-chip.
        groups: dict[int, list[int]] = {}
        for index, profile in enumerate(profiles):
            groups.setdefault(id(profile.chip), []).append(index)
        packs: list[PackedProfiles] = []
        index_map: list[tuple[int, int] | None] = [None] * len(profiles)
        for pack_index, indices in enumerate(groups.values()):
            packs.append(PackedProfiles.pack([profiles[i] for i in indices]))
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

    # ------------------------------------------------------------------ #
    def report(self, point: int, profile: int) -> EnergyReport:
        """Materialize the report of one (parameter point, profile) cell."""
        return EnergyReport(
            policy=self.policy,
            baseline_time_s=self.baseline_time_s.item(point, profile),
            overhead_time_s=self.overhead_time_s.item(point, profile),
            static_energy_j={
                c: self.static_energy_j[c].item(point, profile)
                for c in STATIC_ENERGY_ORDER
            },
            dynamic_energy_j={
                c: self.dynamic_energy_j[c].item(point, profile)
                for c in Component.all()
            },
            gating_events={
                c: self.gating_events[c].item(point, profile)
                for c in GATING_EVENT_ORDER
            },
            peak_power_w=self.peak_power_w.item(point, profile),
        )

    def reports(self, point: int) -> list[EnergyReport]:
        """All profile reports of one parameter point (oracle order)."""
        return [self.report(point, profile) for profile in range(self.n_profiles)]


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

    def __init_subclass__(cls, **kwargs):
        """Refuse policy classes defined outside this module.

        The grid kernel mirrors the hooks of the five classes below term
        by term, so an override elsewhere would change the object path
        only and the two paths would silently disagree.
        """
        super().__init_subclass__(**kwargs)
        if cls.__module__ != __name__:
            raise TypeError(
                f"{cls.__qualname__}: policies are not subclassable; the grid "
                "kernel prices only the five classes get_policy returns "
                "(configure them with GatingParameters instead)"
            )

    # ------------------------------------------------------------------ #
    # Idle-period accounting
    # ------------------------------------------------------------------ #
    def _timing_variant(self, component: Component) -> str | None:
        if component is Component.SA:
            return "sa_pe" if self.spatial_sa_gating else "sa_full"
        return None

    def _uses_software_gating(self, component: Component) -> bool:
        return self.software_managed and component is Component.VU

    def _idle_coefficients(
        self, component: Component, static_power_w: float, chip
    ) -> IdleGatingCoefficients:
        """Per-gap gating coefficients of the object-path accounting."""
        return idle_gating_coefficients(
            self.parameters,
            component,
            self._timing_variant(component),
            static_power_w,
            chip,
            software=self._uses_software_gating(component),
            min_window_cycles=_min_window_cycles(component),
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

    # ------------------------------------------------------------------ #
    def evaluate(
        self, profile: WorkloadProfile, power_model: ChipPowerModel | None = None
    ) -> EnergyReport:
        """Compute the full energy report of this policy for one profile.

        On the fast path the profile is priced as a one-point grid:
        :meth:`_evaluate_grid_pack` over the profile's memoized
        one-profile :class:`PackedProfiles` (:meth:`PackedProfiles.single`)
        at the memoized one-point :class:`ParameterTable` of
        ``self.parameters`` (:meth:`ParameterTable.point`).  An oracle
        profile priced with the fast path disabled runs the object-path
        loops below instead — the readable oracle.  Both produce
        bit-identical reports.
        """
        power_model = power_model or ChipPowerModel.for_chip(profile.chip)
        if profile.on_fast_path:
            pack = PackedProfiles.single(profile)
            ptable = ParameterTable.point(self.parameters)
            return self._evaluate_grid_pack(pack, ptable, power_model).report(0, 0)

        chip = profile.chip
        static = power_model.static_power_by_component()

        def idle_accounting(component: Component) -> _IdleAccounting:
            return self._idle_energy(
                component, profile.gap_profiles(component), static[component], chip
            )

        total_time_s = profile.total_time_s
        report = EnergyReport(
            policy=self.name,
            baseline_time_s=total_time_s,
            overhead_time_s=0.0,
        )
        exposed_cycles = 0.0

        for component in Component.all():
            report.dynamic_energy_j[component] = profile.dynamic_energy_j(component)

        # Never-gated logic leaks for the whole execution.
        report.static_energy_j[Component.OTHER] = (
            static[Component.OTHER] * total_time_s
        )

        # Systolic arrays: active-time leakage (possibly spatially gated)
        # plus idle-time leakage under the temporal gating scheme.
        sa_idle = idle_accounting(Component.SA)
        sa_active_j = self._sa_active_energy(profile, static[Component.SA])
        report.static_energy_j[Component.SA] = sa_active_j + sa_idle.energy_j
        report.gating_events[Component.SA] = sa_idle.gated_gaps
        exposed_cycles += sa_idle.exposed_wake_cycles

        # Vector units.
        vu_idle = idle_accounting(Component.VU)
        report.static_energy_j[Component.VU] = (
            static[Component.VU] * profile.active_s(Component.VU) + vu_idle.energy_j
        )
        report.gating_events[Component.VU] = vu_idle.gated_gaps
        exposed_cycles += vu_idle.exposed_wake_cycles

        # HBM and ICI controllers: hardware idle detection in every ReGate
        # variant; their wake-up delay is amortized by the DMA latency, so
        # it does not show up as a performance overhead.
        for component in (Component.HBM, Component.ICI):
            idle = idle_accounting(component)
            report.static_energy_j[component] = (
                static[component] * profile.active_s(component) + idle.energy_j
            )
            report.gating_events[component] = idle.gated_gaps

        # SRAM capacity gating.
        report.static_energy_j[Component.SRAM] = self._sram_energy(
            profile, static[Component.SRAM]
        )
        report.gating_events[Component.SRAM] = float(len(profile.profiles))

        report.overhead_time_s = chip.cycles_to_seconds(exposed_cycles)
        # The exposed wake-up delays keep the whole chip powered a little
        # longer; charge that time at the un-gated static power.
        if report.overhead_time_s > 0:
            total_static_power = sum(static.values())
            extra = total_static_power * report.overhead_time_s
            report.static_energy_j[Component.OTHER] += extra

        report.peak_power_w = self._peak_power(profile, power_model)
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

    # ------------------------------------------------------------------ #
    # Multi-profile evaluation (profiles × gating-parameter points)
    # ------------------------------------------------------------------ #
    def grid_evaluate(
        self,
        profiles: "list[WorkloadProfile] | PackedProfiles | ChipMajorPacks",
        parameter_grid: "ParameterTable | list[GatingParameters]",
        power_model: ChipPowerModel | None = None,
    ) -> GridEnergyReports:
        """Evaluate this policy over all profiles × all parameter points.

        The fast kernel: one call prices a whole (profile batch ×
        gating-parameter grid) in a handful of vectorized NumPy
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
        packing can be shared by every policy of a sweep.  The kernel
        runs whatever the fast-path switch says; an empty batch gives
        ``(n_points, 0)`` arrays.
        """
        ptable = ParameterTable.of(parameter_grid)
        batch = profiles
        if not isinstance(batch, (PackedProfiles, ChipMajorPacks)):
            batch = ChipMajorPacks.pack(profiles)
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
        """The grid kernel: :meth:`evaluate`'s object-path assembly, vectorized.

        Every scalar assembly step of the object path reappears here as
        one elementwise operation over ``(n_points, n_profiles)`` arrays
        — same operations, same order, bit-identical doubles.
        """
        chip = pack.chip
        static = power_model.static_power_by_component()
        shape = (ptable.n_points, pack.n_profiles)
        baseline_time_s, dynamic_energy_j, sram_events = pack.grid_totals(shape)
        total_time = pack.total_time_s

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
        overhead_time_s = chip.cycles_to_seconds(exposed_cycles)

        # The object path adds the exposed-delay energy only when the
        # overhead is positive; adding the exact 0.0 it is otherwise is
        # the identity on the non-negative ``other`` energy.
        total_static_power = sum(static.values())
        extra_j = total_static_power * overhead_time_s
        # Every term below is already a full grid array, and both dicts
        # follow STATIC_ENERGY_ORDER / GATING_EVENT_ORDER.
        static_energy = {
            Component.OTHER: static[Component.OTHER] * total_time + extra_j,
            Component.SA: sa_active_j + sa_idle[0],
            Component.VU: (
                static[Component.VU] * pack.active_total_s[Component.VU]
                + vu_idle[0]
            ),
            Component.HBM: (
                static[Component.HBM] * pack.active_total_s[Component.HBM]
                + hbm_idle[0]
            ),
            Component.ICI: (
                static[Component.ICI] * pack.active_total_s[Component.ICI]
                + ici_idle[0]
            ),
            Component.SRAM: sram_j,
        }
        return GridEnergyReports(
            self.name,
            baseline_time_s=baseline_time_s,
            overhead_time_s=overhead_time_s,
            static_energy_j=static_energy,
            dynamic_energy_j=dynamic_energy_j,
            gating_events={
                Component.SA: sa_idle[1],
                Component.VU: vu_idle[1],
                Component.HBM: hbm_idle[1],
                Component.ICI: ici_idle[1],
                Component.SRAM: sram_events,
            },
            peak_power_w=peak_w,
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
        :meth:`_idle_coefficients`, whose coefficients
        depend on the policy only through the timing variant and the
        software flag.  The columns are memoized on the parameter table
        by those two, the component, the static power and the chip.  The
        chip spec itself (frozen, hashable) is part of the key — an
        ``id()`` key could alias a recycled address to stale
        chip-frequency-dependent coefficients.
        """
        variant = self._timing_variant(component)
        software = self._uses_software_gating(component)
        key = ("idle_coeffs", component, variant, software, static_power_w, chip)
        cached = ptable.memo.get(key)
        if cached is None:
            cached = grid_idle_coefficient_columns(
                ptable,
                component,
                variant,
                static_power_w,
                chip,
                software=software,
                min_window_cycles=_min_window_cycles(component),
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
        """Grid form of :meth:`_idle_energy`: ``(n_points, n_profiles)``
        arrays of ``(energy_j, gated_gaps, exposed_wake_cycles)``.

        A gating policy's result is memoized on the pack by every input
        of the accounting (component, static power, timing variant,
        software flag, parameter points), so policies that gate a
        component alike — ReGate-Base/HW/Full on the HBM and ICI
        controllers — share one computation.
        """
        n_points = ptable.n_points
        shape = (n_points, pack.n_profiles)
        if not self.gating_enabled:
            zeros = np.zeros(shape)
            energy = static_power_w * pack.idle_total_s[component]
            return _grid_view(energy, shape), zeros, zeros
        variant = self._timing_variant(component)
        software = self._uses_software_gating(component)
        key = ("idle_grid", component, static_power_w, variant, software, ptable.tokens)
        cached = pack.memo.get(key)
        if cached is not None:
            return cached
        gap_s, num_gaps, idle_s = pack.gaps[component]
        coeffs = self._idle_coefficient_columns(
            component, ptable, static_power_w, chip
        )
        # The shared per-gap expressions, with the coefficient columns
        # broadcasting along the parameter axis.
        energy_values, gated_mask = _idle_gap_values(
            coeffs, static_power_w, gap_s, num_gaps, idle_s
        )
        gated_values = np.where(gated_mask, num_gaps, 0.0)
        if software:
            sums = pack.segments.sums(np.vstack((energy_values, gated_values)))
            cached = sums[:n_points], sums[n_points:], np.zeros(shape)
        else:
            exposed_values = np.where(
                gated_mask, coeffs.delay_cycles * num_gaps, 0.0
            )
            sums = pack.segments.sums(
                np.concatenate((energy_values, gated_values, exposed_values))
            )
            cached = (
                sums[:n_points],
                sums[n_points : 2 * n_points],
                sums[2 * n_points :],
            )
        pack.memo[key] = cached
        return cached

    def _spatial_factor_grid(
        self, pack: PackedProfiles, ptable: ParameterTable
    ) -> np.ndarray:
        """Per-operator spatial static-power factors, ``(n_points, n_ops)``.

        Each point applies its own leakage scalars to the pack's PE
        shares (:func:`_spatial_shares`) — the same left-to-right
        expression as the scalar factor.
        """
        key = ("spatial_factor_grid", ptable.tokens)
        cached = pack.memo.get(key)
        if cached is None:
            active, weight_only, off = _spatial_shares(pack)
            off_leak = ptable.logic_off[:, None]
            weight_share = ptable.pe_weight_register_share[:, None]
            w_on_leak = weight_share + (1.0 - weight_share) * off_leak
            cached = active + weight_only * w_on_leak + off * off_leak
            pack.memo[key] = cached
        return cached

    def _sram_factor_grid(
        self, pack: PackedProfiles, ptable: ParameterTable
    ) -> np.ndarray:
        """Per-operator SRAM leakage factors, ``(n_points, n_ops)``.

        Mirrors the scalar ``on + sleep * sleep_leak + off * off_leak``
        with the zero share dropped: adding ``0.0 * leak`` to a
        non-negative float is exact, so every element is bit-identical.
        """
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
        """Grid form of :meth:`_sa_active_energy` (points × profiles).

        The spatially gated sum is memoized on the pack, so ReGate-HW
        and ReGate-Full share it.
        """
        if not self.spatial_sa_gating:
            energy = static_power_w * pack.active_total_s[Component.SA]
            return _grid_view(energy, (ptable.n_points, pack.n_profiles))
        key = ("sa_active_grid", static_power_w, ptable.tokens)
        cached = pack.memo.get(key)
        if cached is None:
            active = pack.weighted_sa_active
            factor = self._spatial_factor_grid(pack, ptable)
            cached = pack.segments.sums(
                np.where(active > 0.0, static_power_w * active * factor, 0.0)
            )
            pack.memo[key] = cached
        return cached

    def _sram_energy_grid(
        self, pack: PackedProfiles, ptable: ParameterTable, static_power_w: float
    ) -> np.ndarray:
        """Grid form of :meth:`_sram_energy` (points × profiles).

        The gated sum is memoized on the pack, so ReGate-Base and
        ReGate-HW share it.
        """
        if not self.gating_enabled:
            energy = static_power_w * pack.total_time_s
            return _grid_view(energy, (ptable.n_points, pack.n_profiles))
        key = ("sram_grid", static_power_w, self.software_managed, ptable.tokens)
        cached = pack.memo.get(key)
        if cached is None:
            duration = pack.weighted_latency
            factor = self._sram_factor_grid(pack, ptable)
            cached = pack.segments.sums(static_power_w * duration * factor)
            pack.memo[key] = cached
        return cached

    def _peak_power_grid(
        self, pack: PackedProfiles, ptable: ParameterTable, power_model: ChipPowerModel
    ) -> np.ndarray:
        """Grid form of :meth:`_peak_power` (points × profiles)."""
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

        # 0.0 + x == x, so starting from a scalar leaves every element
        # equal to the object path's per-operator sum, and scalar
        # contributions (e.g. all of NoPG's) stay scalar additions.
        static_w: np.ndarray | float = 0.0
        for component in Component.all():
            static_w = static_w + contribution(component)
        values = np.where(mask, dynamic_w + static_w, 0.0)
        if values.ndim == 1:
            # Every contribution was parameter-independent (e.g. NoPG).
            maxes = pack.segments.maxes(values)
            return _grid_view(maxes, (ptable.n_points, pack.n_profiles))
        return pack.segments.maxes(values)


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

    def _sram_energy(self, profile: WorkloadProfile, static_power_w: float) -> float:
        capacity = profile.chip.sram_bytes
        energy = 0.0
        for op_profile in profile.profiles:
            duration = op_profile.latency_s * op_profile.count
            used = min(1.0, op_profile.sram_demand_bytes / capacity)
            energy += static_power_w * duration * used
        return energy

    # -- grid (profiles × parameter points) counterparts ------------------ #
    # The Ideal roofline's idle/SA/SRAM accounting is independent of the
    # gating parameters, so each grid hook computes its per-profile
    # values once and repeats them along the parameter axis — exactly
    # the values the object-path hooks above produce at every point.
    def _idle_energy_grid(
        self, component, pack: PackedProfiles, ptable, static_power_w: float, chip
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        shape = (ptable.n_points, pack.n_profiles)
        zeros = np.zeros(shape)
        return zeros, _grid_view(pack.gap_count[component], shape), zeros

    def _sa_active_energy_grid(
        self, pack: PackedProfiles, ptable, static_power_w: float
    ) -> np.ndarray:
        active = pack.weighted_sa_active
        active_share = _spatial_shares(pack)[0]
        energy = pack.segments.sums(
            np.where(active > 0.0, static_power_w * active * active_share, 0.0)
        )
        return _grid_view(energy, (ptable.n_points, pack.n_profiles))

    def _sram_energy_grid(
        self, pack: PackedProfiles, ptable, static_power_w: float
    ) -> np.ndarray:
        capacity = pack.chip.sram_bytes
        duration = pack.weighted_latency
        used = np.minimum(1.0, pack.sram_demand_bytes / capacity)
        energy = pack.segments.sums(static_power_w * duration * used)
        return _grid_view(energy, (ptable.n_points, pack.n_profiles))


_POLICIES: dict[PolicyName, type[PowerGatingPolicy]] = {
    PolicyName.NOPG: NoPGPolicy,
    PolicyName.REGATE_BASE: ReGateBasePolicy,
    PolicyName.REGATE_HW: ReGateHWPolicy,
    PolicyName.REGATE_FULL: ReGateFullPolicy,
    PolicyName.IDEAL: IdealPolicy,
}


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
