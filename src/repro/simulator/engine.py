"""Operator-level NPU performance and activity simulator.

For every operator of a workload graph the simulator computes the
per-component active times, the dynamic energy, the SRAM capacity
demand, and the structure of the idle periods (how many gaps of which
characteristic length each component sees).  The power-gating policies
in :mod:`repro.gating.policies` consume this :class:`WorkloadProfile` to
account static energy under the different gating schemes — the same
split the paper uses between its performance simulator backend and its
power/energy analysis.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import ClassVar

from repro.compiler.fusion import FusionPass
from repro.compiler.tiling import TileInfo, TilingPass
from repro.hardware.chips import NPUChipSpec
from repro.hardware.components import Component
from repro.hardware.power import ChipPowerModel
from repro.simulator import columnar
from repro.simulator.columnar import BatchSimulation, ProfileTable
from repro.simulator.timing import ComponentTimes, OperatorTimingModel
from repro.workloads.base import Operator, OperatorGraph, OpKind
from repro.workloads.table import GraphTable, LazyList

_LOG = logging.getLogger(__name__)

#: Slack for floating-point noise when checking utilization bounds.
UTILIZATION_TOLERANCE = 1e-9


class UtilizationError(ValueError):
    """A component's active time exceeds the total busy time.

    Per-operator active times are clamped to the operator latency, so a
    structurally valid profile can never trip this; seeing it means a
    timing-model (or hand-built profile) bug rather than rounding noise.
    """


@dataclass(frozen=True)
class GapProfile:
    """A family of identical idle gaps of one component."""

    component: Component
    gap_s: float  # duration of each gap
    num_gaps: float  # number of such gaps per workload iteration

    @property
    def total_idle_s(self) -> float:
        return self.gap_s * self.num_gaps


@dataclass
class OperatorProfile:
    """Simulation results for one operator (per single invocation)."""

    operator: Operator
    times: ComponentTimes
    tile_info: TileInfo
    dynamic_energy_j: dict[Component, float]

    @property
    def count(self) -> int:
        return self.operator.count

    @property
    def latency_s(self) -> float:
        return self.times.latency_s

    @property
    def sa_mapped(self) -> bool:
        return self.times.sa_mapped

    @property
    def sram_demand_bytes(self) -> float:
        return self.tile_info.sram_demand_bytes

    def active_s(self, component: Component) -> float:
        """Active seconds of one component during one invocation."""
        return min(self.times.active(component), self.latency_s)

    # ------------------------------------------------------------------ #
    def gap_profiles(self) -> list[GapProfile]:
        """Idle-gap structure of this operator (per invocation).

        Gaps are never merged across operator boundaries, which slightly
        underestimates gap lengths (a conservative choice: it can only
        make the gating policies gate less, never more).
        """
        gaps: list[GapProfile] = []
        latency = self.latency_s

        # Systolic arrays -------------------------------------------------
        sa_active = self.active_s(Component.SA)
        sa_idle = max(0.0, latency - sa_active)
        if sa_idle > 0:
            if self.sa_mapped and sa_active > 0:
                bursts = max(1, self.tile_info.num_weight_tiles)
                gaps.append(
                    GapProfile(Component.SA, gap_s=sa_idle / bursts, num_gaps=bursts)
                )
            else:
                gaps.append(GapProfile(Component.SA, gap_s=sa_idle, num_gaps=1))

        # Vector units -----------------------------------------------------
        vu_active = self.active_s(Component.VU)
        vu_idle = max(0.0, latency - vu_active)
        if vu_idle > 0:
            if vu_active > 0 and self.sa_mapped:
                bursts = max(1, self.tile_info.num_output_tiles)
                gaps.append(
                    GapProfile(Component.VU, gap_s=vu_idle / bursts, num_gaps=bursts)
                )
            elif vu_active > 0:
                bursts = max(1, self.tile_info.num_dma_bursts)
                gaps.append(
                    GapProfile(Component.VU, gap_s=vu_idle / bursts, num_gaps=bursts)
                )
            else:
                gaps.append(GapProfile(Component.VU, gap_s=vu_idle, num_gaps=1))

        # HBM ----------------------------------------------------------------
        hbm_active = self.active_s(Component.HBM)
        hbm_idle = max(0.0, latency - hbm_active)
        if hbm_idle > 0:
            if hbm_active > 0:
                bursts = max(1, self.tile_info.num_dma_bursts)
                gaps.append(
                    GapProfile(Component.HBM, gap_s=hbm_idle / bursts, num_gaps=bursts)
                )
            else:
                gaps.append(GapProfile(Component.HBM, gap_s=hbm_idle, num_gaps=1))

        # ICI ----------------------------------------------------------------
        ici_active = self.active_s(Component.ICI)
        ici_idle = max(0.0, latency - ici_active)
        if ici_idle > 0:
            gaps.append(GapProfile(Component.ICI, gap_s=ici_idle, num_gaps=1))
        return gaps


class _LazyOperatorProfiles(LazyList):
    """Operator-profile list materialized from a batch on first access.

    A cold columnar simulation produces its aggregates from the
    :class:`~repro.simulator.columnar.ProfileTable`; the per-operator
    :class:`OperatorProfile` objects are only needed when somebody
    actually walks :attr:`WorkloadProfile.profiles`, so their
    construction is deferred to that first access.  Materialization
    yields exactly the objects the eager path would have built.
    """

    __slots__ = ()


@dataclass
class WorkloadProfile:
    """Aggregated simulation results for one workload iteration on one chip.

    Every aggregate has two implementations producing bit-identical
    doubles: a vectorized reduction over the memoized
    :class:`~repro.simulator.columnar.ProfileTable` (the default), and
    the original object-path loop, kept as the reference oracle and
    selected with :func:`repro.simulator.columnar.use_fast_path`.
    """

    graph: OperatorGraph
    chip: NPUChipSpec
    profiles: list[OperatorProfile] = field(default_factory=list)

    # ------------------------------------------------------------------ #
    # Columnar table memoization
    # ------------------------------------------------------------------ #
    def _profiles_token(self) -> tuple:
        """Cheap fingerprint of the profile list for cache invalidation."""
        profiles = self.profiles
        if isinstance(profiles, _LazyOperatorProfiles) and profiles.pending:
            # Fingerprinting would force materialization; an untouched
            # lazy list cannot have been mutated, so its identity is
            # fingerprint enough.  (After materialization the token
            # changes and the table is rebuilt — bit-identically.)
            return ("lazy", id(profiles))
        return (len(profiles), tuple(map(id, profiles)))

    @property
    def table(self) -> ProfileTable:
        """The columnar view of this profile, built once and memoized.

        Appending/replacing entries of :attr:`profiles` invalidates the
        cache automatically (the fingerprint covers list length and
        element identities); after mutating an :class:`OperatorProfile`
        *in place*, call :meth:`invalidate_caches` explicitly.
        """
        cache = self.__dict__
        token = self._profiles_token()
        table = cache.get("_table")
        if table is None or cache.get("_table_token") != token:
            table = ProfileTable.from_profiles(self.profiles)
            cache["_table"] = table
            cache["_table_token"] = token
        return table

    def invalidate_caches(self) -> None:
        """Drop the memoized columnar table and its derived aggregates."""
        self.__dict__.pop("_table", None)
        self.__dict__.pop("_table_token", None)

    def _fast_table(self) -> ProfileTable | None:
        """The memoized table, or ``None`` when the fast path is off."""
        if not columnar.fast_path_enabled():
            return None
        return self.table

    def _attach_table(self, table: ProfileTable) -> None:
        """Install a pre-built table (the batch-simulation fast path)."""
        self.__dict__["_table"] = table
        self.__dict__["_table_token"] = self._profiles_token()

    # ------------------------------------------------------------------ #
    @property
    def total_time_s(self) -> float:
        """Busy execution time of one workload iteration."""
        table = self._fast_table()
        if table is not None:
            return table.total_time_s()
        return sum(p.latency_s * p.count for p in self.profiles)

    @property
    def total_cycles(self) -> float:
        return self.chip.seconds_to_cycles(self.total_time_s)

    def active_s(self, component: Component) -> float:
        """Total active seconds of one component per iteration."""
        table = self._fast_table()
        if table is not None:
            return table.active_total_s(component)
        return sum(p.active_s(component) * p.count for p in self.profiles)

    def temporal_utilization(self, component: Component, strict: bool = False) -> float:
        """Active time over busy time (the Figures 4, 6, 8, 9 metric).

        An over-unity ratio indicates a timing-model bug (per-operator
        active times are clamped to the operator latency, so it cannot
        arise structurally).  It is logged as a warning and clamped; with
        ``strict=True`` it raises :class:`UtilizationError` instead.
        """
        total = self.total_time_s
        if total <= 0:
            return 0.0
        ratio = self.active_s(component) / total
        if ratio > 1.0 + UTILIZATION_TOLERANCE:
            message = (
                f"temporal utilization of {component.value} on {self.graph.name!r} "
                f"is {ratio:.9f} > 1: active time exceeds busy time "
                "(timing-model bug?)"
            )
            if strict:
                raise UtilizationError(message)
            _LOG.warning("%s; clamping to 1.0", message)
        return min(1.0, ratio)

    def dynamic_energy_j(self, component: Component) -> float:
        """Total dynamic energy of one component per iteration."""
        table = self._fast_table()
        if table is not None:
            return table.dynamic_total_j(component)
        return sum(p.dynamic_energy_j[component] * p.count for p in self.profiles)

    def total_dynamic_energy_j(self) -> float:
        return sum(self.dynamic_energy_j(c) for c in Component.all())

    # ------------------------------------------------------------------ #
    def sa_spatial_utilization(self) -> float:
        """SA-active-time-weighted spatial utilization (Figure 5 metric)."""
        table = self._fast_table()
        if table is not None:
            return table.sa_spatial_utilization()
        weighted = 0.0
        total = 0.0
        for profile in self.profiles:
            active = profile.active_s(Component.SA) * profile.count
            if active <= 0:
                continue
            weighted += profile.times.sa_spatial_util * active
            total += active
        if total <= 0:
            return 0.0
        return weighted / total

    def sram_demand_distribution(self) -> list[tuple[float, float]]:
        """(demand_bytes, time_s) pairs, one per operator (Figure 7)."""
        table = self._fast_table()
        if table is not None:
            return table.sram_demand_distribution()
        return [
            (profile.sram_demand_bytes, profile.latency_s * profile.count)
            for profile in self.profiles
        ]

    def gap_profiles(self, component: Component) -> list[GapProfile]:
        """All idle-gap families of one component per iteration."""
        table = self._fast_table()
        if table is not None:
            gap_s, _, num_total = table.gap_table(component)
            return [
                GapProfile(component=component, gap_s=gap, num_gaps=num)
                for gap, num in zip(gap_s.tolist(), num_total.tolist())
                if num > 0
            ]
        gaps: list[GapProfile] = []
        for profile in self.profiles:
            for gap in profile.gap_profiles():
                if gap.component is component:
                    gaps.append(
                        GapProfile(
                            component=component,
                            gap_s=gap.gap_s,
                            num_gaps=gap.num_gaps * profile.count,
                        )
                    )
        return gaps

    def idle_s(self, component: Component) -> float:
        """Total idle seconds of one component per iteration."""
        return max(0.0, self.total_time_s - self.active_s(component))


class NPUSimulator:
    """Simulates a workload graph on one NPU chip."""

    #: Process-wide count of full-graph simulations.  Instrumentation for
    #: the experiment cache: a warm sweep must not increment this.
    simulate_calls: ClassVar[int] = 0

    @classmethod
    def reset_simulate_calls(cls) -> int:
        """Reset the instrumentation counter, returning the old value."""
        previous = NPUSimulator.simulate_calls
        NPUSimulator.simulate_calls = 0
        return previous

    def __init__(self, chip: NPUChipSpec, apply_fusion: bool = True):
        self.chip = chip
        self.apply_fusion = apply_fusion
        self.timing = OperatorTimingModel(chip)
        self.tiling = TilingPass(chip)
        self.power_model = ChipPowerModel.for_chip(chip)

    # ------------------------------------------------------------------ #
    def _dynamic_energy(self, op: Operator, times: ComponentTimes) -> dict[Component, float]:
        dyn = self.power_model.dynamic
        sa_flops = op.sa_flops if times.sa_mapped else 0.0
        vu_flops = op.vu_flops + (0.0 if times.sa_mapped else op.sa_flops)
        # SRAM traffic: staging HBM transfers plus operand/result streaming
        # for the compute units (with full reuse inside the SA).
        sram_bytes = (
            2.0 * op.hbm_bytes
            + sa_flops * 2.0 * op.dtype_bytes / self.chip.sa_width
            + vu_flops * op.dtype_bytes
        )
        energies = {
            Component.SA: dyn.sa_energy(sa_flops),
            Component.VU: dyn.vu_energy(vu_flops),
            Component.SRAM: dyn.sram_energy(sram_bytes),
            Component.HBM: dyn.hbm_energy(op.hbm_bytes),
            Component.ICI: dyn.ici_energy(op.ici_bytes),
        }
        energies[Component.OTHER] = dyn.other_energy(sum(energies.values()))
        return energies

    def simulate_operator(self, op: Operator) -> OperatorProfile:
        """Simulate a single operator."""
        times = self.timing.times(op)
        tile_info = self.tiling.tile(op)
        return OperatorProfile(
            operator=op,
            times=times,
            tile_info=tile_info,
            dynamic_energy_j=self._dynamic_energy(op, times),
        )

    def simulate(self, graph: OperatorGraph | GraphTable) -> WorkloadProfile:
        """Simulate one iteration of a workload graph.

        Accepts either IR.  On the columnar fast path the graph runs
        through the array-native frontend end to end — vectorized
        fusion, tiling, timing and dynamic energy over a
        :class:`~repro.workloads.table.GraphTable` — and the fused
        :class:`OperatorGraph` plus the per-operator profile objects are
        only materialized when somebody walks them.  The per-operator
        loop below is the reference oracle
        (``columnar.use_fast_path(False)``).  Both produce bit-identical
        profiles.
        """
        NPUSimulator.simulate_calls += 1
        if columnar.fast_path_enabled():
            table = graph if isinstance(graph, GraphTable) else GraphTable.from_graph(graph)
            table.validate()
            demand = None
            if self.apply_fusion:
                fusion = FusionPass(self.chip).run_table(table)
                table = fusion.table
                # Fusion never changes an input of the demand expressions,
                # so its fuse-decision demands are reusable — but only when
                # the simulator's tiling matches the fusion pass's default
                # (double-buffered) configuration.
                if self.tiling.double_buffer:
                    demand = fusion.demands
            batch = columnar.batch_simulate_table(
                table, self.chip, self.power_model.dynamic, self.tiling,
                sram_demand=demand,
            )
            fused_graph = table.lazy_graph()
            profile = WorkloadProfile(
                graph=fused_graph,
                chip=self.chip,
                profiles=_LazyOperatorProfiles(
                    lambda: self._materialize(fused_graph, batch)
                ),
            )
            profile._attach_table(batch.table)
            return profile
        if isinstance(graph, GraphTable):
            graph = graph.to_graph()
        graph.validate()
        if self.apply_fusion:
            graph, _groups = FusionPass(self.chip).run(graph)
        profile = WorkloadProfile(graph=graph, chip=self.chip)
        for op in graph.operators:
            profile.profiles.append(self.simulate_operator(op))
        return profile

    # ------------------------------------------------------------------ #
    def _materialize(
        self, graph: OperatorGraph, batch: BatchSimulation
    ) -> list[OperatorProfile]:
        """Build the per-operator objects from one batch simulation."""
        table = batch.table
        profiles: list[OperatorProfile] = []
        components = Component.all()
        dynamic_columns = [table.dynamic[c].tolist() for c in components]
        sa_s = batch.sa_s.tolist()
        vu_s = batch.vu_s.tolist()
        hbm_s = batch.hbm_s.tolist()
        ici_s = batch.ici_s.tolist()
        sa_mapped = table.sa_mapped.tolist()
        sa_util = table.sa_spatial_util.tolist()
        demand = table.sram_demand_bytes.tolist()
        weight_tiles = table.num_weight_tiles.tolist()
        output_tiles = table.num_output_tiles.tolist()
        dma_bursts = table.num_dma_bursts.tolist()
        tile_m = batch.tile_m.tolist()
        tile_k = batch.tile_k.tolist()
        tile_n = batch.tile_n.tolist()
        for index, op in enumerate(graph.operators):
            times = ComponentTimes(
                sa_s=sa_s[index],
                vu_s=vu_s[index],
                hbm_s=hbm_s[index],
                ici_s=ici_s[index],
                overhead_s=batch.overhead_s,
                sa_mapped=sa_mapped[index],
                sa_spatial_util=sa_util[index],
            )
            tile_info = TileInfo(
                sram_demand_bytes=demand[index],
                num_weight_tiles=int(weight_tiles[index]),
                num_output_tiles=int(output_tiles[index]),
                num_dma_bursts=int(dma_bursts[index]),
                tile_m=int(tile_m[index]),
                tile_k=int(tile_k[index]),
                tile_n=int(tile_n[index]),
            )
            energy = {
                component: dynamic_columns[position][index]
                for position, component in enumerate(components)
            }
            profiles.append(
                OperatorProfile(
                    operator=op, times=times, tile_info=tile_info,
                    dynamic_energy_j=energy,
                )
            )
        return profiles


__all__ = [
    "GapProfile",
    "NPUSimulator",
    "OperatorProfile",
    "UTILIZATION_TOLERANCE",
    "UtilizationError",
    "WorkloadProfile",
]
