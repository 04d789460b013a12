"""Operator-level NPU performance and activity simulator.

For every operator of a workload graph the simulator computes the
per-component active times, the dynamic energy, the SRAM capacity
demand, and the structure of the idle periods (how many gaps of which
characteristic length each component sees).  The power-gating policies
in :mod:`repro.gating.policies` consume this :class:`WorkloadProfile` to
account static energy under the different gating schemes — the same
split the paper uses between its performance simulator backend and its
power/energy analysis.

:meth:`NPUSimulator.simulate` (and :meth:`NPUSimulator.simulate_many`,
its batched form) fixes each profile's representation when it builds
it.  On the columnar fast path the profile *is* its
:class:`~repro.simulator.columnar.ProfileTable` (with the fused
:class:`~repro.workloads.table.GraphTable` as its graph); the object-path
oracle (``REPRO_FAST_PATH=0``) builds one :class:`OperatorProfile` per
fused operator instead.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import ClassVar, Iterable

from repro.compiler.fusion import FusionPass
from repro.compiler.tiling import TileInfo, TilingPass
from repro.hardware.chips import NPUChipSpec
from repro.hardware.components import Component
from repro.hardware.power import ChipPowerModel
from repro.simulator import columnar
from repro.simulator.columnar import ProfileTable
from repro.simulator.timing import ComponentTimes, OperatorTimingModel
from repro.workloads.base import Operator, OperatorGraph
from repro.workloads.table import GraphTable

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


@dataclass(frozen=True)
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


class WorkloadProfile:
    """Aggregated simulation results for one workload iteration on one chip.

    A profile holds one of two representations, fixed when it is built:

    * a fast-path profile (:meth:`from_table`) holds its
      :class:`~repro.simulator.columnar.ProfileTable` and, as ``graph``,
      the fused :class:`~repro.workloads.table.GraphTable`.  It has no
      per-operator objects: reading :attr:`profiles` raises.
    * an oracle profile holds an immutable tuple of
      :class:`OperatorProfile` objects and the fused
      :class:`OperatorGraph`.  Its :attr:`table` is extracted from the
      tuple once, on first read, so it can be priced on the fast path
      too.

    Every aggregate has two implementations producing bit-identical
    doubles: a vectorized reduction over :attr:`table` and the original
    object-path loop over :attr:`profiles`, the reference oracle.  The
    loop runs only for an oracle profile while the fast path is switched
    off (:func:`repro.simulator.columnar.use_fast_path`).
    """

    def __init__(
        self,
        graph: OperatorGraph | GraphTable,
        chip: NPUChipSpec,
        profiles: Iterable[OperatorProfile] = (),
    ):
        self.graph = graph
        self.chip = chip
        self._profiles: tuple[OperatorProfile, ...] | None = tuple(profiles)
        self._table: ProfileTable | None = None

    @classmethod
    def from_table(
        cls, graph: GraphTable, chip: NPUChipSpec, table: ProfileTable
    ) -> "WorkloadProfile":
        """A fast-path profile: the simulated ``table`` of fused ``graph``."""
        profile = cls(graph, chip)
        profile._profiles = None
        profile._table = table
        return profile

    @property
    def profiles(self) -> tuple[OperatorProfile, ...]:
        """The per-operator results of an oracle-built profile."""
        if self._profiles is None:
            raise AttributeError(
                f"the profile of {self.graph.name!r} was built on the columnar "
                "fast path and holds only its ProfileTable (.table); per-operator "
                "OperatorProfile objects exist only on the object-path oracle: "
                "simulate with REPRO_FAST_PATH=0 or inside "
                "repro.simulator.columnar.use_fast_path(False)"
            )
        return self._profiles

    @property
    def table(self) -> ProfileTable:
        """The columnar view of this profile (built once for an oracle one)."""
        if self._table is None:
            self._table = ProfileTable.from_profiles(self._profiles)
        return self._table

    @property
    def on_fast_path(self) -> bool:
        """Whether aggregates and policy pricing read :attr:`table`.

        Always for a fast-path profile, which holds nothing else; for an
        oracle profile while the columnar fast path is switched on.
        """
        return self._profiles is None or columnar.fast_path_enabled()

    def _fast_table(self) -> ProfileTable | None:
        """The table when :attr:`on_fast_path`, else ``None``."""
        return self.table if self.on_fast_path else None

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
            gap_s, num_gaps, _ = table.gap_table(component)
            return [
                GapProfile(component=component, gap_s=gap, num_gaps=num)
                for gap, num in zip(gap_s.tolist(), num_gaps.tolist())
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

        Accepts either IR.  On the columnar fast path this is
        :meth:`simulate_many` of the one graph.  The per-operator loop
        below is the reference oracle (``columnar.use_fast_path(False)``);
        both produce bit-identical tables.
        """
        if columnar.fast_path_enabled():
            return self.simulate_many([graph])[0]
        NPUSimulator.simulate_calls += 1
        if isinstance(graph, GraphTable):
            graph = graph.to_graph()
        graph.validate()
        if self.apply_fusion:
            graph, _groups = FusionPass(self.chip).run(graph)
        return WorkloadProfile(
            graph, self.chip, [self.simulate_operator(op) for op in graph.operators]
        )

    def simulate_many(
        self, graphs: Iterable[OperatorGraph | GraphTable]
    ) -> list[WorkloadProfile]:
        """Simulate many graphs on this chip, one profile per graph, in order.

        On the columnar fast path the graphs run through the array-native
        frontend in one pass: their tables are laid end to end
        (:meth:`GraphTable.concat`, one segment per graph), and fusion
        (which never crosses a segment), tiling, timing, dynamic energy
        and the :class:`~repro.simulator.columnar.ProfileTotals`
        reduction each run once over the whole batch.  Each graph's
        profile holds its segment of the batch's arrays as views
        (:meth:`ProfileTable.segment`) and its own fused
        :class:`~repro.workloads.table.GraphTable` (a lone graph's are
        the batch's own).  Every profile is
        bit-identical to simulating its graph alone.  With the fast path
        off, each graph goes through :meth:`simulate`'s oracle.

        Each graph is validated on its own, so an error names the graph,
        and :attr:`simulate_calls` counts one per graph.
        """
        graphs = list(graphs)
        if not columnar.fast_path_enabled():
            return [self.simulate(graph) for graph in graphs]
        if not graphs:
            return []
        NPUSimulator.simulate_calls += len(graphs)
        tables = [
            graph if isinstance(graph, GraphTable) else GraphTable.from_graph(graph)
            for graph in graphs
        ]
        for table in tables:
            table.validate()
        segments = columnar.Segments([table.n_ops for table in tables])
        batch = GraphTable.concat(tables)
        demand = None
        if self.apply_fusion:
            fusion = FusionPass(self.chip).run_table(
                batch, starts=segments.bounds[:-1]
            )
            # Fusion never changes an input of the demand expressions,
            # so its fuse-decision demands are the fused table's.
            batch, demand = fusion.table, fusion.demands
        whole = columnar.batch_simulate_table(
            batch, self.chip, self.power_model.dynamic, self.tiling,
            sram_demand=demand,
        )
        if len(tables) == 1:
            # One graph is the whole batch: its profile is the batch's
            # fused table and profile table, reduced on first use.
            return [WorkloadProfile.from_table(batch, self.chip, whole)]
        totals = columnar.ProfileTotals.segmented(whole, segments)
        profiles = []
        for table, (start, end), reduced in zip(tables, segments.spans(), totals):
            if self.apply_fusion:
                # Fusion rewrites only the HBM traffic columns.
                table = table.replace(
                    hbm_read_bytes=batch.hbm_read_bytes[start:end],
                    hbm_write_bytes=batch.hbm_write_bytes[start:end],
                )
            profiles.append(
                WorkloadProfile.from_table(
                    table, self.chip, whole.segment(start, end, table, reduced)
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
