"""Columnar (structure-of-arrays) simulation core.

The object-path oracle represents a workload as a tuple of
:class:`~repro.simulator.engine.OperatorProfile` objects and every
aggregate (busy time, per-component active time, gap structure, energy)
as a Python loop over them.  This module provides the NumPy-backed fast
path: a :class:`ProfileTable` holds one aligned ``float64`` array per
per-operator quantity.  The fast path builds it in one vectorized batch
from a :class:`~repro.workloads.table.GraphTable`
(:func:`batch_simulate_table`), one batch per chip for many graphs laid
end to end (:class:`Segments`, :meth:`ProfileTable.segment`), and that
table *is* the profile: no per-operator object is ever built from it.
An oracle profile's table is extracted from its objects
(:meth:`ProfileTable.from_profiles`), so an oracle profile can be priced
on the fast path too.

**Bit-for-bit equivalence with the object path is a hard contract**, not
a best-effort goal: the golden regression fixtures and the experiment
cache were produced by the loop-based code, and a cold sweep must
produce byte-identical CSVs on either path.  Two rules keep the paths
exactly equal:

* every elementwise expression mirrors the scalar code's operation
  order (IEEE-754 double arithmetic is deterministic, but not
  associative — ``a + b + c`` must stay ``(a + b) + c``);
* reductions that the object path accumulates sequentially are
  strictly left to right: :meth:`Segments.sums` (one segment per
  profile of a batch) or :func:`seq_sum`, never ``np.sum``, whose
  pairwise summation rounds differently.

The fast path can be globally disabled with :func:`use_fast_path` (or
:func:`set_fast_path`, or ``REPRO_FAST_PATH=0`` at startup): the
simulator then builds oracle profiles, whose aggregates and policy
pricing run the original loop implementations — the reference oracle
for the equivalence tests.
"""

from __future__ import annotations

import itertools
import os
from contextlib import contextmanager
from typing import Iterator

import numpy as np

from repro.hardware.chips import NPUChipSpec
from repro.hardware.components import Component
from repro.hardware.power import DynamicEnergyModel
from repro.compiler.tiling import TilingPass
from repro.simulator.timing import (
    HBM_EFFICIENCY,
    ICI_EFFICIENCY,
    OPERATOR_OVERHEAD_CYCLES,
    SA_MAPPING_MIN_M,
)
from repro.workloads.table import GraphTable

# ---------------------------------------------------------------------- #
# Fast-path switch
# ---------------------------------------------------------------------- #
# ``REPRO_FAST_PATH=0`` starts the process on the object-path oracle
# (CI's equivalence job uses it); :func:`set_fast_path` /
# :func:`use_fast_path` still override it at runtime.
_FAST_PATH_ENABLED = os.environ.get("REPRO_FAST_PATH", "1") != "0"


def fast_path_enabled() -> bool:
    """Whether aggregates and policies use the columnar fast path."""
    return _FAST_PATH_ENABLED


def set_fast_path(enabled: bool) -> bool:
    """Enable/disable the fast path globally; returns the previous state."""
    global _FAST_PATH_ENABLED
    previous = _FAST_PATH_ENABLED
    _FAST_PATH_ENABLED = bool(enabled)
    return previous


@contextmanager
def use_fast_path(enabled: bool = True) -> Iterator[None]:
    """Context manager scoping the fast-path switch (reference oracle off)."""
    previous = set_fast_path(enabled)
    try:
        yield
    finally:
        set_fast_path(previous)


# ---------------------------------------------------------------------- #
# Sequential reduction
# ---------------------------------------------------------------------- #
def seq_sum(values: np.ndarray) -> float:
    """Strictly left-to-right sum, bit-identical to Python's ``sum()``.

    ``np.sum`` uses pairwise summation, which rounds differently from
    the sequential accumulation the object path performs; ``cumsum`` is
    defined element-by-element and therefore accumulates in order.
    """
    if values.size == 0:
        return 0.0
    return float(values.cumsum()[-1])


def _as_float_array(values: list) -> np.ndarray:
    return np.asarray(values, dtype=np.float64)


class Segments:
    """Ragged segments packed end to end along an array's last axis.

    ``Segments(lengths)`` cuts ``sum(lengths)`` columns into consecutive
    runs: segment ``s`` is columns ``[bounds[s], bounds[s + 1])``.  A
    batch of profiles (or graphs) of one chip is laid out this way, one
    segment per profile, and :meth:`sums` / :meth:`maxes` reduce every
    segment of every row in a fixed number of NumPy calls, however many
    segments there are.

    :meth:`sums` is the fast path's one sequential reduction.  It starts
    each segment from its element 0 and adds the segment's elements
    position by position (one NumPy call per position, all segments
    still that long at once), so every entry is bit-identical to
    ``cumsum(axis=-1)[..., -1]`` of its segment, a leading ``-0.0``
    included, and therefore to :func:`seq_sum`; a lone segment is that
    one ``cumsum``.  :meth:`maxes` needs no ordering and is one
    ``np.maximum.reduceat``.
    """

    def __init__(self, lengths):
        self.lengths = [int(length) for length in lengths]
        #: Segment ``s`` spans ``bounds[s]:bounds[s + 1]``.
        self.bounds = [0, *itertools.accumulate(self.lengths)]
        self.n_segments = len(self.lengths)
        self._plan: tuple | None = None

    def spans(self) -> list[tuple[int, int]]:
        """``(start, end)`` of every segment."""
        return list(zip(self.bounds[:-1], self.bounds[1:]))

    def _position_plan(self) -> tuple[np.ndarray, list[int], np.ndarray]:
        """``(order, live, gather)`` of the position-by-position sum.

        ``order`` lists the non-empty segments longest first (stable),
        ``live[k]`` counts those longer than ``k``, so at position ``k``
        the live segments are a prefix of ``order``; ``gather`` picks
        the columns position-major: position 0 of every live segment,
        then position 1, and so on.
        """
        if self._plan is None:
            lengths = np.asarray(self.lengths, dtype=np.int64)
            order = np.argsort(-lengths, kind="stable")
            order = order[lengths[order] > 0]
            ordered = lengths[order]
            max_length = int(ordered[0]) if order.size else 0
            live = np.searchsorted(-ordered, -np.arange(max_length), side="left")
            step = np.repeat(np.arange(max_length), live)
            rank = np.arange(step.size) - np.repeat(np.cumsum(live) - live, live)
            starts = np.asarray(self.bounds[:-1], dtype=np.int64)[order]
            self._plan = (order, live.tolist(), starts[rank] + step)
        return self._plan

    def sums(self, values: np.ndarray) -> np.ndarray:
        """Per-segment sequential sums along the last axis of ``values``.

        Returns an array of shape ``values.shape[:-1] + (n_segments,)``
        whose entries are bit-identical to ``values[..., start:end]
        .cumsum(axis=-1)[..., -1]`` (``0.0`` for an empty segment).
        """
        head = values.shape[:-1]
        if self.n_segments == 1 and self.lengths[0]:
            return values.cumsum(axis=-1)[..., -1:]
        order, live, gather = self._position_plan()
        if not live:
            return np.zeros((*head, self.n_segments), dtype=np.float64)
        # Position-major and transposed, so that each position's live
        # segments (a prefix of ``order``) are one contiguous block.
        gathered = values.T[gather]
        acc = gathered[: live[0]].copy()
        offset = live[0]
        for count in live[1:]:
            block = acc[:count]
            block += gathered[offset : offset + count]
            offset += count
        out = np.zeros((self.n_segments, *head[::-1]), dtype=np.float64)
        out[order] = acc
        return out.T

    def maxes(self, values: np.ndarray) -> np.ndarray:
        """Per-segment max along the last axis of ``values``, floored at 0.0.

        Equal to ``values[..., start:end].max(axis=-1, initial=0.0)``
        (``0.0`` for an empty segment) for values without a ``-0.0``,
        where the order of equal-valued zeros could pick either sign.
        """
        nonempty = [s for s, length in enumerate(self.lengths) if length]
        out = np.zeros((*values.shape[:-1], self.n_segments), dtype=np.float64)
        if nonempty:
            starts = [self.bounds[s] for s in nonempty]
            maxes = np.maximum(0.0, np.maximum.reduceat(values, starts, axis=-1))
            if len(nonempty) == self.n_segments:
                return maxes
            out[..., nonempty] = maxes
        return out


#: Components with per-operator idle gaps, in the row order of
#: :attr:`ProfileTotals.arrays`.  SRAM and OTHER have none.
GAP_COMPONENTS = (Component.SA, Component.VU, Component.HBM, Component.ICI)


def _burst_gaps(table: "ProfileTable") -> tuple[np.ndarray, np.ndarray]:
    """``(gap_s, num_gaps_per_invocation)`` of every gap component.

    The single definition of the idle-gap burst model
    (:meth:`~repro.simulator.engine.OperatorProfile.gap_profiles`
    vectorized): ``(len(GAP_COMPONENTS), n_ops)`` matrices whose rows
    follow :data:`GAP_COMPONENTS`.  An active SA splits its idle time
    into one gap per weight tile when it is mapped; an active VU into
    one per output tile (SA-mapped) or per DMA burst; an active HBM into
    one per DMA burst; the ICI idles in one gap.  An operator without
    idle time has no gap (zeros in both rows).
    """
    latency = table.latency_s
    sa_mapped = table.sa_mapped
    dma_bursts = np.maximum(1.0, table.num_dma_bursts)
    active = np.array([table.active[c] for c in GAP_COMPONENTS])
    idle = np.maximum(0.0, latency - active)
    has_gap = idle > 0.0
    busy_bursts = np.array(
        [
            np.where(sa_mapped, np.maximum(1.0, table.num_weight_tiles), 1.0),
            np.where(sa_mapped, np.maximum(1.0, table.num_output_tiles), dma_bursts),
            dma_bursts,
            np.ones_like(latency),
        ]
    )
    bursts = np.where(active > 0.0, busy_bursts, 1.0)
    gap_s = np.where(has_gap, idle / bursts, 0.0)
    return gap_s, np.where(has_gap, bursts, 0.0)


class ProfileTotals:
    """The one reduction of a :class:`ProfileTable` (:attr:`ProfileTable.totals`).

    Every per-profile sum the aggregates and the policies read comes
    from one :meth:`Segments.sums` pass over the products the object
    path sums, so each is bit-identical to the oracle's loop:

    * ``total_time_s``: busy time, ``sum(latency * count)``;
    * ``active_total_s`` / ``dynamic_total_j``: per component;
    * ``idle_total_s`` / ``gap_count``: per gap component, the idle
      seconds and the number of idle gaps per iteration;
    * ``sa_spatial_utilization``: the Figure 5 metric.

    ``arrays`` keeps the per-operator rows the policies price (and a
    :class:`~repro.gating.policies.PackedProfiles` joins): the
    ``latency * count`` and SA ``active * count`` rows, then one block
    each of ``gap_s``, ``num_gaps`` (gaps per iteration) and ``idle_s``
    (``gap_s * num_gaps``) rows in :data:`GAP_COMPONENTS` order.
    :meth:`rows` names them.  :meth:`segmented` reduces a whole batch of
    profiles laid end to end in one table at once.
    """

    __slots__ = (
        "arrays",
        "total_time_s",
        "active_total_s",
        "dynamic_total_j",
        "gap_count",
        "idle_total_s",
        "sa_spatial_utilization",
        "_gaps",
    )

    def __init__(self, arrays: np.ndarray, sums: list[float]):
        """One profile's ``arrays`` and its row sums, in :meth:`segmented` order."""
        components = Component.all()
        n = len(components)
        self.arrays = arrays
        self._gaps: dict | None = None
        self.total_time_s: float = sums[0]
        self.active_total_s = dict(zip(components, sums[1 : 1 + n]))
        self.dynamic_total_j = dict(zip(components, sums[1 + n : 1 + 2 * n]))
        gap_sums = sums[1 + 2 * n : -2]
        self.gap_count = dict(zip(GAP_COMPONENTS, gap_sums))
        self.idle_total_s = dict(zip(GAP_COMPONENTS, gap_sums[len(GAP_COMPONENTS) :]))
        weighted_util, total = sums[-2:]
        self.sa_spatial_utilization = 0.0 if total <= 0 else weighted_util / total

    @classmethod
    def segmented(
        cls, table: "ProfileTable", segments: Segments
    ) -> list["ProfileTotals"]:
        """The reduction of every segment of ``table``, one profile each.

        The per-operator rows are computed once over the whole table and
        every segment's ``arrays`` is a view of them; the sums are one
        :meth:`Segments.sums` call.
        """
        count = table.count
        components = Component.all()
        # Rows: latency, then active and dynamic per component, all
        # weighted by the invocation count.
        weighted = (
            np.array(
                [
                    table.latency_s,
                    *(table.active[c] for c in components),
                    *(table.dynamic[c] for c in components),
                ]
            )
            * count
        )
        sa_row = 1 + components.index(Component.SA)
        sa_active = weighted[sa_row]
        gap_s, per_invocation = _burst_gaps(table)
        num_gaps = per_invocation * count
        idle_s = gap_s * num_gaps
        arrays = np.concatenate((weighted[[0, sa_row]], gap_s, num_gaps, idle_s))
        sa_mask = sa_active > 0.0
        spatial = np.array(
            [
                np.where(sa_mask, table.sa_spatial_util * sa_active, 0.0),
                np.where(sa_mask, sa_active, 0.0),
            ]
        )
        sums = segments.sums(np.concatenate((weighted, num_gaps, idle_s, spatial)))
        return [
            cls(arrays[:, start:end], column)
            for (start, end), column in zip(segments.spans(), sums.T.tolist())
        ]

    @property
    def weighted_latency(self) -> np.ndarray:
        """Per-operator ``latency * count``."""
        return self.arrays[0]

    @property
    def gaps(self) -> dict[Component, tuple[np.ndarray, ...]]:
        """Per gap component, its ``(gap_s, num_gaps, idle_s)`` rows."""
        if self._gaps is None:
            self._gaps = self.rows(self.arrays)[2]
        return self._gaps

    @staticmethod
    def rows(
        arrays: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, dict[Component, tuple[np.ndarray, ...]]]:
        """``(weighted_latency, weighted_sa_active, gaps)`` views of ``arrays``.

        Reads the layout of :attr:`arrays`, or of any column-wise join of
        several tables' ``arrays``; ``gaps`` maps each gap component to
        its ``(gap_s, num_gaps, idle_s)`` rows.
        """
        n = len(GAP_COMPONENTS)
        gaps = {
            component: tuple(arrays[2 + index :: n])
            for index, component in enumerate(GAP_COMPONENTS)
        }
        return arrays[0], arrays[1], gaps


# ---------------------------------------------------------------------- #
# The structure-of-arrays profile
# ---------------------------------------------------------------------- #
class ProfileTable:
    """Aligned per-operator arrays of one simulated workload iteration.

    All arrays have one entry per operator (post-fusion program order).
    ``active``/``dynamic`` map each :class:`Component` to its per-
    invocation active seconds (clamped to the operator latency) and
    dynamic energy.  Every derived aggregate (busy time, per-component
    totals, idle-gap arrays and their sums) comes from one reduction,
    :attr:`totals`, computed on first use and cached; the gating
    policies read it too, so a profile is reduced once however many
    policies and packs price it.
    """

    def __init__(
        self,
        *,
        count: np.ndarray,
        latency_s: np.ndarray,
        sa_mapped: np.ndarray,
        sa_spatial_util: np.ndarray,
        active: dict[Component, np.ndarray],
        dynamic: dict[Component, np.ndarray],
        sram_demand_bytes: np.ndarray,
        num_weight_tiles: np.ndarray,
        num_output_tiles: np.ndarray,
        num_dma_bursts: np.ndarray,
        dims_m: np.ndarray,
        dims_k: np.ndarray,
        dims_n: np.ndarray,
        has_dims: np.ndarray,
    ):
        self.count = count
        self.latency_s = latency_s
        self.sa_mapped = sa_mapped
        self.sa_spatial_util = sa_spatial_util
        self.active = active
        self.dynamic = dynamic
        self.sram_demand_bytes = sram_demand_bytes
        self.num_weight_tiles = num_weight_tiles
        self.num_output_tiles = num_output_tiles
        self.num_dma_bursts = num_dma_bursts
        self.dims_m = dims_m
        self.dims_k = dims_k
        self.dims_n = dims_n
        self.has_dims = has_dims
        self.n_ops = int(count.size)
        self._totals: ProfileTotals | None = None
        #: Cross-policy scratchpad: the gating policies keep the
        #: profile's one-profile ``PackedProfiles`` here, so five
        #: policies evaluated on one profile share its derived arrays.
        self.memo: dict = {}

    # -- constructors --------------------------------------------------- #
    @classmethod
    def from_profiles(cls, profiles: list) -> "ProfileTable":
        """Extract the arrays from object-path ``OperatorProfile``s."""
        count = _as_float_array([p.count for p in profiles])
        latency = _as_float_array([p.latency_s for p in profiles])
        sa_mapped = np.asarray([p.sa_mapped for p in profiles], dtype=bool)
        sa_util = _as_float_array([p.times.sa_spatial_util for p in profiles])
        active = {
            component: _as_float_array([p.active_s(component) for p in profiles])
            for component in Component.all()
        }
        dynamic = {
            component: _as_float_array(
                [p.dynamic_energy_j[component] for p in profiles]
            )
            for component in Component.all()
        }
        dims = [p.operator.dims for p in profiles]
        return cls(
            count=count,
            latency_s=latency,
            sa_mapped=sa_mapped,
            sa_spatial_util=sa_util,
            active=active,
            dynamic=dynamic,
            sram_demand_bytes=_as_float_array(
                [p.sram_demand_bytes for p in profiles]
            ),
            num_weight_tiles=_as_float_array(
                [p.tile_info.num_weight_tiles for p in profiles]
            ),
            num_output_tiles=_as_float_array(
                [p.tile_info.num_output_tiles for p in profiles]
            ),
            num_dma_bursts=_as_float_array(
                [p.tile_info.num_dma_bursts for p in profiles]
            ),
            dims_m=_as_float_array([d.m if d is not None else 1 for d in dims]),
            dims_k=_as_float_array([d.k if d is not None else 1 for d in dims]),
            dims_n=_as_float_array([d.n if d is not None else 1 for d in dims]),
            has_dims=np.asarray([d is not None for d in dims], dtype=bool),
        )

    def segment(
        self, start: int, end: int, graph: GraphTable, totals: ProfileTotals
    ) -> "ProfileTable":
        """Rows ``[start, end)``, one graph of a batch, as that graph's profile.

        Every simulated array is a view of this table's (nothing is
        copied); the graph columns (counts, matmul dimensions) are
        ``graph``'s own arrays, which hold the same values, so a profile
        pins no copy of the batch's concatenated graph columns.
        ``totals`` is the segment's reduction
        (:meth:`ProfileTotals.segmented`).
        """
        rows = slice(start, end)
        part = ProfileTable(
            count=graph.count,
            latency_s=self.latency_s[rows],
            sa_mapped=self.sa_mapped[rows],
            sa_spatial_util=self.sa_spatial_util[rows],
            active={c: values[rows] for c, values in self.active.items()},
            dynamic={c: values[rows] for c, values in self.dynamic.items()},
            sram_demand_bytes=self.sram_demand_bytes[rows],
            num_weight_tiles=self.num_weight_tiles[rows],
            num_output_tiles=self.num_output_tiles[rows],
            num_dma_bursts=self.num_dma_bursts[rows],
            dims_m=graph.dims_m,
            dims_k=graph.dims_k,
            dims_n=graph.dims_n,
            has_dims=graph.has_dims,
        )
        part._totals = totals
        return part

    # -- aggregates (all read the one reduction) ------------------------ #
    @property
    def totals(self) -> ProfileTotals:
        """The profile's reduction, computed on first use."""
        if self._totals is None:
            self._totals = ProfileTotals.segmented(self, Segments([self.n_ops]))[0]
        return self._totals

    def total_time_s(self) -> float:
        """Busy time of one iteration: ``sum(latency * count)``."""
        return self.totals.total_time_s

    def active_total_s(self, component: Component) -> float:
        """Total active seconds of one component per iteration."""
        return self.totals.active_total_s[component]

    def dynamic_total_j(self, component: Component) -> float:
        """Total dynamic energy of one component per iteration."""
        return self.totals.dynamic_total_j[component]

    def sa_spatial_utilization(self) -> float:
        """SA-active-time-weighted spatial utilization (Figure 5)."""
        return self.totals.sa_spatial_utilization

    def sram_demand_distribution(self) -> list[tuple[float, float]]:
        """(demand_bytes, time_s) pairs, one per operator (Figure 7)."""
        times = self.totals.weighted_latency
        return list(zip(self.sram_demand_bytes.tolist(), times.tolist()))

    def gap_table(
        self, component: Component
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-operator ``(gap_s, num_gaps, idle_s)`` of one component.

        ``num_gaps`` counts the gaps per iteration and ``idle_s`` is
        ``gap_s * num_gaps``.  Operators without an idle gap for this
        component hold zeros (adding a zero term to a running float sum
        is exact, so the zero-padded arrays reduce bit-identically to the
        object path's filtered gap lists), and SRAM/OTHER, which have no
        per-operator gap structure, are all zeros.  The object path's
        idle accounting reads it through
        :meth:`~repro.simulator.engine.WorkloadProfile.gap_profiles`.
        """
        gaps = self.totals.gaps.get(component)
        if gaps is None:
            zeros = np.zeros_like(self.latency_s)
            return zeros, zeros, zeros
        return gaps


# ---------------------------------------------------------------------- #
# Batch simulation (vectorized timing + tiling + dynamic energy)
# ---------------------------------------------------------------------- #
def batch_simulate_table(
    table: GraphTable,
    chip: NPUChipSpec,
    dynamic_model: DynamicEnergyModel | None = None,
    tiling: TilingPass | None = None,
    sram_demand: np.ndarray | None = None,
) -> ProfileTable:
    """Simulate every operator of a :class:`GraphTable` in one batch.

    Produces, for each operator, exactly the values
    ``OperatorTimingModel.times`` + ``TilingPass.tile`` +
    ``NPUSimulator._dynamic_energy`` compute one at a time — the scalar
    expression structure is mirrored operation-for-operation so the
    results are bit-identical doubles.  This is the core of the
    columnar compiler frontend: the input arrays are the columns
    :meth:`GraphTable.from_graph` read off the workload graph, so no
    per-operator Python object is touched here.
    """
    dyn = dynamic_model or DynamicEnergyModel(chip)
    tiling = tiling or TilingPass(chip)
    width = chip.sa_width

    count = table.count
    sa_flops = table.sa_flops
    vu_flops = table.vu_flops
    hbm_bytes = table.hbm_bytes
    ici_bytes = table.ici_bytes
    dtype_bytes = table.dtype_bytes
    uses_sa = table.uses_sa
    is_ptp = table.is_ptp
    has_dims = table.has_dims
    dims_m, dims_k, dims_n = table.dims_m, table.dims_k, table.dims_n

    # -- timing (OperatorTimingModel) ----------------------------------- #
    sa_mapped = uses_sa & has_dims & (sa_flops > 0.0) & (dims_m >= SA_MAPPING_MIN_M)
    # padding_efficiency / pipeline_fill_efficiency with the scalar
    # code's `dim <= 0 -> 0.0` guards (the max(..., 1.0) only rewrites
    # denominators of masked-out entries, never a live one).
    pad_k = np.where(
        dims_k > 0, dims_k / np.maximum(np.ceil(dims_k / width) * width, 1.0), 0.0
    )
    pad_n = np.where(
        dims_n > 0, dims_n / np.maximum(np.ceil(dims_n / width) * width, 1.0), 0.0
    )
    fill_m = np.where(dims_m > 0, dims_m / (dims_m + 2.0 * width), 0.0)
    util = np.maximum(pad_k * pad_n * fill_m, 1e-4)
    sa_s = np.where(sa_mapped, sa_flops / (chip.peak_sa_flops * util), 0.0)
    sa_util = np.where(sa_mapped, util, 0.0)

    eff_vu_flops = vu_flops + np.where(sa_mapped, 0.0, sa_flops)
    vu_s = np.where(eff_vu_flops > 0.0, eff_vu_flops / chip.peak_vu_flops, 0.0)

    hbm_s = np.where(
        hbm_bytes > 0.0,
        hbm_bytes / (chip.hbm_bandwidth_bytes * HBM_EFFICIENCY),
        0.0,
    )

    ici_bandwidth = chip.ici_bandwidth_bytes * ICI_EFFICIENCY
    ici_s = np.where(
        ici_bytes > 0.0,
        ici_bytes / np.where(is_ptp, ici_bandwidth * 0.5, ici_bandwidth),
        0.0,
    )

    overhead_s = OPERATOR_OVERHEAD_CYCLES * chip.cycle_time_s
    latency = np.maximum(np.maximum(np.maximum(sa_s, vu_s), hbm_s), ici_s) + overhead_s

    active = {
        Component.SA: np.minimum(sa_s, latency),
        Component.VU: np.minimum(vu_s, latency),
        Component.HBM: np.minimum(hbm_s, latency),
        Component.ICI: np.minimum(ici_s, latency),
        Component.SRAM: np.minimum(
            np.maximum(np.maximum(sa_s, vu_s), hbm_s), latency
        ),
        Component.OTHER: latency,
    }

    # -- tiling (TilingPass, vectorized) --------------------------------- #
    tiles = tiling.tile_table(table, demand=sram_demand)

    # -- dynamic energy (NPUSimulator._dynamic_energy) ------------------- #
    dyn_sa_flops = np.where(sa_mapped, sa_flops, 0.0)
    dyn_vu_flops = vu_flops + np.where(sa_mapped, 0.0, sa_flops)
    sram_bytes = (
        2.0 * hbm_bytes
        + dyn_sa_flops * 2.0 * dtype_bytes / width
        + dyn_vu_flops * dtype_bytes
    )
    e_sa = dyn.sa_energy(dyn_sa_flops)
    e_vu = dyn.vu_energy(dyn_vu_flops)
    e_sram = dyn.sram_energy(sram_bytes)
    e_hbm = dyn.hbm_energy(hbm_bytes)
    e_ici = dyn.ici_energy(ici_bytes)
    # Mirrors sum(energies.values()) over the insertion order SA, VU,
    # SRAM, HBM, ICI (sequential left-to-right adds).
    e_other = dyn.other_energy(e_sa + e_vu + e_sram + e_hbm + e_ici)
    dynamic = {
        Component.SA: e_sa,
        Component.VU: e_vu,
        Component.SRAM: e_sram,
        Component.HBM: e_hbm,
        Component.ICI: e_ici,
        Component.OTHER: e_other,
    }

    return ProfileTable(
        count=count,
        latency_s=latency,
        sa_mapped=sa_mapped,
        sa_spatial_util=sa_util,
        active=active,
        dynamic=dynamic,
        sram_demand_bytes=tiles.sram_demand_bytes,
        num_weight_tiles=tiles.num_weight_tiles,
        num_output_tiles=tiles.num_output_tiles,
        num_dma_bursts=tiles.num_dma_bursts,
        dims_m=dims_m,
        dims_k=dims_k,
        dims_n=dims_n,
        has_dims=has_dims,
    )


__all__ = [
    "GAP_COMPONENTS",
    "ProfileTable",
    "ProfileTotals",
    "Segments",
    "batch_simulate_table",
    "fast_path_enabled",
    "seq_sum",
    "set_fast_path",
    "use_fast_path",
]
