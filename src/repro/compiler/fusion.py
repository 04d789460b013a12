"""Operator fusion pass.

Consecutive small operators are fused so their intermediate tensors stay
in SRAM, eliminating round trips to HBM.  This mirrors the common ML
compiler optimization (XLA/TVM style) that the paper's simulator
frontend applies; the SRAM-demand study in §3 explicitly fuses "as many
consecutive operators as possible when they are small enough to fit
entirely into the 128 MB SRAM".

The pass has two implementations that produce bit-identical fused
graphs and group boundaries:

* :meth:`FusionPass.run` — the object-path rewrite loop over
  :class:`~repro.workloads.base.Operator` objects (the reference
  oracle);
* :meth:`FusionPass.run_table` — a vectorized rewrite of a
  :class:`~repro.workloads.table.GraphTable` with masked array ops (the
  columnar compiler frontend): the fuse mask, the HBM read/write
  reductions and the group boundaries are each one array expression.

SRAM demands are returned explicitly (aligned with the operators /
rows) rather than stashed on operator objects, so reusing a pass —
or an operator — across runs can never serve stale state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.compiler.tiling import TilingPass
from repro.hardware.chips import NPUChipSpec
from repro.workloads.base import Operator, OperatorGraph, OpKind
from repro.workloads.table import KIND_CODE, GraphTable


@dataclass
class FusionGroup:
    """A maximal run of operators fused into a single kernel.

    ``demands`` holds the per-operator SRAM demand (bytes) the pass
    computed while deciding the group's boundaries, aligned with
    ``operators`` — an explicit result rather than attribute-stashed
    state, so groups stay valid however operators are reused.
    """

    operators: list[Operator] = field(default_factory=list)
    demands: list[float] = field(default_factory=list)

    @property
    def name(self) -> str:
        return "+".join(op.name for op in self.operators)

    @property
    def sram_demand_bytes(self) -> float:
        return sum(self.demands)


@dataclass(frozen=True)
class TableFusionResult:
    """Vectorized fusion output: the rewritten table plus group structure.

    ``group_id`` maps each (pre- and post-fusion, the boundaries are
    positional) operator row to its fusion group in program order,
    counted from 0 in each graph of a batched run;
    ``demands`` is the per-row SRAM demand the fuse decisions used.
    """

    table: GraphTable
    group_id: np.ndarray
    demands: np.ndarray

    @property
    def num_groups(self) -> int:
        """Fusion groups of a one-graph run (the last graph's in a batch)."""
        if self.group_id.size == 0:
            return 0
        return int(self.group_id[-1]) + 1


_FUSABLE_KIND_CODES = tuple(
    KIND_CODE[kind] for kind in (OpKind.ELEMENTWISE, OpKind.SOFTMAX, OpKind.LAYERNORM)
)


class FusionPass:
    """Fuses eligible elementwise consumers into their producers.

    The pass operates on the operator list in program order.  A fusable
    elementwise/softmax/layernorm operator whose working set fits in the
    SRAM together with its producer is merged: its HBM read traffic for
    the producer's output and the producer's HBM write traffic for that
    intermediate are removed.
    """

    _FUSABLE_KINDS = (OpKind.ELEMENTWISE, OpKind.SOFTMAX, OpKind.LAYERNORM)

    def __init__(self, chip: NPUChipSpec):
        self.chip = chip
        self.tiling = TilingPass(chip)

    def run(self, graph: OperatorGraph) -> tuple[OperatorGraph, list[FusionGroup]]:
        """Apply fusion, returning the rewritten graph and fusion groups.

        The original graph is not modified.  Each operator is tiled
        once for its SRAM demand; the demands are *returned* in the
        groups, never cached on the pass or the operators, so reuse
        across runs cannot alias.
        """
        demands = [self.tiling.tile(op).sram_demand_bytes for op in graph.operators]
        sram_bytes = self.chip.sram_bytes
        fused_ops: list[Operator] = []
        groups: list[FusionGroup] = []
        current = FusionGroup()

        previous: Operator | None = None
        previous_demand = 0.0
        for op, demand in zip(graph.operators, demands):
            fusable = (
                previous is not None
                and op.kind in self._FUSABLE_KINDS
                and op.fusable
                and op.count == previous.count
                and previous_demand + demand <= sram_bytes
            )
            if fusable:
                # The intermediate tensor stays in SRAM: drop the consumer's
                # read of it and the producer's write of it.
                rewritten = Operator(
                    name=op.name,
                    kind=op.kind,
                    sa_flops=op.sa_flops,
                    vu_flops=op.vu_flops,
                    hbm_read_bytes=max(0.0, op.hbm_read_bytes - previous.hbm_write_bytes),
                    hbm_write_bytes=op.hbm_write_bytes,
                    ici_bytes=op.ici_bytes,
                    collective=op.collective,
                    dims=op.dims,
                    count=op.count,
                    fusable=op.fusable,
                    dtype_bytes=op.dtype_bytes,
                )
                previous_rewritten = fused_ops[-1]
                fused_ops[-1] = Operator(
                    name=previous_rewritten.name,
                    kind=previous_rewritten.kind,
                    sa_flops=previous_rewritten.sa_flops,
                    vu_flops=previous_rewritten.vu_flops,
                    hbm_read_bytes=previous_rewritten.hbm_read_bytes,
                    hbm_write_bytes=max(
                        0.0, previous_rewritten.hbm_write_bytes - op.hbm_read_bytes
                    ),
                    ici_bytes=previous_rewritten.ici_bytes,
                    collective=previous_rewritten.collective,
                    dims=previous_rewritten.dims,
                    count=previous_rewritten.count,
                    fusable=previous_rewritten.fusable,
                    dtype_bytes=previous_rewritten.dtype_bytes,
                )
                fused_ops.append(rewritten)
                current.operators.append(op)
                current.demands.append(demand)
                previous = op
                previous_demand = demand
                continue
            if current.operators:
                groups.append(current)
            current = FusionGroup(operators=[op], demands=[demand])
            fused_ops.append(op)
            previous = op
            previous_demand = demand
        if current.operators:
            groups.append(current)

        fused_graph = OperatorGraph(
            name=graph.name,
            phase=graph.phase,
            operators=fused_ops,
            parallelism=graph.parallelism,
            iteration_unit=graph.iteration_unit,
            work_per_iteration=graph.work_per_iteration,
            model_name=graph.model_name,
            batch_size=graph.batch_size,
        )
        return fused_graph, groups

    # ------------------------------------------------------------------ #
    # Vectorized rewrite (columnar compiler frontend)
    # ------------------------------------------------------------------ #
    def run_table(
        self, table: GraphTable, starts: list[int] | np.ndarray | None = None
    ) -> TableFusionResult:
        """Vectorized :meth:`run` over a :class:`GraphTable`.

        The fuse decision and both traffic rewrites only consult
        *original* neighbor columns (exactly like the object loop, whose
        ``previous`` variable always holds the unrewritten operator), so
        the whole rewrite is three masked array expressions.

        ``starts`` runs many graphs at once: ``table`` is their rows end
        to end (:meth:`GraphTable.concat`) and ``starts`` the first row
        of each.  Fusion never crosses a segment: the row at a segment
        start is never fused into the row before it, so no rewrite reads
        the neighbouring graph, and ``group_id`` restarts at 0 in each
        segment.  Every segment's result equals a run over its graph
        alone.
        """
        n = table.n_ops
        # A lone segment (or none) needs no boundary: row 0 never fuses.
        segmented = starts is not None and len(starts) > 1
        if n == 0:
            return TableFusionResult(
                table=table,
                group_id=np.zeros(0, dtype=np.int64),
                demands=np.zeros(0, dtype=np.float64),
            )
        demands = self.tiling.demand_arrays(
            dims_m=table.dims_m,
            dims_k=table.dims_k,
            dims_n=table.dims_n,
            has_dims=table.has_dims,
            uses_sa=table.uses_sa,
            is_collective=table.is_collective,
            dtype_bytes=table.dtype_bytes,
            hbm_read=table.hbm_read_bytes,
        )
        kind = table.kind
        fusable_kind = kind == _FUSABLE_KIND_CODES[0]
        for code in _FUSABLE_KIND_CODES[1:]:
            fusable_kind = fusable_kind | (kind == code)
        # fused[i]: row i is merged into its predecessor.
        fused = np.zeros(n, dtype=bool)
        fused[1:] = (
            fusable_kind[1:]
            & table.fusable[1:]
            & (table.count[1:] == table.count[:-1])
            & (demands[:-1] + demands[1:] <= self.chip.sram_bytes)
        )
        if segmented:
            fused[starts] = False
        read = table.hbm_read_bytes
        write = table.hbm_write_bytes
        new_read = read
        new_write = write
        if bool(fused.any()):
            prev_write = np.empty_like(write)
            prev_write[0] = 0.0
            prev_write[1:] = write[:-1]
            new_read = np.where(fused, np.maximum(0.0, read - prev_write), read)
            # producer[i]: row i+1 fused into row i.
            producer = np.zeros(n, dtype=bool)
            producer[:-1] = fused[1:]
            next_read = np.empty_like(read)
            next_read[-1] = 0.0
            next_read[:-1] = read[1:]
            new_write = np.where(
                producer, np.maximum(0.0, write - next_read), write
            )
        group_id = np.cumsum(~fused) - 1
        if segmented:
            lengths = np.diff(starts, append=n)
            group_id -= np.repeat(group_id[starts], lengths)
        fused_table = table.replace(
            hbm_read_bytes=new_read, hbm_write_bytes=new_write
        )
        return TableFusionResult(
            table=fused_table, group_id=group_id, demands=demands
        )


__all__ = ["FusionGroup", "FusionPass", "TableFusionResult"]
