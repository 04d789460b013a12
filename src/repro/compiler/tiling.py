"""Tile-size selection and SRAM demand estimation.

The paper quantifies the SRAM demand of a tensor operator as "the
minimum tile size that maximizes the on-chip data reuse"; for streaming
operators whose reuse does not depend on tile size, the demand is the
minimum tile that hides the HBM latency (§3, Figure 7).  This pass
computes that demand per operator and derives the tile counts used by
the performance simulator (number of weight panels pushed into an SA,
number of output tiles post-processed by the VUs, number of DMA bursts).

Streamed operands (activation and output panels, DMA staging) are
double-buffered, so their SRAM footprint counts twice.

The pass has three entry points with one contract, bit-identical
doubles: the scalar :meth:`TilingPass.tile` (the object-path oracle),
the vectorized :meth:`TilingPass.demand_arrays` (the SRAM demand alone,
which the fusion pass sizes its candidates with) and
:meth:`TilingPass.tile_table`, which tiles a whole
:class:`~repro.workloads.table.GraphTable` with masked array ops (the
columnar compiler frontend).  The array expressions mirror the scalar
ones operation for operation — the same contract the columnar simulator
core upholds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.hardware.chips import NPUChipSpec
from repro.workloads.base import Operator, OpKind

#: 4 MiB DMA burst granularity (the scalar expressions below use the
#: literal; the array path shares this constant).
DMA_BURST_BYTES = 4 * 1024 * 1024


@dataclass(frozen=True)
class TileInfo:
    """Tiling decision for one operator."""

    sram_demand_bytes: float
    num_weight_tiles: int  # weight panels loaded into the SA
    num_output_tiles: int  # output tiles handed to the VUs
    num_dma_bursts: int  # discrete HBM transfers


class TilingPass:
    """Computes :class:`TileInfo` for each operator on a given chip."""

    def __init__(self, chip: NPUChipSpec):
        self.chip = chip
        self._streaming_demand: float | None = None

    # ------------------------------------------------------------------ #
    def streaming_demand_bytes(self) -> float:
        """Minimum SRAM needed to hide HBM latency for a streaming operator."""
        if self._streaming_demand is None:
            inflight = (
                self.chip.hbm_bandwidth_bytes * self.chip.hbm.access_latency_ns * 1e-9
            )
            self._streaming_demand = inflight * 2.0
        return self._streaming_demand

    def matmul_demand_bytes(self, m: int, k: int, n: int, dtype_bytes: int) -> float:
        """SRAM demand of a matmul with full data reuse.

        Holding the weight matrix, one activation panel and one output
        panel on chip lets every HBM byte be read exactly once, which is
        the reuse-maximizing point the paper uses for Figure 7.
        """
        weights = k * n * dtype_bytes
        # Activation and output panels are streamed tile-by-tile; a panel
        # of ``sa_width`` rows is enough to keep the SA busy.
        panel_rows = min(m, 4 * self.chip.sa_width)
        activations = panel_rows * k * dtype_bytes
        outputs = panel_rows * n * dtype_bytes
        demand = weights + 2.0 * (activations + outputs)
        return max(demand, self.streaming_demand_bytes())

    # ------------------------------------------------------------------ #
    def tile(self, op: Operator) -> TileInfo:
        """Compute tiling information for ``op``."""
        width = self.chip.sa_width
        if op.kind.uses_sa and op.dims is not None:
            dims = op.dims
            demand = self.matmul_demand_bytes(dims.m, dims.k, dims.n, op.dtype_bytes)
            weight_tiles = math.ceil(dims.k / width) * math.ceil(dims.n / width)
            output_tiles = max(1, math.ceil(dims.m / width)) * math.ceil(dims.n / width)
            dma_bursts = max(1, math.ceil(dims.n / width))
            return TileInfo(
                sram_demand_bytes=demand,
                num_weight_tiles=weight_tiles,
                num_output_tiles=output_tiles,
                num_dma_bursts=dma_bursts,
            )
        if op.kind is OpKind.COLLECTIVE:
            demand = min(op.hbm_read_bytes, 8 * self.streaming_demand_bytes())
            return TileInfo(
                sram_demand_bytes=max(demand, self.streaming_demand_bytes()),
                num_weight_tiles=0,
                num_output_tiles=0,
                num_dma_bursts=max(1, int(op.ici_bytes // (4 * 1024 * 1024)) or 1),
            )
        # Streaming / elementwise / embedding operators.
        demand = self.streaming_demand_bytes()
        bursts = max(1, int(op.hbm_bytes // (4 * 1024 * 1024)) or 1)
        vu_tiles = max(1, int(op.vu_flops // (self.chip.vu_alus * 64)) or 1)
        return TileInfo(
            sram_demand_bytes=demand,
            num_weight_tiles=0,
            num_output_tiles=vu_tiles,
            num_dma_bursts=bursts,
        )

    # ------------------------------------------------------------------ #
    # Vectorized counterparts (columnar compiler frontend)
    # ------------------------------------------------------------------ #
    def demand_arrays(
        self,
        dims_m: np.ndarray,
        dims_k: np.ndarray,
        dims_n: np.ndarray,
        has_dims: np.ndarray,
        uses_sa: np.ndarray,
        is_collective: np.ndarray,
        dtype_bytes: np.ndarray,
        hbm_read: np.ndarray,
    ) -> np.ndarray:
        """Vectorized ``tile(op).sram_demand_bytes`` over column arrays.

        Mirrors the scalar demand expressions bit-for-bit; used by the
        fusion pass to size all fusion candidates in one batch and by
        :meth:`tile_table`.
        """
        streaming_demand = self.streaming_demand_bytes()
        width = self.chip.sa_width
        matmul_mask = uses_sa & has_dims
        weights = dims_k * dims_n * dtype_bytes
        panel_rows = np.minimum(dims_m, 4 * width)
        activations = panel_rows * dims_k * dtype_bytes
        outputs = panel_rows * dims_n * dtype_bytes
        matmul_demand = np.maximum(
            weights + 2.0 * (activations + outputs), streaming_demand
        )
        collective_demand = np.maximum(
            np.minimum(hbm_read, 8 * streaming_demand), streaming_demand
        )
        return np.where(
            matmul_mask,
            matmul_demand,
            np.where(is_collective, collective_demand, streaming_demand),
        )

    def tile_table(self, table, demand: np.ndarray | None = None) -> "TileTable":
        """Vectorized :meth:`tile` over a whole ``GraphTable``.

        Produces, per operator, exactly the :class:`TileInfo` fields the
        scalar pass computes one at a time, as aligned arrays.
        ``demand`` short-circuits the SRAM-demand computation with a
        precomputed array — only valid when :meth:`demand_arrays`
        produced it for the same chip and operators (the fusion pass
        hands its fuse-decision demands through; fusion never changes
        any input of the demand expressions).
        """
        width = self.chip.sa_width
        dims_m, dims_k, dims_n = table.dims_m, table.dims_k, table.dims_n
        matmul_mask = table.uses_sa & table.has_dims
        is_collective = table.is_collective
        hbm_bytes = table.hbm_bytes

        if demand is None:
            demand = self.demand_arrays(
                dims_m=dims_m,
                dims_k=dims_k,
                dims_n=dims_n,
                has_dims=table.has_dims,
                uses_sa=table.uses_sa,
                is_collective=is_collective,
                dtype_bytes=table.dtype_bytes,
                hbm_read=table.hbm_read_bytes,
            )
        ceil_k = np.ceil(dims_k / width)
        ceil_m = np.ceil(dims_m / width)
        ceil_n = np.ceil(dims_n / width)
        matmul_weight_tiles = ceil_k * ceil_n
        matmul_output_tiles = np.maximum(1.0, ceil_m) * ceil_n
        matmul_dma = np.maximum(1.0, ceil_n)

        collective_dma = np.maximum(1.0, table.ici_bytes // DMA_BURST_BYTES)
        stream_dma = np.maximum(1.0, hbm_bytes // DMA_BURST_BYTES)
        stream_vu_tiles = np.maximum(
            1.0, table.vu_flops // (self.chip.vu_alus * 64)
        )

        num_weight_tiles = np.where(matmul_mask, matmul_weight_tiles, 0.0)
        num_output_tiles = np.where(
            matmul_mask,
            matmul_output_tiles,
            np.where(is_collective, 0.0, stream_vu_tiles),
        )
        num_dma_bursts = np.where(
            matmul_mask, matmul_dma, np.where(is_collective, collective_dma, stream_dma)
        )
        return TileTable(
            sram_demand_bytes=demand,
            num_weight_tiles=num_weight_tiles,
            num_output_tiles=num_output_tiles,
            num_dma_bursts=num_dma_bursts,
        )


@dataclass(frozen=True)
class TileTable:
    """Aligned per-operator arrays of one graph's tiling decisions."""

    sram_demand_bytes: np.ndarray
    num_weight_tiles: np.ndarray
    num_output_tiles: np.ndarray
    num_dma_bursts: np.ndarray


__all__ = ["DMA_BURST_BYTES", "TileInfo", "TileTable", "TilingPass"]
