"""Spatial (PE-granularity) power gating of systolic arrays (§4.1).

A matmul of shape [M,K]x[K,N] underutilizes a W x W weight-stationary
systolic array in three ways (Figure 10):

* ``K < W`` or ``N < W`` — whole rows/columns of PEs hold only padded
  zero weights.  ReGate detects them with non-zero bitmaps and gates the
  rows/columns that do not need to forward data (Figure 12).
* ``M < W`` — every PE holds a useful weight but is only active while
  the (diagonal) input wavefront passes through it; the rest of the time
  the PE is kept in ``W_on`` mode (only the weight register powered).

This module provides both the bit-level row/column gating logic used by
the cycle-level systolic model and the closed-form static-power factor
used by the operator-level simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.gating.bet import GatingParameters
from repro.workloads.base import MatmulDims


# ---------------------------------------------------------------------- #
# Bit-level row/column gating logic (Figure 12)
# ---------------------------------------------------------------------- #
def column_nonzero_bitmap(weights: np.ndarray) -> np.ndarray:
    """``col_nz[j]`` — whether column ``j`` holds any non-zero weight."""
    return np.any(weights != 0, axis=0)


def row_nonzero_bitmap(weights: np.ndarray) -> np.ndarray:
    """``row_nz[i]`` — whether row ``i`` holds any non-zero weight."""
    return np.any(weights != 0, axis=1)


def column_on_bitmap(col_nz: np.ndarray) -> np.ndarray:
    """Columns that must stay powered.

    Input data flows left to right, so a column must stay on if it or any
    column to its *right* holds a non-zero weight (suffix OR).
    """
    suffix = np.zeros_like(col_nz, dtype=bool)
    running = False
    for index in range(len(col_nz) - 1, -1, -1):
        running = running or bool(col_nz[index])
        suffix[index] = running
    return suffix

def row_on_bitmap(row_nz: np.ndarray) -> np.ndarray:
    """Rows that must stay powered.

    Partial sums flow top to bottom, so a row must stay on if it or any
    row *above* it holds a non-zero weight (prefix OR).
    """
    prefix = np.zeros_like(row_nz, dtype=bool)
    running = False
    for index in range(len(row_nz)):
        running = running or bool(row_nz[index])
        prefix[index] = running
    return prefix


def active_pe_mask(weights: np.ndarray) -> np.ndarray:
    """Boolean mask of PEs kept out of the OFF state for a weight tile."""
    rows = row_on_bitmap(row_nonzero_bitmap(weights))
    cols = column_on_bitmap(column_nonzero_bitmap(weights))
    return np.outer(rows, cols)


# ---------------------------------------------------------------------- #
# Closed-form spatial utilization (Figure 5 metric)
# ---------------------------------------------------------------------- #
def padding_efficiency(dim: int, width: int) -> float:
    """Fraction of a dimension that carries real (non-padded) data."""
    if dim <= 0:
        return 0.0
    return dim / (math.ceil(dim / width) * width)


def pipeline_fill_efficiency(m: int, width: int) -> float:
    """Fraction of SA-active cycles doing useful work for M input rows.

    Streaming M rows through a W x W weight-stationary array takes about
    ``M + 2W`` cycles per tile (diagonal fill and drain), of which only
    ``M`` produce new output rows.
    """
    if m <= 0:
        return 0.0
    return m / (m + 2.0 * width)


def spatial_utilization(dims: MatmulDims, width: int) -> float:
    """Achieved FLOPs over peak FLOPs during the SA-active time."""
    return (
        padding_efficiency(dims.k, width)
        * padding_efficiency(dims.n, width)
        * pipeline_fill_efficiency(dims.m, width)
    )


# ---------------------------------------------------------------------- #
# Vectorized counterparts (columnar fast path)
# ---------------------------------------------------------------------- #
# The array helpers mirror the scalar functions above operation for
# operation so the columnar policy evaluation produces bit-identical
# doubles; the ``max(..., 1.0)`` only rewrites denominators of entries
# the `dim > 0` mask discards.
def padding_efficiency_array(dim: np.ndarray, width: int) -> np.ndarray:
    """Vectorized :func:`padding_efficiency` over a dimension array."""
    return np.where(
        dim > 0, dim / np.maximum(np.ceil(dim / width) * width, 1.0), 0.0
    )


def pipeline_fill_efficiency_array(m: np.ndarray, width: int) -> np.ndarray:
    """Vectorized :func:`pipeline_fill_efficiency` over an M array."""
    return np.where(m > 0, m / (m + 2.0 * width), 0.0)


@dataclass(frozen=True)
class SpatialPowerShares:
    """How PE-cycles split across power states during SA-active time."""

    active: float  # fully-on, computing
    weight_only: float  # W_on mode: weight register retained, rest gated
    off: float  # rows/columns gated completely

    def __post_init__(self) -> None:
        total = self.active + self.weight_only + self.off
        if not math.isclose(total, 1.0, rel_tol=1e-6, abs_tol=1e-6):
            raise ValueError(f"power shares must sum to 1, got {total}")


class SpatialGatingModel:
    """Static-power model of a spatially gated systolic array."""

    def __init__(self, width: int, parameters: GatingParameters):
        self.width = width
        self.parameters = parameters

    def shares(self, dims: MatmulDims | None) -> SpatialPowerShares:
        """Split PE-cycles into active / weight-only / off shares."""
        if dims is None:
            return SpatialPowerShares(active=1.0, weight_only=0.0, off=0.0)
        held = padding_efficiency(dims.k, self.width) * padding_efficiency(
            dims.n, self.width
        )
        active = held * pipeline_fill_efficiency(dims.m, self.width)
        weight_only = max(0.0, held - active)
        off = max(0.0, 1.0 - held)
        total = active + weight_only + off
        return SpatialPowerShares(
            active=active / total, weight_only=weight_only / total, off=off / total
        )

    def static_power_factor(self, dims: MatmulDims | None) -> float:
        """SA leakage during active time relative to a fully-on SA."""
        shares = self.shares(dims)
        off_leak = self.parameters.leakage.logic_off
        weight_share = self.parameters.pe_weight_register_share
        w_on_leak = weight_share + (1.0 - weight_share) * off_leak
        return shares.active + shares.weight_only * w_on_leak + shares.off * off_leak

    # ------------------------------------------------------------------ #
    # Vectorized counterparts (columnar fast path)
    # ------------------------------------------------------------------ #
    def shares_arrays(
        self,
        m: np.ndarray,
        k: np.ndarray,
        n: np.ndarray,
        has_dims: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-operator (active, weight_only, off) share arrays.

        Operators without matmul dimensions get the scalar code's
        ``dims=None`` answer of (1, 0, 0).
        """
        held = padding_efficiency_array(k, self.width) * padding_efficiency_array(
            n, self.width
        )
        active = held * pipeline_fill_efficiency_array(m, self.width)
        weight_only = np.maximum(0.0, held - active)
        off = np.maximum(0.0, 1.0 - held)
        total = active + weight_only + off
        return (
            np.where(has_dims, active / total, 1.0),
            np.where(has_dims, weight_only / total, 0.0),
            np.where(has_dims, off / total, 0.0),
        )


__all__ = [
    "SpatialGatingModel",
    "SpatialPowerShares",
    "active_pe_mask",
    "column_nonzero_bitmap",
    "column_on_bitmap",
    "padding_efficiency",
    "padding_efficiency_array",
    "pipeline_fill_efficiency",
    "pipeline_fill_efficiency_array",
    "row_nonzero_bitmap",
    "row_on_bitmap",
    "spatial_utilization",
]
