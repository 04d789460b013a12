"""Cycle-level weight-stationary systolic array with PE power gating.

This model simulates, cycle by cycle, the diagonal dataflow of a
weight-stationary systolic array together with ReGate's PE-granularity
power-gating mechanism (Figures 11-13 of the paper):

* row/column gating from the non-zero weight bitmaps (``row_on`` /
  ``col_on``),
* the ``PE_on`` wavefront that wakes PEs one cycle ahead of the input
  data and puts them back into ``W_on`` mode after the data drains.

It is intentionally small (used for functional validation and for
calibrating the closed-form spatial model in
:mod:`repro.gating.sa_gating`); the operator-level simulator uses the
closed-form model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gating.sa_gating import active_pe_mask


@dataclass(frozen=True)
class SystolicRunResult:
    """Outcome of streaming one input tile through the array."""

    output: np.ndarray
    total_cycles: int
    pe_on_cycles: int  # PE-cycles spent fully on (computing or ready)
    pe_weight_only_cycles: int  # PE-cycles in W_on mode
    pe_off_cycles: int  # PE-cycles fully gated
    compute_pe_cycles: int  # PE-cycles doing useful MACs

    @property
    def total_pe_cycles(self) -> int:
        return self.pe_on_cycles + self.pe_weight_only_cycles + self.pe_off_cycles

    @property
    def spatial_utilization(self) -> float:
        """Useful MAC cycles over all PE-cycles (Figure 5 metric)."""
        if self.total_pe_cycles == 0:
            return 0.0
        return self.compute_pe_cycles / self.total_pe_cycles



class SystolicArraySimulator:
    """A W x W weight-stationary systolic array."""

    def __init__(self, width: int, power_gating: bool = True):
        if width < 1:
            raise ValueError("width must be positive")
        self.width = width
        self.power_gating = power_gating

    # ------------------------------------------------------------------ #
    def run(self, inputs: np.ndarray, weights: np.ndarray) -> SystolicRunResult:
        """Stream ``inputs`` ([M, K]) through the array loaded with ``weights``.

        ``weights`` must be [K, N] with K, N <= width; they are padded
        with zeros to the array size (exactly what the compiler does when
        a matmul does not fill the array).
        """
        m, k = inputs.shape
        k_w, n = weights.shape
        if k != k_w:
            raise ValueError("inner dimensions of inputs and weights differ")
        if k > self.width or n > self.width:
            raise ValueError("weights larger than the array; tile first")
        width = self.width
        padded_weights = np.zeros((width, width), dtype=np.float64)
        padded_weights[:k, :n] = weights
        padded_inputs = np.zeros((m, width), dtype=np.float64)
        padded_inputs[:, :k] = inputs

        if self.power_gating:
            powered_mask = active_pe_mask(padded_weights)
        else:
            powered_mask = np.ones((width, width), dtype=bool)
        num_powered = int(powered_mask.sum())

        # With diagonal skew, input row i enters column j at cycle i + j;
        # the partial sum exits the bottom of column j at cycle i + j + width.
        total_cycles = m + 2 * width
        output = padded_inputs @ padded_weights

        pe_on_cycles = 0
        pe_weight_only_cycles = 0
        pe_off_cycles = 0
        compute_pe_cycles = 0
        for cycle in range(total_cycles):
            if self.power_gating:
                # A powered PE (i, j) is fully ON while the input wavefront
                # for some row r satisfies r + i + j in [cycle-1, cycle]
                # (the PE_on signal arrives one cycle ahead of the data).
                # Equivalently the PE at diagonal d = i + j is ON when
                # cycle - m < d <= cycle.
                diag = np.add.outer(np.arange(width), np.arange(width))
                on_mask = powered_mask & (diag <= cycle) & (diag > cycle - m - 1)
                on = int(on_mask.sum())
                pe_on_cycles += on
                pe_weight_only_cycles += num_powered - on
                pe_off_cycles += width * width - num_powered
                compute_mask = on_mask & (diag <= cycle - 1) & (diag >= cycle - m)
                compute_pe_cycles += int((compute_mask & powered_mask).sum())
            else:
                pe_on_cycles += width * width
                diag = np.add.outer(np.arange(width), np.arange(width))
                compute_mask = (diag <= cycle - 1) & (diag >= cycle - m)
                compute_pe_cycles += int(compute_mask.sum())

        return SystolicRunResult(
            output=output[:, :n],
            total_cycles=total_cycles,
            pe_on_cycles=pe_on_cycles,
            pe_weight_only_cycles=pe_weight_only_cycles,
            pe_off_cycles=pe_off_cycles,
            compute_pe_cycles=compute_pe_cycles,
        )


__all__ = ["SystolicArraySimulator", "SystolicRunResult"]
