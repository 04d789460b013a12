"""Per-component timing models for one tensor operator.

The operator-level simulator computes, for every operator, how long each
chip component is active: the systolic arrays (matrix FLOPs at the
achieved spatial efficiency), the vector units, the HBM (DMA traffic at
the effective bandwidth), and the ICI links (collective traffic at the
effective ring bandwidth).  The operator latency is the maximum of those
times plus a fixed dispatch overhead — the compiler double-buffers tiles
so compute, DMA and communication overlap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.gating.sa_gating import spatial_utilization
from repro.hardware.chips import NPUChipSpec
from repro.hardware.components import Component
from repro.workloads.base import CollectiveKind, Operator, OpKind

# Effective fractions of peak bandwidth sustained in practice.
HBM_EFFICIENCY = 0.85
ICI_EFFICIENCY = 0.65
# Matmuls whose M dimension is below this threshold cannot amortize the
# systolic-array warm-up latency and are mapped to the vector units
# (the paper observes this for small-batch LLM decode).
SA_MAPPING_MIN_M = 16
# Fixed per-operator dispatch/launch overhead.
OPERATOR_OVERHEAD_CYCLES = 500.0


@dataclass(frozen=True)
class ComponentTimes:
    """Active time of each component for one operator invocation."""

    sa_s: float
    vu_s: float
    hbm_s: float
    ici_s: float
    overhead_s: float
    sa_mapped: bool
    sa_spatial_util: float

    @property
    def latency_s(self) -> float:
        """Operator latency with perfect overlap of the bound resources."""
        return max(self.sa_s, self.vu_s, self.hbm_s, self.ici_s) + self.overhead_s

    def active(self, component: Component) -> float:
        """Active seconds of one component."""
        mapping = {
            Component.SA: self.sa_s,
            Component.VU: self.vu_s,
            Component.HBM: self.hbm_s,
            Component.ICI: self.ici_s,
        }
        if component is Component.SRAM:
            return max(self.sa_s, self.vu_s, self.hbm_s)
        if component is Component.OTHER:
            return self.latency_s
        return mapping[component]


class OperatorTimingModel:
    """Computes :class:`ComponentTimes` for operators on one chip."""

    def __init__(self, chip: NPUChipSpec):
        self.chip = chip

    # ------------------------------------------------------------------ #
    def maps_to_sa(self, op: Operator) -> bool:
        """Whether the operator's matrix work runs on the systolic arrays."""
        if not op.kind.uses_sa or op.dims is None or op.sa_flops <= 0:
            return False
        return op.dims.m >= SA_MAPPING_MIN_M

    def sa_time(self, op: Operator) -> tuple[float, float]:
        """(seconds, spatial utilization) of the SA work of one invocation."""
        if not self.maps_to_sa(op):
            return 0.0, 0.0
        util = spatial_utilization(op.dims, self.chip.sa_width)
        util = max(util, 1e-4)
        effective_flops = self.chip.peak_sa_flops * util
        return op.sa_flops / effective_flops, util

    def vu_time(self, op: Operator, sa_mapped: bool) -> float:
        """Seconds of vector-unit work of one invocation."""
        flops = op.vu_flops + (0.0 if sa_mapped else op.sa_flops)
        if flops <= 0:
            return 0.0
        return flops / self.chip.peak_vu_flops

    def hbm_time(self, op: Operator) -> float:
        """Seconds of HBM/DMA activity of one invocation."""
        if op.hbm_bytes <= 0:
            return 0.0
        return op.hbm_bytes / (self.chip.hbm_bandwidth_bytes * HBM_EFFICIENCY)

    def ici_time(self, op: Operator) -> float:
        """Seconds of ICI activity of one invocation."""
        if op.ici_bytes <= 0:
            return 0.0
        bandwidth = self.chip.ici_bandwidth_bytes * ICI_EFFICIENCY
        if op.collective in (CollectiveKind.ALL_TO_ALL, CollectiveKind.SEND_RECV):
            # Point-to-point patterns only use a subset of the links.
            bandwidth *= 0.5
        return op.ici_bytes / bandwidth

    # ------------------------------------------------------------------ #
    def times(self, op: Operator) -> ComponentTimes:
        """Full per-component timing of one operator invocation."""
        sa_mapped = self.maps_to_sa(op)
        sa_s, util = self.sa_time(op)
        return ComponentTimes(
            sa_s=sa_s,
            vu_s=self.vu_time(op, sa_mapped),
            hbm_s=self.hbm_time(op),
            ici_s=self.ici_time(op),
            overhead_s=OPERATOR_OVERHEAD_CYCLES * self.chip.cycle_time_s,
            sa_mapped=sa_mapped,
            sa_spatial_util=util,
        )


__all__ = [
    "ComponentTimes",
    "HBM_EFFICIENCY",
    "ICI_EFFICIENCY",
    "OPERATOR_OVERHEAD_CYCLES",
    "OperatorTimingModel",
    "SA_MAPPING_MIN_M",
]
