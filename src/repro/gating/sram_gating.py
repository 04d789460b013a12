"""Segment-wise SRAM power gating (§4.1 / §4.3).

The SRAM scratchpad is divided into 4 KB segments, each of which can be
ON, SLEEP (drowsy, data-retaining) or OFF (gated-Vdd, data lost).  The
hardware-managed policy can only use SLEEP for capacity it cannot prove
unused; the software-managed policy uses the compiler's allocation
information to power unused capacity fully OFF.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.compiler.allocation import SegmentLifetime, SramAllocator
from repro.gating.bet import GatingParameters
from repro.hardware.chips import NPUChipSpec
from repro.hardware.components import PowerState


@dataclass(frozen=True)
class SramStateShares:
    """Fractions of SRAM capacity x time spent in each power state."""

    on: float
    sleep: float
    off: float

    def __post_init__(self) -> None:
        total = self.on + self.sleep + self.off
        if not math.isclose(total, 1.0, rel_tol=1e-6, abs_tol=1e-6):
            raise ValueError(f"SRAM state shares must sum to 1, got {total}")

    def leakage_factor(self, parameters: GatingParameters) -> float:
        """Average leakage relative to an always-on SRAM."""
        return (
            self.on
            + self.sleep * parameters.sleep_leakage()
            + self.off * parameters.leakage.sram_off
        )


class SramGatingModel:
    """Maps SRAM capacity usage onto segment power states."""

    def __init__(self, chip: NPUChipSpec, parameters: GatingParameters):
        self.chip = chip
        self.parameters = parameters

    # ------------------------------------------------------------------ #
    def shares_for_demand(
        self, demand_bytes: float, software_managed: bool
    ) -> SramStateShares:
        """State shares when an operator needs ``demand_bytes`` of SRAM.

        The used capacity stays ON (it actively serves compute and DMA
        traffic).  Unused capacity goes to SLEEP under hardware
        management (the hardware cannot prove it holds no live data) and
        fully OFF under software management.
        """
        capacity = self.chip.sram_bytes
        used = min(1.0, max(0.0, demand_bytes / capacity))
        unused = 1.0 - used
        if software_managed:
            return SramStateShares(on=used, sleep=0.0, off=unused)
        return SramStateShares(on=used, sleep=unused, off=0.0)

    def leakage_factor_for_demand(
        self, demand_bytes: float, software_managed: bool
    ) -> float:
        """Average SRAM leakage factor for one operator."""
        shares = self.shares_for_demand(demand_bytes, software_managed)
        return shares.leakage_factor(self.parameters)

    # ------------------------------------------------------------------ #
    def shares_from_lifetimes(
        self,
        allocator: SramAllocator,
        lifetimes: list[SegmentLifetime],
        num_instructions: int,
        software_managed: bool,
    ) -> SramStateShares:
        """State shares derived from per-segment buffer lifetimes.

        Used by the trace-level path: a segment is ON while any buffer
        mapped to it is live, OFF (software) or SLEEP (hardware)
        otherwise.
        """
        if num_instructions <= 0:
            raise ValueError("num_instructions must be positive")
        total = len(lifetimes) * num_instructions
        on_cells = 0
        for lifetime in lifetimes:
            for start, end in lifetime.busy_intervals:
                on_cells += min(end, num_instructions - 1) - max(0, start) + 1
        on = min(1.0, on_cells / total)
        rest = 1.0 - on
        if software_managed:
            return SramStateShares(on=on, sleep=0.0, off=rest)
        return SramStateShares(on=on, sleep=rest, off=0.0)

    def segment_state(
        self,
        lifetime: SegmentLifetime,
        instruction_index: int,
        software_managed: bool,
    ) -> PowerState:
        """Power state of one segment at one instruction index."""
        if lifetime.busy_at(instruction_index):
            return PowerState.ON
        if software_managed and not lifetime.ever_used:
            return PowerState.OFF
        return PowerState.OFF if software_managed else PowerState.SLEEP


__all__ = ["SramGatingModel", "SramStateShares"]
