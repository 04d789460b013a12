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

from repro.gating.bet import GatingParameters
from repro.hardware.chips import NPUChipSpec


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


__all__ = ["SramGatingModel", "SramStateShares"]
