"""Static and dynamic power models for NPU chips.

The model follows the McPAT/NeuroMeter methodology used by the paper
(§4.4): the area of each component is estimated from microarchitectural
parameters, static (leakage) power is proportional to area with a
technology-dependent leakage density, and dynamic energy is charged per
operation (MAC, vector op, SRAM byte, HBM byte, ICI byte).

The leakage densities are calibrated so that the NPU-D static-power
breakdown matches the characterization in §3 of the paper:

* SRAM            ~ 21%  of busy static energy (paper: 15.4%-24.4%)
* Systolic arrays ~ 11%  (paper: 8%-14%)
* HBM ctrl & PHY  ~ 13%  (paper: 9.0%-22.4%)
* ICI ctrl & PHY  ~  8%  (paper: 5.3%-12.0%)
* Vector units    ~ 3.5% (paper: 1.9%-5.6%)
* Other           ~ 43%  (paper: 39.1%-45.8%)
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import ClassVar

from repro.hardware.area import AreaModel, ChipAreaBreakdown
from repro.hardware.chips import NPUChipSpec
from repro.hardware.components import Component

# Leakage density (W / mm^2) per component class at the 7 nm reference
# node.  SRAM and I/O PHYs leak more per area than random logic.
_LEAKAGE_DENSITY_7NM = {
    Component.SA: 0.216,
    Component.VU: 0.512,
    Component.SRAM: 0.590,
    Component.HBM: 0.418,
    Component.ICI: 0.480,
    Component.OTHER: 0.408,
}

# Relative leakage density by node.  Leakage per area grows as feature
# size shrinks (the trend the paper highlights for FinFET/GAA nodes).
_LEAKAGE_SCALE = {16: 0.55, 7: 1.00, 4: 1.35}

# Dynamic energy per elementary operation, by technology node.
_MAC_ENERGY_PJ = {16: 1.25, 7: 0.62, 4: 0.42}  # one bf16 MAC (2 FLOPs)
_VU_FLOP_ENERGY_PJ = {16: 2.20, 7: 1.10, 4: 0.75}  # one vector FLOP
_SRAM_ENERGY_PJ_PER_BYTE = {16: 1.60, 7: 1.00, 4: 0.80}
_HBM_ENERGY_PJ_PER_BYTE = {"HBM2": 35.0, "HBM2e": 31.0, "HBM3e": 26.0}
_ICI_ENERGY_PJ_PER_BYTE = 70.0
# Non-gateable "other" logic dynamic activity, charged as a fraction of
# the aggregate dynamic energy of the gateable components.
_OTHER_DYNAMIC_FRACTION = 0.12

# Fraction of peak dynamic power still burned when the chip is powered on
# but idle (clock trees, management firmware).
_IDLE_DYNAMIC_FRACTION = 0.04

PJ = 1e-12


@dataclass(frozen=True)
class PowerBreakdown:
    """Per-component power numbers (watts)."""

    static_w: dict[Component, float]
    peak_dynamic_w: dict[Component, float]

    @property
    def total_static_w(self) -> float:
        """Chip-wide static power with every component powered on."""
        return sum(self.static_w.values())

    @property
    def total_peak_dynamic_w(self) -> float:
        """Chip-wide dynamic power at full utilization."""
        return sum(self.peak_dynamic_w.values())

    @property
    def tdp_w(self) -> float:
        """Thermal design power estimate (static + peak dynamic)."""
        return self.total_static_w + self.total_peak_dynamic_w

    @property
    def idle_w(self) -> float:
        """Power when the chip is on but running no job (no power gating)."""
        return self.total_static_w + _IDLE_DYNAMIC_FRACTION * self.total_peak_dynamic_w


class DynamicEnergyModel:
    """Per-operation dynamic energy costs for a chip."""

    def __init__(self, spec: NPUChipSpec):
        self.spec = spec
        node = spec.technology_nm
        self.mac_energy_j = _MAC_ENERGY_PJ[node] * PJ
        self.vu_flop_energy_j = _VU_FLOP_ENERGY_PJ[node] * PJ
        self.sram_energy_j_per_byte = _SRAM_ENERGY_PJ_PER_BYTE[node] * PJ
        self.hbm_energy_j_per_byte = _HBM_ENERGY_PJ_PER_BYTE[spec.hbm.generation] * PJ
        self.ici_energy_j_per_byte = _ICI_ENERGY_PJ_PER_BYTE * PJ

    def sa_energy(self, flops: float) -> float:
        """Dynamic energy of executing ``flops`` matrix FLOPs on SAs."""
        return 0.5 * flops * self.mac_energy_j

    def vu_energy(self, flops: float) -> float:
        """Dynamic energy of executing ``flops`` vector FLOPs on VUs."""
        return flops * self.vu_flop_energy_j

    def sram_energy(self, num_bytes: float) -> float:
        """Dynamic energy of moving ``num_bytes`` through the SRAM."""
        return num_bytes * self.sram_energy_j_per_byte

    def hbm_energy(self, num_bytes: float) -> float:
        """Dynamic energy of transferring ``num_bytes`` over HBM."""
        return num_bytes * self.hbm_energy_j_per_byte

    def ici_energy(self, num_bytes: float) -> float:
        """Dynamic energy of transferring ``num_bytes`` over ICI links."""
        return num_bytes * self.ici_energy_j_per_byte

    def other_energy(self, gateable_dynamic_j: float) -> float:
        """Dynamic energy of the non-gateable 'other' logic."""
        return gateable_dynamic_j * _OTHER_DYNAMIC_FRACTION


class ChipPowerModel:
    """Static and peak-dynamic power model of a single NPU chip."""

    #: id(spec) -> model; chip specs are frozen and shared through the
    #: registry, so memoizing by identity is sound.  Entries are evicted
    #: when the spec is collected (before its id can be reused).
    _BY_CHIP: ClassVar[dict[int, "ChipPowerModel"]] = {}

    @classmethod
    def for_chip(cls, spec: NPUChipSpec) -> "ChipPowerModel":
        """Shared memoized model of one chip spec (hot-path helper)."""
        key = id(spec)
        model = cls._BY_CHIP.get(key)
        if model is None:
            model = cls(spec)
            cls._BY_CHIP[key] = model
            weakref.finalize(spec, cls._BY_CHIP.pop, key, None)
        return model

    def __init__(self, spec: NPUChipSpec):
        self.spec = spec
        self.area_model = AreaModel(spec)
        self.area = self.area_model.breakdown()
        self.dynamic = DynamicEnergyModel(spec)
        self._static = self._compute_static()
        self._peak_dynamic = self._compute_peak_dynamic()

    # ------------------------------------------------------------------ #
    def _compute_static(self) -> dict[Component, float]:
        scale = _LEAKAGE_SCALE[self.spec.technology_nm]
        return {
            component: self.area.areas_mm2[component]
            * _LEAKAGE_DENSITY_7NM[component]
            * scale
            for component in Component.all()
        }

    def _compute_peak_dynamic(self) -> dict[Component, float]:
        spec, dyn = self.spec, self.dynamic
        sa = dyn.sa_energy(spec.peak_sa_flops)
        vu = dyn.vu_energy(spec.peak_vu_flops)
        # At peak, SRAM streams operands for the SAs (2 input bytes and
        # 1/width output byte per MAC on average with full reuse).
        sram_bytes_per_s = spec.peak_sa_flops * spec.bytes_per_element / 8.0
        sram = dyn.sram_energy(sram_bytes_per_s)
        hbm = dyn.hbm_energy(spec.hbm_bandwidth_bytes)
        ici = dyn.ici_energy(spec.ici_bandwidth_bytes)
        other = dyn.other_energy(sa + vu + sram + hbm + ici)
        return {
            Component.SA: sa,
            Component.VU: vu,
            Component.SRAM: sram,
            Component.HBM: hbm,
            Component.ICI: ici,
            Component.OTHER: other,
        }

    # ------------------------------------------------------------------ #
    def static_power_w(self, component: Component) -> float:
        """Leakage power of one component with its supply fully on."""
        return self._static[component]

    def static_power_by_component(self) -> dict[Component, float]:
        """Per-component leakage powers (shared mapping, do not mutate)."""
        return self._static

    def breakdown(self) -> PowerBreakdown:
        """Full static + peak dynamic breakdown of the chip."""
        return PowerBreakdown(
            static_w=dict(self._static), peak_dynamic_w=dict(self._peak_dynamic)
        )

    @property
    def total_static_w(self) -> float:
        """Chip-wide static power (all components on)."""
        return sum(self._static.values())

    @property
    def idle_power_w(self) -> float:
        """Chip power when idle (powered on, no job, no power gating)."""
        return self.breakdown().idle_w

    @property
    def tdp_w(self) -> float:
        """Thermal design power estimate."""
        return self.breakdown().tdp_w


__all__ = [
    "ChipPowerModel",
    "DynamicEnergyModel",
    "PowerBreakdown",
]
