"""NPU chip specifications (Table 2 of the paper).

NPU-A/B/C/D are derived from TPUv2/v3/v4/v5p; NPU-E is a projected future
generation corresponding to TPUv6p.  Values marked with an asterisk in the
paper are inferred from public data; we carry them over verbatim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

GiB = 1024**3
MiB = 1024**2
KiB = 1024


@dataclass(frozen=True)
class ICIConfig:
    """Inter-chip interconnect configuration."""

    links_per_chip: int
    topology: str  # "2d_torus" or "3d_torus"
    bandwidth_per_link_gbps: float  # GB/s, unidirectional per link

    @property
    def total_bandwidth_bytes(self) -> float:
        """Aggregate ICI bandwidth of one chip in bytes/s."""
        return self.links_per_chip * self.bandwidth_per_link_gbps * 1e9


@dataclass(frozen=True)
class HBMConfig:
    """Off-chip high-bandwidth memory configuration."""

    generation: str  # e.g. "HBM2", "HBM2e", "HBM3e"
    bandwidth_gbps: float  # GB/s
    capacity_gb: float  # GB
    access_latency_ns: float = 400.0
    refresh_interval_us: float = 3.9

    @property
    def bandwidth_bytes(self) -> float:
        """Peak HBM bandwidth in bytes/s."""
        return self.bandwidth_gbps * 1e9

    @property
    def capacity_bytes(self) -> float:
        """HBM capacity in bytes."""
        return self.capacity_gb * 1e9


@dataclass(frozen=True)
class NPUChipSpec:
    """Microarchitectural description of a single NPU chip.

    Attributes mirror Table 2 of the paper.  Derived quantities (peak
    FLOPS, SRAM segment counts, ...) are exposed as properties so the rest
    of the code never hard-codes them.
    """

    name: str
    deployment_year: int | None
    technology_nm: int
    frequency_mhz: float
    sa_width: int
    num_sa: int
    num_vu: int
    vu_lanes: int  # SIMD sublanes per VU (8 in the paper)
    vu_width: int  # elements per sublane (128 in the paper)
    sram_mb: float
    hbm: HBMConfig
    ici: ICIConfig
    sram_segment_kb: int = 4
    bytes_per_element: int = 2  # bf16 datapath

    # ------------------------------------------------------------------ #
    # Derived quantities
    # ------------------------------------------------------------------ #
    @property
    def frequency_hz(self) -> float:
        """Core clock frequency in Hz."""
        return self.frequency_mhz * 1e6

    @property
    def cycle_time_s(self) -> float:
        """Duration of a single clock cycle in seconds."""
        return 1.0 / self.frequency_hz

    @property
    def pes_per_sa(self) -> int:
        """Number of processing elements in one systolic array."""
        return self.sa_width * self.sa_width

    @property
    def total_pes(self) -> int:
        """Number of processing elements across all systolic arrays."""
        return self.num_sa * self.pes_per_sa

    @property
    def sa_flops_per_cycle(self) -> float:
        """MAC throughput (counted as 2 FLOPs) of all SAs per cycle."""
        return 2.0 * self.total_pes

    @property
    def peak_sa_flops(self) -> float:
        """Peak matrix FLOPs/s of the chip."""
        return self.sa_flops_per_cycle * self.frequency_hz

    @property
    def vu_alus(self) -> int:
        """Total vector ALUs across all vector units."""
        return self.num_vu * self.vu_lanes * self.vu_width

    @property
    def peak_vu_flops(self) -> float:
        """Peak vector FLOPs/s of the chip (one FMA = 2 FLOPs per ALU per cycle)."""
        return 2.0 * self.vu_alus * self.frequency_hz

    @property
    def sram_bytes(self) -> float:
        """On-chip SRAM capacity in bytes."""
        return self.sram_mb * MiB

    @property
    def hbm_bandwidth_bytes(self) -> float:
        """Peak HBM bandwidth in bytes/s."""
        return self.hbm.bandwidth_bytes

    @property
    def ici_bandwidth_bytes(self) -> float:
        """Aggregate ICI bandwidth in bytes/s."""
        return self.ici.total_bandwidth_bytes

    def cycles_to_seconds(self, cycles: float) -> float:
        """Convert a cycle count into seconds at this chip's frequency."""
        return cycles / self.frequency_hz

    def seconds_to_cycles(self, seconds: float) -> float:
        """Convert seconds into clock cycles at this chip's frequency."""
        return seconds * self.frequency_hz

    def with_overrides(self, **kwargs) -> "NPUChipSpec":
        """Return a copy of this spec with selected fields replaced."""
        return replace(self, **kwargs)


# ---------------------------------------------------------------------- #
# Table 2 presets
# ---------------------------------------------------------------------- #
def _chip(
    name: str,
    year: int | None,
    tech: int,
    freq: float,
    sa_width: int,
    num_sa: int,
    num_vu: int,
    sram_mb: float,
    hbm_gen: str,
    hbm_bw: float,
    hbm_gb: float,
    ici_links: int,
    ici_topology: str,
    ici_bw: float,
) -> NPUChipSpec:
    return NPUChipSpec(
        name=name,
        deployment_year=year,
        technology_nm=tech,
        frequency_mhz=freq,
        sa_width=sa_width,
        num_sa=num_sa,
        num_vu=num_vu,
        vu_lanes=8,
        vu_width=128,
        sram_mb=sram_mb,
        hbm=HBMConfig(generation=hbm_gen, bandwidth_gbps=hbm_bw, capacity_gb=hbm_gb),
        ici=ICIConfig(
            links_per_chip=ici_links,
            topology=ici_topology,
            bandwidth_per_link_gbps=ici_bw,
        ),
    )


NPU_A = _chip("NPU-A", 2017, 16, 700, 128, 2, 4, 32, "HBM2", 600, 16, 4, "2d_torus", 62)
NPU_B = _chip("NPU-B", 2018, 16, 940, 128, 4, 4, 32, "HBM2", 900, 32, 4, "2d_torus", 70)
NPU_C = _chip("NPU-C", 2020, 7, 1050, 128, 8, 4, 128, "HBM2", 1200, 32, 4, "2d_torus", 50)
NPU_D = _chip("NPU-D", 2023, 7, 1750, 128, 8, 6, 128, "HBM2e", 2765, 95, 6, "3d_torus", 100)
NPU_E = _chip("NPU-E", None, 4, 2000, 256, 8, 8, 256, "HBM3e", 7400, 192, 6, "3d_torus", 150)

_CHIPS: dict[str, NPUChipSpec] = {
    "NPU-A": NPU_A,
    "NPU-B": NPU_B,
    "NPU-C": NPU_C,
    "NPU-D": NPU_D,
    "NPU-E": NPU_E,
}

_ALIASES = {
    "A": "NPU-A",
    "B": "NPU-B",
    "C": "NPU-C",
    "D": "NPU-D",
    "E": "NPU-E",
    "TPUV2": "NPU-A",
    "TPUV3": "NPU-B",
    "TPUV4": "NPU-C",
    "TPUV5P": "NPU-D",
    "TPUV6P": "NPU-E",
}


def list_chips() -> list[str]:
    """Return the canonical names of all built-in NPU generations."""
    return list(_CHIPS)


def get_chip(name: str) -> NPUChipSpec:
    """Look up a chip spec by name.

    Accepts canonical names (``"NPU-D"``), single letters (``"D"``) and
    TPU aliases (``"TPUv5p"``).
    """
    key = name.strip().upper()
    key = _ALIASES.get(key, key)
    if not key.startswith("NPU-"):
        key = f"NPU-{key}"
    if key not in _CHIPS:
        raise KeyError(
            f"Unknown NPU chip {name!r}; available: {', '.join(_CHIPS)}"
        )
    return _CHIPS[key]


def chips_in_order() -> list[NPUChipSpec]:
    """All chip generations ordered A..E (oldest to newest)."""
    return [NPU_A, NPU_B, NPU_C, NPU_D, NPU_E]


__all__ = [
    "GiB",
    "HBMConfig",
    "ICIConfig",
    "KiB",
    "MiB",
    "NPUChipSpec",
    "NPU_A",
    "NPU_B",
    "NPU_C",
    "NPU_D",
    "NPU_E",
    "chips_in_order",
    "get_chip",
    "list_chips",
]
