"""Simulation configuration shared by the analyses and benchmarks."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.gating.bet import DEFAULT_PARAMETERS, GatingParameters
from repro.gating.report import PolicyName
from repro.hardware.chips import NPUChipSpec, get_chip
from repro.workloads.base import ParallelismConfig

#: Chip duty cycle assumed throughout the paper (60%, from Wu et al.).
DEFAULT_DUTY_CYCLE = 0.60
#: Data-center power usage effectiveness (1.1, Google 2025).
DEFAULT_PUE = 1.1
#: Grid carbon intensity in kgCO2e per kWh (Google 2024 environmental report).
DEFAULT_CARBON_INTENSITY = 0.0624


@dataclass(frozen=True)
class SimulationConfig:
    """Everything needed to run one workload/chip/policy simulation."""

    chip: str | NPUChipSpec = "NPU-D"
    num_chips: int | None = None
    batch_size: int | None = None
    parallelism: ParallelismConfig | None = None
    policies: tuple[PolicyName, ...] = (
        PolicyName.NOPG,
        PolicyName.REGATE_BASE,
        PolicyName.REGATE_HW,
        PolicyName.REGATE_FULL,
        PolicyName.IDEAL,
    )
    gating_parameters: GatingParameters = field(default_factory=lambda: DEFAULT_PARAMETERS)
    duty_cycle: float = DEFAULT_DUTY_CYCLE
    pue: float = DEFAULT_PUE
    carbon_intensity_kg_per_kwh: float = DEFAULT_CARBON_INTENSITY
    apply_fusion: bool = True

    def __post_init__(self) -> None:
        if not 0.0 < self.duty_cycle <= 1.0:
            raise ValueError("duty cycle must be in (0, 1]")
        if self.pue < 1.0:
            raise ValueError("PUE cannot be below 1.0")
        if self.num_chips is not None and self.num_chips < 1:
            raise ValueError("num_chips must be positive")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch_size must be positive")

    # ------------------------------------------------------------------ #
    def resolve_chip(self) -> NPUChipSpec:
        """Return the chip spec, resolving names through the registry."""
        if isinstance(self.chip, NPUChipSpec):
            return self.chip
        return get_chip(self.chip)

    def with_policy_subset(self, *policies: PolicyName) -> "SimulationConfig":
        """Copy of this config evaluating only the given policies."""
        return replace(self, policies=tuple(policies))

    def with_gating_parameters(self, parameters: GatingParameters) -> "SimulationConfig":
        """Copy of this config with different gating parameters."""
        return replace(self, gating_parameters=parameters)

    def with_chip(self, chip: str | NPUChipSpec) -> "SimulationConfig":
        """Copy of this config targeting a different NPU generation."""
        return replace(self, chip=chip)


__all__ = [
    "DEFAULT_CARBON_INTENSITY",
    "DEFAULT_DUTY_CYCLE",
    "DEFAULT_PUE",
    "SimulationConfig",
]
