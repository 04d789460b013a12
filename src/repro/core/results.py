"""Result containers for workload simulations."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.gating.report import EnergyReport, PolicyName
from repro.hardware.chips import NPUChipSpec
from repro.hardware.components import Component
from repro.workloads.base import ParallelismConfig

if TYPE_CHECKING:
    from repro.simulator.engine import WorkloadProfile


@dataclass
class SimulationResult:
    """Energy reports of every evaluated policy for one workload run.

    All energies are *per chip per iteration*; pod-level and per-unit-work
    quantities are derived via :meth:`pod_energy_j` and
    :meth:`energy_per_work`.
    """

    workload: str
    chip: NPUChipSpec
    num_chips: int
    batch_size: int
    parallelism: ParallelismConfig
    profile: WorkloadProfile
    reports: dict[PolicyName, EnergyReport] = field(default_factory=dict)
    work_per_iteration: float = 1.0
    iteration_unit: str = "iteration"

    # ------------------------------------------------------------------ #
    def report(self, policy: PolicyName) -> EnergyReport:
        """The energy report of one policy."""
        if policy not in self.reports:
            raise KeyError(f"policy {policy} was not evaluated for {self.workload}")
        return self.reports[policy]

    def pod_energy_j(self, policy: PolicyName) -> float:
        """Energy of the whole pod for one iteration."""
        return self.report(policy).total_energy_j * self.num_chips

    def energy_per_work(self, policy: PolicyName) -> float:
        """Joules per unit of work (token, image, request or step)."""
        return self.pod_energy_j(policy) / self.work_per_iteration

    def iteration_time_s(self, policy: PolicyName) -> float:
        """Execution time of one iteration under a policy."""
        return self.report(policy).total_time_s

    def throughput(self, policy: PolicyName = PolicyName.NOPG) -> float:
        """Units of work per second for the whole pod."""
        time_s = self.iteration_time_s(policy)
        if time_s <= 0:
            return 0.0
        return self.work_per_iteration / time_s

    # ------------------------------------------------------------------ #
    def energy_savings(self, policy: PolicyName) -> float:
        """Fractional energy savings of ``policy`` relative to NoPG."""
        return self.report(policy).savings_vs(self.report(PolicyName.NOPG))

    def component_savings(self, policy: PolicyName, component: Component) -> float:
        """Savings on one component, as a fraction of NoPG total energy."""
        return self.report(policy).component_savings_vs(
            self.report(PolicyName.NOPG), component
        )

    def performance_overhead(self, policy: PolicyName) -> float:
        """Slowdown of ``policy`` relative to NoPG."""
        baseline = self.report(PolicyName.NOPG).total_time_s
        if baseline <= 0:
            return 0.0
        return self.report(policy).total_time_s / baseline - 1.0

    def average_power_w(self, policy: PolicyName) -> float:
        """Average per-chip power under a policy."""
        return self.report(policy).average_power_w

    def peak_power_w(self, policy: PolicyName) -> float:
        """Peak per-chip power under a policy."""
        return self.report(policy).peak_power_w

    # ------------------------------------------------------------------ #
    def temporal_utilization(self, component: Component) -> float:
        """Temporal utilization of a component (Figures 4, 6, 8, 9)."""
        return self.profile.temporal_utilization(component)

    def sa_spatial_utilization(self) -> float:
        """Spatial utilization of the systolic arrays (Figure 5)."""
        return self.profile.sa_spatial_utilization()

    def summary(self) -> dict[str, float]:
        """A flat dictionary useful for tabular reporting."""
        nopg = self.report(PolicyName.NOPG)
        row: dict[str, float] = {
            "time_s": nopg.total_time_s,
            "energy_j": nopg.total_energy_j,
            "static_fraction": nopg.static_fraction(),
            "sa_temporal_util": self.temporal_utilization(Component.SA),
            "sa_spatial_util": self.sa_spatial_utilization(),
            "vu_temporal_util": self.temporal_utilization(Component.VU),
            "hbm_temporal_util": self.temporal_utilization(Component.HBM),
            "ici_temporal_util": self.temporal_utilization(Component.ICI),
        }
        for policy in self.reports:
            if policy is PolicyName.NOPG:
                continue
            key = policy.value.lower().replace("-", "_")
            row[f"savings_{key}"] = self.energy_savings(policy)
            row[f"overhead_{key}"] = self.performance_overhead(policy)
        return row


__all__ = ["EnergyReport", "SimulationResult"]
