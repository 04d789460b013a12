"""Fleet-level carbon rollup of a serving run.

Bridges the serving simulation into the carbon stack:
:func:`rollup_carbon` converts a :class:`~repro.serving.simulate.ServingReport`'s
per-policy fleet energy (measured busy + idle joules, not the assumed
duty cycle) into operational carbon via
:class:`~repro.carbon.operational.OperationalCarbonModel`, and re-runs
the Figure 25 lifespan trade-off
(:class:`~repro.carbon.lifespan.LifespanAnalysis`) per workload at the
pool's *measured* utilization — showing how power gating both cuts a
trace's operational carbon and extends the carbon-optimal device
lifespan under realistic, bursty load.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.carbon.lifespan import LifespanAnalysis
from repro.carbon.operational import OperationalCarbonModel
from repro.gating.report import PolicyName
from repro.serving.arrivals import NS
from repro.serving.service import ServiceModel
from repro.serving.simulate import ServingReport


@dataclass(frozen=True)
class PolicyCarbon:
    """Operational carbon of serving the trace under one gating policy."""

    operational_kg: float
    per_request_kg: float
    reduction_vs_nopg: float


@dataclass(frozen=True)
class WorkloadLifespan:
    """One pool's carbon-optimal device lifespan under two policies."""

    workload: str
    utilization: float
    nopg_years: int
    gated_years: int


@dataclass
class ServingCarbonReport:
    """Carbon rollup of one serving run."""

    span_s: float
    duty_cycle: float  # the fleet's measured utilization
    per_policy: dict[PolicyName, PolicyCarbon] = field(default_factory=dict)
    lifespans: list[WorkloadLifespan] = field(default_factory=list)
    lifespan_policy: PolicyName = PolicyName.REGATE_FULL

    def to_json(self) -> dict[str, Any]:
        return {
            "kind": "repro-serving-carbon",
            "span_s": self.span_s,
            "measured_duty_cycle": self.duty_cycle,
            "per_policy": {
                policy.value: {
                    "operational_kg": entry.operational_kg,
                    "per_request_kg": entry.per_request_kg,
                    "reduction_vs_nopg": entry.reduction_vs_nopg,
                }
                for policy, entry in self.per_policy.items()
            },
            "lifespans": [
                {
                    "workload": entry.workload,
                    "utilization": entry.utilization,
                    "optimal_years_nopg": entry.nopg_years,
                    f"optimal_years_{self.lifespan_policy.value}": entry.gated_years,
                }
                for entry in self.lifespans
            ],
        }


def rollup_carbon(
    report: ServingReport,
    service_model: ServiceModel,
    carbon_model: OperationalCarbonModel | None = None,
    lifespan_policy: PolicyName = PolicyName.REGATE_FULL,
) -> ServingCarbonReport:
    """Operational carbon + lifespan trade-off of one serving run."""
    assert report.fleet is not None
    carbon_model = carbon_model or OperationalCarbonModel()
    nopg = report.fleet.energy.get(PolicyName.NOPG)
    nopg_kg = carbon_model.energy_to_carbon_kg(nopg.total_j) if nopg else 0.0

    per_policy: dict[PolicyName, PolicyCarbon] = {}
    for policy, energy in report.fleet.energy.items():
        kg = carbon_model.energy_to_carbon_kg(energy.total_j)
        per_policy[policy] = PolicyCarbon(
            operational_kg=kg,
            per_request_kg=kg / energy.requests if energy.requests else 0.0,
            reduction_vs_nopg=1.0 - kg / nopg_kg if nopg_kg > 0 else 0.0,
        )

    lifespans: list[WorkloadLifespan] = []
    for metric in report.per_workload:
        plan = report.plans[metric.workload]
        result = service_model.result(plan.pod, plan.pod.max_batch)
        analysis = LifespanAnalysis.for_serving(
            result, metric.utilization, operational_model=carbon_model
        )
        lifespans.append(
            WorkloadLifespan(
                workload=metric.workload,
                utilization=metric.utilization,
                nopg_years=analysis.optimal_lifespan(PolicyName.NOPG),
                gated_years=analysis.optimal_lifespan(lifespan_policy),
            )
        )

    return ServingCarbonReport(
        span_s=report.span_ns / NS,
        duty_cycle=report.fleet.utilization,
        per_policy=per_policy,
        lifespans=lifespans,
        lifespan_policy=lifespan_policy,
    )


def carbon_table(rollup: ServingCarbonReport) -> str:
    """The carbon rollup as two short tables."""
    from repro.analysis.tables import format_table, percentage

    policy_rows = [
        [
            policy.value,
            f"{entry.operational_kg:.4f}",
            f"{entry.per_request_kg * 1e9:.2f}",
            percentage(entry.reduction_vs_nopg),
        ]
        for policy, entry in rollup.per_policy.items()
    ]
    lines = [
        format_table(
            ["policy", "kgCO2e", "ugCO2e/request", "reduction"],
            policy_rows,
            title=(
                "Operational carbon of the serving trace "
                f"(measured duty cycle {rollup.duty_cycle:.1%})"
            ),
        )
    ]
    if rollup.lifespans:
        lifespan_rows = [
            [
                entry.workload,
                percentage(entry.utilization),
                str(entry.nopg_years),
                str(entry.gated_years),
            ]
            for entry in rollup.lifespans
        ]
        lines.append(
            format_table(
                [
                    "pool",
                    "util",
                    "optimal lifespan (NoPG)",
                    f"optimal lifespan ({rollup.lifespan_policy.value})",
                ],
                lifespan_rows,
                title="Carbon-optimal device lifespan at measured utilization",
            )
        )
    return "\n\n".join(lines)


__all__ = [
    "PolicyCarbon",
    "ServingCarbonReport",
    "WorkloadLifespan",
    "carbon_table",
    "rollup_carbon",
]
