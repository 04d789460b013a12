"""The trace-driven fleet serving simulation (orchestrator).

:func:`simulate_serving` ties the layers together: a
:class:`~repro.serving.arrivals.RequestTrace` is batched
(:mod:`~repro.serving.batching`), queued onto replica pools
(:mod:`~repro.serving.queueing`), priced per gating policy through the
NPU simulator (:mod:`~repro.serving.service`) and summarized as the
serving-metrics table (:mod:`~repro.serving.metrics`).

Which queueing implementation runs follows the repo-wide columnar
switch: the vectorized path when
:func:`repro.simulator.columnar.fast_path_enabled` (the default), the
event-at-a-time oracle under ``REPRO_FAST_PATH=0`` — the two are
bit-identical by contract and the serving equivalence suite asserts it.

:func:`utilization_curve` produces the paper-extending result the
ROADMAP asks for: power-gating savings as a function of fleet
utilization, computed by replaying one trace at compressed/stretched
load levels against a fixed fleet.  As utilization rises the idle time
between batches — the gating opportunity — shrinks, and fleet savings
converge to the busy-execution savings alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Sequence

import numpy as np

from repro.gating.report import PolicyName
from repro.simulator import columnar
from repro.serving.arrivals import NS, RequestTrace
from repro.serving.autoscale import PodPlan
from repro.serving.batching import BatchPolicy, BatchTable, form_batches, form_batches_oracle
from repro.serving.metrics import (
    PolicyEnergy,
    WorkloadMetrics,
    aggregate_fleet,
    compute_workload_metrics,
    metrics_table,
)
from repro.serving.queueing import (
    pool_latencies,
    queue_batches,
    queue_batches_oracle,
    request_latencies,
)
from repro.serving.service import ServiceModel


@dataclass
class ServingReport:
    """Everything one serving run produced.

    ``queue_wait_ns`` and ``latency_ns`` hold one value per request, in
    original trace order; they are built on first read, because the
    metrics are computed per pool.
    """

    trace: RequestTrace
    plans: dict[str, PodPlan]
    batches: BatchTable
    start_ns: np.ndarray
    finish_ns: np.ndarray
    span_ns: int
    per_workload: list[WorkloadMetrics] = field(default_factory=list)
    fleet: WorkloadMetrics | None = None

    @cached_property
    def _request_latencies(self) -> tuple[np.ndarray, np.ndarray]:
        return request_latencies(
            self.trace, self.batches, self.start_ns, self.finish_ns
        )

    @property
    def queue_wait_ns(self) -> np.ndarray:
        """Per-request arrival → service start, in trace order."""
        return self._request_latencies[0]

    @property
    def latency_ns(self) -> np.ndarray:
        """Per-request arrival → batch completion, in trace order."""
        return self._request_latencies[1]

    def metrics_table(self, policy: PolicyName = PolicyName.REGATE_FULL) -> str:
        assert self.fleet is not None
        return metrics_table(self.per_workload, self.fleet, policy)

    def fleet_energy(self, policy: PolicyName) -> PolicyEnergy:
        assert self.fleet is not None
        return self.fleet.energy[policy]

    def fleet_savings(self, policy: PolicyName) -> float:
        assert self.fleet is not None
        return self.fleet.savings(policy)

    @property
    def fleet_utilization(self) -> float:
        assert self.fleet is not None
        return self.fleet.utilization

    def to_json(self) -> dict[str, Any]:
        return {
            "kind": "repro-serving-report",
            "span_s": self.span_ns / NS,
            "pools": {plan.pod.workload: plan.describe() for plan in self.plans.values()},
            "per_workload": [metric.to_json() for metric in self.per_workload],
            "fleet": self.fleet.to_json() if self.fleet else None,
        }


#: One pool's batch-size histogram: ``np.unique(sizes, return_inverse=True,
#: return_counts=True)`` of its batch rows.
SizeHistogram = tuple[np.ndarray, np.ndarray, np.ndarray]


def _batch_service_ns(
    batches: BatchTable,
    plans: dict[str, PodPlan],
    model: ServiceModel,
    histograms: list[SizeHistogram],
) -> np.ndarray:
    """Per-batch service times: one simulator call per distinct size."""
    service = np.zeros(len(batches), dtype=np.int64)
    for wid, workload in enumerate(batches.workloads):
        distinct, inverse, _counts = histograms[wid]
        pod = plans[workload].pod
        per_size = np.asarray(
            [model.service_ns(pod, int(size)) for size in distinct], dtype=np.int64
        )
        service[batches.workload_slice(wid)] = per_size[inverse]
    return service


def _policy_energy(
    plan: PodPlan,
    model: ServiceModel,
    histogram: SizeHistogram,
    busy_ns: int,
    span_ns: int,
) -> dict[PolicyName, PolicyEnergy]:
    """Busy + idle fleet energy of one workload pool, per policy.

    Busy energy sums the simulator's per-batch pod energy, one term per
    distinct batch size in ascending order; idle energy prices the
    pool's remaining up-time at the policy's gated idle power.
    Identical int64 inputs on both queueing paths make these floats
    identical too.
    """
    distinct, _inverse, counts = histogram
    requests = int((distinct * counts).sum())
    idle_ns = max(0, plan.replicas * span_ns - busy_ns)
    size_counts = list(zip(distinct.tolist(), counts.tolist()))
    energy: dict[PolicyName, PolicyEnergy] = {}
    for policy in model.policies:
        busy_j = 0.0
        for size, count in size_counts:
            busy_j += count * model.busy_energy_j(plan.pod, size, policy)
        idle_j = model.idle_power_w(plan.pod, policy) * (idle_ns / NS)
        energy[policy] = PolicyEnergy(
            busy_j=busy_j, idle_j=idle_j, requests=requests
        )
    return energy


def simulate_serving(
    trace: RequestTrace,
    plans: dict[str, PodPlan],
    service_model: ServiceModel,
    max_wait_s: float = 0.050,
    use_fast_path: bool | None = None,
) -> ServingReport:
    """Run the fleet serving simulation over one trace.

    ``plans`` must cover every workload tag in the trace (the
    :class:`~repro.serving.autoscale.Autoscaler` produces them).
    ``use_fast_path`` overrides the repo-wide columnar switch; the two
    paths are bit-identical.
    """
    missing = [name for name in trace.workloads if name not in plans]
    if missing:
        raise KeyError(f"no pod plan for workload(s) {missing}")
    fast = columnar.fast_path_enabled() if use_fast_path is None else use_fast_path
    policies = {
        wid: BatchPolicy(
            max_batch=plans[name].pod.max_batch, max_wait_s=max_wait_s
        )
        for wid, name in enumerate(trace.workloads)
    }
    former = form_batches if fast else form_batches_oracle
    batches = former(trace, policies)
    histograms = [
        np.unique(
            batches.sizes[batches.workload_slice(wid)],
            return_inverse=True,
            return_counts=True,
        )
        for wid in range(len(trace.workloads))
    ]
    service_ns = _batch_service_ns(batches, plans, service_model, histograms)
    replicas = {
        wid: plans[name].replicas for wid, name in enumerate(trace.workloads)
    }
    queue = queue_batches if fast else queue_batches_oracle
    start_ns, finish_ns, _replica_of = queue(batches, service_ns, replicas)
    span_ns = int(finish_ns.max() - trace.arrival_ns[0]) if len(trace) else 0
    if not fast:
        queue_wait_ns, latency_ns = request_latencies(
            trace, batches, start_ns, finish_ns
        )

    per_workload: list[WorkloadMetrics] = []
    for wid, workload in enumerate(trace.workloads):
        rows = batches.workload_slice(wid)
        if fast:
            queue_wait, latency = pool_latencies(
                trace, batches, start_ns, finish_ns, wid
            )
        else:
            mask = trace.workload_mask(wid)
            queue_wait, latency = queue_wait_ns[mask], latency_ns[mask]
        plan = plans[workload]
        busy_ns = int(service_ns[rows].sum())
        per_workload.append(
            compute_workload_metrics(
                workload=workload,
                replicas=plan.replicas,
                span_ns=span_ns,
                sizes=batches.sizes[rows],
                service_ns=service_ns[rows],
                queue_wait_ns=queue_wait,
                latency_ns=latency,
                energy=_policy_energy(
                    plan, service_model, histograms[wid], busy_ns, span_ns
                ),
            )
        )
    fleet = aggregate_fleet(per_workload, span_ns)
    return ServingReport(
        trace=trace,
        plans=plans,
        batches=batches,
        start_ns=start_ns,
        finish_ns=finish_ns,
        span_ns=span_ns,
        per_workload=per_workload,
        fleet=fleet,
    )


#: Load factors of the default gating-vs-utilization curve: from a
#: mostly-idle fleet to saturation of the autoscaled operating point.
DEFAULT_LOAD_FACTORS = (0.125, 0.25, 0.5, 1.0, 2.0, 4.0)


@dataclass(frozen=True)
class CurvePoint:
    """One load level of the gating-savings-vs-utilization curve."""

    load_factor: float
    qps: float
    utilization: float
    p99_latency_ms: float
    savings: dict[PolicyName, float]
    energy_per_request_j: dict[PolicyName, float]


def utilization_curve(
    trace: RequestTrace,
    plans: dict[str, PodPlan],
    service_model: ServiceModel,
    load_factors: Sequence[float] = DEFAULT_LOAD_FACTORS,
    max_wait_s: float = 0.050,
    use_fast_path: bool | None = None,
) -> list[CurvePoint]:
    """Gating savings vs utilization: replay the trace across load levels.

    The fleet (replica counts, pod shapes) stays fixed while the trace
    is time-compressed by each load factor — quantifying exactly how
    the power-gating opportunity shrinks as utilization rises.
    """
    points = []
    for factor in load_factors:
        report = simulate_serving(
            trace.compressed(factor),
            plans,
            service_model,
            max_wait_s=max_wait_s,
            use_fast_path=use_fast_path,
        )
        assert report.fleet is not None
        points.append(
            CurvePoint(
                load_factor=factor,
                qps=report.fleet.qps,
                utilization=report.fleet_utilization,
                p99_latency_ms=report.fleet.p99_latency_ms,
                savings={
                    policy: report.fleet_savings(policy)
                    for policy in service_model.policies
                    if policy is not PolicyName.NOPG
                },
                energy_per_request_j={
                    policy: report.fleet_energy(policy).per_request_j
                    for policy in service_model.policies
                },
            )
        )
    return points


def curve_table(points: "list[CurvePoint]") -> str:
    """The gating-opportunity-shrinks-under-load curve as a table."""
    from repro.analysis.tables import format_table, percentage

    policies = list(points[0].savings) if points else []
    rows = [
        [
            f"{point.load_factor:g}x",
            f"{point.qps:.2f}",
            percentage(point.utilization),
            f"{point.p99_latency_ms:.2f}",
            *[percentage(point.savings[policy]) for policy in policies],
        ]
        for point in points
    ]
    return format_table(
        [
            "load",
            "qps",
            "util",
            "p99 latency (ms)",
            *[f"savings ({policy.value})" for policy in policies],
        ],
        rows,
        title="Power-gating savings vs fleet utilization "
        "(fixed fleet, time-compressed trace)",
    )


__all__ = [
    "CurvePoint",
    "DEFAULT_LOAD_FACTORS",
    "ServingReport",
    "curve_table",
    "simulate_serving",
    "utilization_curve",
]
