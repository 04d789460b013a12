"""Serving-metrics containers and the llm-d-benchmark-style table.

The metric set mirrors the well-defined table llm-d-benchmark publishes
for LLM serving (throughput in requests/second, TTFT/TPOT-like latency
percentiles, per-request cost) with the quantities this reproduction
can actually measure: queue wait (arrival → service start, the
TTFT-like component batching and queueing add), request latency
(arrival → batch completion), replica utilization, and — the paper's
angle — energy per request and power-gating savings under each policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.gating.report import PolicyName
from repro.serving.arrivals import NS


@dataclass(frozen=True)
class PolicyEnergy:
    """Fleet energy of one gating policy over the simulated span."""

    busy_j: float
    idle_j: float
    requests: int

    @property
    def total_j(self) -> float:
        return self.busy_j + self.idle_j

    @property
    def per_request_j(self) -> float:
        if self.requests <= 0:
            return 0.0
        return self.total_j / self.requests

    def savings_vs(self, baseline: "PolicyEnergy") -> float:
        if baseline.total_j <= 0:
            return 0.0
        return 1.0 - self.total_j / baseline.total_j


def p50_p99_ms(scratch_ns: np.ndarray) -> tuple[float, float]:
    """p50 and p99 in milliseconds, from one partition of ``scratch_ns``.

    Partitions ``scratch_ns`` in place (``np.percentile`` would
    otherwise copy it), so pass an array you own and need no more.
    """
    if len(scratch_ns) == 0:
        return 0.0, 0.0
    p50, p99 = np.percentile(scratch_ns, (50, 99), overwrite_input=True)
    return float(p50) / 1e6, float(p99) / 1e6


@dataclass
class WorkloadMetrics:
    """One workload pool's serving metrics."""

    workload: str
    replicas: int
    requests: int
    batches: int
    qps: float
    mean_batch: float
    p50_queue_ms: float
    p99_queue_ms: float
    p50_latency_ms: float
    p99_latency_ms: float
    utilization: float
    energy: dict[PolicyName, PolicyEnergy] = field(default_factory=dict)

    def savings(self, policy: PolicyName) -> float:
        nopg = self.energy.get(PolicyName.NOPG)
        entry = self.energy.get(policy)
        if nopg is None or entry is None:
            return 0.0
        return entry.savings_vs(nopg)

    def to_json(self) -> dict[str, Any]:
        return {
            "workload": self.workload,
            "replicas": self.replicas,
            "requests": self.requests,
            "batches": self.batches,
            "qps": self.qps,
            "mean_batch": self.mean_batch,
            "p50_queue_ms": self.p50_queue_ms,
            "p99_queue_ms": self.p99_queue_ms,
            "p50_latency_ms": self.p50_latency_ms,
            "p99_latency_ms": self.p99_latency_ms,
            "utilization": self.utilization,
            "energy": {
                policy.value: {
                    "busy_j": entry.busy_j,
                    "idle_j": entry.idle_j,
                    "total_j": entry.total_j,
                    "per_request_j": entry.per_request_j,
                    "savings_vs_nopg": self.savings(policy),
                }
                for policy, entry in self.energy.items()
            },
        }


def compute_workload_metrics(
    workload: str,
    replicas: int,
    span_ns: int,
    sizes: np.ndarray,
    service_ns: np.ndarray,
    queue_wait_ns: np.ndarray,
    latency_ns: np.ndarray,
    energy: dict[PolicyName, PolicyEnergy],
) -> WorkloadMetrics:
    """Assemble one pool's metrics from its batch/request columns.

    Reads the request columns without changing them: each percentile
    pair partitions a copy.
    """
    return pool_metrics(
        workload,
        replicas,
        span_ns,
        sizes,
        service_ns,
        p50_p99_ms(np.array(queue_wait_ns)),
        p50_p99_ms(np.array(latency_ns)),
        energy,
    )


def pool_metrics(
    workload: str,
    replicas: int,
    span_ns: int,
    sizes: np.ndarray,
    service_ns: np.ndarray,
    queue_ms: tuple[float, float],
    latency_ms: tuple[float, float],
    energy: dict[PolicyName, PolicyEnergy],
) -> WorkloadMetrics:
    """One pool's metrics from its batch columns and the ``(p50, p99)``
    pairs :func:`p50_p99_ms` took of its queue wait and latency."""
    requests = int(sizes.sum()) if len(sizes) else 0
    busy_ns = int(service_ns.sum()) if len(service_ns) else 0
    span_s = span_ns / NS if span_ns > 0 else 0.0
    capacity_ns = replicas * span_ns
    p50_queue_ms, p99_queue_ms = queue_ms
    p50_latency_ms, p99_latency_ms = latency_ms
    return WorkloadMetrics(
        workload=workload,
        replicas=replicas,
        requests=requests,
        batches=len(sizes),
        qps=requests / span_s if span_s > 0 else 0.0,
        mean_batch=requests / len(sizes) if len(sizes) else 0.0,
        p50_queue_ms=p50_queue_ms,
        p99_queue_ms=p99_queue_ms,
        p50_latency_ms=p50_latency_ms,
        p99_latency_ms=p99_latency_ms,
        utilization=busy_ns / capacity_ns if capacity_ns > 0 else 0.0,
        energy=energy,
    )


def aggregate_fleet(
    per_workload: "list[WorkloadMetrics]", span_ns: int
) -> WorkloadMetrics:
    """Fleet-level rollup of the per-workload metrics.

    Latency percentiles do not aggregate from percentiles, so the fleet
    row reports request-weighted means of the per-pool percentiles —
    close enough for a summary line, and clearly labeled ``fleet``.
    """
    requests = sum(m.requests for m in per_workload)
    batches = sum(m.batches for m in per_workload)
    replicas = sum(m.replicas for m in per_workload)
    span_s = span_ns / NS if span_ns > 0 else 0.0

    def weighted(attribute: str) -> float:
        if requests <= 0:
            return 0.0
        return (
            sum(getattr(m, attribute) * m.requests for m in per_workload) / requests
        )

    energy: dict[PolicyName, PolicyEnergy] = {}
    policies = dict.fromkeys(policy for m in per_workload for policy in m.energy)
    for policy in policies:
        energy[policy] = PolicyEnergy(
            busy_j=sum(m.energy[policy].busy_j for m in per_workload if policy in m.energy),
            idle_j=sum(m.energy[policy].idle_j for m in per_workload if policy in m.energy),
            requests=requests,
        )
    utilization = (
        sum(m.utilization * m.replicas for m in per_workload) / replicas
        if replicas
        else 0.0
    )
    return WorkloadMetrics(
        workload="fleet",
        replicas=replicas,
        requests=requests,
        batches=batches,
        qps=requests / span_s if span_s > 0 else 0.0,
        mean_batch=requests / batches if batches else 0.0,
        p50_queue_ms=weighted("p50_queue_ms"),
        p99_queue_ms=weighted("p99_queue_ms"),
        p50_latency_ms=weighted("p50_latency_ms"),
        p99_latency_ms=weighted("p99_latency_ms"),
        utilization=utilization,
        energy=energy,
    )


def metrics_table(
    per_workload: "list[WorkloadMetrics]",
    fleet: WorkloadMetrics,
    policy: PolicyName = PolicyName.REGATE_FULL,
) -> str:
    """The serving-metrics table (llm-d-benchmark's shape).

    One row per workload pool plus the fleet rollup; the energy columns
    show NoPG energy per request and the chosen gating policy's savings.
    """
    from repro.analysis.tables import format_table, percentage

    rows = []
    for metric in [*per_workload, fleet]:
        nopg = metric.energy.get(PolicyName.NOPG)
        rows.append(
            [
                metric.workload,
                metric.replicas,
                metric.requests,
                f"{metric.qps:.2f}",
                f"{metric.mean_batch:.2f}",
                f"{metric.p50_queue_ms:.2f}",
                f"{metric.p99_queue_ms:.2f}",
                f"{metric.p50_latency_ms:.2f}",
                f"{metric.p99_latency_ms:.2f}",
                percentage(metric.utilization),
                f"{nopg.per_request_j:.3f}" if nopg else "-",
                percentage(metric.savings(policy)),
            ]
        )
    return format_table(
        [
            "pool",
            "replicas",
            "requests",
            "qps",
            "mean batch",
            "p50 queue (ms)",
            "p99 queue (ms)",
            "p50 latency (ms)",
            "p99 latency (ms)",
            "util",
            "J/request (NoPG)",
            f"savings ({policy.value})",
        ],
        rows,
        title="Serving metrics (queue = arrival->service start, "
        "latency = arrival->completion)",
    )


__all__ = [
    "PolicyEnergy",
    "WorkloadMetrics",
    "aggregate_fleet",
    "compute_workload_metrics",
    "metrics_table",
    "p50_p99_ms",
    "pool_metrics",
]
