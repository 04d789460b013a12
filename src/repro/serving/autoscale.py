"""SLO-aware pod autoscaling for the serving simulation.

The autoscaler answers two questions per workload:

1. **What does one replica look like?**  It reuses
   :class:`repro.core.slo.SLOSearch` — the paper's Table 4 machinery —
   to pick the most energy-efficient SLO-compliant pod configuration
   (chip count and batch size) on the requested NPU generation.  If the
   search returns an infeasible selection (no runnable configuration),
   sizing fails with a :class:`ServingError` naming the workload.

2. **How many replicas?**  Enough that the peak windowed arrival rate
   keeps every pool at or below a target utilization:
   ``replicas = ceil(peak_qps / (replica_rps * target_utilization))``
   where ``replica_rps`` comes from the replica's measured batch
   service time.  Head-room below 100% is what keeps queueing delay —
   and therefore the latency SLO — bounded under bursty arrivals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.slo import SLOSearch, SLOSelection
from repro.serving.arrivals import RequestTrace
from repro.serving.service import PodSpec, ServiceModel


class ServingError(RuntimeError):
    """The serving simulation cannot be set up as requested."""


@dataclass(frozen=True)
class PodPlan:
    """One workload's sized pool: pod shape, replica count, provenance."""

    pod: PodSpec
    replicas: int
    demand_qps: float
    replica_rps: float
    selection: SLOSelection | None = None  # None when sized manually

    def describe(self) -> str:
        how = "SLO-sized" if self.selection is not None else "manual"
        return (
            f"{self.pod.describe()}: {self.replicas} replica(s) "
            f"[{how}; demand {self.demand_qps:.2f} rps, "
            f"one replica {self.replica_rps:.2f} rps]"
        )


@dataclass
class Autoscaler:
    """Sizes replica pools from a trace's peak windowed demand."""

    service_model: ServiceModel
    chip: str = "NPU-D"
    slo_search: SLOSearch = field(default_factory=SLOSearch)
    target_utilization: float = 0.8
    demand_window_s: float = 60.0
    min_replicas: int = 1
    max_replicas: int = 64

    def __post_init__(self) -> None:
        if not 0.0 < self.target_utilization <= 1.0:
            raise ServingError("target utilization must be in (0, 1]")
        if self.min_replicas < 1 or self.max_replicas < self.min_replicas:
            raise ServingError("bad replica bounds")

    # ------------------------------------------------------------------ #
    def select_pod(self, workload: str) -> tuple[PodSpec, SLOSelection]:
        """The SLO search's most energy-efficient compliant pod shape."""
        selection = self.slo_search.search(workload, self.chip)
        if not selection.feasible:
            raise ServingError(
                f"no runnable pod configuration for {workload!r} on "
                f"{self.chip} — the SLO search returned an infeasible "
                "selection; pick a larger chip or size the pod manually"
            )
        pod = PodSpec(
            workload=workload,
            chip=self.chip,
            num_chips=selection.num_chips,
            max_batch=max(1, selection.batch_size),
        )
        return pod, selection

    def size(
        self,
        trace: RequestTrace,
        workload: str,
        pod: PodSpec | None = None,
    ) -> PodPlan:
        """Size one workload's pool against the trace's peak demand.

        ``pod`` overrides the SLO-searched shape (manual sizing keeps
        the demand-driven replica count).
        """
        selection: SLOSelection | None = None
        if pod is None:
            pod, selection = self.select_pod(workload)
        if pod.max_batch < 1:
            raise ServingError(
                f"pod of {workload!r} needs max_batch >= 1, got {pod.max_batch}"
            )
        try:
            workload_id = trace.workloads.index(workload)
        except ValueError:
            workload_id = -1
        if workload_id >= 0:
            mask = trace.workload_mask(workload_id)
            sub = RequestTrace(
                trace.arrival_ns[mask], trace.workload_ids[mask], trace.workloads
            )
            demand = sub.demand_qps(self.demand_window_s)
        else:
            demand = 0.0
        replica_rps = self.service_model.replica_rps(pod)
        if replica_rps <= 0:
            raise ServingError(f"replica of {workload!r} has zero throughput")
        wanted = math.ceil(demand / (replica_rps * self.target_utilization))
        replicas = min(self.max_replicas, max(self.min_replicas, wanted))
        return PodPlan(
            pod=pod,
            replicas=replicas,
            demand_qps=demand,
            replica_rps=replica_rps,
            selection=selection,
        )

    def plan_fleet(
        self, trace: RequestTrace, pods: "dict[str, PodSpec] | None" = None
    ) -> dict[str, PodPlan]:
        """A :class:`PodPlan` per workload tag in the trace."""
        pods = pods or {}
        return {
            workload: self.size(trace, workload, pods.get(workload))
            for workload in trace.workloads
        }


__all__ = ["Autoscaler", "PodPlan", "ServingError"]
