"""Trace-driven fleet serving simulation with SLO-aware autoscaling.

A vectorized queueing simulation layered over the NPU simulator:
arrival processes (Poisson, diurnal, or trace files) feed a clocked
dynamic batcher, batches queue FCFS onto SLO-sized replica pools, and
every batch is priced through the paper's energy model — yielding
serving metrics (qps, latency percentiles, energy per request) and the
power-gating-savings-vs-utilization curve.  An event-at-a-time oracle
mirrors every vectorized stage bit-for-bit for equivalence testing
(``REPRO_FAST_PATH=0`` selects it end to end).
"""

from repro.serving.arrivals import (
    NS,
    TAG_DTYPE,
    RequestTrace,
    TraceError,
    diurnal_trace,
    load_trace,
    poisson_trace,
    write_trace_csv,
)
from repro.serving.autoscale import Autoscaler, PodPlan, ServingError
from repro.serving.batching import (
    BatchPolicy,
    BatchTable,
    form_batches,
    form_batches_oracle,
)
from repro.serving.metrics import PolicyEnergy, WorkloadMetrics, metrics_table
from repro.serving.queueing import (
    pool_latencies,
    queue_batches,
    queue_batches_oracle,
    request_latencies,
)
from repro.serving.rollup import ServingCarbonReport, carbon_table, rollup_carbon
from repro.serving.service import PodSpec, ServiceModel
from repro.serving.simulate import (
    CurvePoint,
    ServingReport,
    curve_table,
    simulate_serving,
    utilization_curve,
)

__all__ = [
    "NS",
    "Autoscaler",
    "BatchPolicy",
    "BatchTable",
    "CurvePoint",
    "PodPlan",
    "PodSpec",
    "PolicyEnergy",
    "RequestTrace",
    "ServiceModel",
    "ServingCarbonReport",
    "ServingError",
    "ServingReport",
    "TAG_DTYPE",
    "TraceError",
    "WorkloadMetrics",
    "carbon_table",
    "curve_table",
    "diurnal_trace",
    "form_batches",
    "form_batches_oracle",
    "load_trace",
    "metrics_table",
    "poisson_trace",
    "pool_latencies",
    "queue_batches",
    "queue_batches_oracle",
    "request_latencies",
    "rollup_carbon",
    "simulate_serving",
    "utilization_curve",
    "write_trace_csv",
]
