"""Replica queueing for the serving simulation.

Each workload is served by a pool of identical replicas.  Batches are
handed to replicas round-robin in dispatch order (batch ``k`` of a
workload runs on replica ``k mod R``), and every replica serves its
batches FCFS — the standard deterministic router that keeps the system
analyzable and, crucially, lets the per-replica timeline be computed
two ways with bit-identical results:

* :func:`queue_batches` — columnar.  For each replica stripe the FCFS
  recursion ``finish[k] = max(ready[k], finish[k-1]) + service[k]``
  is rewritten as a ``cumsum`` plus a running maximum:
  ``finish[k] = cum[k] + max_{j<=k}(ready[j] - cum[j-1])``.  On the
  integer-nanosecond time base this algebra is exact, so the rewrite
  is not an approximation — it is the same recursion evaluated with
  array primitives.
* :func:`queue_batches_oracle` — the event-at-a-time reference: walk
  batches in dispatch order, tracking each replica's free time.

The equivalence suite asserts exact array equality between the two
across arrival processes, batch policies and replica counts.
"""

from __future__ import annotations

import numpy as np

from repro.serving.arrivals import RequestTrace, TraceError
from repro.serving.batching import BatchTable


def _replica_counts(
    batches: BatchTable, replicas: "dict[int, int] | int"
) -> dict[int, int]:
    if isinstance(replicas, int):
        counts = {wid: replicas for wid in range(len(batches.workloads))}
    else:
        counts = dict(replicas)
    for wid in range(len(batches.workloads)):
        count = counts.get(wid, 1)
        if count < 1:
            raise TraceError(
                f"workload {batches.workloads[wid]!r} needs >= 1 replica, got {count}"
            )
        counts[wid] = count
    return counts


def _strided_fcfs(ready: np.ndarray, service: np.ndarray) -> np.ndarray:
    """Exact single-server FCFS finish times via cumsum + running max."""
    cum = np.cumsum(service)
    # ready[k] - cum[k-1]  (cum[-1] := 0)
    offset = ready - (cum - service)
    return np.maximum.accumulate(offset) + cum


def queue_batches(
    batches: BatchTable,
    service_ns: np.ndarray,
    replicas: "dict[int, int] | int",
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Columnar start/finish/replica arrays for every batch.

    ``service_ns`` is per batch (int64).  ``replicas`` maps workload id
    to pool size (an int broadcasts).  Returns ``(start_ns, finish_ns,
    replica_of)`` aligned with the batch table rows.
    """
    counts = _replica_counts(batches, replicas)
    start = np.zeros(len(batches), dtype=np.int64)
    finish = np.zeros(len(batches), dtype=np.int64)
    replica_of = np.zeros(len(batches), dtype=np.int64)
    for wid in range(len(batches.workloads)):
        rows = batches.workload_slice(wid)
        count = counts[wid]
        replica_of[rows] = np.arange(rows.stop - rows.start, dtype=np.int64) % count
        for replica in range(min(count, rows.stop - rows.start)):
            # Round-robin: the replica's batches are every count-th row.
            stripe = slice(rows.start + replica, rows.stop, count)
            fin = _strided_fcfs(batches.close_ns[stripe], service_ns[stripe])
            finish[stripe] = fin
            start[stripe] = fin - service_ns[stripe]
    return start, finish, replica_of


def queue_batches_oracle(
    batches: BatchTable,
    service_ns: np.ndarray,
    replicas: "dict[int, int] | int",
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Event-at-a-time reference for :func:`queue_batches`."""
    counts = _replica_counts(batches, replicas)
    start = np.zeros(len(batches), dtype=np.int64)
    finish = np.zeros(len(batches), dtype=np.int64)
    replica_of = np.zeros(len(batches), dtype=np.int64)
    free: dict[tuple[int, int], int] = {}
    sequence: dict[int, int] = {}
    for row in range(len(batches)):
        wid = int(batches.workload_ids[row])
        k = sequence.get(wid, 0)
        sequence[wid] = k + 1
        replica = k % counts[wid]
        ready = int(batches.close_ns[row])
        begin = max(ready, free.get((wid, replica), 0))
        end = begin + int(service_ns[row])
        free[(wid, replica)] = end
        start[row] = begin
        finish[row] = end
        replica_of[row] = replica
    return start, finish, replica_of


def request_latencies(
    trace: RequestTrace,
    batches: BatchTable,
    start_ns: np.ndarray,
    finish_ns: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-request ``(queue_wait_ns, latency_ns)``.

    Queue wait is arrival → batch service start (batch forming plus
    replica queueing — the TTFT-like component); latency is arrival →
    batch completion (the time-per-request metric).
    """
    if len(trace) == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    batch = batches.request_batch
    queue_wait = start_ns[batch] - trace.arrival_ns
    latency = finish_ns[batch] - trace.arrival_ns
    return queue_wait, latency


def pool_latencies(
    trace: RequestTrace,
    batches: BatchTable,
    start_ns: np.ndarray,
    finish_ns: np.ndarray,
    workload_id: int,
) -> tuple[np.ndarray, np.ndarray]:
    """One pool's ``(queue_wait_ns, latency_ns)``, in arrival order.

    The same values :func:`request_latencies` gives for the pool's
    requests: the pool's requests fill its batches in arrival order, so
    each batch's start and finish repeat once per request it carries.
    """
    rows = batches.workload_slice(workload_id)
    arrival = trace.pool_arrivals(workload_id)
    sizes = batches.sizes[rows]
    return (
        np.repeat(start_ns[rows], sizes) - arrival,
        np.repeat(finish_ns[rows], sizes) - arrival,
    )


__all__ = [
    "pool_latencies",
    "queue_batches",
    "queue_batches_oracle",
    "request_latencies",
]
