"""Dynamic batch formation for the serving simulation.

Requests are grouped into batches by a *clocked window* policy
(:class:`BatchPolicy`): the batch former ticks every ``max_wait_s``,
and within one tick's window requests of the same workload fill batches
of up to ``max_batch``.  A batch dispatches (its *close* time) as soon
as it fills, or at the window boundary if the window ends first — so no
request waits more than one window for its batch to form, and batching
never depends on downstream replica state.  That last property is what
makes batch formation a pure function of the trace, computable either
columnar (:func:`form_batches`) or event-at-a-time
(:func:`form_batches_oracle`) with bit-identical results.

Both paths operate on integer-nanosecond timestamps, so there is no
floating-point drift between them: the equivalence suite asserts exact
array equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.serving.arrivals import NS, RequestTrace, TraceError


@dataclass(frozen=True)
class BatchPolicy:
    """Batch-formation knobs: size cap and forming window.

    ``max_batch`` caps how many requests share one inference iteration;
    ``max_wait_s`` is the forming-window length (the most extra latency
    batching itself can add to a request).
    """

    max_batch: int = 8
    max_wait_s: float = 0.050

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise TraceError("max_batch must be >= 1")
        if not (math.isfinite(self.max_wait_s) and self.max_wait_s > 0):
            raise TraceError("max_wait_s must be positive and finite")

    @property
    def window_ns(self) -> int:
        return max(1, int(round(self.max_wait_s * NS)))

    def with_max_batch(self, max_batch: int) -> "BatchPolicy":
        return BatchPolicy(max_batch=max_batch, max_wait_s=self.max_wait_s)


@dataclass(frozen=True)
class BatchTable:
    """Columnar batch table: one row per formed batch.

    Batches are grouped by workload: pool ``wid``'s batches are rows
    ``pool_offsets[wid]:pool_offsets[wid + 1]``, ordered by dispatch
    (close) time.  A pool's requests fill its batches in arrival order,
    so the sizes and the trace's tag column (``request_tags``) fix which
    batch every request rode in (:attr:`request_batch`).
    """

    workload_ids: np.ndarray  # int64 per batch
    close_ns: np.ndarray  # int64 per batch: dispatch-ready time
    sizes: np.ndarray  # int64 per batch
    pool_offsets: np.ndarray  # int64, len(workloads) + 1
    request_tags: np.ndarray  # int64 per request: the trace's workload_ids
    workloads: tuple[str, ...]
    _request_batch: np.ndarray | None = field(default=None, repr=False)

    def __len__(self) -> int:
        return len(self.close_ns)

    def workload_slice(self, workload_id: int) -> slice:
        """The contiguous batch-row slice of one workload."""
        return slice(
            int(self.pool_offsets[workload_id]),
            int(self.pool_offsets[workload_id + 1]),
        )

    @property
    def request_batch(self) -> np.ndarray:
        """Batch row of every request, in original trace order.

        Built on first read: the serving metrics work per pool and never
        need it.
        """
        if self._request_batch is None:
            batch = np.empty(len(self.request_tags), dtype=np.int64)
            for wid in range(len(self.workloads)):
                rows = self.workload_slice(wid)
                batch[self.request_tags == wid] = np.repeat(
                    np.arange(rows.start, rows.stop, dtype=np.int64),
                    self.sizes[rows],
                )
            object.__setattr__(self, "_request_batch", batch)
        return self._request_batch


def _table(
    trace: RequestTrace,
    workload_ids,
    close_ns,
    sizes,
    request_batch: np.ndarray | None = None,
) -> BatchTable:
    """A :class:`BatchTable` from pool-grouped batch columns."""
    workload_ids = np.asarray(workload_ids, dtype=np.int64)
    return BatchTable(
        workload_ids=workload_ids,
        close_ns=np.asarray(close_ns, dtype=np.int64),
        sizes=np.asarray(sizes, dtype=np.int64),
        pool_offsets=np.searchsorted(
            workload_ids, np.arange(len(trace.workloads) + 1)
        ).astype(np.int64),
        request_tags=trace.workload_ids,
        workloads=trace.workloads,
        _request_batch=request_batch,
    )


def _policy_columns(
    trace: RequestTrace, policy: "BatchPolicy | dict[int, BatchPolicy]"
) -> tuple[np.ndarray, np.ndarray]:
    """Per-workload-id ``(window_ns, max_batch)`` lookup columns.

    A single :class:`BatchPolicy` broadcasts across the fleet; a dict
    maps workload id → policy (missing ids fall back to the default),
    so every pod can run its own SLO-selected batch cap.
    """
    count = max(1, len(trace.workloads))
    if isinstance(policy, BatchPolicy):
        policies = {wid: policy for wid in range(count)}
    else:
        default = BatchPolicy()
        policies = {wid: policy.get(wid, default) for wid in range(count)}
    window_ns = np.asarray(
        [policies[wid].window_ns for wid in range(count)], dtype=np.int64
    )
    max_batch = np.asarray(
        [policies[wid].max_batch for wid in range(count)], dtype=np.int64
    )
    return window_ns, max_batch


def _pool_batches(
    arrival: np.ndarray, window_ns: int, max_batch: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(close_ns, sizes)`` of one pool's batches, from its sorted arrivals.

    One floor division and one ``diff`` find the window groups; the rest
    works on the far shorter group and batch arrays.  A group of ``g``
    requests opens ``ceil(g / max_batch)`` batches, every one full but
    the last.
    """
    if len(arrival) == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    window = arrival // window_ns
    boundaries = np.flatnonzero(np.diff(window)) + 1
    group_start = np.concatenate(([0], boundaries))
    group_end = np.concatenate((boundaries, [len(arrival)]))
    per_group = -(-(group_end - group_start) // max_batch)
    group = np.repeat(np.arange(len(group_start)), per_group)
    first_batch = np.repeat(np.cumsum(per_group) - per_group, per_group)
    batch_start = group_start[group] + (np.arange(len(group)) - first_batch) * max_batch
    sizes = np.minimum(group_end[group] - batch_start, max_batch)
    window_close = (window[group_start] + 1) * window_ns
    close_ns = np.where(
        sizes == max_batch, arrival[batch_start + sizes - 1], window_close[group]
    )
    return close_ns, sizes


def form_batches(
    trace: RequestTrace, policy: "BatchPolicy | dict[int, BatchPolicy]"
) -> BatchTable:
    """Columnar batch formation: one linear pass per workload pool.

    Each pool's requests come from one tag scan, already in arrival
    order, so no per-request sort or scatter is needed;
    :func:`_pool_batches` turns them into batches.
    """
    if len(trace) == 0:
        return _table(trace, [], [], [], np.empty(0, dtype=np.int64))
    window_by_id, batch_by_id = _policy_columns(trace, policy)
    pools = [
        _pool_batches(
            trace.pool_arrivals(wid), int(window_by_id[wid]), int(batch_by_id[wid])
        )
        for wid in range(len(trace.workloads))
    ]
    return _table(
        trace,
        np.repeat(np.arange(len(pools)), [len(sizes) for _close, sizes in pools]),
        np.concatenate([close for close, _sizes in pools]),
        np.concatenate([sizes for _close, sizes in pools]),
    )


def form_batches_oracle(
    trace: RequestTrace, policy: "BatchPolicy | dict[int, BatchPolicy]"
) -> BatchTable:
    """Event-at-a-time reference with identical semantics.

    Walks each workload's requests one by one, opening and closing
    batches exactly as a stepwise batch former would.  Kept as the
    equivalence oracle for :func:`form_batches` — both must agree on
    every output array, exactly.
    """
    if len(trace) == 0:
        return _table(trace, [], [], [], np.empty(0, dtype=np.int64))
    window_by_id, batch_by_id = _policy_columns(trace, policy)

    workload_rows: list[int] = []
    close_rows: list[int] = []
    size_rows: list[int] = []
    request_rows: list[tuple[int, int]] = []  # (original index, batch row)

    for workload_id in range(len(trace.workloads)):
        indices = np.flatnonzero(trace.workload_ids == workload_id)
        window_ns = int(window_by_id[workload_id])
        max_batch = int(batch_by_id[workload_id])
        open_window: int | None = None
        open_size = 0
        for original in indices:
            arrival = int(trace.arrival_ns[original])
            window = arrival // window_ns
            if open_window is None or window != open_window or open_size >= max_batch:
                # Open a new batch; the previous one (if any) keeps the
                # close time already recorded below.
                workload_rows.append(workload_id)
                close_rows.append((window + 1) * window_ns)  # provisional
                size_rows.append(0)
                open_window = window
                open_size = 0
            row = len(size_rows) - 1
            open_size += 1
            size_rows[row] = open_size
            request_rows.append((int(original), row))
            if open_size >= max_batch:
                close_rows[row] = arrival  # filled: dispatch immediately
                open_window = None  # force a fresh batch next request

    request_batch = np.empty(len(trace), dtype=np.int64)
    for original, row in request_rows:
        request_batch[original] = row
    return _table(trace, workload_rows, close_rows, size_rows, request_batch)


__all__ = ["BatchPolicy", "BatchTable", "form_batches", "form_batches_oracle"]
