"""Request-arrival processes for the fleet serving simulation.

The serving layer models traffic as a :class:`RequestTrace`: a columnar
table of request arrival timestamps plus a workload tag per request.
Three sources produce traces:

* :func:`poisson_trace` — a homogeneous Poisson process at a fixed
  request rate (the classic open-loop load generator);
* :func:`diurnal_trace` — an inhomogeneous Poisson process whose rate
  follows a sinusoidal day/night profile (thinning construction), the
  bursty-fleet scenario where power-gating opportunity is largest in
  the troughs;
* :func:`load_trace` — a trace file (CSV or JSONL) of recorded arrival
  timestamps and workload tags, replayed verbatim.

All timestamps are held as **integer nanoseconds** (``int64``).  The
queueing simulation is pure integer arithmetic on these columns, which
is what makes the vectorized path bit-identical to the event-at-a-time
oracle: there is no floating-point reassociation to disagree about.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

#: Nanoseconds per second — the trace time base.
NS = 1_000_000_000


class TraceError(ValueError):
    """A trace file (or trace construction) is malformed."""


def _to_ns(seconds: float) -> int:
    """Seconds → integer nanoseconds (round-half-even, like np.round)."""
    return int(round(seconds * NS))


@dataclass(frozen=True)
class RequestTrace:
    """A columnar request trace: sorted arrival times + workload tags.

    ``arrival_ns`` is sorted ascending; ``workload_ids[i]`` indexes
    ``workloads``.  Construct via the factory helpers below — they
    normalize sorting and the tag dictionary.
    """

    arrival_ns: np.ndarray  # int64, sorted ascending
    workload_ids: np.ndarray  # int64, parallel to arrival_ns
    workloads: tuple[str, ...]  # tag dictionary: id -> workload name

    def __post_init__(self) -> None:
        if len(self.arrival_ns) != len(self.workload_ids):
            raise TraceError("arrival and workload columns differ in length")
        if len(self.arrival_ns) and np.any(np.diff(self.arrival_ns) < 0):
            raise TraceError("arrival timestamps must be sorted ascending")

    # -- construction --------------------------------------------------- #
    @classmethod
    def from_rows(
        cls, rows: Iterable[tuple[float, str]], workloads: Sequence[str] = ()
    ) -> "RequestTrace":
        """Build a trace from ``(timestamp_seconds, workload)`` rows.

        Rows need not be sorted; the tag dictionary lists workloads in
        first-appearance order (extended by any names in ``workloads``
        that never appear, so empty traces can still carry a fleet).
        """
        names: list[str] = list(dict.fromkeys(workloads))
        ids: dict[str, int] = {name: index for index, name in enumerate(names)}
        arrivals: list[int] = []
        tags: list[int] = []
        for timestamp, workload in rows:
            if workload not in ids:
                ids[workload] = len(names)
                names.append(workload)
            arrivals.append(_to_ns(float(timestamp)))
            tags.append(ids[workload])
        arrival_ns = np.asarray(arrivals, dtype=np.int64)
        workload_ids = np.asarray(tags, dtype=np.int64)
        order = np.argsort(arrival_ns, kind="stable")
        return cls(arrival_ns[order], workload_ids[order], tuple(names))

    # -- views ----------------------------------------------------------- #
    def __len__(self) -> int:
        return len(self.arrival_ns)

    @property
    def span_ns(self) -> int:
        """Last arrival minus first arrival (0 for empty/single traces)."""
        if len(self) < 2:
            return 0
        return int(self.arrival_ns[-1] - self.arrival_ns[0])

    def workload_mask(self, workload_id: int) -> np.ndarray:
        return self.workload_ids == workload_id

    def pool_arrivals(self, workload_id: int) -> np.ndarray:
        """One workload's arrival times, in arrival order (one tag scan).

        Gathers by index, which on a mixed tag column is several times
        faster than indexing with the boolean mask.
        """
        return self.arrival_ns[np.flatnonzero(self.workload_ids == workload_id)]

    def request_counts(self) -> dict[str, int]:
        """Requests per workload tag."""
        counts = np.bincount(self.workload_ids, minlength=len(self.workloads))
        return {name: int(counts[i]) for i, name in enumerate(self.workloads)}

    # -- transforms ------------------------------------------------------ #
    def compressed(self, load_factor: float) -> "RequestTrace":
        """Scale the offered load by compressing time.

        ``load_factor == 2`` replays the same requests twice as fast
        (double the qps); ``0.5`` half as fast.  This is how the
        gating-vs-utilization curve sweeps one trace across load levels
        without changing its request mix or burst structure.
        """
        if not (math.isfinite(load_factor) and load_factor > 0):
            raise TraceError("load factor must be positive and finite")
        arrival = np.rint(self.arrival_ns / load_factor).astype(np.int64)
        return RequestTrace(arrival, self.workload_ids, self.workloads)

    def demand_qps(self, window_s: float = 60.0) -> float:
        """Peak windowed arrival rate (requests/second).

        The autoscaler sizes replica pools against this: the maximum
        over fixed ``window_s`` windows of the in-window request count
        divided by the window length.  Falls back to the whole-trace
        average when the trace is shorter than one window.
        """
        if len(self) == 0:
            return 0.0
        window_ns = max(1, _to_ns(window_s))
        if self.span_ns <= window_ns:
            span = max(self.span_ns, 1)
            return len(self) * NS / span if self.span_ns else float(len(self))
        windows = (self.arrival_ns - self.arrival_ns[0]) // window_ns
        counts = np.bincount(windows)
        return float(counts.max()) * NS / window_ns


# ---------------------------------------------------------------------- #
# Synthetic processes
# ---------------------------------------------------------------------- #
def _merge_streams(
    streams: list[tuple[np.ndarray, int]], workloads: tuple[str, ...]
) -> RequestTrace:
    if streams:
        arrival = np.concatenate([times for times, _ in streams])
        tags = np.concatenate(
            [np.full(len(times), tag, dtype=np.int64) for times, tag in streams]
        )
    else:
        arrival = np.empty(0, dtype=np.int64)
        tags = np.empty(0, dtype=np.int64)
    order = np.argsort(arrival, kind="stable")
    return RequestTrace(arrival[order], tags[order], workloads)


def poisson_trace(
    workloads: Sequence[str],
    rate_qps: Sequence[float] | float,
    duration_s: float,
    seed: int = 0,
) -> RequestTrace:
    """Homogeneous Poisson arrivals over ``[0, duration_s)``.

    ``rate_qps`` is per workload (a scalar is broadcast across the
    fleet).  Deterministic for a given seed: each workload draws from
    its own substream, so adding a workload never perturbs another's
    arrivals.
    """
    workloads = tuple(workloads)
    rates = _broadcast_rates(rate_qps, workloads)
    if not (math.isfinite(duration_s) and duration_s > 0):
        raise TraceError("duration must be positive and finite")
    streams = []
    for tag, (workload, rate) in enumerate(zip(workloads, rates)):
        rng = np.random.default_rng([seed, tag])
        count = rng.poisson(rate * duration_s)
        times = np.sort(rng.uniform(0.0, duration_s, size=count))
        streams.append((np.rint(times * NS).astype(np.int64), tag))
    return _merge_streams(streams, workloads)


def diurnal_trace(
    workloads: Sequence[str],
    mean_qps: Sequence[float] | float,
    duration_s: float,
    seed: int = 0,
    period_s: float = 86_400.0,
    amplitude: float = 0.8,
    phase: float = 0.0,
) -> RequestTrace:
    """Inhomogeneous Poisson arrivals with a sinusoidal rate profile.

    The instantaneous rate is ``mean * (1 + amplitude * sin(2πt/period
    + phase))`` — a day/night traffic curve.  Implemented by thinning a
    homogeneous process at the peak rate, so it is exact and
    deterministic per seed.
    """
    workloads = tuple(workloads)
    rates = _broadcast_rates(mean_qps, workloads)
    if not (math.isfinite(duration_s) and duration_s > 0):
        raise TraceError("duration must be positive and finite")
    if not 0.0 <= amplitude <= 1.0:
        raise TraceError("diurnal amplitude must be in [0, 1]")
    if not (math.isfinite(period_s) and period_s > 0):
        raise TraceError("diurnal period must be positive and finite")
    streams = []
    for tag, (workload, mean) in enumerate(zip(workloads, rates)):
        rng = np.random.default_rng([seed, tag, 1])
        peak = mean * (1.0 + amplitude)
        count = rng.poisson(peak * duration_s)
        times = np.sort(rng.uniform(0.0, duration_s, size=count))
        rate = mean * (
            1.0 + amplitude * np.sin(2.0 * math.pi * times / period_s + phase)
        )
        keep = rng.uniform(0.0, peak, size=count) < rate
        streams.append((np.rint(times[keep] * NS).astype(np.int64), tag))
    return _merge_streams(streams, workloads)


def _broadcast_rates(
    rate: Sequence[float] | float, workloads: tuple[str, ...]
) -> list[float]:
    if not workloads:
        raise TraceError("at least one workload is required")
    if isinstance(rate, (int, float)):
        rates = [float(rate)] * len(workloads)
    else:
        rates = [float(value) for value in rate]
        if len(rates) == 1:
            rates = rates * len(workloads)
        if len(rates) != len(workloads):
            raise TraceError(
                f"{len(rates)} rates for {len(workloads)} workloads "
                "(give one rate, or one per workload)"
            )
    if not all(math.isfinite(value) and value > 0 for value in rates):
        raise TraceError("arrival rates must be positive and finite")
    return rates


# ---------------------------------------------------------------------- #
# Trace files
# ---------------------------------------------------------------------- #
def load_trace(path: str | Path, workloads: Sequence[str] = ()) -> RequestTrace:
    """Read a trace file: CSV (``timestamp_s,workload``) or JSONL.

    CSV needs a header with ``timestamp_s`` and ``workload`` columns
    (extra columns are ignored).  JSONL is one object per line with the
    same two keys.  The format is sniffed from the first non-blank
    character, so either works regardless of file extension.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as error:
        raise TraceError(f"cannot read trace {path}: {error}") from error
    stripped = text.lstrip()
    if not stripped:
        return RequestTrace.from_rows([], workloads)
    if stripped[0] == "{":
        rows = _jsonl_rows(text, path)
    else:
        rows = _csv_rows(text, path)
    return RequestTrace.from_rows(rows, workloads)


def _jsonl_rows(text: str, path: Path) -> list[tuple[float, str]]:
    rows: list[tuple[float, str]] = []
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
            rows.append((float(record["timestamp_s"]), str(record["workload"])))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as error:
            raise TraceError(f"{path}:{number}: bad JSONL record ({error})") from error
    return rows


def _csv_rows(text: str, path: Path) -> list[tuple[float, str]]:
    reader = csv.DictReader(text.splitlines())
    if reader.fieldnames is None or not {
        "timestamp_s",
        "workload",
    } <= set(reader.fieldnames):
        raise TraceError(
            f"{path}: CSV trace needs a header with timestamp_s and workload "
            f"columns (got {reader.fieldnames})"
        )
    rows: list[tuple[float, str]] = []
    for number, record in enumerate(reader, start=2):
        try:
            rows.append((float(record["timestamp_s"]), str(record["workload"])))
        except (TypeError, ValueError) as error:
            raise TraceError(f"{path}:{number}: bad CSV record ({error})") from error
    return rows


def write_trace_csv(trace: RequestTrace, path: str | Path) -> Path:
    """Write a trace back out in the CSV trace format (round-trips)."""
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["timestamp_s", "workload"])
        for arrival, tag in zip(trace.arrival_ns, trace.workload_ids):
            writer.writerow([repr(int(arrival) / NS), trace.workloads[tag]])
    return path


__all__ = [
    "NS",
    "RequestTrace",
    "TraceError",
    "diurnal_trace",
    "load_trace",
    "poisson_trace",
    "write_trace_csv",
]
