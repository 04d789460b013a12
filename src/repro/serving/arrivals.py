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

All timestamps are held as **integer nanoseconds** (``int64``), and a
trace spans less than ``2**63`` ns (about 292 years), so differences of
two arrivals fit too.  Workload tags are ``uint8`` (at most 256
workloads per trace), an eighth of the bytes of ``int64``.  The
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

#: 2**63: scaled arrivals must stay in [-2**63, 2**63) to fit int64.
_INT64_LIMIT = 2.0**63

#: dtype of every trace constructor's workload-tag column.
TAG_DTYPE = np.uint8


class TraceError(ValueError):
    """A trace file (or trace construction) is malformed."""


def _to_ns(seconds: float) -> int:
    """Seconds → integer nanoseconds (round-half-even, like np.round)."""
    return int(round(seconds * NS))


@dataclass(frozen=True)
class RequestTrace:
    """A columnar request trace: sorted arrival times + workload tags.

    ``arrival_ns`` is sorted ascending and spans less than ``2**63``
    ns; ``workload_ids[i]`` indexes ``workloads``.  Construct via the
    factory helpers below — they normalize sorting and the tag
    dictionary, and store the tags as :data:`TAG_DTYPE`.
    """

    arrival_ns: np.ndarray  # int64, sorted ascending
    workload_ids: np.ndarray  # TAG_DTYPE (uint8), parallel to arrival_ns
    workloads: tuple[str, ...]  # tag dictionary: id -> workload name

    def __post_init__(self) -> None:
        arrival = self.arrival_ns
        if len(arrival) != len(self.workload_ids):
            raise TraceError("arrival and workload columns differ in length")
        # Neighbour comparison: a bool per request, and no int64
        # difference to overflow.
        if len(arrival) and np.any(arrival[1:] < arrival[:-1]):
            raise TraceError("arrival timestamps must be sorted ascending")
        span = int(arrival[-1]) - int(arrival[0]) if len(arrival) else 0
        if span >= 2**63:
            raise TraceError(
                f"trace spans {span / NS:.3f}s, past the int64 nanosecond "
                "range (about 292 years)"
            )

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
        _check_tag_count(names)
        workload_ids = np.asarray(tags, dtype=TAG_DTYPE)
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
        without changing its request mix or burst structure.  A factor
        of exactly 1 returns this trace itself; one that scales an
        arrival past the int64 nanosecond range raises
        :class:`TraceError`.
        """
        if not (math.isfinite(load_factor) and load_factor > 0):
            raise TraceError("load factor must be positive and finite")
        if load_factor == 1.0:
            return self
        if len(self):
            # Scaling keeps the order, so the end points bound every value.
            with np.errstate(over="ignore"):
                ends = np.rint(self.arrival_ns[[0, -1]] / load_factor)
            if not (-_INT64_LIMIT <= ends[0] and ends[1] < _INT64_LIMIT):
                raise TraceError(
                    f"load factor {load_factor:g} scales the arrivals "
                    "past the int64 nanosecond range"
                )
        # One float scratch, rounded in place, then the int64 column.
        scaled = np.divide(self.arrival_ns, load_factor)
        np.rint(scaled, out=scaled)
        arrival = scaled.astype(np.int64)
        del scaled
        return RequestTrace(arrival, self.workload_ids, self.workloads)

    def demand_qps(self, window_s: float = 60.0) -> float:
        """Peak windowed arrival rate (requests/second).

        The autoscaler sizes replica pools against this: the maximum
        over fixed ``window_s`` windows of the in-window request count
        divided by the window length.  Falls back to the whole-trace
        average when the trace is shorter than one window.
        """
        return peak_demand_qps(self.arrival_ns, window_s)


def peak_demand_qps(arrival_ns: np.ndarray, window_s: float = 60.0) -> float:
    """Peak windowed arrival rate of sorted arrival times (requests/s).

    :meth:`RequestTrace.demand_qps` on a whole trace; the autoscaler
    calls it on one pool's :meth:`RequestTrace.pool_arrivals`.
    """
    count = len(arrival_ns)
    if count == 0:
        return 0.0
    window_ns = max(1, _to_ns(window_s))
    span_ns = int(arrival_ns[-1] - arrival_ns[0])
    if span_ns <= window_ns:
        return count * NS / span_ns if span_ns else float(count)
    windows = (arrival_ns - arrival_ns[0]) // window_ns
    return float(np.bincount(windows).max()) * NS / window_ns


# ---------------------------------------------------------------------- #
# Synthetic processes
# ---------------------------------------------------------------------- #
def _check_tag_count(workloads: Sequence[str]) -> None:
    """Raise :class:`TraceError` if ``workloads`` overflow :data:`TAG_DTYPE`."""
    limit = np.iinfo(TAG_DTYPE).max + 1
    if len(workloads) > limit:
        raise TraceError(
            f"a trace holds at most {limit} workloads, got {len(workloads)}"
        )


def _merge_streams(
    streams: list[np.ndarray], workloads: tuple[str, ...]
) -> RequestTrace:
    """One trace from per-workload sorted streams (``streams[tag]``).

    Takes the list's arrays: it empties ``streams``, and drops each
    temporary (the streams, the unsorted columns, the order) as soon as
    its successor exists.
    """
    _check_tag_count(workloads)
    tags = np.repeat(
        np.arange(len(streams), dtype=TAG_DTYPE), [len(times) for times in streams]
    )
    arrival = np.concatenate(streams) if streams else np.empty(0, dtype=np.int64)
    streams.clear()
    order = np.argsort(arrival, kind="stable")
    arrival = arrival[order]
    tags = tags[order]
    del order
    return RequestTrace(arrival, tags, workloads)


def _stream_ns(times_s: np.ndarray) -> np.ndarray:
    """Arrival seconds → int64 nanoseconds, scaled and rounded in place."""
    times_s *= NS
    np.rint(times_s, out=times_s)
    return times_s.astype(np.int64)


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
    _check_duration_and_seed(duration_s, seed)
    streams = []
    for tag, (workload, rate) in enumerate(zip(workloads, rates)):
        rng = np.random.default_rng([seed, tag])
        count = rng.poisson(rate * duration_s)
        times = rng.uniform(0.0, duration_s, size=count)
        times.sort()
        streams.append(_stream_ns(times))
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
    _check_duration_and_seed(duration_s, seed)
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
        streams.append(_stream_ns(times[keep]))
    return _merge_streams(streams, workloads)


def _check_duration_and_seed(duration_s: float, seed: int) -> None:
    if not (math.isfinite(duration_s) and duration_s > 0):
        raise TraceError("duration must be positive and finite")
    if seed < 0:
        raise TraceError(f"seed must be a non-negative integer, got {seed}")


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


def _timestamp_s(value: object) -> float:
    """A trace timestamp in seconds whose nanosecond count fits int64.

    NaN, infinities and values past int64 nanoseconds (about 292 years)
    raise :class:`ValueError`, which the readers report by line.
    """
    seconds = float(value)
    if not -_INT64_LIMIT <= seconds * NS < _INT64_LIMIT:
        raise ValueError(
            f"timestamp {seconds!r} s is not finite or does not fit int64 "
            "nanoseconds"
        )
    return seconds


def _jsonl_rows(text: str, path: Path) -> list[tuple[float, str]]:
    rows: list[tuple[float, str]] = []
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
            rows.append((_timestamp_s(record["timestamp_s"]), str(record["workload"])))
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
            rows.append((_timestamp_s(record["timestamp_s"]), str(record["workload"])))
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
    "TAG_DTYPE",
    "TraceError",
    "diurnal_trace",
    "load_trace",
    "peak_demand_qps",
    "poisson_trace",
    "write_trace_csv",
]
