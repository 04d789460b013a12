"""A small in-memory span recorder for the traced benchmark run.

A span is one timed call into a layer: ``[name, start_ns, end_ns,
parent]``, where ``parent`` is the index of the enclosing span (or
``None``) and times come from :func:`time.perf_counter_ns`.  The
enclosing span is tracked in a :class:`contextvars.ContextVar`, so the
recorder needs no dependency and no cooperation from the code it wraps.
Spans stay in memory until :meth:`Recorder.payload` writes them out.

A call that re-enters a span name already open (a recursive helper, or
a subclass method calling its base) is counted but opens no new span,
so a name's total time never counts the same interval twice.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import time
from collections import Counter
from typing import Any, Callable

_CURRENT: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "e2ebench_current_span", default=None
)


class Recorder:
    """Records spans and counters; one instance per traced process."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.counts: Counter[str] = Counter()
        self._open: Counter[str] = Counter()

    def _start(self, name: str) -> tuple[int | None, Any]:
        if self._open[name]:
            return None, None
        self._open[name] += 1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, _CURRENT.get()])
        return index, _CURRENT.set(index)

    def _end(self, name: str, index: int | None, token: Any) -> None:
        if index is None:
            return
        self.spans[index][2] = time.perf_counter_ns()
        _CURRENT.reset(token)
        self._open[name] -= 1

    @contextlib.contextmanager
    def span(self, name: str):
        """Time the ``with`` body as one span named ``name``."""
        self.counts[name] += 1
        index, token = self._start(name)
        try:
            yield
        finally:
            self._end(name, index, token)

    def wrap(
        self,
        name: str,
        function: Callable,
        on_result: Callable[["Recorder", tuple, dict, Any], None] | None = None,
    ) -> Callable:
        """``function`` with every call counted and timed as span ``name``.

        ``on_result(recorder, args, kwargs, result)`` runs after each
        call, to record counts that only the arguments or the result
        carry (rows written, requests simulated).
        """

        @functools.wraps(function)
        def traced(*args, **kwargs):
            with self.span(name):
                result = function(*args, **kwargs)
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        return traced

    # ------------------------------------------------------------------ #
    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, total seconds ``s`` and ``self_s``.

        Self time is a span's duration minus the time its direct child
        spans cover; children of one span never overlap because the
        traced program runs on one thread.
        """
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        totals: dict[str, dict[str, float]] = {}
        for index, (name, start, end, _parent) in enumerate(self.spans):
            entry = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["s"] += (end - start) / 1e9
            entry["self_s"] += (end - start - child_ns[index]) / 1e9
        for name, entry in totals.items():
            entry["calls"] = self.counts[name]
        return totals

    def payload(self) -> dict[str, Any]:
        """Everything recorded, as one JSON-ready object."""
        return {
            "spans": self.spans,
            "totals": self.totals(),
            "counts": dict(sorted(self.counts.items())),
        }
