"""Machine-speed probe for the benchmark: times a fixed mix of work.

The host this benchmark was tuned on runs a vCPU up to ~50% slower for
seconds to minutes at a time, and the workloads slow down with it.  This
kernel (interpreter loops, JSON, a numpy sort and a large allocation)
tracks that speed: timed just before and just after a sample, its mean
correlated 0.7-0.9 with the workloads' times.  The kernel is fixed, so
no change to the program under test can move it.

Run as a helper process, so its memory never counts toward the peak of
``run.py`` (a spawned child's ``ru_maxrss`` starts from its parent's)::

    python e2ebench/calibrate.py

Each line read from standard input runs the kernel once and answers
with its time in seconds; end of input ends the process.
"""

from __future__ import annotations

import json
import sys
import time

import numpy


def kernel_s(values: numpy.ndarray) -> float:
    """Seconds one pass of the fixed kernel takes."""
    start = time.perf_counter()
    total = 0
    for i in range(600_000):
        total += i * i
    rows = [{"k": i, "v": i * 1.5, "s": str(i)} for i in range(40_000)]
    json.loads(json.dumps(rows))
    numpy.cumsum(values[numpy.argsort(values, kind="stable")])
    block = bytearray(64 << 20)
    del block
    return time.perf_counter() - start


def main() -> int:
    values = numpy.random.default_rng(0).random(1_000_000)
    for _line in sys.stdin:
        print(repr(kernel_s(values)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
