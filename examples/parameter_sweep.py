#!/usr/bin/env python3
"""Parameter sweeps with the experiments subsystem.

Runs a chips x workloads x policies grid through the cached sweep
runner, then slices the result table a few ways.  Run with::

    python examples/parameter_sweep.py [--cache PATH]

A second invocation with ``--cache`` completes without re-simulating
anything (the runner reads every row back from the JSON store).
"""

import argparse

from repro.analysis.tables import format_table, percentage
from repro.experiments import SimulationCache, SweepRunner, SweepSpec

WORKLOADS = ("llama3-70b-prefill", "llama3-70b-decode", "dlrm-m-inference")
CHIPS = ("NPU-C", "NPU-D", "NPU-E")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cache", metavar="PATH",
                        help="persist results to a JSON cache file")
    args = parser.parse_args()

    spec = SweepSpec(workloads=WORKLOADS, chips=CHIPS)
    cache = SimulationCache(args.cache) if args.cache else SimulationCache()
    result = SweepRunner(spec, cache=cache).run()
    print(f"grid: {spec.describe()} -> {len(result)} rows")
    stats = cache.stats()
    print(f"cache: {stats['hits']} hits, {stats['misses']} misses\n")

    # ReGate-Full savings per (workload, chip), via filter + pivot.
    savings = result.filter(policy="ReGate-Full").pivot(
        ("workload", "chip"), "savings_vs_nopg"
    )
    rows = [
        [workload, *(percentage(savings[(workload, chip)]) for chip in CHIPS)]
        for workload in WORKLOADS
    ]
    print(format_table(["workload", *CHIPS], rows,
                       title="ReGate-Full energy savings by generation"))

    # Group rows by workload and find each one's best non-ideal design.
    print()
    for (workload,), group in result.group_by("workload").items():
        candidates = [row for row in group if row["policy"] not in ("NoPG", "Ideal")]
        best = max(candidates, key=lambda row: row["savings_vs_nopg"])
        print(f"{workload:24s} best design on {best['chip']}: {best['policy']} "
              f"({percentage(best['savings_vs_nopg'])} saved, "
              f"{percentage(best['overhead_vs_nopg'], 3)} overhead)")


if __name__ == "__main__":
    main()
