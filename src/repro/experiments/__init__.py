"""Experiment sweeps with simulation memoization.

The experiments subsystem turns the one-off simulation loops scattered
through the benchmarks and analyses into declarative, cached parameter
studies:

* :class:`SweepSpec` — declares a grid over workloads, chips, batch
  sizes, pod sizes, policies and gating parameters.
* :class:`SweepRunner` / :func:`run_sweep` — executes the grid
  in-process: the row cache first, then one batched pricing pass over
  the misses.
* :class:`SimulationCache` / :func:`simulate_cached` — content-addressed
  memoization of workload profiles, per-policy energy reports and
  finished sweep rows, with an optional on-disk JSON store.
* :class:`SweepResult` — a flat table with CSV/JSON export and
  filter/group-by/pivot helpers.

See ``docs/experiments.md`` for a guide and the cache-invalidation rules.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "cache": (
            "JsonFileStore",
            "SimulationCache",
            "simulate_cached",
            "simulate_cached_many",
        ),
        "keys": (
            "canonical",
            "point_key",
            "profile_key",
            "report_key",
            "stable_hash",
        ),
        "result": ("SweepResult",),
        "runner": (
            "SweepRunner",
            "assemble_packed_rows",
            "pack_rows",
            "rows_from_result",
            "run_point",
            "run_points_packed",
            "run_sweep",
        ),
        "schema": ("ROW_COLUMNS", "ROW_KINDS"),
        "spec": ("DEFAULT_GATING_LABEL", "SweepPoint", "SweepSpec"),
    },
)
