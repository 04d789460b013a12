"""Parallel experiment sweeps with simulation memoization.

The experiments subsystem turns the one-off simulation loops scattered
through the benchmarks and analyses into declarative, cached, optionally
parallel parameter studies:

* :class:`SweepSpec` — declares a grid over workloads, chips, batch
  sizes, pod sizes, policies and gating parameters.
* :class:`SweepRunner` / :func:`run_sweep` — executes the grid serially
  or on a process pool, with bit-identical results either way.
* :class:`SimulationCache` / :func:`simulate_cached` — content-addressed
  memoization of workload profiles, per-policy energy reports and
  finished sweep rows, with an optional on-disk JSON store.
* :class:`SweepResult` — a flat table with CSV/JSON export and
  filter/group-by/pivot helpers.
* :class:`ShardRunner` / :func:`merge_artifacts` — deterministic
  ``--shard I/N`` partitions of a grid written as self-describing,
  digest-checked artifacts that merge back byte-identical to the
  monolithic sweep (``repro merge-shards``).
* :class:`SharedCacheDir` — the cross-run shared cache directory
  (``--shared-cache``, ``repro cache gc``) that shards and re-runs
  reuse simulated profiles, reports and rows through.

See ``docs/experiments.md`` for a guide and the cache-invalidation rules.
"""

from repro.experiments.cache import (
    CacheGcReport,
    JsonFileStore,
    PackedRows,
    SharedCacheDir,
    SimulationCache,
    pack_rows,
    portable_profile,
    simulate_cached,
    simulate_cached_many,
    unpack_rows,
)
from repro.experiments.keys import (
    canonical,
    file_digest,
    point_key,
    profile_key,
    report_key,
    shard_key,
    stable_hash,
)
from repro.experiments.result import SweepResult
from repro.experiments.runner import (
    ROW_COLUMNS,
    SweepRunner,
    assemble_packed_rows,
    rows_from_result,
    run_point,
    run_points_packed,
    run_sweep,
)
from repro.experiments.sharding import (
    Shard,
    ShardArtifact,
    ShardError,
    ShardPlan,
    ShardRunner,
    load_manifest,
    merge_artifacts,
    merge_shard_paths,
    read_artifacts,
    spec_digest,
)
from repro.experiments.spec import DEFAULT_GATING_LABEL, SweepPoint, SweepSpec

__all__ = [
    "CacheGcReport",
    "DEFAULT_GATING_LABEL",
    "JsonFileStore",
    "PackedRows",
    "ROW_COLUMNS",
    "Shard",
    "ShardArtifact",
    "ShardError",
    "ShardPlan",
    "ShardRunner",
    "SharedCacheDir",
    "SimulationCache",
    "SweepPoint",
    "SweepResult",
    "SweepRunner",
    "SweepSpec",
    "assemble_packed_rows",
    "canonical",
    "file_digest",
    "load_manifest",
    "merge_artifacts",
    "merge_shard_paths",
    "pack_rows",
    "point_key",
    "portable_profile",
    "profile_key",
    "read_artifacts",
    "report_key",
    "rows_from_result",
    "run_point",
    "run_points_packed",
    "run_sweep",
    "shard_key",
    "simulate_cached",
    "simulate_cached_many",
    "spec_digest",
    "unpack_rows",
]
