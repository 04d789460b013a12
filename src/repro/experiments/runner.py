"""Executes a :class:`SweepSpec`, serially or across worker processes.

The runner guarantees **bit-identical results in either mode**: every
row is a pure function of its :class:`SweepPoint`, points are evaluated
in deterministic grid order (``ProcessPoolExecutor.map`` preserves input
order), and floats are never re-derived from formatted strings.  Worker
processes receive chunk-sized *lists* of points so the packed
grid evaluation path (:func:`run_points_packed`, backed by the fused
:func:`~repro.experiments.cache.simulate_cached_cells` pass and the
grid-batched policy kernel) runs inside the pool too, with a
per-process :class:`SimulationCache` sharing the expensive workload
profiles between a worker's points; in serial mode the runner's own
cache plays that role and additionally memoizes finished rows, making a
warm re-run free of simulator calls.

Row assembly is **array-native**: :func:`assemble_packed_rows` builds
one column array per result column (vectorizing the derived-cell
arithmetic of :func:`rows_from_result` operation-for-operation, so the
cells are bit-identical doubles) and hands the runner packed
``(columns, value-tuples)`` rows — no ~40-key dict per row is ever
built on the sweep path.  :func:`rows_from_result` remains the
per-point object-path oracle the equivalence tests compare against.
"""

from __future__ import annotations

import logging
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any

import numpy as np

from repro.core.results import SimulationResult
from repro.gating.policies import STATIC_ENERGY_ORDER
from repro.gating.report import PolicyName
from repro.hardware.components import Component
from repro.simulator import columnar

from repro.experiments.cache import (
    PackedRows,
    SimulationCache,
    pack_rows,
    simulate_cached,
    simulate_cached_cells,
    simulate_cached_many,
    unpack_rows,
)
from repro.experiments.result import SweepResult
from repro.experiments.spec import SweepPoint, SweepSpec

_LOG = logging.getLogger(__name__)

#: Temporal-utilization columns and the component each one reads.
_UTILIZATION_COLUMNS = (
    ("sa_temporal_util", Component.SA),
    ("vu_temporal_util", Component.VU),
    ("hbm_temporal_util", Component.HBM),
    ("ici_temporal_util", Component.ICI),
)

#: Per-component energy column names, built once (not per row).
_ENERGY_COLUMNS = tuple(
    (component, f"energy_{component.value}_j", f"static_{component.value}_j")
    for component in Component.all()
)

#: Per-report static-energy insertion order, imported from the single
#: definition next to the report producers: the vectorized
#: ``sum(values())`` replications below must accumulate in exactly this
#: order to stay bit-identical to the scalar oracle.
_STATIC_SUM_ORDER = STATIC_ENERGY_ORDER

#: The full result-row schema, in column order.
ROW_COLUMNS: tuple[str, ...] = (
    (
        "workload",
        "chip",
        "num_chips",
        "batch_size",
        "parallelism",
        "gating_label",
        "policy",
        "time_s",
        "overhead_time_s",
        "total_energy_j",
        "static_energy_j",
        "dynamic_energy_j",
        "static_fraction",
        "average_power_w",
        "peak_power_w",
        "savings_vs_nopg",
        "overhead_vs_nopg",
        "pod_energy_j",
        "energy_per_work_j",
        "work_per_iteration",
        "iteration_unit",
    )
    + tuple(
        name
        for _, energy_column, static_column in _ENERGY_COLUMNS
        for name in (energy_column, static_column)
    )
    + tuple(column for column, _ in _UTILIZATION_COLUMNS)
    + ("sa_spatial_util",)
)


def rows_from_result(point: SweepPoint, result: SimulationResult) -> list[dict[str, Any]]:
    """Flatten one simulation into rows (one per evaluated policy).

    Derived cells replicate the :class:`EnergyReport` /
    :class:`SimulationResult` property chains with each report's energy
    totals computed once — same float operations, same results, without
    re-summing the per-component dicts for every derived column.

    This is the per-point oracle of the sweep path; the runner itself
    assembles the same cells column-wise (:func:`assemble_packed_rows`).
    """
    rows: list[dict[str, Any]] = []
    utilization = {
        column: result.temporal_utilization(component)
        for column, component in _UTILIZATION_COLUMNS
    }
    sa_spatial = result.sa_spatial_utilization()
    nopg = result.report(PolicyName.NOPG)
    nopg_total_j = sum(nopg.static_energy_j.values()) + sum(
        nopg.dynamic_energy_j.values()
    )
    nopg_time_s = nopg.baseline_time_s + nopg.overhead_time_s
    for policy, report in result.reports.items():
        static_j = sum(report.static_energy_j.values())
        dynamic_j = sum(report.dynamic_energy_j.values())
        total_j = static_j + dynamic_j
        time_s = report.baseline_time_s + report.overhead_time_s
        pod_energy_j = total_j * result.num_chips
        row: dict[str, Any] = {
            "workload": result.workload,
            "chip": result.chip.name,
            "num_chips": result.num_chips,
            "batch_size": result.batch_size,
            "parallelism": result.parallelism.describe(),
            "gating_label": point.gating_label,
            "policy": policy.value,
            "time_s": time_s,
            "overhead_time_s": report.overhead_time_s,
            "total_energy_j": total_j,
            "static_energy_j": static_j,
            "dynamic_energy_j": dynamic_j,
            "static_fraction": 0.0 if total_j <= 0 else static_j / total_j,
            "average_power_w": 0.0 if time_s <= 0 else total_j / time_s,
            "peak_power_w": report.peak_power_w,
            "savings_vs_nopg": (
                0.0 if nopg_total_j <= 0 else 1.0 - total_j / nopg_total_j
            ),
            "overhead_vs_nopg": (
                0.0 if nopg_time_s <= 0 else time_s / nopg_time_s - 1.0
            ),
            "pod_energy_j": pod_energy_j,
            "energy_per_work_j": pod_energy_j / result.work_per_iteration,
            "work_per_iteration": result.work_per_iteration,
            "iteration_unit": result.iteration_unit,
        }
        static_energy = report.static_energy_j
        dynamic_energy = report.dynamic_energy_j
        for component, energy_column, static_column in _ENERGY_COLUMNS:
            static_c = static_energy.get(component, 0.0)
            row[energy_column] = static_c + dynamic_energy.get(component, 0.0)
            row[static_column] = static_c
        row.update(utilization)
        row["sa_spatial_util"] = sa_spatial
        rows.append(row)
    return rows


def assemble_packed_rows(
    points: list[SweepPoint], results: list[SimulationResult]
) -> list[PackedRows]:
    """Assemble result rows column-wise: one array per column, no dicts.

    Gathers the base report scalars of every (point, policy) row into
    ``float64`` column arrays, then computes every derived column with
    vectorized elementwise operations mirroring the scalar chains of
    :func:`rows_from_result` (same operations, same order — the cells
    are bit-identical doubles).  Returns one packed row block per point
    (the cache granularity); the per-component accumulations follow the
    reports' dict insertion order, which every report producer in the
    tree shares.
    """
    cells = [list(result.reports.items()) for result in results]
    return assemble_packed_cells(points, results, cells)


def assemble_packed_cells(
    points: list[SweepPoint],
    results: list[SimulationResult],
    cells: list[list],
) -> list[PackedRows]:
    """Column-wise row assembly straight from pricing cells.

    The fused simulate→price back end of :func:`assemble_packed_rows`:
    ``cells[i]`` holds one ``(policy, cell)`` pair per row of point
    ``i``, where a cell is either a materialized
    :class:`~repro.gating.report.EnergyReport` (its scalars read
    per-row, exactly like before) or a ``(grid, row, col)`` triple into
    a :class:`~repro.gating.policies.GridEnergyReports`.  Triples are
    gathered per grid with one fancy-indexing read per base column —
    the same ``float64`` array elements :meth:`GridEnergyReports.report
    <repro.gating.policies.GridEnergyReports.report>` would have read
    one ``float()`` at a time, so the assembled cells are bit-identical
    while skipping the per-cell report materialization entirely.
    """
    n_rows = sum(len(row_cells) for row_cells in cells)
    baseline = np.empty(n_rows)
    overhead = np.empty(n_rows)
    peak = np.empty(n_rows)
    num_chips_f = np.empty(n_rows)
    work = np.empty(n_rows)
    static_c = {component: np.empty(n_rows) for component in Component.all()}
    dynamic_c = {component: np.empty(n_rows) for component in Component.all()}
    nopg_row = np.empty(n_rows, dtype=np.intp)

    workload_rows: list[str] = []
    chip_rows: list[str] = []
    num_chips_rows: list[int] = []
    batch_rows: list[int] = []
    parallelism_rows: list[str] = []
    label_rows: list[str] = []
    policy_rows: list[str] = []
    unit_rows: list[str] = []
    util_rows: dict[str, list[float]] = {
        column: [] for column, _ in _UTILIZATION_COLUMNS
    }
    spatial_rows: list[float] = []

    # Rows backed by one grid are gathered together after the scan:
    # id(grid) -> [grid, destination rows, grid rows, grid cols].
    grid_gather: dict[int, list] = {}
    # Utilizations are profile-level; points sharing one cached profile
    # (e.g. a gating-parameter grid) compute them once.
    util_memo: dict[int, tuple[list[float], float]] = {}

    index = 0
    for point, result, row_cells in zip(points, results, cells):
        start = index
        n_policies = len(row_cells)
        profile_id = id(result.profile)
        utils = util_memo.get(profile_id)
        if utils is None:
            utils = (
                [
                    result.temporal_utilization(component)
                    for _, component in _UTILIZATION_COLUMNS
                ],
                result.sa_spatial_utilization(),
            )
            util_memo[profile_id] = utils
        utilization, sa_spatial = utils
        chip_name = result.chip.name
        parallelism = result.parallelism.describe()
        nopg_index: int | None = None
        for policy, cell in row_cells:
            if policy is PolicyName.NOPG:
                nopg_index = index
            if isinstance(cell, tuple):
                grid, grid_row, grid_col = cell
                bucket = grid_gather.setdefault(id(grid), [grid, [], [], []])
                bucket[1].append(index)
                bucket[2].append(grid_row)
                bucket[3].append(grid_col)
            else:
                baseline[index] = cell.baseline_time_s
                overhead[index] = cell.overhead_time_s
                peak[index] = cell.peak_power_w
                static_energy = cell.static_energy_j
                dynamic_energy = cell.dynamic_energy_j
                for component in Component.all():
                    static_c[component][index] = static_energy.get(component, 0.0)
                    dynamic_c[component][index] = dynamic_energy.get(
                        component, 0.0
                    )
            policy_rows.append(policy.value)
            index += 1
        if nopg_index is None:
            # Same failure mode as the oracle's result.report(NOPG).
            raise KeyError(
                f"policy {PolicyName.NOPG} was not evaluated for {result.workload}"
            )
        nopg_row[start:index] = nopg_index
        num_chips_f[start:index] = result.num_chips
        work[start:index] = result.work_per_iteration
        workload_rows.extend([result.workload] * n_policies)
        chip_rows.extend([chip_name] * n_policies)
        num_chips_rows.extend([result.num_chips] * n_policies)
        batch_rows.extend([result.batch_size] * n_policies)
        parallelism_rows.extend([parallelism] * n_policies)
        label_rows.extend([point.gating_label] * n_policies)
        unit_rows.extend([result.iteration_unit] * n_policies)
        for (column, _), value in zip(_UTILIZATION_COLUMNS, utilization):
            util_rows[column].extend([value] * n_policies)
        spatial_rows.extend([sa_spatial] * n_policies)

    # Scatter the grid-backed cells: one fancy-indexed gather per base
    # column per grid reads the identical float64 elements report()
    # would have pulled out one at a time.
    for grid, rows, grid_rows, grid_cols in grid_gather.values():
        rows_i = np.asarray(rows, dtype=np.intp)
        grows = np.asarray(grid_rows, dtype=np.intp)
        gcols = np.asarray(grid_cols, dtype=np.intp)
        baseline[rows_i] = grid.baseline_time_s[grows, gcols]
        overhead[rows_i] = grid.overhead_time_s[grows, gcols]
        peak[rows_i] = grid.peak_power_w[grows, gcols]
        for component in Component.all():
            static_c[component][rows_i] = grid.static_energy_j[component][
                grows, gcols
            ]
            dynamic_c[component][rows_i] = grid.dynamic_energy_j[component][
                grows, gcols
            ]

    # Derived columns: the scalar chains of rows_from_result, vectorized.
    static_j = static_c[_STATIC_SUM_ORDER[0]]
    for component in _STATIC_SUM_ORDER[1:]:
        static_j = static_j + static_c[component]
    dynamic_j = dynamic_c[Component.all()[0]]
    for component in Component.all()[1:]:
        dynamic_j = dynamic_j + dynamic_c[component]
    total_j = static_j + dynamic_j
    time_s = baseline + overhead
    pod_j = total_j * num_chips_f
    energy_per_work = pod_j / work
    static_fraction = np.where(
        total_j <= 0.0, 0.0, static_j / np.where(total_j > 0.0, total_j, 1.0)
    )
    average_power = np.where(
        time_s <= 0.0, 0.0, total_j / np.where(time_s > 0.0, time_s, 1.0)
    )
    nopg_total = total_j[nopg_row]
    nopg_time = time_s[nopg_row]
    savings = np.where(
        nopg_total <= 0.0,
        0.0,
        1.0 - total_j / np.where(nopg_total > 0.0, nopg_total, 1.0),
    )
    overhead_vs = np.where(
        nopg_time <= 0.0,
        0.0,
        time_s / np.where(nopg_time > 0.0, nopg_time, 1.0) - 1.0,
    )

    columns: dict[str, Any] = {
        "workload": workload_rows,
        "chip": chip_rows,
        "num_chips": num_chips_rows,
        "batch_size": batch_rows,
        "parallelism": parallelism_rows,
        "gating_label": label_rows,
        "policy": policy_rows,
        "time_s": time_s,
        "overhead_time_s": overhead,
        "total_energy_j": total_j,
        "static_energy_j": static_j,
        "dynamic_energy_j": dynamic_j,
        "static_fraction": static_fraction,
        "average_power_w": average_power,
        "peak_power_w": peak,
        "savings_vs_nopg": savings,
        "overhead_vs_nopg": overhead_vs,
        "pod_energy_j": pod_j,
        "energy_per_work_j": energy_per_work,
        "work_per_iteration": work,
        "iteration_unit": unit_rows,
    }
    for component, energy_column, static_column in _ENERGY_COLUMNS:
        columns[energy_column] = static_c[component] + dynamic_c[component]
        columns[static_column] = static_c[component]
    for column, _ in _UTILIZATION_COLUMNS:
        columns[column] = util_rows[column]
    columns["sa_spatial_util"] = spatial_rows
    assert tuple(columns) == ROW_COLUMNS

    series = [
        column.tolist() if isinstance(column, np.ndarray) else column
        for column in columns.values()
    ]
    all_values: list[tuple[Any, ...]] = list(zip(*series)) if n_rows else []
    packed: list[PackedRows] = []
    offset = 0
    for row_cells in cells:
        end = offset + len(row_cells)
        packed.append((ROW_COLUMNS, all_values[offset:end]))
        offset = end
    return packed


def run_point(point: SweepPoint, cache: SimulationCache | None = None) -> list[dict[str, Any]]:
    """Evaluate one sweep point into its result rows."""
    result = simulate_cached(point.workload, point.config, cache)
    return rows_from_result(point, result)


def run_points_packed(
    points: list[SweepPoint], cache: SimulationCache | None = None
) -> list[PackedRows]:
    """Evaluate many sweep points into packed rows, batching everything.

    On the columnar fast path the grid's missing energy reports are
    evaluated through the grid-batched policy kernel — one
    :meth:`~repro.gating.policies.PowerGatingPolicy.grid_evaluate` per
    policy over (chip-major packed profiles × gating-parameter points)
    via :func:`~repro.experiments.cache.simulate_cached_cells` — and the
    rows are assembled column-wise straight from the pricing cells,
    without ever materializing one report object per cell.  Batches
    containing non-registry workloads fall back to
    :func:`~repro.experiments.cache.simulate_cached_many`.  Both routes
    are bit-identical to the per-point loop that remains the
    object-path oracle.
    """
    if cache is not None and columnar.fast_path_enabled():
        items = [(point.workload, point.config) for point in points]
        fused = simulate_cached_cells(items, cache)
        if fused is not None:
            results, cells = fused
            return assemble_packed_cells(points, results, cells)
        results = simulate_cached_many(items, cache)
        return assemble_packed_rows(points, results)
    return [pack_rows(run_point(point, cache)) for point in points]


def run_points(
    points: list[SweepPoint], cache: SimulationCache | None = None
) -> list[list[dict[str, Any]]]:
    """Evaluate many sweep points into row dicts (compatibility view)."""
    return [unpack_rows(packed) for packed in run_points_packed(points, cache)]


# Per-worker-process cache: shares workload profiles between the points a
# worker handles without any cross-process communication.
_WORKER_CACHE: SimulationCache | None = None


def _run_points_in_worker(points: list[SweepPoint]) -> list[PackedRows]:
    """Worker entry point: one chunk-sized point list per task.

    Dispatching *lists* keeps the packed batch/grid evaluation path hot
    inside the pool: each worker prices its whole chunk through
    :func:`run_points_packed` and its process-local cache instead of
    re-entering the per-point path once per grid point.
    """
    global _WORKER_CACHE
    if _WORKER_CACHE is None:
        _WORKER_CACHE = SimulationCache()
    return run_points_packed(points, _WORKER_CACHE)


class SweepRunner:
    """Runs every point of a :class:`SweepSpec` into a :class:`SweepResult`.

    Parameters
    ----------
    spec:
        The grid to execute.
    cache:
        Optional :class:`SimulationCache`.  Cached rows are returned
        without re-simulation (in serial *and* parallel mode: the row
        lookup happens before work is dispatched); freshly computed rows
        are written back and flushed to the disk layer when present.
    max_workers:
        ``None``, ``0`` or ``1`` run serially; ``>= 2`` dispatches the
        uncached points to a :class:`ProcessPoolExecutor`.  If the pool
        cannot be created or fails (sandboxed environments, pickling
        restrictions), the runner logs a warning and falls back to the
        serial path, which produces identical rows.
    """

    def __init__(
        self,
        spec: SweepSpec,
        cache: SimulationCache | None = None,
        max_workers: int | None = None,
    ):
        self.spec = spec
        self.cache = cache
        self.max_workers = max_workers

    # ------------------------------------------------------------------ #
    def run(self) -> SweepResult:
        """Execute the sweep and return the assembled table."""
        cache = self.resolve_cache()
        packed_by_index = self.execute_points(self.spec.points(), cache)
        cache.flush()
        return _combine_packed(
            [packed_by_index[index] for index in sorted(packed_by_index)]
        )

    def resolve_cache(self) -> SimulationCache:
        """The caller-supplied cache, or a run-scoped one.

        With no caller-supplied cache, a run-scoped one still shares
        workload profiles across grid points (e.g. gating-parameter
        sweeps re-evaluate a single simulated profile); it just isn't
        retained between runs.
        """
        return self.cache if self.cache is not None else SimulationCache()

    def execute_points(
        self, points: list[SweepPoint], cache: SimulationCache | None = None
    ) -> dict[int, PackedRows]:
        """Evaluate a point subset into ``{point.index: packed rows}``.

        The single execution pipeline behind :meth:`run` and the shard
        runner (:class:`~repro.experiments.sharding.ShardRunner`, which
        feeds it one shard's points): probe the row cache, batch the
        misses through the packed serial or pool path, write fresh rows
        back.  The caller owns ``cache.flush()``.
        """
        cache = cache if cache is not None else self.resolve_cache()
        packed_by_index: dict[int, PackedRows] = {}
        pending: list[SweepPoint] = []
        for point in points:
            cached = cache.get_rows_packed(point.cache_key)
            if cached is not None:
                packed_by_index[point.index] = cached
            else:
                pending.append(point)

        if pending:
            if self.max_workers is not None and self.max_workers >= 2:
                computed = self._run_parallel(pending, cache)
            else:
                computed = run_points_packed(pending, cache)
            for point, packed in zip(pending, computed):
                packed_by_index[point.index] = packed
                cache.put_rows_packed(point.cache_key, packed)
        return packed_by_index

    # ------------------------------------------------------------------ #
    def _run_parallel(
        self, pending: list[SweepPoint], cache: SimulationCache
    ) -> list[PackedRows]:
        # Only pool-infrastructure failures fall back to the serial path;
        # a point-level error (e.g. an unknown workload) propagates as-is
        # rather than re-simulating the whole grid to rediscover it.
        def _fallback(error: BaseException) -> list[PackedRows]:
            _LOG.warning(
                "parallel sweep execution failed (%s: %s); falling back to serial",
                type(error).__name__,
                error,
            )
            return run_points_packed(pending, cache)

        # Points arrive in grid order with gating parameters innermost, so
        # variants sharing one workload profile are consecutive; dispatching
        # one chunk-sized point *list* per worker keeps them together and
        # runs the packed batch/grid path inside the pool — the same
        # batching the serial path gets for free.
        chunksize = max(1, -(-len(pending) // self.max_workers))
        chunks = [
            pending[offset : offset + chunksize]
            for offset in range(0, len(pending), chunksize)
        ]
        try:
            executor = ProcessPoolExecutor(max_workers=self.max_workers)
        except OSError as error:  # pool creation only: sandboxes, no sem support
            return _fallback(error)
        try:
            with executor:
                computed: list[PackedRows] = []
                for chunk in executor.map(_run_points_in_worker, chunks):
                    computed.extend(chunk)
                return computed
        except (BrokenProcessPool, pickle.PicklingError) as error:
            # executor.map re-raises worker exceptions with their original
            # type, so a point-level error (even an OSError from a builder)
            # propagates as-is instead of triggering a serial re-run.
            return _fallback(error)


def _combine_packed(blocks: list[PackedRows]) -> SweepResult:
    """Concatenate per-point packed rows into one columnar result."""
    columns: tuple[str, ...] | None = None
    for block_columns, values in blocks:
        if values:
            columns = tuple(block_columns)
            break
    if columns is None:
        return SweepResult.from_rows([])
    if any(tuple(c) != columns for c, values in blocks if values):
        # Heterogeneous schemas (e.g. rows cached by a different code
        # path) — fall back to dict assembly, never mis-zip cells.
        rows = [row for block in blocks for row in unpack_rows(block)]
        return SweepResult.from_rows(rows)
    all_values = [row for _, values in blocks for row in values]
    return SweepResult.from_packed(columns, all_values)


def run_sweep(
    spec: SweepSpec,
    cache: SimulationCache | None = None,
    max_workers: int | None = None,
) -> SweepResult:
    """Convenience wrapper: ``SweepRunner(spec, cache, max_workers).run()``."""
    return SweepRunner(spec, cache=cache, max_workers=max_workers).run()


__all__ = [
    "ROW_COLUMNS",
    "SweepRunner",
    "assemble_packed_cells",
    "assemble_packed_rows",
    "pack_rows",
    "rows_from_result",
    "run_point",
    "run_points",
    "run_points_packed",
    "run_sweep",
    "unpack_rows",
]
