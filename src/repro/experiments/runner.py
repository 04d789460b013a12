"""Executes a :class:`SweepSpec` in-process.

A sweep has one execution path: probe the row cache, then price every
miss in one :func:`run_points_packed` call, backed by the fused
:func:`~repro.experiments.cache.simulate_cached_cells` pass and the
grid-batched policy kernel.  Every row is a pure function of its
:class:`SweepPoint`, points are evaluated in deterministic grid order,
and floats are never re-derived from formatted strings, so a run's
table is bit-identical across runs, and a warm re-run from the row
cache is free of simulator calls.

Row assembly is **array-native**: :func:`assemble_packed_cells` builds
one column array per result column straight from the grid cells
(vectorizing the derived-cell arithmetic of :func:`rows_from_result`
operation-for-operation, so the cells are bit-identical doubles) and
hands the runner one block of ``ROW_COLUMNS``-ordered value tuples per
point — no ~40-key dict per row is ever built on the sweep path.
:func:`rows_from_result` remains the per-point object-path oracle the
equivalence tests compare against.
"""

from __future__ import annotations

from typing import Any

from repro.core.results import SimulationResult
from repro.gating.report import PolicyName
from repro.hardware.components import Component

from repro.experiments.cache import (
    SimulationCache,
    simulate_cached,
    simulate_cached_cells,
)
from repro.experiments.result import SweepResult, render_rows
from repro.experiments.schema import (
    ENERGY_COLUMNS,
    ROW_COLUMNS,
    ROW_KINDS,
    UTILIZATION_COLUMNS,
)
from repro.experiments.spec import SweepPoint, SweepSpec

#: One point's rows: a value tuple per policy, in ``ROW_COLUMNS`` order.
RowBlock = list[tuple[Any, ...]]


def rows_from_result(point: SweepPoint, result: SimulationResult) -> list[dict[str, Any]]:
    """Flatten one simulation into rows (one per evaluated policy).

    Derived cells replicate the :class:`EnergyReport` /
    :class:`SimulationResult` property chains with each report's energy
    totals computed once — same float operations, same results, without
    re-summing the per-component dicts for every derived column.

    This is the per-point oracle of the sweep path; the runner itself
    assembles the same cells column-wise (:func:`assemble_packed_cells`).
    """
    rows: list[dict[str, Any]] = []
    utilization = {
        column: result.temporal_utilization(component)
        for column, component in UTILIZATION_COLUMNS
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
        for component, energy_column, static_column in ENERGY_COLUMNS:
            static_c = static_energy.get(component, 0.0)
            row[energy_column] = static_c + dynamic_energy.get(component, 0.0)
            row[static_column] = static_c
        row.update(utilization)
        row["sa_spatial_util"] = sa_spatial
        rows.append(row)
    return rows


def assemble_packed_rows(
    points: list[SweepPoint], results: list[SimulationResult]
) -> list[RowBlock]:
    """:func:`assemble_packed_cells` over results with materialized reports.

    The object-API form of the sweep's row assembly: each result's
    ``reports`` dict supplies its cells.  The sweep itself assembles
    from the grid cells of the fused pass and does not call this.
    """
    cells = [list(result.reports.items()) for result in results]
    return assemble_packed_cells(points, results, cells)


def assemble_packed_cells(
    points: list[SweepPoint],
    results: list[SimulationResult],
    cells: list[list],
) -> list[RowBlock]:
    """Assemble result rows column-wise: one array per column, no dicts.

    Gathers the base report scalars of every (point, policy) row into
    ``float64`` column arrays, then computes every derived column with
    vectorized elementwise operations mirroring the scalar chains of
    :func:`rows_from_result` (same operations, same order — the cells
    are bit-identical doubles).  Returns one row block per point (the
    cache granularity): its rows' value tuples in ``ROW_COLUMNS`` order.

    ``cells[i]`` holds one ``(policy, cell)`` pair per row of point
    ``i``, where a cell is either a ``(grid, row, col)`` triple into a
    :class:`~repro.gating.policies.GridEnergyReports` (the fused pass)
    or a materialized :class:`~repro.gating.report.EnergyReport` (its
    scalars read per row; :func:`assemble_packed_rows`).  Triples are
    gathered per grid with one fancy-indexing read per base column —
    the same ``float64`` array elements :meth:`GridEnergyReports.report
    <repro.gating.policies.GridEnergyReports.report>` would have read
    one ``float()`` at a time, so the assembled cells are bit-identical
    while skipping the per-cell report materialization entirely.
    """
    import numpy as np

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
        column: [] for column, _ in UTILIZATION_COLUMNS
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
                    for _, component in UTILIZATION_COLUMNS
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
        for (column, _), value in zip(UTILIZATION_COLUMNS, utilization):
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
    # The static sum accumulates in the report producers' insertion
    # order (one definition, next to them) to stay bit-identical to the
    # scalar oracle.
    from repro.gating.policies import STATIC_ENERGY_ORDER

    static_j = static_c[STATIC_ENERGY_ORDER[0]]
    for component in STATIC_ENERGY_ORDER[1:]:
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
    for component, energy_column, static_column in ENERGY_COLUMNS:
        columns[energy_column] = static_c[component] + dynamic_c[component]
        columns[static_column] = static_c[component]
    for column, _ in UTILIZATION_COLUMNS:
        columns[column] = util_rows[column]
    columns["sa_spatial_util"] = spatial_rows
    assert tuple(columns) == ROW_COLUMNS

    series = [
        column.tolist() if isinstance(column, np.ndarray) else column
        for column in columns.values()
    ]
    all_values: list[tuple[Any, ...]] = list(zip(*series)) if n_rows else []
    blocks: list[RowBlock] = []
    offset = 0
    for row_cells in cells:
        end = offset + len(row_cells)
        blocks.append(all_values[offset:end])
        offset = end
    return blocks


def run_point(point: SweepPoint, cache: SimulationCache | None = None) -> list[dict[str, Any]]:
    """Evaluate one sweep point into its result rows."""
    result = simulate_cached(point.workload, point.config, cache)
    return rows_from_result(point, result)


def pack_rows(rows: list[dict[str, Any]]) -> RowBlock:
    """Row dicts of :func:`rows_from_result` as a row block."""
    return [tuple(row[column] for column in ROW_COLUMNS) for row in rows]


def run_points_packed(
    points: list[SweepPoint], cache: SimulationCache | None = None
) -> list[RowBlock]:
    """Evaluate many sweep points into row blocks, batching everything.

    On the columnar fast path the points are priced through the
    grid-batched policy kernel — one
    :meth:`~repro.gating.policies.PowerGatingPolicy.grid_evaluate` per
    policy over (chip-major packed profiles × gating-parameter points)
    via :func:`~repro.experiments.cache.simulate_cached_cells` — and the
    rows are assembled column-wise straight from the pricing cells,
    without ever materializing one report object per cell.  With
    ``REPRO_FAST_PATH=0`` the per-point loop runs instead: the
    object-path oracle, bit-identical to the fast route.  ``cache=None``
    uses a cache scoped to this call.
    """
    from repro.simulator import columnar

    if cache is None:
        cache = SimulationCache()
    if columnar.fast_path_enabled():
        results, cells = simulate_cached_cells(
            [(point.workload, point.config) for point in points], cache
        )
        return assemble_packed_cells(points, results, cells)
    return [pack_rows(run_point(point, cache)) for point in points]


def _as_lines(blocks: list[RowBlock]) -> list[list[str]]:
    """Each block of value rows as its CSV lines, rendered in one pass."""
    lines = render_rows([row for block in blocks for row in block])
    split: list[list[str]] = []
    offset = 0
    for block in blocks:
        split.append(lines[offset : offset + len(block)])
        offset += len(block)
    return split


class SweepRunner:
    """Runs every point of a :class:`SweepSpec` into a :class:`SweepResult`.

    Parameters
    ----------
    spec:
        The grid to execute.
    cache:
        Optional :class:`SimulationCache`.  Cached rows are returned
        without re-simulation; freshly computed rows are written back
        and flushed to the disk layer when present.
    """

    def __init__(self, spec: SweepSpec, cache: SimulationCache | None = None):
        self.spec = spec
        self.cache = cache

    # ------------------------------------------------------------------ #
    def run(self) -> SweepResult:
        """Execute the sweep and return the assembled table.

        Every block is in ``ROW_COLUMNS`` order: computed blocks are
        assembled in it, and :meth:`execute_points` takes a cached block
        only in that shape.  With a file-backed cache the blocks are CSV
        lines, and the table keeps them as its CSV text.
        """
        cache = self.resolve_cache()
        blocks = self.execute_points(self.spec.points(), cache)
        cache.flush()
        rows = [row for index in sorted(blocks) for row in blocks[index]]
        if cache.stores_text:
            return SweepResult.from_lines(ROW_COLUMNS, rows, ROW_KINDS)
        return SweepResult.from_packed(ROW_COLUMNS, rows)

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
    ) -> dict[int, list]:
        """Evaluate a point subset into ``{point.index: row block}``.

        The execution pipeline behind :meth:`run`: probe the row cache,
        price the misses in one :func:`run_points_packed` batch, write
        fresh rows back.  A cached block counts only when it holds one
        full ``ROW_COLUMNS`` row per policy of its point; any other
        block is a miss, recomputed and replaced.  A block is the rows'
        value tuples, or their CSV lines when the cache stores text
        (:attr:`SimulationCache.stores_text`): fresh rows are then
        rendered once, and the same lines go to the cache and to the
        caller.  The caller owns ``cache.flush()``.
        """
        cache = cache if cache is not None else self.resolve_cache()
        blocks: dict[int, list] = {}
        pending: list[SweepPoint] = []
        for point in points:
            cached = cache.get_rows(point.cache_key, len(point.config.policies))
            if cached is not None:
                blocks[point.index] = cached
            else:
                pending.append(point)

        if pending:
            fresh: list[list] = run_points_packed(pending, cache)
            if cache.stores_text:
                fresh = _as_lines(fresh)
            for point, block in zip(pending, fresh):
                blocks[point.index] = block
                cache.put_rows(point.cache_key, block)
        return blocks


def run_sweep(spec: SweepSpec, cache: SimulationCache | None = None) -> SweepResult:
    """Convenience wrapper: ``SweepRunner(spec, cache).run()``."""
    return SweepRunner(spec, cache=cache).run()


__all__ = [
    "ROW_COLUMNS",
    "SweepRunner",
    "assemble_packed_cells",
    "assemble_packed_rows",
    "pack_rows",
    "rows_from_result",
    "run_point",
    "run_points_packed",
    "run_sweep",
]
