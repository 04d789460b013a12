"""Content-addressed memoization for workload simulations.

Three artifact classes are cached, each under a stable key from
:mod:`repro.experiments.keys`:

* **Workload profiles** — the output of ``NPUSimulator.simulate``; the
  most expensive artifact.  Profiles hold live operator graphs, so they
  are memoized in memory only.
* **Energy reports** — one per (profile, policy, gating parameters);
  memory-only, and memoized only by the per-item
  :func:`simulate_cached`.  The batched pass behind sweeps and serving
  (:func:`simulate_cached_cells`) prices each missing grid once and
  never re-reads a cell, so it leaves this layer alone.  Every number
  a sweep persists from a report is already in its rows, and a report
  can only be re-priced from a profile, which a JSON cache file does
  not hold.
* **Sweep rows** — the flat tables produced by
  :class:`~repro.experiments.runner.SweepRunner`, one block per sweep
  point.  A memory-only cache keeps each block as value tuples; a cache
  backed by a JSON file keeps it as the rows' CSV lines, the text the
  sweep's CSV export writes, under one ``ROW_COLUMNS`` header per file.
  A warm row cache lets a repeated sweep complete without a single
  simulator call, and a warm file-backed one writes its CSV without
  formatting a float.  Rows are the only layer a JSON cache file
  persists, and a stored block is checked against the shape its reader
  expects before it counts as a hit.

The simulator, the policy kernels and the power model are imported only
on the paths that simulate or price, so a sweep whose every row is a
cache hit never loads them.

:func:`simulate_cached` is a drop-in replacement for
:func:`repro.core.regate.simulate_workload` that consults a
:class:`SimulationCache`, sharing profiles across policy/gating-parameter
variations (e.g. the sensitivity sweeps re-evaluate five leakage points
on a single simulated profile).  :func:`simulate_cached_cells` and
:func:`simulate_cached_many` are its batched form over registry
workloads: one grid-kernel call per policy prices every item.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import os
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.core.config import SimulationConfig, resolve_execution
from repro.core.results import SimulationResult
from repro.gating.bet import GatingParameters, parameters_token
from repro.gating.report import EnergyReport, PolicyName
from repro.workloads.registry import WorkloadSpec, get_workload

from repro.experiments.keys import profile_key, report_key
from repro.experiments.result import csv_width
from repro.experiments.schema import ROW_COLUMNS

if TYPE_CHECKING:
    from repro.simulator.engine import WorkloadProfile

_LOG = logging.getLogger(__name__)


# ---------------------------------------------------------------------- #
# Disk store
# ---------------------------------------------------------------------- #
class CacheFileError(ValueError):
    """A ``--cache`` file that is unreadable or not a JSON object."""


class JsonFileStore:
    """A ``{key: JSON value}`` mapping persisted to one JSON file.

    Writes are atomic (temp file + rename) so a crashed sweep never
    leaves a truncated cache behind.  A missing or blank file starts the
    store empty, and so does a damaged cache (text that opens with
    ``{`` but does not parse), with one warning naming the file.  Any
    other file that is not a JSON object
    (a CSV passed by mistake, a JSON list) raises :class:`CacheFileError`
    at load and again at flush, and is never overwritten.

    The file's entries are read only when its :data:`HEADER_KEY` holds
    ``header`` (any JSON value): a file written under another header, or
    under none (any older release), loads empty and is replaced at the
    next write, which stores the header next to the entries.
    """

    #: The key a file's ``header`` is stored under.
    HEADER_KEY = "header"

    def __init__(self, path: str | Path, header: Any):
        self.path = Path(path)
        self.header = header
        self._warned = False
        self._data: dict[str, Any] = self._read()
        self._dirty = False

    def _read(self) -> dict[str, Any]:
        """The entries on disk (``{}`` for a missing, blank or damaged file)."""
        try:
            text = self.path.read_text()
        except FileNotFoundError:
            return {}
        except (OSError, ValueError) as error:
            raise CacheFileError(
                f"cache file {self.path} is unreadable ({error})"
            ) from error
        try:
            loaded = json.loads(text)
        except ValueError:
            stripped = text.lstrip()
            if not stripped:
                return {}
            if stripped[0] == "{":
                if not self._warned:
                    self._warned = True
                    _LOG.warning(
                        "cache file %s does not parse; starting it empty "
                        "(it is rewritten at the next flush)",
                        self.path,
                    )
                return {}
            loaded = None
        if not isinstance(loaded, dict):
            raise CacheFileError(
                f"cache file {self.path} is not a JSON object; refusing to "
                "overwrite it"
            )
        if loaded.pop(self.HEADER_KEY, None) != self.header:
            return {}
        return loaded

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: str) -> bool:
        return key in self._data

    def get(self, key: str) -> Any:
        return self._data.get(key)

    def put(self, key: str, value: Any) -> None:
        self._data[key] = value
        self._dirty = True

    def flush(self) -> None:
        """Write the store back to disk if anything changed.

        The on-disk file is re-read and merged first (our entries win),
        so processes flushing to the same cache file one after another
        accumulate entries instead of last-writer-wins dropping them.
        The read-merge-replace is not locked: two *simultaneous* flushes
        can still lose one side's unique entries (a silent re-simulation
        later, never a wrong result — entries are content-addressed).
        """
        if not self._dirty:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._data = {**self._read(), **self._data}
        payload = {self.HEADER_KEY: self.header, **self._data}
        # Temp file + os.replace: a reader racing this write sees the
        # complete old file or the complete new one, and a crashed
        # writer leaves only a *.tmp ghost behind.
        fd, tmp = tempfile.mkstemp(
            dir=self.path.parent, prefix=self.path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(json.dumps(payload).encode("utf-8"))
            os.replace(tmp, self.path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        self._dirty = False


# ---------------------------------------------------------------------- #
# The cache
# ---------------------------------------------------------------------- #
class SimulationCache:
    """In-memory (and optionally on-disk) memoization of simulations.

    Profiles and energy reports are always memory-only; only sweep rows
    persist.

    Parameters
    ----------
    path:
        Optional JSON file backing the sweep-row layer.  Its row blocks
        are CSV lines under the header ``ROW_COLUMNS``.
    """

    def __init__(self, path: str | Path | None = None):
        self._profiles: dict[str, WorkloadProfile] = {}
        self._reports: dict[str, EnergyReport] = {}
        self._rows: dict[str, list] = {}
        self._store = (
            JsonFileStore(path, header=list(ROW_COLUMNS))
            if path is not None
            else None
        )
        self.hits = 0
        self.misses = 0
        # Row-layer counters kept separately: one sweep point is one row
        # lookup, so these (unlike the totals, which also count profile
        # and report probes) line up with a sweep's grid size.
        self.row_hits = 0
        self.row_misses = 0

    # -- profiles ------------------------------------------------------ #
    def get_profile(self, key: str) -> WorkloadProfile | None:
        profile = self._profiles.get(key)
        self._count(profile is not None)
        return profile

    def put_profile(self, key: str, profile: WorkloadProfile) -> None:
        self._profiles[key] = profile

    # -- energy reports ------------------------------------------------ #
    # Reports are copied on the way in and out, like rows: a caller
    # doing a what-if edit on a returned report's energy dicts must not
    # poison later cache hits.
    @staticmethod
    def _copy_report(report: EnergyReport) -> EnergyReport:
        return dataclasses.replace(
            report,
            static_energy_j=dict(report.static_energy_j),
            dynamic_energy_j=dict(report.dynamic_energy_j),
            gating_events=dict(report.gating_events),
        )

    def get_report(self, key: str) -> EnergyReport | None:
        report = self._reports.get(key)
        self._count(report is not None)
        if report is None:
            return None
        return self._copy_report(report)

    def put_report(self, key: str, report: EnergyReport) -> None:
        self._reports[key] = self._copy_report(report)

    # -- sweep rows ---------------------------------------------------- #
    # One block per sweep point, ``ROW_COLUMNS`` rows only.  A
    # memory-only cache holds each block as immutable value tuples; a
    # file-backed one holds it, in its store, as the rows' CSV lines
    # (unterminated strings), so a warm sweep writes its CSV from the
    # stored text.  Copying on the way out reduces to copying the outer
    # list, so a caller mutating a returned block cannot poison the
    # cache.
    @property
    def stores_text(self) -> bool:
        """Whether row blocks are CSV lines (the cache is file-backed)."""
        return self._store is not None

    def get_rows(self, key: str, count: int) -> list | None:
        """The block stored under ``key``, if it holds ``count`` full-width rows.

        A block is value tuples or, when :attr:`stores_text`, CSV lines.
        A stored block of any other shape — a row too many or too few, a
        line that is not a string or does not split into one cell per
        column — is a miss like a malformed entry: its point is computed
        again and the entry is replaced by :meth:`put_rows`.
        """
        if self._store is None:
            block = self._rows.get(key)
        else:
            block = self._store.get("rows:" + key)
        if block is not None and not self._fits(block, count):
            block = None
        self._count(block is not None)
        if block is None:
            self.row_misses += 1
            return None
        self.row_hits += 1
        return list(block)

    def put_rows(self, key: str, block: list) -> None:
        """Store one point's block (CSV lines when :attr:`stores_text`)."""
        if self._store is None:
            self._rows[key] = [tuple(row) for row in block]
        else:
            self._store.put("rows:" + key, list(block))

    def _fits(self, block: Any, count: int) -> bool:
        width = len(ROW_COLUMNS)
        if not isinstance(block, list) or len(block) != count:
            return False
        if self._store is None:
            return all(len(row) == width for row in block)
        return all(csv_width(line) == width for line in block)

    # ------------------------------------------------------------------ #
    def flush(self) -> None:
        """Persist the disk-backed layers (no-op for memory-only caches)."""
        if self._store is not None:
            self._store.flush()

    def stats(self) -> dict[str, int]:
        """Hit/miss counters and per-layer entry counts."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "row_hits": self.row_hits,
            "row_misses": self.row_misses,
            "profiles": len(self._profiles),
            "reports": len(self._reports),
            "rows": len(self._rows if self._store is None else self._store),
        }

    def _count(self, hit: bool) -> None:
        if hit:
            self.hits += 1
        else:
            self.misses += 1


# ---------------------------------------------------------------------- #
# Cached simulation entry point
# ---------------------------------------------------------------------- #
def _registry_spec(workload: str | WorkloadSpec) -> WorkloadSpec | None:
    """The registry-backed spec a workload memoizes under, or ``None``.

    Only *registry-backed* workloads are memoized: profile keys identify
    a workload by name, so a hand-built :class:`WorkloadSpec` (whose
    graph builder the name says nothing about) bypasses the cache rather
    than risk colliding with a registered workload's entries.
    """
    if isinstance(workload, WorkloadSpec):
        try:
            registered = get_workload(workload.name)
        except KeyError:
            return None
        return workload if registered is workload else None
    return get_workload(workload)


def _resolution_memo_key(spec: WorkloadSpec, config: SimulationConfig) -> tuple:
    """Identity key of one execution resolution within a single batch.

    Covers every config field :func:`resolve_execution` and
    :func:`~repro.experiments.keys.profile_key` read.  Identity-based
    entries (``id()``) are safe because the memo dict only lives for
    one batched call, while the specs and configs it keys live in the
    caller's item list.
    """
    return (
        id(spec),
        config.chip if isinstance(config.chip, str) else id(config.chip),
        config.num_chips,
        config.batch_size,
        id(config.parallelism),
        config.apply_fusion,
    )


def _resolve(
    spec: WorkloadSpec, config: SimulationConfig, resolutions: dict
) -> tuple:
    """One item's ``(chip, batch_size, parallelism, profile key)``.

    ``resolutions`` memoizes it per distinct (workload, chip, batch)
    combination, so a gating-parameter grid resolves each one once
    instead of once per grid point.
    """
    resolution_key = _resolution_memo_key(spec, config)
    resolved = resolutions.get(resolution_key)
    if resolved is None:
        chip, batch_size, parallelism = resolve_execution(spec, config)
        pkey = profile_key(
            spec.name, chip, batch_size, parallelism, config.apply_fusion
        )
        resolved = (chip, batch_size, parallelism, pkey)
        resolutions[resolution_key] = resolved
    return resolved


def _simulate_misses(
    items: list[tuple[WorkloadSpec, SimulationConfig]],
    cache: SimulationCache,
) -> tuple[list[tuple], dict[str, WorkloadProfile]]:
    """Resolve every item and simulate the batch's missing profiles.

    The single probe/simulate/put sequence, shared by the per-item and
    batched entry points so their cache keys (and therefore their
    results) can never diverge.  Returns, per item, its ``(chip,
    parallelism, profile key)``, and the batch's distinct profiles by
    key, in first-appearance order.  The first item of each key probes
    the cache; the misses (one per key) are grouped by chip and fusion
    flag and each group is simulated in one
    :meth:`~repro.simulator.engine.NPUSimulator.simulate_many` pass, and
    every profile is put in the cache.  A later item of a key then reads
    its profile from the cache, so the cache counts one miss per missing
    key and a hit for every other item, as if the items were simulated
    one by one.  Graphs are chip-independent: two missing profiles
    differing only in chip (same workload, batch and parallelism) share
    one built graph.
    """
    from repro.core.regate import build_workload_graph
    from repro.simulator.engine import NPUSimulator

    resolved: list[tuple] = []
    profiles: dict[str, WorkloadProfile | None] = {}
    repeats: list[str] = []
    # (chip identity, fusion flag) -> (simulator, missing keys, graphs)
    misses: dict[tuple, tuple] = {}
    built_graphs: dict[tuple, Any] = {}
    resolutions: dict[tuple, tuple] = {}
    for spec, config in items:
        chip, batch_size, parallelism, pkey = _resolve(spec, config, resolutions)
        resolved.append((chip, parallelism, pkey))
        if pkey in profiles:
            repeats.append(pkey)
            continue
        profiles[pkey] = cache.get_profile(pkey)
        if profiles[pkey] is not None:
            continue
        graph_key = (spec.name, batch_size, parallelism)
        graph = built_graphs.get(graph_key)
        if graph is None:
            graph = build_workload_graph(spec, batch_size, parallelism)
            built_graphs[graph_key] = graph
        group = (id(chip), config.apply_fusion)
        if group not in misses:
            simulator = NPUSimulator(chip, apply_fusion=config.apply_fusion)
            misses[group] = (simulator, [], [])
        _, pkeys, graphs = misses[group]
        pkeys.append(pkey)
        graphs.append(graph)
    for simulator, pkeys, graphs in misses.values():
        for pkey, profile in zip(pkeys, simulator.simulate_many(graphs)):
            cache.put_profile(pkey, profile)
            profiles[pkey] = profile
    for pkey in repeats:
        cache.get_profile(pkey)
    return resolved, profiles


def simulate_cached(
    workload: str | WorkloadSpec,
    config: SimulationConfig | None = None,
    cache: SimulationCache | None = None,
) -> SimulationResult:
    """Like :func:`simulate_workload`, but memoized through ``cache``.

    The workload profile is simulated at most once per (workload, chip,
    batch, parallelism, fusion) combination; each policy's energy report
    is evaluated at most once per (profile, policy, gating parameters).
    With ``cache=None`` this is exactly :func:`simulate_workload`.
    Non-registry workloads bypass the cache (see :func:`_registry_spec`).
    """
    from repro.core.regate import build_result, simulate_workload
    from repro.gating.policies import get_policy
    from repro.hardware.power import ChipPowerModel

    if cache is None:
        return simulate_workload(workload, config)
    spec = _registry_spec(workload)
    if spec is None:
        return simulate_workload(workload, config)
    config = config or SimulationConfig()
    [(chip, parallelism, pkey)], profiles = _simulate_misses([(spec, config)], cache)
    profile = profiles[pkey]

    # Fusion preserves all workload metadata, so the profile's graph
    # stands in for a freshly built one.
    result = build_result(spec.name, profile, parallelism, profile.graph, config)
    power_model = ChipPowerModel.for_chip(chip)
    for policy_name in config.policies:
        rkey = report_key(pkey, policy_name.value, config.gating_parameters)
        report = cache.get_report(rkey)
        if report is None:
            policy = get_policy(policy_name, config.gating_parameters)
            report = policy.evaluate(profile, power_model)
            cache.put_report(rkey, report)
        result.reports[policy_name] = report
    return result


def _price_prepared(
    items: list[tuple[WorkloadSpec, SimulationConfig]],
    cache: SimulationCache,
) -> tuple[list[SimulationResult], list[list]]:
    """Fused simulate→price core over registry-backed (spec, config) items.

    One pass: every item is resolved, and the batch's missing profiles
    are simulated in one columnar pass per chip
    (:func:`_simulate_misses`).  The batch's distinct profiles (by profile key, in
    first-appearance order) are packed once, chip-major, into one
    :class:`~repro.gating.policies.ChipMajorPacks`, and its distinct
    gating-parameter points (by token) form one
    :class:`~repro.gating.bet.ParameterTable`; each policy then prices
    the whole profiles × points grid with one
    :meth:`~repro.gating.policies.PowerGatingPolicy.grid_evaluate` call
    on that shared pack and table, so the policies share every memoized
    array (ReGate-Base/HW/Full gate the HBM and ICI controllers alike,
    and compute those idle grids once).  With one parameter point it is
    an N×1 grid.  A sweep grid is a full cartesian product by
    construction, so the grid holds exactly the cells its items
    address.  Cells are bit-identical to the per-item
    :func:`simulate_cached`, so a sweep's rows (and CSV bytes) do not
    depend on the route.  The report layer is neither probed nor
    filled: nothing re-reads a batch's cells.

    Returns ``(results, cells)``: per item, a metadata
    :class:`SimulationResult` shell (its ``reports`` dict left empty)
    and one ``(policy_name, (grid, point_row, profile_col))`` pair per
    ``config.policies`` entry.  Each triple indexes into that policy's
    :class:`~repro.gating.policies.GridEnergyReports`, so the sweep
    assembles its result columns straight from the grid arrays without
    ever turning the triple into a report object.
    """
    from repro.core.regate import build_result
    from repro.gating.bet import ParameterTable
    from repro.gating.policies import ChipMajorPacks, get_policy

    resolved, profiles = _simulate_misses(items, cache)
    parameters: dict[int, GatingParameters] = {}
    policies: dict[PolicyName, None] = {}
    prepared: list[tuple] = []
    for (spec, config), (_, parallelism, pkey) in zip(items, resolved):
        token = parameters_token(config.gating_parameters)
        parameters.setdefault(token, config.gating_parameters)
        policies.update(dict.fromkeys(config.policies))
        prepared.append((spec, config, parallelism, profiles[pkey], pkey, token))

    grids = {}
    if policies:
        packs = ChipMajorPacks.pack(list(profiles.values()))
        ptable = ParameterTable(tuple(parameters.values()))
        grids = {
            policy_name: get_policy(policy_name).grid_evaluate(packs, ptable)
            for policy_name in policies
        }
    columns = {pkey: col for col, pkey in enumerate(profiles)}
    rows = {token: row for row, token in enumerate(parameters)}

    results: list[SimulationResult] = []
    cells: list[list] = []
    for spec, config, parallelism, profile, pkey, token in prepared:
        results.append(
            build_result(spec.name, profile, parallelism, profile.graph, config)
        )
        row, col = rows[token], columns[pkey]
        cells.append(
            [
                (policy_name, (grids[policy_name], row, col))
                for policy_name in config.policies
            ]
        )
    return results, cells


def _registry_items(
    items: list[tuple[str | WorkloadSpec, SimulationConfig | None]],
) -> list[tuple[WorkloadSpec, SimulationConfig]]:
    """Resolve batched items to registry specs and concrete configs.

    Raises :class:`ValueError` for a hand-built :class:`WorkloadSpec`
    (see :func:`_registry_spec`): the batched entry points take
    registry workloads only, on either path.
    """
    resolved: list[tuple[WorkloadSpec, SimulationConfig]] = []
    for workload, config in items:
        spec = _registry_spec(workload)
        if spec is None:
            raise ValueError(
                f"workload {workload.name!r} is a hand-built WorkloadSpec; the "
                "batched pass takes registry workloads only (price it with "
                "simulate_cached or simulate_workload)"
            )
        resolved.append((spec, config or SimulationConfig()))
    return resolved


def simulate_cached_cells(
    items: list[tuple[str | WorkloadSpec, SimulationConfig | None]],
    cache: SimulationCache,
) -> tuple[list[SimulationResult], list[list]]:
    """Fused batched pricing for the sweep fast path.

    Like :func:`simulate_cached_many`, but returns the raw pricing
    cells (see :func:`_price_prepared`) instead of attaching
    materialized reports — the runner assembles its result columns
    straight from the grid arrays.  Raises :class:`ValueError` for a
    hand-built :class:`WorkloadSpec` (see :func:`_registry_spec`).
    """
    return _price_prepared(_registry_items(items), cache)


def simulate_cached_many(
    items: list[tuple[str | WorkloadSpec, SimulationConfig | None]],
    cache: SimulationCache | None = None,
) -> list[SimulationResult]:
    """Batched :func:`simulate_cached` over many (workload, config) pairs.

    On the fast path, the :func:`simulate_cached_cells` pass with every
    cell materialized onto its item's result.  With ``REPRO_FAST_PATH=0``
    each item goes through :func:`simulate_cached` instead — the
    object-path oracle, as in
    :func:`~repro.experiments.runner.run_points_packed`.  Reports are
    bit-identical either way; ``cache=None`` uses a fresh cache for this
    call.  Raises :class:`ValueError` for a hand-built
    :class:`WorkloadSpec` on both paths.
    """
    from repro.simulator import columnar

    if cache is None:
        cache = SimulationCache()
    resolved = _registry_items(items)
    if not columnar.fast_path_enabled():
        return [simulate_cached(spec, config, cache) for spec, config in resolved]
    results, cells = _price_prepared(resolved, cache)
    for result, row_cells in zip(results, cells):
        for policy_name, (grid, row, col) in row_cells:
            result.reports[policy_name] = grid.report(row, col)
    return results


__all__ = [
    "CacheFileError",
    "JsonFileStore",
    "SimulationCache",
    "simulate_cached",
    "simulate_cached_cells",
    "simulate_cached_many",
]
