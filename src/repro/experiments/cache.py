"""Content-addressed memoization for workload simulations.

Three artifact classes are cached, each under a stable key from
:mod:`repro.experiments.keys`:

* **Workload profiles** — the output of ``NPUSimulator.simulate``; the
  most expensive artifact.  Profiles hold live operator graphs, so they
  are memoized in memory — and, when a :class:`SharedCacheDir` is
  attached, additionally pickled (in portable form) to a one-file-per-
  entry store on a shared filesystem so concurrent shard runs reuse
  each other's simulate misses.
* **Energy reports** — one per (profile, policy, gating parameters);
  JSON-serializable, kept in memory and optionally on disk.
* **Sweep rows** — the flat tables produced by
  :class:`~repro.experiments.runner.SweepRunner`; JSON-serializable,
  kept in memory and optionally on disk in *packed* form (one shared
  column tuple plus one value tuple per row — see :data:`PackedRows`).
  A warm row cache lets a repeated sweep complete without a single
  simulator call.  Legacy dict-list disk entries are still readable.

:func:`simulate_cached` is a drop-in replacement for
:func:`repro.core.regate.simulate_workload` that consults a
:class:`SimulationCache`, sharing profiles across policy/gating-parameter
variations (e.g. the sensitivity sweeps re-evaluate five leakage points
on a single simulated profile).
"""

from __future__ import annotations

import dataclasses
import functools
import json
import logging
import os
import pickle
import tempfile
import time
from pathlib import Path
from typing import Any, Callable

from repro.core.config import SimulationConfig
from repro.core.regate import (
    build_result,
    build_workload_graph,
    resolve_execution,
    simulate_workload,
)
from repro.core.results import SimulationResult
from repro.gating.bet import GatingParameters, parameters_token
from repro.gating.policies import get_policy
from repro.gating.report import EnergyReport, PolicyName
from repro.hardware.components import Component
from repro.hardware.power import ChipPowerModel
from repro.simulator.engine import NPUSimulator, WorkloadProfile
from repro.workloads.registry import WorkloadSpec, get_workload

from repro.experiments.keys import profile_key, report_key

_LOG = logging.getLogger(__name__)


# ---------------------------------------------------------------------- #
# Packed sweep rows
# ---------------------------------------------------------------------- #
#: Compact row format shared by the cache, the runner and the process
#: pool: one column tuple plus one value tuple per row, instead of
#: repeating every column name in every row dict (~40 string keys per
#: row otherwise).
PackedRows = tuple[tuple[str, ...], list[tuple[Any, ...]]]


def pack_rows(rows: list[dict[str, Any]]) -> PackedRows:
    """Pack row dicts into (columns, value-tuples)."""
    if not rows:
        return ((), [])
    columns = tuple(rows[0])
    return columns, [tuple(row[column] for column in columns) for row in rows]


def unpack_rows(packed: PackedRows) -> list[dict[str, Any]]:
    """Inverse of :func:`pack_rows`."""
    columns, values = packed
    return [dict(zip(columns, row)) for row in values]


# ---------------------------------------------------------------------- #
# Energy-report (de)serialization
# ---------------------------------------------------------------------- #
def report_to_dict(report: EnergyReport) -> dict[str, Any]:
    """JSON-serializable rendering of an :class:`EnergyReport`."""
    return {
        "policy": report.policy.value,
        "baseline_time_s": report.baseline_time_s,
        "overhead_time_s": report.overhead_time_s,
        "static_energy_j": {c.value: e for c, e in report.static_energy_j.items()},
        "dynamic_energy_j": {c.value: e for c, e in report.dynamic_energy_j.items()},
        "gating_events": {c.value: e for c, e in report.gating_events.items()},
        "peak_power_w": report.peak_power_w,
    }


def report_from_dict(payload: dict[str, Any]) -> EnergyReport:
    """Inverse of :func:`report_to_dict`."""
    return EnergyReport(
        policy=PolicyName(payload["policy"]),
        baseline_time_s=payload["baseline_time_s"],
        overhead_time_s=payload["overhead_time_s"],
        static_energy_j={Component(c): e for c, e in payload["static_energy_j"].items()},
        dynamic_energy_j={Component(c): e for c, e in payload["dynamic_energy_j"].items()},
        gating_events={Component(c): e for c, e in payload["gating_events"].items()},
        peak_power_w=payload["peak_power_w"],
    )


# ---------------------------------------------------------------------- #
# Disk store
# ---------------------------------------------------------------------- #
def atomic_replace(path: str | Path, writer) -> None:
    """Write a file via temp name + ``os.replace`` (atomic publish).

    ``writer`` receives a binary file handle.  The single definition of
    the crash-consistent write used by every on-disk store in the tree
    (:class:`JsonFileStore`, :class:`SharedCacheDir`, the shard-artifact
    writer): readers racing a writer see either the complete old file or
    the complete new one, never interleaved bytes, and a crashed writer
    leaves only a ``*.tmp`` ghost behind.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            writer(handle)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


class JsonFileStore:
    """A ``{key: JSON value}`` mapping persisted to one JSON file.

    Writes are atomic (temp file + rename) so a crashed sweep never
    leaves a truncated cache behind; a corrupt or missing file simply
    starts the store empty.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._data: dict[str, Any] = {}
        self._dirty = False
        if self.path.exists():
            try:
                loaded = json.loads(self.path.read_text())
                if isinstance(loaded, dict):
                    self._data = loaded
            except (OSError, json.JSONDecodeError):
                self._data = {}

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
        if self.path.exists():
            try:
                on_disk = json.loads(self.path.read_text())
                if isinstance(on_disk, dict):
                    self._data = {**on_disk, **self._data}
            except (OSError, json.JSONDecodeError):
                pass
        atomic_replace(
            self.path,
            lambda handle: handle.write(json.dumps(self._data).encode("utf-8")),
        )
        self._dirty = False


# ---------------------------------------------------------------------- #
# Cross-run shared cache directory
# ---------------------------------------------------------------------- #
def portable_profile(profile: WorkloadProfile) -> WorkloadProfile:
    """A picklable deep-equivalent of ``profile``.

    The fast path leaves lazy, closure-backed surfaces on a freshly
    simulated profile (``LazyList`` operator/profile lists) and memoizes
    derived tables keyed by process-local object ids.  Pickling the
    profile directly would either fail or ship stale-id tokens, so the
    shared store pickles a *fresh* :class:`WorkloadProfile` shell around
    the same graph and profile list: ``LazyList.__reduce__`` materializes
    the lazy surfaces into exactly the objects the eager path builds,
    and the receiving process re-derives its columnar table from them —
    a rebuild the fast-path contract guarantees is bit-identical.
    """
    return WorkloadProfile(
        graph=profile.graph, chip=profile.chip, profiles=profile.profiles
    )


@dataclasses.dataclass
class CacheGcReport:
    """Outcome of one :meth:`SharedCacheDir.gc` pass."""

    root: Path
    dry_run: bool
    removed_files: int = 0
    removed_bytes: int = 0
    kept_files: int = 0
    kept_bytes: int = 0
    #: Entries whose bytes no longer parse (``verify=True`` passes only).
    corrupt_files: int = 0
    #: ``(path, reason)`` per entry selected for removal (dry-run keeps
    #: the full list so operators can audit before deleting).
    removed: list[tuple[Path, str]] = dataclasses.field(default_factory=list)

    def describe(self) -> str:
        verb = "would remove" if self.dry_run else "removed"
        text = (
            f"{verb} {self.removed_files} entr(ies) "
            f"({self.removed_bytes / 1e6:.1f} MB); kept {self.kept_files} "
            f"({self.kept_bytes / 1e6:.1f} MB) under {self.root}"
        )
        if self.corrupt_files:
            text += f"; {self.corrupt_files} corrupt/unreadable entr(ies)"
        return text


class SharedCacheDir:
    """A cross-run, cross-process cache directory on a shared filesystem.

    One file per entry, grouped by layer::

        <root>/profiles/<key>.pkl   # pickled portable WorkloadProfiles
        <root>/reports/<key>.json   # EnergyReport payloads
        <root>/rows/<key>.json      # packed sweep-row payloads

    Every write goes to a temp file in the destination directory and is
    published with ``os.replace`` — atomic on POSIX and NTFS — so
    concurrent writers can never interleave bytes: a reader sees either
    a complete old entry or a complete new one (entries are
    content-addressed, so racing writers produce identical content and
    "last writer wins" is indistinguishable from "first writer wins").
    Any unreadable entry — missing, truncated by a crashed writer's
    filesystem, or corrupted — degrades to a cache miss, never an error.
    The degradation is *not* silent, though: corrupt (present but
    unparseable) entries are tallied in :attr:`corrupt_entries`, the
    first one logs a warning, and ``repro cache gc --dry-run`` surfaces
    the count (see :meth:`gc` with ``verify=True``).
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        #: Entries found present-but-unreadable by this instance's reads
        #: (a missing file is an ordinary miss and is not counted).
        self.corrupt_entries = 0
        self._corrupt_warned = False

    def _note_corrupt(self, path: Path, error: BaseException) -> None:
        self.corrupt_entries += 1
        if not self._corrupt_warned:
            self._corrupt_warned = True
            _LOG.warning(
                "shared cache entry %s is corrupt/unreadable (%s: %s); "
                "treating as a miss — further corrupt entries are counted "
                "silently (see SimulationCache.stats()['shared_corrupt'] "
                "or `repro cache gc --dry-run`)",
                path,
                type(error).__name__,
                error,
            )

    def _path(self, layer: str, key: str, suffix: str) -> Path:
        return self.root / layer / f"{key}{suffix}"

    def _publish(self, path: Path, writer) -> None:
        """Atomic-rename write into a layer dir created on demand."""
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_replace(path, writer)

    # -- JSON entries (reports, rows) ---------------------------------- #
    def get_json(self, layer: str, key: str) -> Any:
        path = self._path(layer, key, ".json")
        try:
            text = path.read_text()
        except OSError:
            return None  # absent entry: an ordinary miss
        try:
            return json.loads(text)
        except ValueError as error:
            self._note_corrupt(path, error)
            return None

    def put_json(self, layer: str, key: str, value: Any) -> None:
        payload = json.dumps(value).encode("utf-8")
        try:
            self._publish(
                self._path(layer, key, ".json"), lambda h: h.write(payload)
            )
        except OSError:
            pass  # a read-only or full share degrades to "no sharing"

    # -- profile entries ------------------------------------------------ #
    def get_profile(self, key: str) -> WorkloadProfile | None:
        path = self._path("profiles", key, ".pkl")
        try:
            blob = path.read_bytes()
        except OSError:
            return None  # absent entry: an ordinary miss
        try:
            profile = pickle.loads(blob)
        except Exception as error:  # noqa: BLE001
            # Truncated/corrupt pickles raise a zoo of exception types
            # (EOFError, UnpicklingError, AttributeError, ...); all of
            # them mean "miss", never "crash the sweep".
            self._note_corrupt(path, error)
            return None
        return profile if isinstance(profile, WorkloadProfile) else None

    def put_profile(self, key: str, profile: WorkloadProfile) -> None:
        try:
            blob = pickle.dumps(
                portable_profile(profile), protocol=pickle.HIGHEST_PROTOCOL
            )
            self._publish(
                self._path("profiles", key, ".pkl"), lambda h: h.write(blob)
            )
        except Exception:
            pass  # an unpicklable custom profile just isn't shared

    # -- garbage collection --------------------------------------------- #
    def _entry_corrupt(self, path: Path) -> str | None:
        """Why this entry's bytes are unusable, or ``None`` if they parse.

        JSON entries are fully parsed; pickles get a cheap structural
        check (complete pickles end with the STOP opcode ``b"."``) —
        enough to catch the truncation a crashed writer's filesystem
        leaves behind, without unpickling anything.
        """
        try:
            blob = path.read_bytes()
        except OSError as error:
            return f"unreadable entry ({error})"
        if path.suffix == ".json":
            try:
                json.loads(blob.decode("utf-8"))
            except (UnicodeDecodeError, ValueError):
                return "corrupt JSON entry"
        elif path.suffix == ".pkl":
            if not blob.endswith(b"."):
                return "truncated pickle entry"
        return None

    def gc(
        self,
        max_age_days: float | None = None,
        max_bytes: int | None = None,
        dry_run: bool = False,
        now: float | None = None,
        verify: bool = False,
    ) -> CacheGcReport:
        """Evict cache entries by age and/or total size (LRU by mtime).

        Entries older than ``max_age_days`` are dropped first; if the
        survivors still exceed ``max_bytes``, the least recently touched
        are dropped until the layer directories fit (every cache read
        refreshing an entry would be an extra write per hit, so "used"
        here means *written* — content-addressed entries are rewritten
        on every miss, which is exactly the reuse signal that matters).
        Unlinks are best-effort and safe against concurrent runs: a
        reader that loses an entry mid-race sees an ordinary cache miss,
        and ``*.tmp`` ghosts from crashed writers are always collected.
        ``dry_run`` only reports what would be removed.  ``verify=True``
        additionally reads every surviving entry and dooms the
        corrupt/unreadable ones (tallied in
        :attr:`CacheGcReport.corrupt_files`), regardless of age/size.
        """
        now = time.time() if now is None else now
        report = CacheGcReport(root=self.root, dry_run=dry_run)
        entries: list[tuple[float, int, Path]] = []  # (mtime, size, path)
        for layer in ("profiles", "reports", "rows"):
            layer_dir = self.root / layer
            if not layer_dir.is_dir():
                continue
            for path in layer_dir.iterdir():
                if not path.is_file():
                    continue
                try:
                    stat = path.stat()
                except OSError:
                    continue  # vanished under a concurrent gc
                if path.name.endswith(".tmp"):
                    report.removed.append((path, "crashed writer ghost"))
                    report.removed_files += 1
                    report.removed_bytes += stat.st_size
                    continue
                if verify:
                    reason = self._entry_corrupt(path)
                    if reason is not None:
                        report.removed.append((path, reason))
                        report.removed_files += 1
                        report.removed_bytes += stat.st_size
                        report.corrupt_files += 1
                        continue
                entries.append((stat.st_mtime, stat.st_size, path))
        doomed: list[tuple[Path, str]] = []
        survivors: list[tuple[float, int, Path]] = []
        cutoff = None if max_age_days is None else now - max_age_days * 86400.0
        for mtime, size, path in entries:
            if cutoff is not None and mtime < cutoff:
                age_days = (now - mtime) / 86400.0
                doomed.append(
                    (path, f"age {age_days:.1f}d > {max_age_days}d")
                )
                report.removed_files += 1
                report.removed_bytes += size
            else:
                survivors.append((mtime, size, path))
        if max_bytes is not None:
            total = sum(size for _mtime, size, _path in survivors)
            survivors.sort()  # oldest mtime first = least recently used
            kept: list[tuple[float, int, Path]] = []
            for position, (mtime, size, path) in enumerate(survivors):
                if total > max_bytes:
                    doomed.append(
                        (path, f"evicted to fit --max-bytes {max_bytes}")
                    )
                    report.removed_files += 1
                    report.removed_bytes += size
                    total -= size
                else:
                    kept.extend(survivors[position:])
                    break
            survivors = kept
        report.kept_files = len(survivors)
        report.kept_bytes = sum(size for _mtime, size, _path in survivors)
        report.removed.extend(doomed)
        if not dry_run:
            for path, _reason in report.removed:
                try:
                    os.unlink(path)
                except OSError:
                    pass  # already gone (concurrent gc) or unwritable share
        return report


# ---------------------------------------------------------------------- #
# The cache
# ---------------------------------------------------------------------- #
class SimulationCache:
    """In-memory (and optionally on-disk) memoization of simulations.

    Parameters
    ----------
    path:
        Optional JSON file backing the report and sweep-row layers.
        Profiles are memory-only (they hold live graph objects) unless
        ``shared_dir`` is given.
    shared_dir:
        Optional :class:`SharedCacheDir` root (or an instance).  All
        three layers — including *profiles*, the expensive simulate
        output — are then written through to one-file-per-entry stores
        published by atomic rename, so concurrent shard runs on a
        shared filesystem reuse each other's simulate misses across
        processes, machines and runs.
    """

    def __init__(
        self,
        path: str | Path | None = None,
        shared_dir: str | Path | SharedCacheDir | None = None,
    ):
        self._profiles: dict[str, WorkloadProfile] = {}
        self._reports: dict[str, EnergyReport] = {}
        # Reports held as zero-argument suppliers (grid cells priced by
        # the fused sweep path); materialized into ``_reports`` on first
        # probe.  Memory-only — persistent layers always materialize.
        self._lazy_reports: dict[str, Callable[[], EnergyReport]] = {}
        self._rows: dict[str, PackedRows] = {}
        self._store = JsonFileStore(path) if path is not None else None
        if shared_dir is not None and not isinstance(shared_dir, SharedCacheDir):
            shared_dir = SharedCacheDir(shared_dir)
        self._shared = shared_dir
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
        if profile is None and self._shared is not None:
            profile = self._shared.get_profile(key)
            if profile is not None:
                self._profiles[key] = profile
        self._count(profile is not None)
        return profile

    def put_profile(self, key: str, profile: WorkloadProfile) -> None:
        self._profiles[key] = profile
        if self._shared is not None:
            self._shared.put_profile(key, profile)

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
        if report is None:
            supplier = self._lazy_reports.pop(key, None)
            if supplier is not None:
                # The supplier builds a fresh object nobody else holds,
                # so it enters the memory layer without a defensive copy.
                report = supplier()
                self._reports[key] = report
        if report is None and self._store is not None:
            payload = self._store.get("report:" + key)
            if payload is not None:
                report = report_from_dict(payload)
                self._reports[key] = report
        if report is None and self._shared is not None:
            payload = self._shared.get_json("reports", key)
            if payload is not None:
                try:
                    report = report_from_dict(payload)
                except (KeyError, TypeError, ValueError):
                    report = None  # foreign/corrupt payload -> miss
                else:
                    self._reports[key] = report
        self._count(report is not None)
        if report is None:
            return None
        return self._copy_report(report)

    def put_report(self, key: str, report: EnergyReport) -> None:
        self._reports[key] = self._copy_report(report)
        if self._store is not None:
            self._store.put("report:" + key, report_to_dict(report))
        if self._shared is not None:
            self._shared.put_json("reports", key, report_to_dict(report))

    def put_report_lazy(
        self, key: str, supplier: Callable[[], EnergyReport]
    ) -> None:
        """Cache a report as a deferred supplier (fused sweep path).

        Memory-only caches keep the zero-argument supplier and
        materialize it on the first :meth:`get_report` probe, so a
        sweep that never re-reads a cell (the common cold-run case)
        skips building and copying its per-report dicts entirely.
        Persistent layers need the serializable payload now, so they
        materialize immediately — identical observable semantics.
        """
        if self._store is not None or self._shared is not None:
            self.put_report(key, supplier())
        else:
            self._lazy_reports[key] = supplier
            self._reports.pop(key, None)

    # -- sweep rows ---------------------------------------------------- #
    # Rows live in the cache in *packed* form: one shared column tuple
    # plus one immutable value tuple per row.  The packed entries make
    # both layers cheap — no ~40-key dict per row in memory or in the
    # JSON store — and copying on the way out reduces to copying the
    # outer list, so a caller mutating a returned SweepResult still
    # cannot poison the cache.
    @staticmethod
    def _freeze_packed(packed: PackedRows) -> PackedRows:
        columns, values = packed
        return tuple(columns), [tuple(row) for row in values]

    def get_rows_packed(self, key: str) -> PackedRows | None:
        packed = self._rows.get(key)
        if packed is None and self._store is not None:
            payload = self._store.get("rows:" + key)
            if payload is not None:
                packed = self._freeze_packed(self._decode_rows(payload))
                self._rows[key] = packed
        if packed is None and self._shared is not None:
            payload = self._shared.get_json("rows", key)
            if payload is not None:
                try:
                    packed = self._freeze_packed(self._decode_rows(payload))
                except (KeyError, TypeError, ValueError):
                    packed = None  # foreign/corrupt payload -> miss
                else:
                    self._rows[key] = packed
        self._count(packed is not None)
        if packed is None:
            self.row_misses += 1
            return None
        self.row_hits += 1
        columns, values = packed
        return columns, list(values)

    def put_rows_packed(self, key: str, packed: PackedRows) -> None:
        packed = self._freeze_packed(packed)
        self._rows[key] = packed
        columns, values = packed
        if self._store is not None:
            self._store.put(
                "rows:" + key, {"columns": list(columns), "values": values}
            )
        if self._shared is not None:
            self._shared.put_json(
                "rows", key, {"columns": list(columns), "values": values}
            )

    @staticmethod
    def _decode_rows(payload: Any) -> PackedRows:
        """Decode a disk row entry (packed dict, or a legacy dict list)."""
        if isinstance(payload, dict):
            return tuple(payload["columns"]), payload["values"]
        return pack_rows(list(payload))

    def get_rows(self, key: str) -> list[dict[str, Any]] | None:
        """Row dicts of one sweep point (compatibility view)."""
        packed = self.get_rows_packed(key)
        if packed is None:
            return None
        return unpack_rows(packed)

    def put_rows(self, key: str, rows: list[dict[str, Any]]) -> None:
        self.put_rows_packed(key, pack_rows(rows))

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
            "reports": len(self._reports) + len(self._lazy_reports),
            "rows": len(self._rows),
            "shared_corrupt": (
                self._shared.corrupt_entries if self._shared is not None else 0
            ),
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


def _cached_profile(
    spec: WorkloadSpec,
    config: SimulationConfig,
    cache: SimulationCache,
    built_graphs: dict | None = None,
    resolutions: dict | None = None,
):
    """Resolve one item's (chip, parallelism, pkey, profile) through ``cache``.

    The single definition of the profile-memoization sequence, shared by
    the per-item and batched entry points so their cache keys (and
    therefore their results) can never diverge.  ``built_graphs`` lets a
    batched caller share one built graph between chip-only variants of
    the same workload (the simulator never mutates its input IR);
    ``resolutions`` memoizes the execution resolution + profile key so a
    gating-parameter grid resolves each distinct (workload, chip,
    batch) combination once instead of once per grid point.
    """
    resolved = None
    if resolutions is not None:
        resolution_key = _resolution_memo_key(spec, config)
        resolved = resolutions.get(resolution_key)
    if resolved is not None:
        chip, batch_size, parallelism, pkey = resolved
    else:
        chip, batch_size, parallelism = resolve_execution(spec, config)
        pkey = profile_key(
            spec.name, chip, batch_size, parallelism, config.apply_fusion
        )
        if resolutions is not None:
            resolutions[resolution_key] = (chip, batch_size, parallelism, pkey)
    profile = cache.get_profile(pkey)
    if profile is None:
        graph = None
        graph_key = (spec.name, batch_size, parallelism)
        if built_graphs is not None:
            graph = built_graphs.get(graph_key)
        if graph is None:
            graph = build_workload_graph(spec, batch_size, parallelism)
            if built_graphs is not None:
                built_graphs[graph_key] = graph
        profile = NPUSimulator(chip, apply_fusion=config.apply_fusion).simulate(graph)
        cache.put_profile(pkey, profile)
    return chip, parallelism, pkey, profile


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
    if cache is None:
        return simulate_workload(workload, config)
    spec = _registry_spec(workload)
    if spec is None:
        return simulate_workload(workload, config)
    config = config or SimulationConfig()
    chip, parallelism, pkey, profile = _cached_profile(spec, config, cache)

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


class _ReportGroup:
    """Missing (profile, gating-parameter) report cells of one policy.

    Collects the distinct profiles (by profile key, insertion order) and
    distinct parameter points (by token) of a batch's cache misses, then
    evaluates the whole grid at once.  A sweep grid is a full cartesian
    product by construction, so the product of the distinct axes is
    exactly the missing cell set on a cold run; on a partially warm
    cache the kernel may price a few already-cached cells again — extra
    vectorized work, never a different result.
    """

    def __init__(self) -> None:
        self.profiles: dict[str, WorkloadProfile] = {}
        self.parameters: dict[int, GatingParameters] = {}
        self.members: dict[str, tuple[str, int]] = {}

    def add(
        self,
        rkey: str,
        pkey: str,
        profile: WorkloadProfile,
        parameters: GatingParameters,
    ) -> None:
        token = parameters_token(parameters)
        self.profiles.setdefault(pkey, profile)
        self.parameters.setdefault(token, parameters)
        self.members[rkey] = (pkey, token)

    def evaluate_cells(self, policy_name: PolicyName):
        """Yield ``(rkey, (grid, point_row, profile_col))`` for every missing cell.

        The whole group is priced by one
        :meth:`~repro.gating.policies.PowerGatingPolicy.grid_evaluate`
        call; each triple indexes into the resulting
        :class:`~repro.gating.policies.GridEnergyReports`, so the fused
        sweep path assembles its result columns straight from the grid
        arrays without ever turning the triple into a report object.
        """
        profile_index = {pkey: i for i, pkey in enumerate(self.profiles)}
        token_index = {token: i for i, token in enumerate(self.parameters)}
        parameters = list(self.parameters.values())
        grid = get_policy(policy_name, parameters[0]).grid_evaluate(
            list(self.profiles.values()), parameters
        )
        for rkey, (pkey, token) in self.members.items():
            yield rkey, (grid, token_index[token], profile_index[pkey])


def materialize_cell(cell) -> EnergyReport:
    """Turn a pricing cell into its :class:`EnergyReport`.

    Grid triples materialize through
    :meth:`~repro.gating.policies.GridEnergyReports.report`, which is a
    pure ``float()`` read of the grid arrays — bit-identical to the
    report the per-cell path would have built.
    """
    if isinstance(cell, tuple):
        grid, row, col = cell
        return grid.report(row, col)
    return cell


def _price_prepared(
    items: list[tuple[WorkloadSpec, SimulationConfig]],
    cache: SimulationCache,
) -> tuple[list[SimulationResult], list[list]]:
    """Fused simulate→price core over registry-backed (spec, config) items.

    One pass: profiles are resolved through the cache with the
    execution resolution memoized per distinct (workload, chip, batch)
    combination, missing report cells are grouped per policy and priced
    by one grid kernel call per group, and the grid cells are
    cached *lazily* — the (grid, row, col) triple stands in for the
    report until something actually probes it.

    Returns ``(results, cells)``: per item, a metadata
    :class:`SimulationResult` shell (its ``reports`` dict left empty)
    and one ``(policy_name, cell)`` pair per ``config.policies`` entry —
    a cell is either a materialized :class:`EnergyReport` (cache hits)
    or a ``(grid, row, col)`` triple (see
    :meth:`_ReportGroup.evaluate_cells`).
    """
    prepared: list[tuple] = []
    # Graphs are chip-independent: two points differing only in chip
    # (same workload, batch and parallelism) share one built graph.
    built_graphs: dict[tuple, Any] = {}
    resolutions: dict[tuple, tuple] = {}
    for spec, config in items:
        chip, parallelism, pkey, profile = _cached_profile(
            spec, config, cache, built_graphs, resolutions
        )
        prepared.append((spec, config, chip, parallelism, pkey, profile))

    # Report phase: probe the cache once per (item, policy) like the
    # per-item path, then evaluate the misses one policy at a time: the
    # group's distinct profiles (chip-major packed) × distinct gating
    # parameters form one grid that a single
    # :meth:`~repro.gating.policies.PowerGatingPolicy.grid_evaluate`
    # call prices — the sensitivity-sweep hot path; with one parameter
    # point it is an N×1 grid.  Cells are bit-identical to the per-item
    # path, so a sweep's rows (and CSV bytes) do not change.
    fetched: dict[str, Any] = {}
    groups: dict[PolicyName, _ReportGroup] = {}
    item_rkeys: list[list[str]] = []
    for spec, config, chip, parallelism, pkey, profile in prepared:
        rkeys = [
            report_key(pkey, policy_name.value, config.gating_parameters)
            for policy_name in config.policies
        ]
        item_rkeys.append(rkeys)
        for policy_name, rkey in zip(config.policies, rkeys):
            if rkey in fetched:
                continue
            report = cache.get_report(rkey)
            if report is not None:
                fetched[rkey] = report
                continue
            group = groups.setdefault(policy_name, _ReportGroup())
            group.add(rkey, pkey, profile, config.gating_parameters)
    for policy_name, group in groups.items():
        for rkey, cell in group.evaluate_cells(policy_name):
            grid, row, col = cell
            cache.put_report_lazy(rkey, functools.partial(grid.report, row, col))
            fetched[rkey] = cell

    results: list[SimulationResult] = []
    cells: list[list] = []
    for (spec, config, chip, parallelism, pkey, profile), rkeys in zip(
        prepared, item_rkeys
    ):
        results.append(
            build_result(spec.name, profile, parallelism, profile.graph, config)
        )
        cells.append(
            [
                (policy_name, fetched[rkey])
                for policy_name, rkey in zip(config.policies, rkeys)
            ]
        )
    return results, cells


def simulate_cached_cells(
    items: list[tuple[str | WorkloadSpec, SimulationConfig | None]],
    cache: SimulationCache,
) -> tuple[list[SimulationResult], list[list]] | None:
    """Fused batched pricing for the sweep fast path.

    Like :func:`simulate_cached_many`, but returns the raw pricing
    cells (see :func:`_price_prepared`) instead of attaching
    materialized reports — the runner assembles its result columns
    straight from the grid arrays.  Returns ``None`` when any item
    bypasses the registry cache (hand-built workload specs); the caller
    falls back to :func:`simulate_cached_many`.
    """
    resolved_items: list[tuple[WorkloadSpec, SimulationConfig]] = []
    for workload, config in items:
        spec = _registry_spec(workload)
        if spec is None:
            return None
        resolved_items.append((spec, config or SimulationConfig()))
    return _price_prepared(resolved_items, cache)


def simulate_cached_many(
    items: list[tuple[str | WorkloadSpec, SimulationConfig | None]],
    cache: SimulationCache | None = None,
) -> list[SimulationResult]:
    """Batched :func:`simulate_cached` over many (workload, config) pairs.

    Profiles are resolved exactly like the per-item path (same cache
    keys, same probe order); the *report* phase is then grid-batched
    through :func:`_price_prepared` and the resulting cells are
    materialized onto each item's result.  Reports are bit-identical
    to the per-item path, so a sweep's rows (and CSV bytes) do not
    change.  Non-registry workloads fall back to
    :func:`simulate_workload` per item.
    """
    if cache is None:
        return [simulate_workload(workload, config) for workload, config in items]

    results: list[SimulationResult | None] = [None] * len(items)
    batched_indices: list[int] = []
    batched_items: list[tuple[WorkloadSpec, SimulationConfig]] = []
    for index, (workload, config) in enumerate(items):
        spec = _registry_spec(workload)
        if spec is None:
            results[index] = simulate_workload(workload, config)
            continue
        batched_indices.append(index)
        batched_items.append((spec, config or SimulationConfig()))

    if batched_items:
        shells, cells = _price_prepared(batched_items, cache)
        for index, shell, row_cells in zip(batched_indices, shells, cells):
            for policy_name, cell in row_cells:
                shell.reports[policy_name] = materialize_cell(cell)
            results[index] = shell
    return results


__all__ = [
    "CacheGcReport",
    "JsonFileStore",
    "PackedRows",
    "atomic_replace",
    "SharedCacheDir",
    "SimulationCache",
    "materialize_cell",
    "pack_rows",
    "portable_profile",
    "report_from_dict",
    "report_to_dict",
    "simulate_cached",
    "simulate_cached_cells",
    "simulate_cached_many",
    "unpack_rows",
]
