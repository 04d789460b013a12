"""Sharded sweep execution: deterministic planning, portable shard
artifacts and byte-identical merging.

This module splits a :class:`~repro.experiments.spec.SweepSpec` into
``n`` independently executable **shards** — one per process or machine
— whose merged result is *byte-identical* to a monolithic
:class:`~repro.experiments.runner.SweepRunner` run:

* :class:`ShardPlan` — a pure function of ``(spec, shard_count)``: the
  grid's points are ordered chip-major (the
  :meth:`~repro.gating.policies.ChipMajorPacks.partition_chip_major`
  rule, keyed by resolved chip *name* so the partition is stable across
  processes and machines) and cut into ``n`` contiguous, size-balanced
  runs.  Chip-heterogeneous grids therefore shard chip-major: most
  shards stay single-chip, so each one packs into as few
  :class:`~repro.gating.policies.PackedProfiles` segments as the grid
  allows.  Every shard carries a content-addressed key derived from the
  :mod:`repro.experiments.keys` digests.
* :class:`ShardRunner` — executes one shard's points through the
  existing packed :class:`~repro.experiments.runner.SweepRunner`
  pipeline (row cache, grid-batched policy kernel, optional process
  pool) and captures the packed rows as a :class:`ShardArtifact`.
* :class:`ShardArtifact` — one in-memory column store (a ``float64``
  array per all-float column, a list per other column), serialized as a
  self-describing ``.repro-shard`` directory: ``manifest.json`` (spec
  digest, shard indices, code version, per-point row accounting,
  content digests), ``columns.npy`` (every float column stacked into
  one ``float64`` matrix, one row per column) and ``columns.json``
  (string/int columns).  Both stores round-trip every cell exactly, so
  a merged table's CSV bytes equal the monolithic run's.
* :func:`merge_artifacts` / :meth:`SweepResult.merge_shards
  <repro.experiments.result.SweepResult.merge_shards>` — reassembles
  artifacts into one columnar result by concatenating each column over
  coalesced row runs.  Merging is associative and idempotent:
  artifacts are deduplicated by key, partial merges write ordinary
  ``.repro-shard`` artifacts that merge again later, and foreign
  (different spec/version), duplicate-but-different and missing shards
  are detected from the manifests.

Shards that share a filesystem can also share a
:class:`~repro.experiments.cache.SharedCacheDir` so one shard's
simulate miss becomes every later shard's profile hit — see
``docs/experiments.md``.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from repro import __version__
from repro.gating.policies import ChipMajorPacks

from repro.experiments import keys
from repro.experiments.cache import PackedRows, SimulationCache, atomic_replace
from repro.experiments.keys import file_digest, shard_key, stable_hash
from repro.experiments.result import SweepResult
from repro.experiments.runner import SweepRunner
from repro.experiments.spec import SweepPoint, SweepSpec

#: On-disk artifact schema (bumped when the layout changes shape).
#: Schema 2 replaced the ``columns.npz`` zip store with a single
#: ``columns.npy`` matrix.
SHARD_SCHEMA = 2
#: Directory-name suffix identifying a shard artifact.
SHARD_SUFFIX = ".repro-shard"
MANIFEST_NAME = "manifest.json"
NUMERIC_NAME = "columns.npy"
OBJECT_NAME = "columns.json"

_LOG = logging.getLogger(__name__)


class ShardError(ValueError):
    """A shard artifact is unreadable, foreign, duplicated or missing."""


def load_manifest(path: str | Path) -> dict[str, Any]:
    """Read and shape-check one artifact's ``manifest.json``.

    The single manifest-parsing entry point shared by
    :meth:`ShardArtifact.read` and :func:`verify_artifact_files`.  Only
    the envelope is validated here (readable JSON object of ``kind``
    repro-shard); schema and field validation stay with the callers,
    which disagree on how strict to be.
    """
    path = Path(path)
    try:
        manifest = json.loads((path / MANIFEST_NAME).read_text())
    except (OSError, ValueError) as error:
        raise ShardError(
            f"{path}: not a readable shard artifact ({error})"
        ) from error
    if not isinstance(manifest, dict) or manifest.get("kind") != "repro-shard":
        raise ShardError(f"{path}: manifest is not a repro-shard manifest")
    return manifest


def verify_artifact_files(path: str | Path, require: bool = True) -> None:
    """Check an artifact's column stores against the manifest's digests.

    Run it on an artifact copied from another machine before merging
    it: a truncated, bit-flipped or rewritten column store no longer
    matches the digest recorded when the shard was written.  Raises
    :class:`ShardError` on any mismatch or missing file.  Artifacts
    written before digests existed carry no ``files`` entry; ``require``
    decides whether that is an error (the default) or accepted
    silently.
    """
    path = Path(path)
    manifest = load_manifest(path)
    files = manifest.get("files")
    if not isinstance(files, dict):
        if require:
            raise ShardError(
                f"{path}: manifest carries no content digests "
                "(written by an older version?)"
            )
        return
    for name, expected in sorted(files.items()):
        try:
            actual = file_digest(path / name)
        except OSError as error:
            raise ShardError(
                f"{path}: column store {name} is unreadable ({error})"
            ) from error
        if actual != expected:
            raise ShardError(
                f"{path}: content digest mismatch on {name} (torn or "
                f"corrupt transfer): {actual} != {expected}"
            )


def spec_digest(spec: SweepSpec) -> str:
    """Content-addressed digest of a sweep grid.

    Hashes the ordered point cache keys (each one covers the workload,
    the fully resolved configuration — chip spec, policies, gating
    parameters — and the gating label), so two specs digest equal
    exactly when they produce the same result table.  Version-stamped
    like every other key, so artifacts from different releases read as
    foreign rather than silently merging.

    Memoized on the spec object (per schema version): planning the same
    spec repeatedly — every :class:`ShardRunner` builds a plan — hashes
    the point keys once instead of once per shard.
    """
    version = keys.CACHE_SCHEMA_VERSION
    memo = getattr(spec, "_spec_digest_memo", None)
    if memo is not None and memo[0] == version:
        return memo[1]
    digest = stable_hash(
        {
            "kind": "sweep-spec",
            "version": version,
            "points": [point.cache_key for point in spec.points()],
        }
    )
    spec._spec_digest_memo = (version, digest)
    return digest


def _chip_axis_key(point: SweepPoint) -> str:
    """The chip-name grouping key of one point (process-stable)."""
    chip = point.config.chip
    return chip if isinstance(chip, str) else chip.name


@dataclass(frozen=True)
class Shard:
    """One planned slice of a sweep grid (a value object)."""

    index: int
    count: int
    spec_digest: str
    point_indices: tuple[int, ...]

    @property
    def key(self) -> str:
        """Content-addressed artifact key of this shard."""
        return shard_key(
            self.spec_digest, self.count, (self.index,), self.point_indices
        )

    @property
    def artifact_name(self) -> str:
        return f"shard-{self.index:04d}-of-{self.count:04d}{SHARD_SUFFIX}"


class ShardPlan:
    """Deterministic chip-major partition of a spec's grid into ``count`` shards.

    The plan is a pure function of its inputs: every process and machine
    planning the same ``(spec, count)`` computes the same shards, the
    same point assignment and the same shard keys — no coordination
    service needed.  Shards are disjoint, cover every point, and differ
    in size by at most one point; when ``count`` exceeds the number of
    points the surplus shards are empty (and still merge cleanly).
    """

    def __init__(self, spec: SweepSpec, count: int):
        if count < 1:
            raise ValueError(f"shard count must be >= 1, got {count}")
        self.spec = spec
        self.count = count
        self.digest = spec_digest(spec)
        points = spec.points()
        groups = ChipMajorPacks.partition_chip_major(
            [_chip_axis_key(point) for point in points]
        )
        order = [index for group in groups for index in group]
        base, remainder = divmod(len(order), count)
        shards: list[Shard] = []
        offset = 0
        for index in range(count):
            size = base + (1 if index < remainder else 0)
            shards.append(
                Shard(
                    index=index,
                    count=count,
                    spec_digest=self.digest,
                    point_indices=tuple(order[offset : offset + size]),
                )
            )
            offset += size
        self.shards = shards

    def __len__(self) -> int:
        return self.count

    def __iter__(self) -> Iterator[Shard]:
        return iter(self.shards)

    def __getitem__(self, index: int) -> Shard:
        return self.shards[index]

    def points_for(self, index: int) -> list[SweepPoint]:
        """The shard's points, in its (chip-major) execution order."""
        points = self.spec.points()
        return [points[i] for i in self.shards[index].point_indices]

    def describe(self) -> str:
        sizes = [len(shard.point_indices) for shard in self.shards]
        return (
            f"{sum(sizes)} point(s) over {self.count} shard(s), "
            f"sizes {min(sizes)}..{max(sizes)}"
        )


# ---------------------------------------------------------------------- #
# Shard artifacts
# ---------------------------------------------------------------------- #
def _encode_object_column(cells: list) -> Any:
    """Dictionary-encode one object column for ``columns.json``.

    Sweep metadata columns (workload, chip, policy, ...) repeat a
    handful of distinct values, so ``{"categories": [...], "codes":
    [...]}`` serializes and parses in a fraction of the plain list's
    time.  Columns with unhashable cells are stored as plain lists
    (the decoder accepts both shapes); the round trip is exact either
    way.
    """
    try:
        categories: list[Any] = []
        index: dict[Any, int] = {}
        codes: list[int] = []
        for cell in cells:
            code = index.get(cell)
            if code is None:
                code = len(categories)
                index[cell] = code
                categories.append(cell)
            codes.append(code)
    except TypeError:
        return cells
    return {"categories": categories, "codes": codes}


def _decode_object_column(entry: Any) -> list:
    """Inverse of :func:`_encode_object_column` (accepts both shapes)."""
    if isinstance(entry, dict):
        return list(map(entry["categories"].__getitem__, entry["codes"]))
    return entry


class ShardArtifact:
    """The rows of one or more shards, (de)serializable as a
    self-describing ``.repro-shard`` directory.

    Backed by one in-memory column store, :attr:`series`: a ``float64``
    array for every all-float column and a list for every other column,
    each in stored (point-major) row order.
    """

    def __init__(
        self,
        spec_digest: str,
        shard_count: int,
        shard_indices: tuple[int, ...],
        columns: tuple[str, ...],
        points: list[tuple[int, str, int]],
        series: dict[str, Any],
        version: str = __version__,
        path: Path | None = None,
    ):
        self.spec_digest = spec_digest
        self.shard_count = shard_count
        self.shard_indices = tuple(shard_indices)
        self.columns = tuple(columns)
        #: ``(point index, point cache key, row count)`` in stored row order.
        self.points = points
        #: Column name -> ``float64`` array (all-float columns) or list.
        self.series = series
        #: Package version that wrote the artifact (current version for
        #: freshly built ones).
        self.version = version
        #: Where the artifact was read from, for error messages.
        self.path = path

    def __repr__(self) -> str:
        return (
            f"ShardArtifact(shards {list(self.shard_indices)} of "
            f"{self.shard_count}, {self.row_count} row(s))"
        )

    @property
    def key(self) -> str:
        return shard_key(
            self.spec_digest,
            self.shard_count,
            self.shard_indices,
            [index for index, _key, _rows in self.points],
        )

    @property
    def row_count(self) -> int:
        return sum(rows for _index, _key, rows in self.points)

    @property
    def missing(self) -> list[int]:
        """Shard indices of the plan this artifact does not cover."""
        return sorted(set(range(self.shard_count)) - set(self.shard_indices))

    def column(self, name: str) -> Any:
        """One column's cells in stored row order (the backing array/list)."""
        return self.series[name]

    @property
    def artifact_name(self) -> str:
        if len(self.shard_indices) == 1:
            index = self.shard_indices[0]
            return f"shard-{index:04d}-of-{self.shard_count:04d}{SHARD_SUFFIX}"
        return f"merged-{self.key[:12]}{SHARD_SUFFIX}"

    # ------------------------------------------------------------------ #
    @classmethod
    def from_blocks(
        cls, shard: Shard, blocks: list[tuple[SweepPoint, PackedRows]]
    ) -> "ShardArtifact":
        """Assemble one shard's artifact from its per-point packed rows.

        Rows are stored sorted by point index so every artifact of a
        shard is byte-deterministic regardless of execution order.
        """
        blocks = sorted(blocks, key=lambda block: block[0].index)
        columns: tuple[str, ...] = ()
        for _point, (block_columns, block_values) in blocks:
            if block_values:
                columns = tuple(block_columns)
                break
        points: list[tuple[int, str, int]] = []
        values: list[tuple[Any, ...]] = []
        for point, (block_columns, block_values) in blocks:
            if block_values and tuple(block_columns) != columns:
                raise ShardError(
                    "cannot serialize heterogeneous row schemas into one "
                    "shard artifact (stale cache entries from another code "
                    f"version?): {tuple(block_columns)} vs {columns}"
                )
            points.append((point.index, point.cache_key, len(block_values)))
            values.extend(block_values)
        series: dict[str, Any] = {}
        for name, cells in zip(columns, zip(*values)):
            # set(map(type, ...)) runs the exact type scan in C.
            if set(map(type, cells)) == {float}:
                series[name] = np.asarray(cells, dtype=np.float64)
            else:
                series[name] = list(cells)
        return cls(
            spec_digest=shard.spec_digest,
            shard_count=shard.count,
            shard_indices=(shard.index,),
            columns=columns,
            points=points,
            series=series,
        )

    def result(self) -> SweepResult:
        """This artifact's rows as a column-store :class:`SweepResult`."""
        return SweepResult.from_series(self.columns, self.series)

    # ------------------------------------------------------------------ #
    def write(
        self,
        target: str | Path,
        extra_manifest: "dict[str, Any] | None" = None,
    ) -> Path:
        """Serialize into ``target`` and return the artifact directory.

        ``target`` is either the artifact directory itself (a path
        ending in ``.repro-shard``) or a parent directory, in which case
        the canonical :attr:`artifact_name` is used.  Float columns go
        to ``columns.npy`` as one stacked ``float64`` matrix (row ``i``
        = numeric column ``i``; exact round trip); everything else to
        ``columns.json``, dictionary-encoded where possible (sweep
        metadata columns repeat a handful of distinct strings/ints, so
        codes serialize and parse far faster than the cells); the
        manifest is written last so a crashed writer never leaves a
        manifest describing missing column files.

        ``extra_manifest`` merges additional keys into the manifest —
        annotations like the skipped-artifact list a lenient partial
        merge records — without being able to shadow the schema's own
        fields (the canonical keys are applied last).
        """
        target = Path(target)
        path = target if target.name.endswith(SHARD_SUFFIX) else (
            target / self.artifact_name
        )
        path.mkdir(parents=True, exist_ok=True)
        series = self.series
        numeric = [
            name for name in self.columns if isinstance(series[name], np.ndarray)
        ]
        objects = {
            name: _encode_object_column(series[name])
            for name in self.columns
            if not isinstance(series[name], np.ndarray)
        }
        if numeric:
            matrix = np.stack([series[name] for name in numeric])
            atomic_replace(
                path / NUMERIC_NAME, lambda handle: np.save(handle, matrix)
            )
        atomic_replace(
            path / OBJECT_NAME,
            lambda handle: handle.write(json.dumps(objects).encode("utf-8")),
        )
        # Content digests of every column store, written into the
        # manifest so a copied artifact can be verified end to end —
        # see :func:`verify_artifact_files`.
        files = {OBJECT_NAME: file_digest(path / OBJECT_NAME)}
        if numeric:
            files[NUMERIC_NAME] = file_digest(path / NUMERIC_NAME)
        manifest = {
            **(extra_manifest or {}),
            "schema": SHARD_SCHEMA,
            "kind": "repro-shard",
            "version": self.version,
            "spec_digest": self.spec_digest,
            "shard_count": self.shard_count,
            "shard_indices": list(self.shard_indices),
            "shard_key": self.key,
            "row_count": self.row_count,
            "columns": list(self.columns),
            "numeric_columns": numeric,
            "files": files,
            "points": [
                {"index": index, "cache_key": key, "rows": rows}
                for index, key, rows in self.points
            ],
        }
        atomic_replace(
            path / MANIFEST_NAME,
            lambda handle: handle.write(
                json.dumps(manifest, indent=2).encode("utf-8")
            ),
        )
        self.path = path
        return path

    @classmethod
    def read(cls, path: str | Path) -> "ShardArtifact":
        """Deserialize one ``.repro-shard`` directory into memory."""
        path = Path(path)
        manifest = load_manifest(path)
        if manifest.get("schema") != SHARD_SCHEMA:
            raise ShardError(
                f"{path}: unsupported shard schema {manifest.get('schema')!r} "
                f"(this build reads schema {SHARD_SCHEMA})"
            )
        try:
            columns = tuple(manifest["columns"])
            numeric = list(manifest["numeric_columns"])
            points = [
                (entry["index"], entry["cache_key"], entry["rows"])
                for entry in manifest["points"]
            ]
            row_count = manifest["row_count"]
            objects = json.loads((path / OBJECT_NAME).read_text())
            series: dict[str, Any] = {}
            if numeric:
                matrix = np.load(path / NUMERIC_NAME, allow_pickle=False)
                if matrix.shape != (len(numeric), row_count):
                    raise ShardError(
                        f"{path}: column matrix shape {matrix.shape} disagrees "
                        f"with the manifest "
                        f"({len(numeric)} column(s) x {row_count} row(s))"
                    )
                series.update(zip(numeric, matrix))
            numeric_set = set(numeric)
            for name in columns:
                if name not in numeric_set:
                    series[name] = _decode_object_column(objects[name])
        except ShardError:
            raise
        except (OSError, KeyError, ValueError) as error:
            raise ShardError(
                f"{path}: corrupt or incomplete shard artifact ({error})"
            ) from error
        lengths = {len(cells) for cells in series.values()}
        if lengths - {row_count}:
            raise ShardError(
                f"{path}: column lengths {sorted(lengths)} disagree with the "
                f"manifest row count {row_count}"
            )
        if sum(rows for _i, _k, rows in points) != row_count:
            raise ShardError(
                f"{path}: per-point row accounting disagrees with row_count"
            )
        return cls(
            spec_digest=manifest["spec_digest"],
            shard_count=manifest["shard_count"],
            shard_indices=tuple(manifest["shard_indices"]),
            columns=columns,
            points=points,
            series=series,
            version=manifest.get("version", "unknown"),
            path=path,
        )


# ---------------------------------------------------------------------- #
# Running one shard
# ---------------------------------------------------------------------- #
class ShardRunner:
    """Executes single shards of a spec through the packed sweep pipeline.

    Parameters mirror :class:`~repro.experiments.runner.SweepRunner`;
    ``cache`` may be a :class:`SimulationCache` with a shared directory
    attached (see :class:`~repro.experiments.cache.SharedCacheDir`) so
    concurrent shards reuse each other's simulate misses.
    """

    def __init__(
        self,
        spec: SweepSpec,
        shard_count: int,
        cache: SimulationCache | None = None,
        max_workers: int | None = None,
    ):
        self.plan = ShardPlan(spec, shard_count)
        self.cache = cache
        self.max_workers = max_workers

    def run(self, index: int) -> ShardArtifact:
        """Evaluate shard ``index`` and return its (unwritten) artifact."""
        shard = self.plan[index]
        points = self.plan.points_for(index)
        runner = SweepRunner(
            self.plan.spec, cache=self.cache, max_workers=self.max_workers
        )
        cache = runner.resolve_cache()
        packed_by_index = runner.execute_points(points, cache)
        cache.flush()
        blocks = [(point, packed_by_index[point.index]) for point in points]
        return ShardArtifact.from_blocks(shard, blocks)

    def write(self, index: int, shard_dir: str | Path) -> Path:
        """Evaluate shard ``index`` and serialize it under ``shard_dir``."""
        return self.run(index).write(shard_dir)


# ---------------------------------------------------------------------- #
# Merging
# ---------------------------------------------------------------------- #
def _blocks_equal(
    a: ShardArtifact, a_offset: int, b: ShardArtifact, b_offset: int, rows: int
) -> bool:
    """Whether two artifacts' row blocks agree, compared column-wise."""
    return all(
        np.array_equal(
            a.series[name][a_offset : a_offset + rows],
            b.series[name][b_offset : b_offset + rows],
        )
        for name in a.columns
    )


def _artifacts_equal(a: ShardArtifact, b: ShardArtifact) -> bool:
    """Whether two same-key artifacts carry identical rows."""
    if a.points != b.points or a.columns != b.columns:
        return False
    return _blocks_equal(a, 0, b, 0, a.row_count)


def merge_artifacts(artifacts: Sequence[ShardArtifact]) -> ShardArtifact:
    """Merge shard artifacts into one combined artifact.

    Deduplicates identical artifacts by key (idempotent) and is
    independent of input order and grouping (associative: merging
    partial merges equals merging everything at once — a merged
    artifact is just an artifact covering several shard indices).
    Raises :class:`ShardError` on foreign artifacts (different spec
    digest or shard count) and on duplicated-but-different shards or
    points; missing shards are allowed here (partial merge) and only
    rejected by :func:`read_and_merge`.

    Each output column is the concatenation of its slices over the
    coalesced row runs, in point-index order.
    """
    if not artifacts:
        raise ShardError("no shard artifacts to merge")
    # Dedup by the key's *preimage* (plan slice + covered points) — same
    # identity as ShardArtifact.key without hashing every input.
    deduped: dict[tuple, ShardArtifact] = {}
    for artifact in artifacts:
        identity = (
            artifact.spec_digest,
            artifact.shard_count,
            artifact.shard_indices,
            tuple(index for index, _key, _rows in artifact.points),
        )
        existing = deduped.get(identity)
        if existing is None:
            deduped[identity] = artifact
        elif not _artifacts_equal(existing, artifact):
            # The key covers which slice of which plan, not the row
            # bytes: equal keys with different rows mean one side is
            # corrupt (or a nondeterminism bug worth failing loudly on).
            raise ShardError(
                f"duplicate shard data for shards {artifact.shard_indices}: "
                f"{existing.path or existing.key} and "
                f"{artifact.path or artifact.key} disagree"
            )
    first = next(iter(deduped.values()))
    for artifact in deduped.values():
        if artifact.spec_digest != first.spec_digest:
            detail = ""
            if artifact.version != first.version:
                detail = (
                    f" (written by versions {first.version} and "
                    f"{artifact.version})"
                )
            raise ShardError(
                f"foreign shard {artifact.path or artifact.key}: spec digest "
                f"{artifact.spec_digest} does not match {first.spec_digest}"
                f"{detail}"
            )
        if artifact.shard_count != first.shard_count:
            raise ShardError(
                f"foreign shard {artifact.path or artifact.key}: planned for "
                f"{artifact.shard_count} shard(s), expected {first.shard_count}"
            )
    covered: set[int] = set()
    for artifact in deduped.values():
        covered.update(artifact.shard_indices)
    columns: tuple[str, ...] = ()
    for artifact in deduped.values():
        if artifact.row_count:
            columns = artifact.columns
            break
    #: point index -> (owning artifact, row offset into it, rows, cache key)
    blocks: dict[int, tuple[ShardArtifact, int, int, str]] = {}
    for artifact in deduped.values():
        if artifact.row_count and artifact.columns != columns:
            raise ShardError(
                f"{artifact.path or artifact.key}: column schema "
                f"{artifact.columns} does not match {columns}"
            )
        offset = 0
        for point_index, cache_key, rows in artifact.points:
            existing = blocks.get(point_index)
            if existing is not None:
                # Overlapping coverage (e.g. a partial merge re-merged
                # with one of its inputs) is fine when the rows agree —
                # merge stays idempotent; disagreement means two
                # different runs claim the same shard slot.
                owner, owner_offset, owner_rows, owner_key = existing
                if (
                    owner_key != cache_key
                    or owner_rows != rows
                    or not _blocks_equal(owner, owner_offset, artifact, offset, rows)
                ):
                    raise ShardError(
                        f"duplicate shard data for point {point_index}: "
                        f"{owner.path or owner.key} and "
                        f"{artifact.path or artifact.key} disagree"
                    )
                offset += rows
                continue
            blocks[point_index] = (artifact, offset, rows, cache_key)
            offset += rows
    ordered = sorted(blocks)
    points: list[tuple[int, str, int]] = [
        (point_index, blocks[point_index][3], blocks[point_index][2])
        for point_index in ordered
    ]
    # Coalesce the output row order into copy runs: consecutive points
    # owned by the same artifact at contiguous offsets (the common case
    # — each artifact stores its points sorted by index) collapse into
    # one slice, so the column loop below does O(runs), not O(points),
    # slices per column.
    runs: list[tuple[ShardArtifact, int, int]] = []
    for point_index in ordered:
        artifact, offset, rows, _cache_key = blocks[point_index]
        if not rows:
            continue
        if runs:
            last_artifact, last_offset, last_rows = runs[-1]
            if last_artifact is artifact and last_offset + last_rows == offset:
                runs[-1] = (artifact, last_offset, last_rows + rows)
                continue
        runs.append((artifact, offset, rows))
    series: dict[str, Any] = {}
    for name in columns:
        slices = [
            artifact.series[name][offset : offset + rows]
            for artifact, offset, rows in runs
        ]
        if all(isinstance(piece, np.ndarray) for piece in slices):
            series[name] = np.concatenate(slices)
        else:
            # A column that is all-float in some inputs but not in
            # others merges as a list of plain cells.
            series[name] = [
                cell
                for piece in slices
                for cell in (
                    piece.tolist() if isinstance(piece, np.ndarray) else piece
                )
            ]
    return ShardArtifact(
        spec_digest=first.spec_digest,
        shard_count=first.shard_count,
        shard_indices=tuple(sorted(covered)),
        columns=columns,
        points=points,
        series=series,
    )


def resolve_artifact_paths(paths: Iterable[str | Path]) -> list[Path]:
    """Expand artifact paths: each entry is an artifact directory, or a
    directory containing ``*.repro-shard`` artifacts (scanned sorted)."""
    resolved: list[Path] = []
    for entry in paths:
        entry = Path(entry)
        if (entry / MANIFEST_NAME).is_file():
            resolved.append(entry)
            continue
        if entry.is_dir():
            found = sorted(
                child
                for child in entry.iterdir()
                if child.name.endswith(SHARD_SUFFIX) and child.is_dir()
            )
            if found:
                resolved.extend(found)
                continue
        raise ShardError(
            f"{entry}: neither a shard artifact nor a directory containing "
            f"*{SHARD_SUFFIX} artifacts"
        )
    return resolved


def read_artifacts(
    paths: Iterable[str | Path], strict: bool = True
) -> "tuple[list[ShardArtifact], list[tuple[Path, str]]]":
    """Resolve and read shard artifacts, optionally skipping broken ones.

    Returns ``(artifacts, skipped)`` where ``skipped`` is a list of
    ``(path, reason)`` pairs.  With ``strict`` (the default) the first
    unreadable artifact raises :class:`ShardError` and ``skipped`` is
    always empty — the historical behavior.  In lenient mode
    (``strict=False``, what ``repro merge-shards`` uses unless told
    ``--strict``) an unreadable or truncated artifact *directory* is
    skipped with a per-path warning and a summary listing, so one
    corrupt file from a crashed shard run no longer aborts the whole
    merge.  Path-resolution failures (a nonexistent entry, a directory
    with no artifacts in it) are operator typos, not partial-run damage,
    and stay hard errors in both modes.
    """
    resolved = resolve_artifact_paths(paths)
    artifacts: list[ShardArtifact] = []
    skipped: list[tuple[Path, str]] = []
    for path in resolved:
        try:
            artifacts.append(ShardArtifact.read(path))
        except ShardError as error:
            if strict:
                raise
            reason = str(error)
            _LOG.warning("skipping unreadable shard artifact: %s", reason)
            skipped.append((path, reason))
    if skipped:
        _LOG.warning(
            "skipped %d of %d artifact(s): %s",
            len(skipped),
            len(resolved),
            ", ".join(str(path) for path, _reason in skipped),
        )
    return artifacts, skipped


def read_and_merge(
    paths: Iterable[str | Path],
    require_complete: bool = True,
    strict: bool = True,
) -> "tuple[ShardArtifact, list[tuple[Path, str]]]":
    """Read and merge artifacts from disk: ``(merged, skipped)``.

    ``skipped`` lists the ``(path, reason)`` of every artifact a lenient
    read (``strict=False``) passed over — see :func:`read_artifacts`.
    With ``require_complete`` every shard of the plan must be present:
    missing indices raise :class:`ShardError` by name (a skipped
    artifact therefore surfaces as its shard being missing).
    """
    artifacts, skipped = read_artifacts(paths, strict=strict)
    if not artifacts:
        raise ShardError("no readable shard artifacts to merge")
    merged = merge_artifacts(artifacts)
    if require_complete and merged.missing:
        raise ShardError(
            f"missing shard(s) {merged.missing} of {merged.shard_count}; pass "
            "every artifact (or merge partially via merge_artifacts/"
            "`repro merge-shards --output`)"
        )
    return merged, skipped


def merge_shard_paths(
    paths: Iterable[str | Path],
    require_complete: bool = True,
    strict: bool = True,
) -> ShardArtifact:
    """The merged artifact of :func:`read_and_merge` (what
    :meth:`SweepResult.merge_shards
    <repro.experiments.result.SweepResult.merge_shards>` uses)."""
    return read_and_merge(paths, require_complete, strict)[0]


__all__ = [
    "MANIFEST_NAME",
    "NUMERIC_NAME",
    "OBJECT_NAME",
    "SHARD_SCHEMA",
    "SHARD_SUFFIX",
    "Shard",
    "ShardArtifact",
    "ShardError",
    "ShardPlan",
    "ShardRunner",
    "load_manifest",
    "merge_artifacts",
    "merge_shard_paths",
    "read_and_merge",
    "read_artifacts",
    "resolve_artifact_paths",
    "spec_digest",
    "verify_artifact_files",
]
