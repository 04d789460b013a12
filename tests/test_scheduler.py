"""Shard-merge leniency and shared-cache garbage collection.

Both are kept from the suite of the former ``repro launch`` scheduler
and keep their test ids: ``merge-shards`` without ``--strict`` skips
unreadable artifacts with a reason and merges the rest, and
``SharedCacheDir.gc`` (``repro cache gc``) evicts by age and by total
size, oldest first.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import pytest

from repro.experiments import (
    ShardRunner,
    SweepSpec,
)
from repro.experiments.cache import SharedCacheDir
from repro.experiments.sharding import (
    ShardError,
    merge_shard_paths,
    read_artifacts,
)

#: Two points (one workload x two chips) — over 3 shards, one shard is
#: empty and must still land/merge cleanly.
SPEC = SweepSpec(
    workloads=("dlrm-s-inference",),
    chips=("NPU-C", "NPU-D"),
    batch_sizes=(1,),
)
SHARDS = 3


@pytest.fixture()
def shard_paths(tmp_path) -> list[Path]:
    runner = ShardRunner(SPEC, SHARDS)
    return [runner.write(index, tmp_path / "shards") for index in range(SHARDS)]


class TestLenientMerge:
    def test_strict_aborts_on_first_unreadable(self, shard_paths):
        (shard_paths[1] / "manifest.json").write_text("{ truncated")
        with pytest.raises(ShardError, match="not a readable"):
            read_artifacts(shard_paths, strict=True)

    def test_lenient_skips_with_reasons_and_merges_the_rest(self, shard_paths):
        (shard_paths[1] / "manifest.json").write_text("{ truncated")
        artifacts, skipped = read_artifacts(shard_paths, strict=False)
        assert len(artifacts) == SHARDS - 1
        [(skipped_path, reason)] = skipped
        assert skipped_path == shard_paths[1] and "not a readable" in reason
        partial = merge_shard_paths(
            shard_paths, strict=False, require_complete=False
        )
        assert partial.shard_indices == (0, 2)

    def test_lenient_mode_keeps_resolution_failures_fatal(self, tmp_path):
        with pytest.raises(ShardError, match="neither a shard artifact"):
            read_artifacts([tmp_path / "does-not-exist"], strict=False)

    def test_merge_cli_reports_missing_indices_and_skips(
        self, shard_paths, tmp_path, capsys
    ):
        from repro.cli import main

        (shard_paths[1] / "manifest.json").write_text("{ truncated")
        code = main(
            [
                "merge-shards",
                *map(str, shard_paths),
                "--output",
                str(tmp_path / "partial.repro-shard"),
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "missing shards: [1]" in output
        assert "skipped" in output
        with pytest.raises(SystemExit, match="not a readable"):
            main(["merge-shards", *map(str, shard_paths), "--strict"])


class TestCacheGc:
    @staticmethod
    def _seed(root: Path, name: str, age_days: float, size: int = 4) -> Path:
        path = root / "rows" / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"x" * size)
        stamp = time.time() - age_days * 86400
        os.utime(path, (stamp, stamp))
        return path

    def test_age_eviction_and_tmp_ghosts(self, tmp_path):
        old = self._seed(tmp_path, "old.json", age_days=10)
        new = self._seed(tmp_path, "new.json", age_days=0)
        ghost = tmp_path / "profiles" / "x.pkl.tmp"
        ghost.parent.mkdir(parents=True)
        ghost.write_bytes(b"zz")
        shared = SharedCacheDir(tmp_path)
        dry = shared.gc(max_age_days=7, dry_run=True)
        assert dry.removed_files == 2 and old.exists() and ghost.exists()
        wet = shared.gc(max_age_days=7)
        assert wet.removed_files == 2 and wet.kept_files == 1
        assert not old.exists() and not ghost.exists() and new.exists()

    def test_size_eviction_is_lru_by_mtime(self, tmp_path):
        oldest = self._seed(tmp_path, "a.json", age_days=3, size=10)
        middle = self._seed(tmp_path, "b.json", age_days=2, size=10)
        newest = self._seed(tmp_path, "c.json", age_days=1, size=10)
        report = SharedCacheDir(tmp_path).gc(max_bytes=20)
        assert report.removed_files == 1 and report.kept_bytes == 20
        assert not oldest.exists() and middle.exists() and newest.exists()

    def test_cache_gc_cli(self, tmp_path, capsys):
        from repro.cli import main

        self._seed(tmp_path, "old.json", age_days=10)
        code = main(
            ["cache", "gc", str(tmp_path), "--max-age-days", "7", "--dry-run"]
        )
        assert code == 0
        assert "would remove 1" in capsys.readouterr().out
        assert (tmp_path / "rows" / "old.json").exists()
