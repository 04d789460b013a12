"""Sharded sweep execution: equivalence, properties and the shared cache.

The sharding subsystem's contract is the same hard one every fast path
in this tree carries: a sharded run, merged, is **byte-identical** to
the monolithic run — array equality on the packed store and identical
``iter_csv`` bytes — for every shard count, including counts larger
than the grid.  The suite also pins the planner's partition properties
(disjoint, covering, order-stable, chip-major) and merge's algebra
(permutation-invariant, associative, idempotent) with hypothesis, and
exercises the cross-run shared cache under concurrent writers and
corrupted entries.

Everything here must pass under ``REPRO_FAST_PATH=0`` too (CI runs the
file both ways).
"""

from __future__ import annotations

import json
import multiprocessing
import shutil
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments import (
    ShardArtifact,
    ShardError,
    ShardPlan,
    ShardRunner,
    SharedCacheDir,
    SimulationCache,
    SweepResult,
    SweepRunner,
    SweepSpec,
    merge_artifacts,
    merge_shard_paths,
    spec_digest,
)
from repro.gating.bet import DEFAULT_PARAMETERS
from repro.simulator.engine import NPUSimulator

#: The equivalence matrices: the multi-axis grids the existing runner /
#: grid-kernel suites sweep, here sharded at several counts.
SPECS = {
    "multi_chip": SweepSpec(
        workloads=("llama3-8b-prefill", "llama3-8b-decode", "dlrm-s-inference"),
        chips=("NPU-C", "NPU-D"),
        batch_sizes=(1,),
    ),
    "gating_grid": SweepSpec(
        workloads=("llama3-8b-decode",),
        chips=("NPU-D",),
        batch_sizes=(1,),
        gating_parameters=tuple(
            (f"x{multiplier}", DEFAULT_PARAMETERS.with_delay_multiplier(multiplier))
            for multiplier in (1.0, 2.0, 4.0)
        ),
    ),
}

SHARD_COUNTS = (1, 2, 3, 7)  # 7 > num_points of gating_grid: empty shards


def _profile_warm_cache(source: SimulationCache) -> SimulationCache:
    """A fresh cache pre-warmed with ``source``'s profiles only.

    Keeps the suite fast (profiles dominate the cost) while every
    report and row is still *recomputed* by the shard under test — a
    shared row cache would let the merge trivially echo the monolithic
    rows instead of proving independent shards reproduce them.
    """
    cache = SimulationCache()
    cache._profiles.update(source._profiles)
    return cache


@pytest.fixture(scope="module")
def profile_caches():
    """One profile-holding cache per spec, shared across the module."""
    return {name: SimulationCache() for name in SPECS}


@pytest.fixture(scope="module")
def monolithic(profile_caches):
    """The monolithic oracle tables, one per spec."""
    return {
        name: SweepRunner(spec, cache=profile_caches[name]).run()
        for name, spec in SPECS.items()
    }


class TestShardedEquivalence:
    @pytest.mark.parametrize("name", sorted(SPECS))
    @pytest.mark.parametrize("count", SHARD_COUNTS)
    def test_merge_is_byte_identical_to_monolithic(
        self, name, count, monolithic, profile_caches, tmp_path
    ):
        spec, oracle = SPECS[name], monolithic[name]
        paths = []
        for index in range(count):
            runner = ShardRunner(
                spec, count, cache=_profile_warm_cache(profile_caches[name])
            )
            paths.append(runner.write(index, tmp_path))
        merged = SweepResult.merge_shards(paths)
        # Array equality on the packed store: same columns, same value
        # tuples, in the monolithic order.
        assert merged.columns == oracle.columns
        assert merged._values == oracle._values
        assert merged == oracle
        # And the streamed CSV bytes are identical.
        assert "".join(merged.iter_csv()) == "".join(oracle.iter_csv())

    def test_empty_shards_merge_cleanly(self, monolithic, profile_caches, tmp_path):
        """count > num_points: surplus shards are empty but still count."""
        spec = SPECS["gating_grid"]
        count = 7
        assert spec.num_points < count
        runner = ShardRunner(
            spec, count, cache=_profile_warm_cache(profile_caches["gating_grid"])
        )
        sizes = [len(shard.point_indices) for shard in runner.plan]
        assert sizes.count(0) == count - spec.num_points
        empty_index = sizes.index(0)
        artifact = runner.run(empty_index)
        assert artifact.row_count == 0 and artifact.columns == ()
        path = artifact.write(tmp_path)
        reloaded = ShardArtifact.read(path)
        assert reloaded.row_count == 0
        assert reloaded.shard_indices == (empty_index,)


class TestShardPlan:
    WORKLOAD_POOL = (
        "llama3-8b-prefill",
        "llama3-8b-decode",
        "llama3-70b-prefill",
        "dlrm-s-inference",
        "gligen-inference",
    )
    CHIP_POOL = ("NPU-A", "NPU-B", "NPU-C", "NPU-D")

    @staticmethod
    @st.composite
    def specs(draw):
        workloads = draw(
            st.lists(
                st.sampled_from(TestShardPlan.WORKLOAD_POOL),
                min_size=1, max_size=3, unique=True,
            )
        )
        chips = draw(
            st.lists(
                st.sampled_from(TestShardPlan.CHIP_POOL),
                min_size=1, max_size=3, unique=True,
            )
        )
        batch_sizes = draw(st.sampled_from([(None,), (1,), (1, 4)]))
        return SweepSpec(
            workloads=tuple(workloads), chips=tuple(chips), batch_sizes=batch_sizes
        )

    @given(spec=specs(), count=st.integers(min_value=1, max_value=12))
    @settings(max_examples=40, deadline=None)
    def test_plan_is_a_partition(self, spec, count):
        plan = ShardPlan(spec, count)
        indices = [i for shard in plan for i in shard.point_indices]
        # Disjoint and covering: every point exactly once.
        assert sorted(indices) == list(range(spec.num_points))
        # Balanced: sizes differ by at most one point.
        sizes = [len(shard.point_indices) for shard in plan]
        assert max(sizes) - min(sizes) <= 1
        # Chip-major: cutting the chip-major order into contiguous runs
        # can split at most (chips - 1) shards across a chip boundary.
        points = spec.points()
        excess = sum(
            len({points[i].config.chip for i in shard.point_indices}) - 1
            for shard in plan
            if shard.point_indices
        )
        assert excess <= len(spec.chips) - 1

    @given(spec=specs(), count=st.integers(min_value=1, max_value=12))
    @settings(max_examples=20, deadline=None)
    def test_plan_is_deterministic_and_content_addressed(self, spec, count):
        first, second = ShardPlan(spec, count), ShardPlan(spec, count)
        assert first.digest == second.digest == spec_digest(spec)
        assert [shard.key for shard in first] == [shard.key for shard in second]
        assert [shard.point_indices for shard in first] == [
            shard.point_indices for shard in second
        ]

    @given(
        spec=specs(),
        counts=st.lists(
            st.integers(min_value=1, max_value=12), min_size=2, max_size=3
        ),
    )
    @settings(max_examples=20, deadline=None)
    def test_point_order_is_stable_under_shard_count(self, spec, counts):
        """The global chip-major order does not depend on the count."""
        orders = [
            [i for shard in ShardPlan(spec, count) for i in shard.point_indices]
            for count in counts
        ]
        assert all(order == orders[0] for order in orders)

    def test_shard_keys_are_version_stamped(self, monkeypatch):
        from repro.experiments import keys

        spec = SPECS["gating_grid"]
        current = ShardPlan(spec, 2)[0].key
        monkeypatch.setattr(keys, "CACHE_SCHEMA_VERSION", "0.0.0-other")
        assert ShardPlan(spec, 2)[0].key != current

    def test_invalid_count_rejected(self):
        with pytest.raises(ValueError, match="shard count"):
            ShardPlan(SPECS["gating_grid"], 0)


@pytest.fixture(scope="module")
def shard_artifacts(tmp_path_factory, profile_caches):
    """The gating_grid spec written as 3 shard artifacts (plus oracle)."""
    spec = SPECS["gating_grid"]
    root = tmp_path_factory.mktemp("shards")
    paths = []
    for index in range(3):
        runner = ShardRunner(
            spec, 3, cache=_profile_warm_cache(profile_caches["gating_grid"])
        )
        paths.append(runner.write(index, root))
    oracle = merge_shard_paths(paths).result()
    return paths, oracle


class TestMergeAlgebra:
    @given(order=st.permutations(range(3)))
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_merge_is_permutation_invariant(self, order, shard_artifacts):
        paths, oracle = shard_artifacts
        merged = SweepResult.merge_shards([paths[i] for i in order])
        assert merged._values == oracle._values
        assert merged.columns == oracle.columns

    @given(
        duplicates=st.lists(st.integers(min_value=0, max_value=2), max_size=4)
    )
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_merge_is_idempotent_under_duplicates(self, duplicates, shard_artifacts):
        paths, oracle = shard_artifacts
        repeated = list(paths) + [paths[i] for i in duplicates]
        merged = SweepResult.merge_shards(repeated)
        assert merged._values == oracle._values

    @given(split=st.integers(min_value=1, max_value=2))
    @settings(
        max_examples=4,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_merge_is_associative_via_partial_merges(
        self, split, shard_artifacts, tmp_path
    ):
        """merge(merge(prefix), suffix) == merge(everything)."""
        paths, oracle = shard_artifacts
        prefix = [ShardArtifact.read(path) for path in paths[:split]]
        partial = merge_artifacts(prefix)
        partial_path = partial.write(tmp_path)
        merged = SweepResult.merge_shards([partial_path, *paths[split:]])
        assert merged._values == oracle._values
        # ... and re-merging a partial merge with one of its own inputs
        # still deduplicates (point-level idempotence).
        again = SweepResult.merge_shards([partial_path, *paths[split:], paths[0]])
        assert again._values == oracle._values


class TestMergeValidation:
    def test_missing_shards_reported_by_index(self, shard_artifacts):
        paths, _oracle = shard_artifacts
        with pytest.raises(ShardError, match=r"missing shard\(s\) \[1\]"):
            merge_shard_paths([paths[0], paths[2]])

    def test_partial_merge_allowed_without_completeness(self, shard_artifacts):
        paths, oracle = shard_artifacts
        partial = merge_shard_paths([paths[0], paths[2]], require_complete=False)
        assert partial.shard_indices == (0, 2)
        assert 0 < partial.row_count < len(oracle)
        assert sum(rows for _i, _k, rows in partial.points) == partial.row_count

    def test_foreign_spec_digest_rejected(self, shard_artifacts, tmp_path):
        paths, _oracle = shard_artifacts
        foreign = ShardArtifact.read(paths[1])
        foreign.spec_digest = "0" * 32
        foreign_path = foreign.write(tmp_path)
        with pytest.raises(ShardError, match="foreign shard"):
            merge_shard_paths([paths[0], foreign_path, paths[2]])

    def test_foreign_shard_count_rejected(self, shard_artifacts, tmp_path):
        paths, _oracle = shard_artifacts
        foreign = ShardArtifact.read(paths[1])
        foreign.shard_count = 5
        foreign_path = foreign.write(tmp_path / "odd")
        with pytest.raises(ShardError, match="planned for 5"):
            merge_shard_paths([paths[0], foreign_path, paths[2]])

    def test_duplicate_but_different_shard_rejected(self, shard_artifacts, tmp_path):
        paths, _oracle = shard_artifacts
        tampered = ShardArtifact.read(paths[1])
        row = list(tampered.values[0])
        column = tampered.columns.index("total_energy_j")
        row[column] = row[column] * 2.0
        tampered.values[0] = tuple(row)
        tampered_path = tampered.write(tmp_path)
        with pytest.raises(ShardError, match="duplicate shard data"):
            merge_shard_paths([*paths, tampered_path])

    def test_unreadable_artifact_rejected(self, tmp_path):
        bogus = tmp_path / "bogus.repro-shard"
        bogus.mkdir()
        (bogus / "manifest.json").write_text("{ truncated")
        with pytest.raises(ShardError, match="not a readable shard artifact"):
            ShardArtifact.read(bogus)
        with pytest.raises(ShardError, match="neither a shard artifact"):
            merge_shard_paths([tmp_path / "does-not-exist"])

    def test_manifest_is_self_describing(self, shard_artifacts):
        from repro import __version__

        paths, _oracle = shard_artifacts
        manifest = json.loads((paths[0] / "manifest.json").read_text())
        assert manifest["kind"] == "repro-shard"
        assert manifest["version"] == __version__
        assert manifest["shard_count"] == 3
        assert manifest["shard_indices"] == [0]
        assert manifest["spec_digest"] == spec_digest(SPECS["gating_grid"])
        assert sum(entry["rows"] for entry in manifest["points"]) == (
            manifest["row_count"]
        )
        # Float columns live in the npz store, everything else in JSON.
        assert "total_energy_j" in manifest["numeric_columns"]
        assert "workload" not in manifest["numeric_columns"]


class TestContentDigests:
    """The manifest's per-file SHA-256 digests gate every transfer."""

    def test_manifest_records_digests_and_verification_passes(
        self, shard_artifacts
    ):
        from repro.experiments.sharding import verify_artifact_files

        paths, _oracle = shard_artifacts
        for path in paths:
            manifest = json.loads((path / "manifest.json").read_text())
            assert set(manifest["files"]) >= {"columns.json"}
            assert all(
                digest.startswith("sha256:")
                for digest in manifest["files"].values()
            )
            verify_artifact_files(path)  # freshly written == intact

    def test_single_corrupt_byte_is_detected(self, shard_artifacts, tmp_path):
        from repro.experiments.sharding import verify_artifact_files

        source, _oracle = shard_artifacts
        torn = tmp_path / "torn.repro-shard"
        shutil.copytree(source[0], torn)
        target = torn / "columns.npy"
        if not target.exists():
            target = torn / "columns.json"
        blob = bytearray(target.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        target.write_bytes(bytes(blob))
        with pytest.raises(ShardError, match="content digest mismatch"):
            verify_artifact_files(torn)

    @pytest.mark.parametrize("damage", ["truncated", "rewritten"])
    def test_truncated_or_rewritten_store_is_detected(
        self, shard_artifacts, tmp_path, damage
    ):
        """A short copy, or a store swapped for another shard's valid
        one, must not verify against the manifest it travelled with."""
        from repro.experiments.sharding import verify_artifact_files

        source, _oracle = shard_artifacts
        copied = Path(shutil.copytree(source[0], tmp_path / source[0].name))
        target = copied / "columns.json"
        if damage == "truncated":
            target.write_bytes(target.read_bytes()[: target.stat().st_size // 2])
        else:
            other = (source[1] / "columns.json").read_bytes()
            assert other != target.read_bytes()
            target.write_bytes(other)
        with pytest.raises(ShardError, match="content digest mismatch on columns.json"):
            verify_artifact_files(copied)
        verify_artifact_files(source[0])  # the original is untouched

    def test_predigest_artifacts_only_fail_when_required(
        self, shard_artifacts, tmp_path
    ):
        from repro.experiments.sharding import verify_artifact_files

        source, _oracle = shard_artifacts
        legacy = tmp_path / "legacy.repro-shard"
        shutil.copytree(source[0], legacy)
        manifest = json.loads((legacy / "manifest.json").read_text())
        del manifest["files"]
        (legacy / "manifest.json").write_text(json.dumps(manifest))
        verify_artifact_files(legacy, require=False)  # pre-digest schema: ok
        with pytest.raises(ShardError, match="no content digests"):
            verify_artifact_files(legacy)


# ---------------------------------------------------------------------- #
# The cross-run shared cache
# ---------------------------------------------------------------------- #
def _spam_shared_writes(root, key, payload, repeats):
    """Worker: hammer one shared-cache entry with whole-value writes."""
    shared = SharedCacheDir(root)
    for _ in range(repeats):
        shared.put_json("rows", key, payload)


class TestSharedCache:
    def test_shards_reuse_each_others_simulate_misses(self, tmp_path):
        spec = SPECS["gating_grid"]
        shared = tmp_path / "shared"
        first = ShardRunner(spec, 2, cache=SimulationCache(shared_dir=shared))
        cold = first.run(0)
        NPUSimulator.reset_simulate_calls()
        # A different process/machine is modelled by a brand-new cache
        # object over the same shared directory.
        second = ShardRunner(spec, 2, cache=SimulationCache(shared_dir=shared))
        warm = second.run(0)
        assert NPUSimulator.simulate_calls == 0
        assert warm.values == cold.values

    def test_shared_profile_roundtrip_is_bit_identical(self, tmp_path):
        """Rows recomputed from a *reloaded* shared profile equal the
        original's exactly (the portable-pickle contract), with zero
        new simulate calls."""
        spec = SPECS["gating_grid"]
        shared = tmp_path / "shared"
        baseline = ShardRunner(spec, 1, cache=SimulationCache()).run(0)
        ShardRunner(spec, 1, cache=SimulationCache(shared_dir=shared)).run(0)
        # A shared dir holding ONLY the profile layer: reports and rows
        # must be recomputed from the pickled profiles.
        profiles_only = tmp_path / "profiles-only"
        profiles_only.mkdir()
        shutil.copytree(shared / "profiles", profiles_only / "profiles")
        NPUSimulator.reset_simulate_calls()
        reloaded = ShardRunner(
            spec, 1, cache=SimulationCache(shared_dir=profiles_only)
        ).run(0)
        assert NPUSimulator.simulate_calls == 0
        assert reloaded.values == baseline.values

    def test_corrupted_entries_fall_back_to_miss(self, tmp_path):
        spec = SPECS["gating_grid"]
        shared_root = tmp_path / "shared"
        ShardRunner(spec, 1, cache=SimulationCache(shared_dir=shared_root)).run(0)
        # Corrupt every entry: truncated JSON and garbage pickles.
        corrupted = 0
        for entry in shared_root.rglob("*.json"):
            entry.write_text("{ torn mid-write")
            corrupted += 1
        for entry in shared_root.rglob("*.pkl"):
            entry.write_bytes(b"\x80\x05 garbage")
            corrupted += 1
        assert corrupted
        cache = SimulationCache(shared_dir=shared_root)
        NPUSimulator.reset_simulate_calls()
        rerun = ShardRunner(spec, 1, cache=cache).run(0)
        assert NPUSimulator.simulate_calls > 0  # misses, not crashes
        baseline = ShardRunner(spec, 1, cache=SimulationCache()).run(0)
        assert rerun.values == baseline.values

    def test_concurrent_writers_never_tear_an_entry(self, tmp_path):
        """Two processes racing on one entry: every read is a complete
        payload from one writer (atomic rename), never interleaved."""
        payload_a = {"columns": ["x"], "values": [[1.0] * 200]}
        payload_b = {"columns": ["x"], "values": [[2.0] * 200]}
        workers = [
            multiprocessing.Process(
                target=_spam_shared_writes, args=(tmp_path, "entry", payload, 200)
            )
            for payload in (payload_a, payload_b)
        ]
        for worker in workers:
            worker.start()
        shared = SharedCacheDir(tmp_path)
        deadline = time.monotonic() + 30.0
        try:
            while any(worker.is_alive() for worker in workers):
                assert time.monotonic() < deadline, "writers wedged"
                value = shared.get_json("rows", "entry")
                if value is not None:
                    assert value in (payload_a, payload_b)
        finally:
            for worker in workers:
                worker.join(timeout=30)
        assert all(worker.exitcode == 0 for worker in workers)
        # Last writer wins with a complete payload either way.
        assert shared.get_json("rows", "entry") in (payload_a, payload_b)


class TestShardCli:
    def test_shard_merge_cli_roundtrip(self, tmp_path, capsys):
        from repro.cli import main

        base = [
            "sweep", "-w", "llama3-8b-decode", "--chip", "NPU-D",
            "--batch-size", "1",
        ]
        for index in range(2):
            code = main(
                base
                + [
                    "--shard", f"{index}/2",
                    "--shard-dir", str(tmp_path / "shards"),
                    "--shared-cache", str(tmp_path / "shared"),
                ]
            )
            assert code == 0
        out = capsys.readouterr().out
        assert "shard written" in out
        mono_csv = tmp_path / "mono.csv"
        assert main(base + ["--csv", str(mono_csv)]) == 0
        merged_csv = tmp_path / "merged.csv"
        code = main(
            ["merge-shards", str(tmp_path / "shards"), "--csv", str(merged_csv)]
        )
        assert code == 0
        assert merged_csv.read_bytes() == mono_csv.read_bytes()

    def test_shard_flag_validation(self, tmp_path, capsys):
        from repro.cli import main

        base = ["sweep", "-w", "llama3-8b-decode"]
        cases = [
            (["--shard", "nonsense", "--shard-dir", str(tmp_path)], "expects I/N"),
            (["--shard", "3/3", "--shard-dir", str(tmp_path)], "0 <= I < N"),
            (["--shard", "0/3"], "requires --shard-dir"),
            # The mirror image: --shard-dir without --shard is a likely
            # scripting mistake, not a silent monolithic run.
            (["--shard-dir", str(tmp_path)], "--shard-dir requires --shard"),
        ]
        for flags, message in cases:
            with pytest.raises(SystemExit) as exit_info:
                main(base + flags)
            assert exit_info.value.code == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and message in err, err

    def test_merge_cli_partial_output_then_complete(self, shard_artifacts, tmp_path):
        from repro.cli import main

        paths, oracle = shard_artifacts
        partial_dir = tmp_path / "partial.repro-shard"
        code = main(
            ["merge-shards", str(paths[0]), str(paths[1]), "--output", str(partial_dir)]
        )
        assert code == 0
        merged_csv = tmp_path / "merged.csv"
        code = main(
            ["merge-shards", str(partial_dir), str(paths[2]), "--csv", str(merged_csv)]
        )
        assert code == 0
        assert merged_csv.read_text() == oracle.to_csv()

    def test_merge_cli_missing_shard_exits_with_message(self, shard_artifacts):
        from repro.cli import main

        paths, _oracle = shard_artifacts
        with pytest.raises(SystemExit, match=r"missing shard\(s\)"):
            main(["merge-shards", str(paths[0])])
