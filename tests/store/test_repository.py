"""Tests for the sharded repository: ingest, checkpoints, crash recovery."""

import numpy as np
import pytest

from repro.cluster import quality_report
from repro.errors import ConfigurationError, SpecHDError
from repro.hdc import EncoderConfig
from repro.incremental import IncrementalClusterStore
from repro.pipeline import SpecHDConfig, SpecHDPipeline
from repro.store import (
    ClusterRepository,
    RepositoryConfig,
    RepositoryManifest,
    shard_for_bucket,
)


class TestShardMap:
    def test_contiguous_runs_share_a_shard(self):
        assert shard_for_bucket((2, 0), 4, 16) == shard_for_bucket((2, 15), 4, 16)
        assert shard_for_bucket((2, 16), 4, 16) == 1
        assert shard_for_bucket((2, 64), 4, 16) == 0  # cycles

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            RepositoryConfig(num_shards=0)
        with pytest.raises(ConfigurationError):
            RepositoryConfig(shard_width=0)
        with pytest.raises(ConfigurationError):
            RepositoryConfig(cluster_threshold=1.5)

    def test_config_has_no_kernel_tier(self):
        # Kernel selection is not a repository setting: there is one
        # numpy implementation of every packed-bit kernel.
        with pytest.raises(TypeError):
            RepositoryConfig(kernel_tier="numpy")


class TestLifecycle:
    def test_create_then_reopen_empty(self, tmp_path, repo_config):
        repository = ClusterRepository.create(tmp_path / "repo", repo_config)
        assert len(repository) == 0
        assert repository.num_clusters == 0
        reopened = ClusterRepository.open(tmp_path / "repo")
        assert len(reopened) == 0
        assert reopened.manifest.num_shards == 3

    def test_create_refuses_existing(self, tmp_path, repo_config):
        ClusterRepository.create(tmp_path / "repo", repo_config)
        with pytest.raises(SpecHDError, match="already contains"):
            ClusterRepository.create(tmp_path / "repo", repo_config)

    def test_open_requires_manifest(self, tmp_path):
        from repro.errors import ParseError

        with pytest.raises(ParseError, match="no manifest"):
            ClusterRepository.open(tmp_path / "nothing")


class TestIngest:
    def test_batches_spread_across_shards(
        self, tmp_path, repo_config, repo_dataset
    ):
        repository = ClusterRepository.create(tmp_path / "repo", repo_config)
        report = repository.add_batch(repo_dataset.spectra)
        assert report.num_added == len(repo_dataset)
        assert report.shards_touched > 1
        touched = [s for s in repository.shard_stats() if s["spectra"]]
        assert len(touched) > 1
        assert sum(s["spectra"] for s in repository.shard_stats()) == len(
            repository
        )

    def test_second_batch_absorbs(self, tmp_path, repo_config, repo_dataset):
        half = len(repo_dataset) // 2
        repository = ClusterRepository.create(tmp_path / "repo", repo_config)
        repository.add_batch(repo_dataset.spectra[:half])
        report = repository.add_batch(repo_dataset.spectra[half:])
        assert report.num_absorbed > report.num_added * 0.5

    def test_labels_match_ground_truth(
        self, tmp_path, repo_config, repo_dataset
    ):
        repository = ClusterRepository.create(tmp_path / "repo", repo_config)
        repository.add_batch(repo_dataset.spectra)
        quality = quality_report(
            repository.labels(), repo_dataset.labels[: len(repository)]
        )
        assert quality.incorrect_clustering_ratio < 0.05
        assert quality.clustered_spectra_ratio > 0.5

    def test_partition_matches_monolithic_store(
        self, tmp_path, repo_config, repo_dataset, repo_encoder, repo_threshold
    ):
        """Sharding must not change which spectra cluster together."""
        repository = ClusterRepository.create(tmp_path / "repo", repo_config)
        half = len(repo_dataset) // 2
        repository.add_batch(repo_dataset.spectra[:half])
        repository.add_batch(repo_dataset.spectra[half:])

        monolithic = IncrementalClusterStore(
            encoder_config=repo_encoder, cluster_threshold=repo_threshold
        )
        monolithic.add_batch(repo_dataset.spectra[:half])
        monolithic.add_batch(repo_dataset.spectra[half:])

        ours, theirs = repository.labels(), monolithic.labels()
        assert ours.size == theirs.size
        # Same partition up to label renaming: the pairing of labels is a
        # bijection in both directions.
        forward = {}
        backward = {}
        for mine, other in zip(ours, theirs):
            assert forward.setdefault(int(mine), int(other)) == int(other)
            assert backward.setdefault(int(other), int(mine)) == int(mine)


class TestEncodedIngest:
    def test_encode_only_store_feeds_ingest(
        self, tmp_path, repo_config, repo_dataset, repo_encoder, repo_threshold
    ):
        pipeline = SpecHDPipeline(
            SpecHDConfig(encoder=repo_encoder, cluster_threshold=repo_threshold)
        )
        store = pipeline.encode_only(repo_dataset.spectra)
        repository = ClusterRepository.create(tmp_path / "repo", repo_config)
        report = repository.add_store(store)
        assert report.num_added == len(store)
        assert len(repository) == len(store)
        assert repository.num_clusters > 0

    def test_encoded_ingest_survives_reopen(
        self, tmp_path, repo_config, repo_dataset, repo_encoder, repo_threshold
    ):
        pipeline = SpecHDPipeline(
            SpecHDConfig(encoder=repo_encoder, cluster_threshold=repo_threshold)
        )
        store = pipeline.encode_only(repo_dataset.spectra)
        repository = ClusterRepository.create(tmp_path / "repo", repo_config)
        repository.add_store(store)
        labels_before = repository.labels()
        reopened = ClusterRepository.open(tmp_path / "repo")
        np.testing.assert_array_equal(reopened.labels(), labels_before)

    def test_chunked_store_ingest_replays_identically(
        self, tmp_path, repo_config, repo_dataset, repo_encoder, repo_threshold
    ):
        """batch_rows journals bounded records without losing anything."""
        pipeline = SpecHDPipeline(
            SpecHDConfig(encoder=repo_encoder, cluster_threshold=repo_threshold)
        )
        store = pipeline.encode_only(repo_dataset.spectra)
        repository = ClusterRepository.create(tmp_path / "repo", repo_config)
        report = repository.add_store(store, batch_rows=10)
        assert report.num_added == len(store)
        assert report.shards_touched > 1
        labels_before = repository.labels()
        # Several bounded WAL records, not one monolithic one.
        assert len(list(repository._wal.replay())) == -(-len(store) // 10)
        reopened = ClusterRepository.open(tmp_path / "repo")
        np.testing.assert_array_equal(reopened.labels(), labels_before)

    def test_empty_store_ingest(self, tmp_path, repo_config, repo_encoder):
        from repro.io.hvstore import HypervectorStore

        repository = ClusterRepository.create(tmp_path / "repo", repo_config)
        empty = HypervectorStore.from_encoding(
            [], np.zeros((0, repo_encoder.dim // 64), dtype=np.uint64),
            dim=repo_encoder.dim, encoder_seed=repo_encoder.seed,
        )
        report = repository.add_store(empty)
        assert report.num_added == 0
        assert repository.wal_bytes() == 0

    def test_mismatched_store_rejected(self, tmp_path, repo_config, rng):
        from repro.io.hvstore import HypervectorStore

        repository = ClusterRepository.create(tmp_path / "repo", repo_config)
        wrong_dim = HypervectorStore(
            vectors=rng.integers(0, 2**63, (3, 8), dtype=np.uint64),
            precursor_mz=np.array([500.0, 501.0, 502.0]),
            charge=np.array([2, 2, 2], dtype=np.int16),
            labels=np.full(3, -1, dtype=np.int64),
            identifiers=["a", "b", "c"],
            dim=512,
        )
        with pytest.raises(ConfigurationError, match="dim"):
            repository.add_store(wrong_dim)
        wrong_seed = HypervectorStore(
            vectors=rng.integers(0, 2**63, (3, 16), dtype=np.uint64),
            precursor_mz=np.array([500.0, 501.0, 502.0]),
            charge=np.array([2, 2, 2], dtype=np.int16),
            labels=np.full(3, -1, dtype=np.int64),
            identifiers=["a", "b", "c"],
            dim=1024,
            encoder_seed=123,
        )
        with pytest.raises(ConfigurationError, match="seed"):
            repository.add_store(wrong_seed)


@pytest.mark.parametrize("backend", ["serial", "threads", "processes"])
class TestCrashConsistency:
    """The acceptance-criterion scenarios, per execution backend."""

    def _uninterrupted_labels(self, directory, repo_config, batches, backend):
        repository = ClusterRepository.create(
            directory, repo_config, execution_backend=backend, num_workers=2
        )
        for batch in batches:
            repository.add_batch(batch)
        return repository.labels()

    def test_wal_replay_matches_uninterrupted_run(
        self, tmp_path, repo_config, repo_dataset, backend
    ):
        half = len(repo_dataset) // 2
        batches = [
            repo_dataset.spectra[:half], repo_dataset.spectra[half:]
        ]
        expected = self._uninterrupted_labels(
            tmp_path / "straight", repo_config, batches, backend
        )

        # Crash scenario: checkpoint after batch 1; batch 2 reaches the
        # WAL but the process dies before the next checkpoint.
        crashed = ClusterRepository.create(
            tmp_path / "crashed", repo_config,
            execution_backend=backend, num_workers=2,
        )
        crashed.add_batch(batches[0])
        crashed.checkpoint()
        crashed.add_batch(batches[1])
        del crashed  # no checkpoint: state only in segments + WAL

        reopened = ClusterRepository.open(
            tmp_path / "crashed", execution_backend=backend, num_workers=2
        )
        np.testing.assert_array_equal(reopened.labels(), expected)

    def test_kill_after_wal_append_before_apply(
        self, tmp_path, repo_config, repo_dataset, backend
    ):
        """Dying right after the WAL fsync still replays the batch."""
        half = len(repo_dataset) // 2
        batches = [
            repo_dataset.spectra[:half], repo_dataset.spectra[half:]
        ]
        expected = self._uninterrupted_labels(
            tmp_path / "straight", repo_config, batches, backend
        )

        victim = ClusterRepository.create(
            tmp_path / "victim", repo_config,
            execution_backend=backend, num_workers=2,
        )
        victim.add_batch(batches[0])
        victim.checkpoint()
        # Simulate the narrowest crash window: the WAL record for batch 2
        # is durable but the in-memory apply never happened.
        victim._wal.append_spectra(victim._next_seq, batches[1])
        del victim

        reopened = ClusterRepository.open(
            tmp_path / "victim", execution_backend=backend, num_workers=2
        )
        np.testing.assert_array_equal(reopened.labels(), expected)

    def test_torn_wal_tail_drops_unacknowledged_batch(
        self, tmp_path, repo_config, repo_dataset, backend
    ):
        half = len(repo_dataset) // 2
        repository = ClusterRepository.create(
            tmp_path / "repo", repo_config,
            execution_backend=backend, num_workers=2,
        )
        repository.add_batch(repo_dataset.spectra[:half])
        expected = repository.labels()
        wal_path = repository._wal.path
        del repository
        # A half-written append (crash mid-write, never acknowledged).
        with open(wal_path, "ab") as handle:
            handle.write(b'{"crc": 0, "body": "{\\"seq\\": 99')
        reopened = ClusterRepository.open(tmp_path / "repo")
        np.testing.assert_array_equal(reopened.labels(), expected)

    def test_ingest_after_torn_tail_survives(
        self, tmp_path, repo_config, repo_dataset, backend
    ):
        """A batch acknowledged after crash recovery must replay."""
        half = len(repo_dataset) // 2
        batches = [
            repo_dataset.spectra[:half], repo_dataset.spectra[half:]
        ]
        expected = self._uninterrupted_labels(
            tmp_path / "straight", repo_config, batches, backend
        )

        repository = ClusterRepository.create(
            tmp_path / "repo", repo_config,
            execution_backend=backend, num_workers=2,
        )
        repository.add_batch(batches[0])
        wal_path = repository._wal.path
        del repository
        with open(wal_path, "ab") as handle:
            handle.write(b'{"crc": 0, "body": "{\\"seq\\": 99')
        # Reopen (recovers the torn tail), ingest batch 2, crash again.
        recovered = ClusterRepository.open(
            tmp_path / "repo", execution_backend=backend, num_workers=2
        )
        recovered.add_batch(batches[1])
        del recovered
        reopened = ClusterRepository.open(
            tmp_path / "repo", execution_backend=backend, num_workers=2
        )
        np.testing.assert_array_equal(reopened.labels(), expected)


class TestFailedApply:
    def test_failed_apply_poisons_until_reopen(
        self, tmp_path, repo_config, repo_dataset, monkeypatch
    ):
        """A survived mid-apply exception must not reach a checkpoint.

        The WAL record is durable, so reopening replays the batch in
        full; but the half-applied in-memory state may not be persisted.
        """
        half = len(repo_dataset) // 2
        repository = ClusterRepository.create(tmp_path / "repo", repo_config)
        repository.add_batch(repo_dataset.spectra[:half])

        victim_shard = repository.shard(0)
        original = victim_shard.add_batch

        def explode(*args, **kwargs):
            original(*args, **kwargs)  # shard 0 mutates, then we die
            raise RuntimeError("simulated failure mid-apply")

        monkeypatch.setattr(victim_shard, "add_batch", explode)
        with pytest.raises(RuntimeError, match="mid-apply"):
            repository.add_batch(repo_dataset.spectra[half:])

        # Torn state: every further mutation is refused ...
        with pytest.raises(SpecHDError, match="inconsistent"):
            repository.checkpoint()
        with pytest.raises(SpecHDError, match="inconsistent"):
            repository.add_batch(repo_dataset.spectra[:1])

        # ... and a reopen recovers the acknowledged batch from the WAL.
        reopened = ClusterRepository.open(tmp_path / "repo")
        straight = ClusterRepository.create(tmp_path / "straight", repo_config)
        straight.add_batch(repo_dataset.spectra[:half])
        straight.add_batch(repo_dataset.spectra[half:])
        np.testing.assert_array_equal(reopened.labels(), straight.labels())


class TestCheckpoint:
    def test_checkpoint_truncates_wal_and_prunes_generations(
        self, tmp_path, repo_config, repo_dataset
    ):
        repository = ClusterRepository.create(tmp_path / "repo", repo_config)
        half = len(repo_dataset) // 2
        repository.add_batch(repo_dataset.spectra[:half])
        assert repository.wal_bytes() > 0
        assert repository.checkpoint() == 1
        assert repository.wal_bytes() == 0
        repository.add_batch(repo_dataset.spectra[half:])
        assert repository.checkpoint() == 2
        generations = sorted(
            p.name for p in (tmp_path / "repo" / "segments").iterdir()
        )
        assert generations == ["gen-000002"]

    def test_checkpoint_sweeps_orphaned_generations(
        self, tmp_path, repo_config, repo_dataset
    ):
        """A crash between manifest swap and cleanup must not leak disk."""
        repository = ClusterRepository.create(tmp_path / "repo", repo_config)
        repository.add_batch(repo_dataset.spectra[: len(repo_dataset) // 2])
        repository.checkpoint()
        # Simulate the orphan a crash would leave: a stale generation dir
        # below the current one that normal cleanup never targeted.
        orphan = tmp_path / "repo" / "segments" / "gen-000000"
        orphan.mkdir()
        (orphan / "stale.bin").write_bytes(b"x" * 16)
        repository.add_batch(repo_dataset.spectra[len(repo_dataset) // 2 :])
        repository.checkpoint()
        generations = sorted(
            p.name for p in (tmp_path / "repo" / "segments").iterdir()
        )
        assert generations == ["gen-000002"]

    def test_reopen_from_checkpoint_continues_identically(
        self, tmp_path, repo_config, repo_dataset
    ):
        half = len(repo_dataset) // 2
        batches = [repo_dataset.spectra[:half], repo_dataset.spectra[half:]]

        straight = ClusterRepository.create(tmp_path / "a", repo_config)
        for batch in batches:
            straight.add_batch(batch)

        stopped = ClusterRepository.create(tmp_path / "b", repo_config)
        stopped.add_batch(batches[0])
        stopped.checkpoint()
        del stopped
        resumed = ClusterRepository.open(tmp_path / "b")
        resumed.add_batch(batches[1])
        np.testing.assert_array_equal(resumed.labels(), straight.labels())

    def test_manifest_counts_updated(self, tmp_path, repo_config, repo_dataset):
        repository = ClusterRepository.create(tmp_path / "repo", repo_config)
        repository.add_batch(repo_dataset.spectra)
        repository.checkpoint()
        manifest = RepositoryManifest.load(tmp_path / "repo")
        assert manifest.num_spectra == len(repository)
        assert manifest.num_clusters == repository.num_clusters
        assert sum(manifest.shard_counts.values()) == len(repository)


def _sidecars(directory, generation):
    gen_dir = ClusterRepository._generation_dir(directory, generation)
    return sorted(gen_dir.glob("shard-*.index.npz"))


def _medoid_vectors(repository, shard_id):
    shard = repository.shard(shard_id)
    rows = shard.medoid_rows()
    return shard.vectors_at([rows[label] for label in sorted(rows)])


def _write_v1_sidecar(path, index, vectors):
    """Overwrite ``path`` with the transposed-plane (v1) index layout."""
    import json

    from repro.hdc import extract_bit_columns, pack_bits

    planes = pack_bits(extract_bit_columns(vectors, index.positions).T)
    np.savez(
        path,
        positions=index.positions,
        planes=planes,
        meta=np.array(json.dumps(
            {"format_version": 1, "dim": index.dim, "count": index.count}
        )),
    )


class TestQueryIndexSidecars:
    @pytest.fixture()
    def indexed_config(self, repo_config):
        from dataclasses import replace

        return replace(repo_config, index_min_medoids=1)

    def test_default_checkpoint_writes_no_sidecar(
        self, tmp_path, repo_config, repo_dataset
    ):
        from repro.store.index import DEFAULT_MIN_MEDOIDS

        assert DEFAULT_MIN_MEDOIDS == 16384
        repository = ClusterRepository.create(tmp_path / "repo", repo_config)
        repository.add_batch(repo_dataset.spectra)
        generation = repository.checkpoint()
        manifest = RepositoryManifest.load(tmp_path / "repo")
        assert manifest.query_index["min_medoids"] == DEFAULT_MIN_MEDOIDS
        assert _sidecars(tmp_path / "repo", generation) == []
        assert not any(name.endswith(".index.npz") for name in manifest.integrity)
        assert all(
            repository.cached_query_index(shard_id) is None
            for shard_id in range(repository.num_shards)
        )

    def test_forced_checkpoint_writes_v2_sidecars(
        self, tmp_path, indexed_config, repo_dataset
    ):
        import json

        from repro.store import BitSliceMedoidIndex

        repository = ClusterRepository.create(tmp_path / "repo", indexed_config)
        repository.add_batch(repo_dataset.spectra)
        generation = repository.checkpoint()
        paths = _sidecars(tmp_path / "repo", generation)
        assert len(paths) == repository.num_shards
        for shard_id, path in enumerate(paths):
            with np.load(path) as archive:
                assert json.loads(str(archive["meta"]))["format_version"] == 2
                assert "planes" not in archive.files
            restored = BitSliceMedoidIndex.load(path)
            cached = repository.cached_query_index(shard_id)
            rebuilt = BitSliceMedoidIndex.build(
                _medoid_vectors(repository, shard_id),
                repository.encoder.dim,
                probe_bits=restored.probe_bits,
            )
            np.testing.assert_array_equal(restored.probe, cached.probe)
            np.testing.assert_array_equal(restored.probe, rebuilt.probe)

    def test_v1_sidecar_generation_opens_and_serves(
        self, tmp_path, indexed_config, repo_dataset
    ):
        from repro.store import QueryService, RepositorySnapshot
        from repro.store.integrity import integrity_records

        directory = tmp_path / "repo"
        repository = ClusterRepository.create(directory, indexed_config)
        repository.add_batch(repo_dataset.spectra)
        generation = repository.checkpoint()
        with QueryService(repository, use_index=False) as service:
            dense = service.query(repo_dataset.spectra, k=4)
        for shard_id, path in enumerate(_sidecars(directory, generation)):
            _write_v1_sidecar(
                path,
                repository.cached_query_index(shard_id),
                _medoid_vectors(repository, shard_id),
            )
        # Record the v1 bytes in the manifest, as a v1 checkpoint did.
        manifest = RepositoryManifest.load(directory)
        manifest.integrity = integrity_records(
            ClusterRepository._generation_dir(directory, generation)
        )
        manifest.save(directory)
        repository.close()

        reopened = ClusterRepository.open(directory, verify="full")
        assert all(
            reopened.cached_query_index(shard_id) is None
            for shard_id in range(reopened.num_shards)
        )
        with QueryService(reopened) as service:
            assert service.query(repo_dataset.spectra, k=4) == dense
        reopened.close()
        with RepositorySnapshot.open(directory, verify="full") as snapshot:
            assert all(
                snapshot.cached_query_index(shard_id) is None
                for shard_id in range(snapshot.num_shards)
            )
            with QueryService(snapshot) as service:
                assert service.query(repo_dataset.spectra, k=4) == dense
