"""Pins for the batched query engine against the PR 2 reference path.

The engine rewrite changed *how* results are computed (one cross-Hamming
pass + argpartition per shard, one vectorised lexsort for the global
merge, optional bit-slice pruning, snapshot shipping on ``processes``)
but must not change a single byte of *what* is returned.  These tests
hold the new path byte-identical to the retained PR 2 implementation —
most importantly on tie-heavy inputs, where any deviation in the
(distance, shard, label) order would surface — across all execution
backends and with the index forced on and off.
"""

import numpy as np
import pytest

from repro.hdc import EncoderConfig, random_hypervectors
from repro.io.hvstore import HypervectorStore
from repro.store import ClusterRepository, QueryService, RepositoryConfig

BACKENDS = ["serial", "threads", "processes"]


@pytest.fixture(scope="module")
def tie_heavy(tmp_path_factory):
    """A repository whose clusters share identical medoid hypervectors.

    Precursor masses route the rows to different buckets (and therefore
    different shards), but many rows carry the *same* packed vector, so
    every query produces distance ties across shards and labels — the
    adversarial input for merge determinism.
    """
    config = RepositoryConfig(
        num_shards=3,
        shard_width=1,
        encoder=EncoderConfig(dim=256, mz_bins=4_000, intensity_levels=16),
        cluster_threshold=0.3,
    )
    directory = tmp_path_factory.mktemp("tie-heavy") / "repo"
    repository = ClusterRepository.create(directory, config)
    rng = np.random.default_rng(99)
    distinct = random_hypervectors(8, 256, rng)
    vectors = distinct[np.arange(48) % 8]  # every vector repeated 6x
    store = HypervectorStore(
        vectors=vectors,
        precursor_mz=np.array([300.0 + 0.7 * i for i in range(48)]),
        charge=np.full(48, 2, dtype=np.int16),
        labels=np.full(48, -1, dtype=np.int64),
        identifiers=[f"m{i}" for i in range(48)],
        dim=256,
        encoder_seed=config.encoder.seed,
    )
    repository.add_store(store)
    queries = np.vstack([distinct, random_hypervectors(8, 256, rng)])
    return repository, queries


class TestBatchedEqualsReference:
    def test_shard_scan_tasks_are_byte_identical(self, tie_heavy, rng):
        from repro.store.query import (
            _shard_topk_reference,
            _shard_topk_task,
        )

        repository, queries = tie_heavy
        with QueryService(repository) as service:
            service._refresh_indexes()
            shards = [i for i in service._indexes if i.local_labels]
        assert len(shards) >= 2, "tie-heavy fixture should span shards"
        for shard in shards:
            for k in (1, 3, 100):
                reference = _shard_topk_reference(
                    shard.medoid_vectors, queries, k
                )
                batched = _shard_topk_task(
                    ("arrays", shard.medoid_vectors, None, queries, k)
                )
                np.testing.assert_array_equal(batched[0], reference[0])
                np.testing.assert_array_equal(batched[1], reference[1])

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("use_index", [None, True, False])
    def test_merge_byte_identical_on_ties(
        self, tie_heavy, backend, use_index
    ):
        repository, queries = tie_heavy
        with QueryService(repository) as oracle:
            expected = oracle.query_vectors_reference(queries, k=6)
        with QueryService(
            repository,
            execution_backend=backend,
            num_workers=2,
            use_index=use_index,
            index_min_medoids=1,
            inline_batch_threshold=0,  # force the fan-out path
        ) as service:
            actual = service.query_vectors(queries, k=6)
        assert actual == expected

    def test_inline_path_identical_to_fanout(self, tie_heavy):
        repository, queries = tie_heavy
        with QueryService(repository) as inline_service:
            inline = inline_service.query_vectors(queries, k=4)
        with QueryService(
            repository,
            execution_backend="threads",
            num_workers=2,
            inline_batch_threshold=0,
        ) as fanout_service:
            fanned = fanout_service.query_vectors(queries, k=4)
        assert inline == fanned

    def test_k_zero_yields_empty_lists(self, tie_heavy):
        repository, queries = tie_heavy
        with QueryService(repository) as service:
            assert service.query_vectors(queries, k=0) == (
                service.query_vectors_reference(queries, k=0)
            )
            assert service.query_vectors(queries, k=0) == [
                [] for _ in range(len(queries))
            ]

    def test_small_batches_scan_inline(self, tie_heavy):
        repository, queries = tie_heavy
        with QueryService(
            repository,
            execution_backend="threads",
            num_workers=2,
            inline_batch_threshold=len(queries),
        ) as service:
            # Below the threshold no snapshot/pool dispatch happens; the
            # results must still match the reference path.
            expected = service.query_vectors_reference(queries, k=3)
            assert service.query_vectors(queries, k=3) == expected


class TestProcessesSnapshots:
    def test_snapshots_written_once_per_version(self, tie_heavy):
        import os

        repository, queries = tie_heavy
        with QueryService(
            repository,
            execution_backend="processes",
            num_workers=2,
            inline_batch_threshold=0,
        ) as service:
            expected = service.query_vectors_reference(queries, k=5)
            first = service.query_vectors(queries, k=5)
            snapshot_dir = service._snapshot_dir
            assert snapshot_dir is not None
            names = sorted(os.listdir(snapshot_dir))
            assert names, "processes backend should persist shard snapshots"
            assert all(f"-v{repository.version}" in name for name in names)
            stamps = {
                name: os.path.getmtime(os.path.join(snapshot_dir, name))
                for name in names
            }
            second = service.query_vectors(queries, k=5)
            assert sorted(os.listdir(snapshot_dir)) == names
            for name in names:
                assert os.path.getmtime(
                    os.path.join(snapshot_dir, name)
                ) == stamps[name], "snapshot rewritten within one version"
        assert first == expected
        assert second == expected


class TestCheckpointedIndex:
    def test_reopen_reuses_checkpointed_index(self, tmp_path, rng):
        config = RepositoryConfig(
            num_shards=2,
            shard_width=1,
            encoder=EncoderConfig(
                dim=256, mz_bins=4_000, intensity_levels=16
            ),
            index_min_medoids=1,
            index_probe_bits=32,
        )
        repository = ClusterRepository.create(tmp_path / "repo", config)
        vectors = random_hypervectors(40, 256, rng)
        store = HypervectorStore(
            vectors=vectors,
            precursor_mz=np.array([300.0 + 0.7 * i for i in range(40)]),
            charge=np.full(40, 2, dtype=np.int16),
            labels=np.full(40, -1, dtype=np.int64),
            identifiers=[f"m{i}" for i in range(40)],
            dim=256,
            encoder_seed=config.encoder.seed,
        )
        repository.add_store(store)
        assert repository.cached_query_index(0) is None
        repository.checkpoint()
        cached = repository.cached_query_index(0)
        assert cached is not None and cached.probe_bits == 32

        reopened = ClusterRepository.open(tmp_path / "repo")
        restored = reopened.cached_query_index(0)
        assert restored is not None
        np.testing.assert_array_equal(restored.probe, cached.probe)
        queries = vectors[:10]
        with QueryService(repository, index_min_medoids=1) as service:
            expected = service.query_vectors(queries, k=3)
        with QueryService(reopened, index_min_medoids=1) as service:
            assert service._shard_bitslice(
                0, service.repository.shard(0).vectors_at(
                    [r for _, r in sorted(
                        service.repository.shard(0).medoid_rows().items()
                    )]
                )
            ) is restored  # reused, not rebuilt
            assert service.query_vectors(queries, k=3) == expected

        # Any ingest invalidates the cached index.
        reopened.add_store(store)
        assert reopened.cached_query_index(0) is None
        with QueryService(reopened, index_min_medoids=1) as service:
            results = service.query_vectors(queries, k=3)
        assert all(matches for matches in results)
