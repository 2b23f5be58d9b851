"""Tests for the bit-slice medoid index and the batched top-k kernel."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ParseError
from repro.hdc import hamming_cross, pack_bits, random_hypervectors, unpack_bits
from repro.store import BitSliceMedoidIndex, batched_topk


@pytest.fixture()
def medoids(rng):
    vectors = random_hypervectors(64, 256, rng)
    vectors[7] = vectors[0]
    vectors[31] = vectors[0]
    return vectors


class TestBatchedTopk:
    def test_matches_stable_sort(self, rng):
        distances = rng.integers(0, 8, size=(10, 40)).astype(np.int64)
        indices, kept = batched_topk(distances, 5)
        for row in range(10):
            order = np.lexsort((np.arange(40), distances[row]))[:5]
            np.testing.assert_array_equal(indices[row], order)
            np.testing.assert_array_equal(kept[row], distances[row][order])

    def test_ties_break_to_lowest_ordinal(self):
        distances = np.zeros((3, 9), dtype=np.int64)  # all tied
        indices, kept = batched_topk(distances, 4)
        np.testing.assert_array_equal(
            indices, np.tile(np.arange(4), (3, 1))
        )
        assert (kept == 0).all()

    def test_k_larger_than_columns(self, rng):
        distances = rng.integers(0, 100, size=(4, 6)).astype(np.int64)
        indices, kept = batched_topk(distances, 50)
        assert indices.shape == (4, 6)
        assert (np.diff(kept, axis=1) >= 0).all()

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigurationError):
            batched_topk(np.zeros(4, dtype=np.int64), 1)
        with pytest.raises(ConfigurationError):
            batched_topk(np.zeros((2, 2), dtype=np.int64), 0)


class TestIndexBuild:
    def test_probe_layout(self, medoids):
        index = BitSliceMedoidIndex.build(medoids, 256, probe_bits=96)
        assert index.probe_bits == 96
        assert index.count == 64
        assert index.probe.shape == (64, 2)  # 96 bits -> 2 words/medoid
        assert (np.diff(index.positions) > 0).all()  # sorted, unique
        np.testing.assert_array_equal(
            unpack_bits(index.probe, 96),
            unpack_bits(medoids, 256)[:, index.positions],
        )

    def test_probe_bits_capped_at_dim(self, medoids):
        index = BitSliceMedoidIndex.build(medoids, 256, probe_bits=1000)
        assert index.probe_bits == 256

    def test_deterministic_layout(self, medoids):
        first = BitSliceMedoidIndex.build(medoids, 256, probe_bits=64)
        second = BitSliceMedoidIndex.build(medoids, 256, probe_bits=64)
        np.testing.assert_array_equal(first.positions, second.positions)
        np.testing.assert_array_equal(first.probe, second.probe)

    def test_rejects_bad_inputs(self, medoids):
        with pytest.raises(ConfigurationError):
            BitSliceMedoidIndex.build(medoids[:0], 256)
        with pytest.raises(ConfigurationError):
            BitSliceMedoidIndex.build(medoids, 256, probe_bits=0)
        with pytest.raises(ConfigurationError):
            BitSliceMedoidIndex.build(medoids, 10_000)


class TestIndexQueries:
    @pytest.mark.parametrize("probe_bits", [1, 16, 128, 256])
    @pytest.mark.parametrize("k", [1, 3, 64, 100])
    def test_topk_equals_dense_scan(self, medoids, rng, probe_bits, k):
        queries = random_hypervectors(11, 256, rng)
        queries[0] = medoids[0]  # exact, triple-tied hit
        index = BitSliceMedoidIndex.build(medoids, 256, probe_bits=probe_bits)
        brute = batched_topk(hamming_cross(queries, medoids), k)
        indexed = index.topk(medoids, queries, k)
        np.testing.assert_array_equal(indexed[0], brute[0])
        np.testing.assert_array_equal(indexed[1], brute[1])

    def test_lower_bounds_never_exceed_distances(self, medoids, rng):
        queries = random_hypervectors(5, 256, rng)
        index = BitSliceMedoidIndex.build(medoids, 256, probe_bits=64)
        bounds = index.lower_bounds(queries)
        distances = hamming_cross(queries, medoids)
        assert (bounds <= distances).all()
        full = BitSliceMedoidIndex.build(medoids, 256, probe_bits=256)
        np.testing.assert_array_equal(full.lower_bounds(queries), distances)

    def test_single_medoid(self, rng):
        vectors = random_hypervectors(1, 128, rng)
        index = BitSliceMedoidIndex.build(vectors, 128, probe_bits=8)
        indices, distances = index.topk(
            vectors, random_hypervectors(3, 128, rng), 5
        )
        assert indices.shape == (3, 1)
        assert (indices == 0).all()

    def test_empty_query_batch(self, medoids, rng):
        index = BitSliceMedoidIndex.build(medoids, 256, probe_bits=16)
        queries = random_hypervectors(2, 256, rng)[:0]
        indices, distances = index.topk(medoids, queries, 3)
        assert indices.shape == (0, 3)

    def test_count_mismatch_rejected(self, medoids, rng):
        index = BitSliceMedoidIndex.build(medoids, 256, probe_bits=16)
        with pytest.raises(ConfigurationError):
            index.topk(medoids[:10], random_hypervectors(2, 256, rng), 3)


def _replicates(rng, vectors, rows, dim, flip=0.02):
    """Near-copies of ``vectors`` rows, cycling (``flip`` bits noised)."""
    picks = np.arange(rows) % vectors.shape[0]
    return vectors[picks] ^ pack_bits(rng.random((rows, dim)) < flip)


class TestPerRowFallback:
    """``topk`` routes each row dense or by gather, never approximating.

    Replicate rows prune to a few candidates and are verified by gather;
    novel rows keep nearly every medoid as a candidate and are scanned
    densely.  Every batch shape must equal the dense top-k byte-for-byte.
    """

    DIM = 512
    COUNT = 600

    @pytest.fixture()
    def shard(self, rng):
        # Families of 20 near-replicate medoids around 30 random bases:
        # a replicate query's k nearest all sit in its own family.
        bases = random_hypervectors(30, self.DIM, rng)
        vectors = _replicates(rng, bases, self.COUNT, self.DIM)
        index = BitSliceMedoidIndex.build(vectors, self.DIM, probe_bits=128)
        return vectors, index

    def _dense_rows(self, index, vectors, queries, k):
        mask = index.candidate_mask(vectors, queries, k)
        return mask.sum(axis=1) > 0.25 * index.count

    def _assert_exact(self, index, vectors, queries, k):
        brute = batched_topk(hamming_cross(queries, vectors), k)
        indexed = index.topk(vectors, queries, k)
        assert indexed[0].dtype == brute[0].dtype
        assert indexed[1].dtype == brute[1].dtype
        np.testing.assert_array_equal(indexed[0], brute[0])
        np.testing.assert_array_equal(indexed[1], brute[1])

    def test_all_novel(self, shard, rng):
        vectors, index = shard
        queries = random_hypervectors(16, self.DIM, rng)
        assert self._dense_rows(index, vectors, queries, 5).all()
        self._assert_exact(index, vectors, queries, 5)

    def test_all_replicate(self, shard, rng):
        vectors, index = shard
        queries = _replicates(rng, vectors, 16, self.DIM)
        assert not self._dense_rows(index, vectors, queries, 5).any()
        self._assert_exact(index, vectors, queries, 5)

    def test_quarter_novel_mix(self, shard, rng, monkeypatch):
        import repro.store.index as index_module

        vectors, index = shard
        queries = _replicates(rng, vectors, 16, self.DIM)
        novel = np.array([1, 6, 11, 14])
        queries[novel] = random_hypervectors(4, self.DIM, rng)
        dense = self._dense_rows(index, vectors, queries, 5)
        np.testing.assert_array_equal(np.flatnonzero(dense), novel)
        scans = []

        def recording_cross(first, second):
            scans.append((first.shape, second.shape))
            return hamming_cross(first, second)

        monkeypatch.setattr(index_module, "hamming_cross", recording_cross)
        self._assert_exact(index, vectors, queries, 5)
        # One probe-word scan of the whole batch, then one dense scan of
        # only the novel rows: replicate rows never pay the dense scan.
        assert scans == [
            ((16, 2), (self.COUNT, 2)),
            ((4, self.DIM // 64), (self.COUNT, self.DIM // 64)),
        ]

    @pytest.mark.parametrize("novel", [False, True])
    def test_single_row(self, shard, rng, novel):
        vectors, index = shard
        queries = (
            random_hypervectors(1, self.DIM, rng)
            if novel
            else _replicates(rng, vectors, 1, self.DIM)
        )
        self._assert_exact(index, vectors, queries, 3)

    @pytest.mark.parametrize("k", [COUNT, COUNT + 7])
    def test_k_at_least_count(self, shard, rng, k):
        vectors, index = shard
        queries = _replicates(rng, vectors, 4, self.DIM)
        queries[2] = random_hypervectors(1, self.DIM, rng)[0]
        self._assert_exact(index, vectors, queries, k)

    @pytest.mark.parametrize("k", [1, 4, 9])
    def test_tie_heavy_duplicates(self, rng, k):
        # 40 distinct medoids, each repeated 15 times and interleaved, so
        # every boundary is a run of exact ties broken by ordinal.
        distinct = random_hypervectors(40, self.DIM, rng)
        vectors = distinct[np.arange(self.COUNT) % 40]
        index = BitSliceMedoidIndex.build(vectors, self.DIM, probe_bits=128)
        queries = np.vstack([
            _replicates(rng, distinct, 6, self.DIM),
            distinct[:3],
            random_hypervectors(3, self.DIM, rng),
        ])
        dense = self._dense_rows(index, vectors, queries, k)
        assert dense.any() and not dense.all()
        self._assert_exact(index, vectors, queries, k)

    def test_lower_bounds_never_exceed_distances(self, shard, rng):
        vectors, index = shard
        queries = np.vstack([
            _replicates(rng, vectors, 8, self.DIM),
            random_hypervectors(8, self.DIM, rng),
        ])
        bounds = index.lower_bounds(queries)
        assert bounds.shape == (16, self.COUNT)
        assert (bounds <= hamming_cross(queries, vectors)).all()


class TestIndexPersistence:
    def test_round_trip(self, medoids, tmp_path, rng):
        index = BitSliceMedoidIndex.build(medoids, 256, probe_bits=48)
        path = tmp_path / "shard.index.npz"
        index.save(path)
        restored = BitSliceMedoidIndex.load(path)
        assert restored.dim == index.dim
        assert restored.count == index.count
        np.testing.assert_array_equal(restored.positions, index.positions)
        np.testing.assert_array_equal(restored.probe, index.probe)
        queries = random_hypervectors(4, 256, rng)
        original = index.topk(medoids, queries, 5)
        loaded = restored.topk(medoids, queries, 5)
        np.testing.assert_array_equal(original[0], loaded[0])
        np.testing.assert_array_equal(original[1], loaded[1])

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "broken.index.npz"
        path.write_bytes(b"not a zip archive")
        with pytest.raises(ParseError):
            BitSliceMedoidIndex.load(path)

    def test_v1_planes_file_rejected(self, medoids, tmp_path):
        import json

        path = tmp_path / "v1.index.npz"
        np.savez(
            path,
            positions=np.arange(32, dtype=np.int64),
            planes=np.zeros((32, 1), dtype=np.uint64),
            meta=np.array(json.dumps(
                {"format_version": 1, "dim": 256, "count": 64}
            )),
        )
        with pytest.raises(ParseError, match="unsupported index version 1"):
            BitSliceMedoidIndex.load(path)

    def test_forward_version_rejected(self, medoids, tmp_path):
        import json

        index = BitSliceMedoidIndex.build(medoids, 256, probe_bits=16)
        path = tmp_path / "future.index.npz"
        np.savez(
            path,
            positions=index.positions,
            probe=index.probe,
            meta=np.array(json.dumps(
                {"format_version": 99, "dim": 256, "count": 64}
            )),
        )
        with pytest.raises(ParseError):
            BitSliceMedoidIndex.load(path)

    def test_v1_planes_file_rejected(self, medoids, tmp_path):
        import json

        path = tmp_path / "v1.index.npz"
        np.savez(
            path,
            positions=np.arange(32, dtype=np.int64),
            planes=np.zeros((32, 1), dtype=np.uint64),
            meta=np.array(json.dumps(
                {"format_version": 1, "dim": 256, "count": 64}
            )),
        )
        with pytest.raises(ParseError, match="unsupported index version 1"):
            BitSliceMedoidIndex.load(path)
