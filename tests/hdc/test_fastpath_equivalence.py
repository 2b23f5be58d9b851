"""Bit-exactness harness: the fast HDC paths against the reference paths.

The vectorised batch encoder and the blocked Hamming kernels are pure
performance rewrites — every byte of their output must match the reference
implementations (`encode`/`encode_batch_reference`, `pairwise_hamming`,
`condensed_pairwise_hamming`).  These golden tests pin that contract across
dimensionalities, odd/even peak counts (majority tie cases), ragged batches,
and the word-level CSA counting primitives themselves.  The
``np.bitwise_count`` kernels are also swept with hypothesis against the
independent oracles in ``tests/hdc/oracles.py``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from hdc.oracles import (
    accumulate_bit_counts,
    counts_from_planes,
    expand_bits,
    popcount_swar,
    popcount_table,
    xor_popcount_swar,
)
from repro.hdc import (
    EncoderConfig,
    IDLevelEncoder,
    condensed_pairwise_hamming,
    condensed_pairwise_hamming_blocked,
    hamming_cross,
    hamming_distance,
    hamming_to_query,
    kernel_runtime,
    pack_bits,
    pairwise_hamming,
    pairwise_hamming_blocked,
    popcount,
    random_hypervectors,
    unpack_bits,
    xor_popcount_rows,
)
from repro.hdc.bitops import csa_accumulate, planes_greater_than
from repro.spectrum import MassSpectrum


def _random_spectrum(rng: np.random.Generator, peaks: int, tag: str):
    """A random in-window spectrum with exactly ``peaks`` peaks."""
    mz = np.sort(rng.uniform(101.0, 1500.0, size=peaks))
    intensity = rng.uniform(0.0, 1.0, size=peaks)
    return MassSpectrum(
        identifier=f"rand-{tag}",
        precursor_mz=float(rng.uniform(300.0, 1200.0)),
        precursor_charge=2,
        mz=mz,
        intensity=intensity,
    )


def _encoder(dim: int) -> IDLevelEncoder:
    return IDLevelEncoder(
        EncoderConfig(dim=dim, mz_bins=2_000, intensity_levels=16)
    )


class TestEncoderEquivalence:
    @pytest.mark.parametrize("dim", [256, 2048])
    def test_batch_bit_identical_to_reference(self, dim, rng):
        # Odd and even peak counts mixed, including 1-peak and the
        # budget-unfriendly primes; even counts exercise majority ties.
        peak_counts = [1, 2, 3, 4, 7, 8, 16, 33, 50, 64, 100]
        spectra = [
            _random_spectrum(rng, peaks, f"{dim}-{index}")
            for index, peaks in enumerate(peak_counts * 3)
        ]
        encoder = _encoder(dim)
        reference = encoder.encode_batch_reference(spectra)
        fast = encoder.encode_batch(spectra)
        assert fast.dtype == np.uint64
        assert fast.shape == reference.shape
        assert fast.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("dim", [256, 2048])
    def test_single_spectrum_matches_encode(self, dim, rng):
        encoder = _encoder(dim)
        for peaks in (1, 2, 5, 31):
            spectrum = _random_spectrum(rng, peaks, f"single-{peaks}")
            np.testing.assert_array_equal(
                encoder.encode_batch([spectrum])[0],
                encoder.encode(spectrum),
            )

    def test_even_count_tie_breaks_toward_zero(self, rng):
        # With exactly two peaks every dimension where the bound vectors
        # disagree has count 1 out of 2 — an exact tie, which the FPGA
        # comparator (acc > count >> 1) resolves to 0.  The fast path must
        # reproduce that, so the pair's majority equals the AND of the two
        # bound vectors.
        encoder = _encoder(256)
        spectra = [
            _random_spectrum(rng, 2, f"tie-{index}") for index in range(20)
        ]
        reference = encoder.encode_batch_reference(spectra)
        fast = encoder.encode_batch(spectra)
        assert fast.tobytes() == reference.tobytes()

    def test_empty_batch_and_empty_spectrum(self):
        encoder = _encoder(256)
        assert encoder.encode_batch([]).shape == (0, 4)
        empty = MassSpectrum(
            identifier="empty",
            precursor_mz=500.0,
            precursor_charge=2,
            mz=np.array([]),
            intensity=np.array([]),
        )
        from repro.errors import EncodingError

        with pytest.raises(EncodingError):
            encoder.encode_batch([empty])

    def test_stream_matches_batch(self, rng):
        encoder = _encoder(256)
        spectra = [
            _random_spectrum(rng, int(peaks), f"stream-{index}")
            for index, peaks in enumerate(rng.integers(1, 40, size=23))
        ]
        streamed = np.vstack(list(encoder.encode_stream(spectra, 5)))
        np.testing.assert_array_equal(
            streamed, encoder.encode_batch(spectra)
        )


class TestHammingEquivalence:
    @pytest.mark.parametrize("dim", [256, 2048])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 17, 64])
    def test_blocked_pairwise_matches_reference(self, dim, n, rng):
        vectors = random_hypervectors(n, dim, rng)
        reference = pairwise_hamming(vectors)
        blocked = pairwise_hamming_blocked(vectors)
        assert blocked.dtype == reference.dtype
        np.testing.assert_array_equal(blocked, reference)

    @pytest.mark.parametrize("block_rows", [1, 2, 7, 1000])
    def test_blocked_pairwise_any_block_size(self, block_rows, rng):
        vectors = random_hypervectors(23, 256, rng)
        np.testing.assert_array_equal(
            pairwise_hamming_blocked(vectors, block_rows=block_rows),
            pairwise_hamming(vectors),
        )

    @pytest.mark.parametrize("dim", [256, 2048])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 17, 64])
    def test_blocked_condensed_matches_reference(self, dim, n, rng):
        vectors = random_hypervectors(n, dim, rng)
        reference = condensed_pairwise_hamming(vectors)
        blocked = condensed_pairwise_hamming_blocked(vectors)
        assert blocked.dtype == reference.dtype
        assert blocked.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("block_rows", [1, 3, 8, 1000])
    def test_blocked_condensed_any_block_size(self, block_rows, rng):
        vectors = random_hypervectors(19, 256, rng)
        np.testing.assert_array_equal(
            condensed_pairwise_hamming_blocked(
                vectors, block_rows=block_rows
            ),
            condensed_pairwise_hamming(vectors),
        )


class TestCountingPrimitives:
    def test_expand_bits_matches_unpack_bits(self, rng):
        for dim in (64, 192, 2048):
            vectors = random_hypervectors(9, dim, rng)
            np.testing.assert_array_equal(
                expand_bits(vectors, dim), unpack_bits(vectors, dim)
            )

    def test_accumulate_bit_counts_matches_group_sums(self, rng):
        dim = 256
        counts_per_group = [1, 2, 5, 8, 3]
        total = sum(counts_per_group)
        vectors = random_hypervectors(total, dim, rng)
        starts = np.concatenate(
            ([0], np.cumsum(counts_per_group)[:-1])
        )
        got = accumulate_bit_counts(vectors, starts, dim)
        bits = unpack_bits(vectors, dim)
        row = 0
        for group, size in enumerate(counts_per_group):
            np.testing.assert_array_equal(
                got[group], bits[row : row + size].sum(axis=0)
            )
            row += size

    @pytest.mark.parametrize("rows", [1, 2, 7, 8, 9, 33, 64, 100])
    def test_csa_accumulate_counts_exactly(self, rows, rng):
        words = 4
        stacked = rng.integers(
            0, 2 ** 63, size=(rows, 6, words), dtype=np.uint64
        )
        planes = csa_accumulate(stacked, rows)
        # Reconstruct counts from the bit-planes and compare to brute force.
        weights = (1 << np.arange(planes.shape[0], dtype=np.int64))
        reconstructed = np.zeros((6, words * 64), dtype=np.int64)
        for k in range(planes.shape[0]):
            reconstructed += weights[k] * unpack_bits(
                planes[k], words * 64
            ).astype(np.int64)
        brute = np.zeros_like(reconstructed)
        for j in range(rows):
            brute += unpack_bits(stacked[j], words * 64).astype(np.int64)
        np.testing.assert_array_equal(reconstructed, brute)

    def test_csa_zero_row_padding_is_neutral(self, rng):
        words = 3
        rows = rng.integers(0, 2 ** 63, size=(5, 4, words), dtype=np.uint64)
        padded = np.concatenate(
            [rows, np.zeros((3, 4, words), dtype=np.uint64)], axis=0
        )
        lhs = csa_accumulate(rows, 8)
        rhs = csa_accumulate(padded, 8)
        np.testing.assert_array_equal(lhs, rhs)

    @pytest.mark.parametrize("rows", [1, 2, 8, 33])
    def test_planes_greater_than_majority(self, rows, rng):
        words = 4
        stacked = rng.integers(
            0, 2 ** 63, size=(rows, 5, words), dtype=np.uint64
        )
        counts = np.zeros((5, words * 64), dtype=np.int64)
        for j in range(rows):
            counts += unpack_bits(stacked[j], words * 64).astype(np.int64)
        planes = csa_accumulate(stacked, rows)
        thresholds = np.array([0, rows // 2, rows // 2, rows - 1, rows])
        packed = planes_greater_than(planes, thresholds)
        expected = (counts > thresholds[:, None]).astype(np.uint8)
        np.testing.assert_array_equal(
            unpack_bits(packed, words * 64), expected
        )

    def test_planes_greater_than_saturated_threshold(self, rng):
        stacked = rng.integers(0, 2 ** 63, size=(3, 2, 2), dtype=np.uint64)
        planes = csa_accumulate(stacked, 3)
        # Thresholds wider than the plane stack: nothing can exceed them.
        packed = planes_greater_than(planes, np.array([100, 4]))
        assert not packed.any()


@st.composite
def packed_matrices(draw, max_rows=6, max_words=5):
    rows = draw(st.integers(1, max_rows))
    words = draw(st.integers(1, max_words))
    flat = draw(
        st.lists(
            st.integers(0, 2**64 - 1),
            min_size=rows * words,
            max_size=rows * words,
        )
    )
    return np.array(flat, dtype=np.uint64).reshape(rows, words)


class TestBitwiseCountKernels:
    """Every ``np.bitwise_count`` kernel against an independent oracle."""

    @settings(max_examples=40, deadline=None)
    @given(words=packed_matrices())
    def test_popcount_matches_oracles(self, words):
        got = popcount(words)
        np.testing.assert_array_equal(got, popcount_swar(words))
        np.testing.assert_array_equal(got, popcount_table(words))
        # Third oracle: count the unpacked bits directly.
        bits = unpack_bits(words, words.shape[1] * 64)
        np.testing.assert_array_equal(
            got, bits.reshape(words.shape + (64,)).sum(axis=-1)
        )

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_hamming_cross_matches_oracle(self, data):
        queries = data.draw(packed_matrices())
        refs = data.draw(
            packed_matrices(max_rows=40, max_words=1).map(
                lambda m: np.repeat(m, queries.shape[1], axis=1)
            )
        )
        block_rows = data.draw(st.none() | st.integers(1, 8))
        got = hamming_cross(queries, refs, block_rows=block_rows)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(
            got, xor_popcount_swar(queries[:, None, :], refs[None, :, :])
        )
        np.testing.assert_array_equal(
            got, np.stack([hamming_to_query(refs, q) for q in queries])
        )

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_xor_popcount_rows_broadcasts(self, data):
        groups, rows, words = data.draw(
            st.tuples(st.integers(1, 4), st.integers(1, 6), st.integers(1, 5))
        )
        vectors = data.draw(arrays(np.uint64, (groups, rows, words)))
        queries = data.draw(arrays(np.uint64, (groups, 1, words)))
        got = xor_popcount_rows(vectors, queries)
        assert got.shape == vectors.shape[:2]
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, xor_popcount_swar(vectors, queries))

    @settings(max_examples=40, deadline=None)
    @given(rows=packed_matrices(max_rows=9))
    def test_csa_and_counts_match_oracle(self, rows):
        count, words = rows.shape
        planes = csa_accumulate(rows.reshape(count, 1, words), count)
        counts = counts_from_planes(planes, words * 64)
        oracle = accumulate_bit_counts(rows, np.array([0]), words * 64)
        np.testing.assert_array_equal(counts, oracle)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_hamming_to_query_matches_oracle(self, data):
        vectors = data.draw(packed_matrices())
        query = data.draw(arrays(np.uint64, (vectors.shape[1],)))
        np.testing.assert_array_equal(
            hamming_to_query(vectors, query),
            xor_popcount_swar(vectors, query[None, :]),
        )

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_hamming_distance_matches_oracle(self, data):
        first = data.draw(packed_matrices())
        second = data.draw(arrays(np.uint64, first.shape))
        np.testing.assert_array_equal(
            hamming_distance(first, second), xor_popcount_swar(first, second)
        )
        np.testing.assert_array_equal(
            hamming_distance(first[0], second[0]),
            xor_popcount_swar(first[0], second[0]),
        )

    @settings(max_examples=40, deadline=None)
    @given(vectors=packed_matrices(max_rows=12))
    def test_pairwise_kernels_match_oracle(self, vectors):
        dense = xor_popcount_swar(vectors[:, None, :], vectors[None, :, :])
        np.testing.assert_array_equal(pairwise_hamming(vectors), dense)
        np.testing.assert_array_equal(
            pairwise_hamming_blocked(vectors), dense
        )
        rows, cols = np.tril_indices(vectors.shape[0], k=-1)
        condensed = dense[rows, cols].astype(np.uint16)
        np.testing.assert_array_equal(
            condensed_pairwise_hamming(vectors), condensed
        )
        np.testing.assert_array_equal(
            condensed_pairwise_hamming_blocked(vectors), condensed
        )

    def test_popcount_single_bits_and_full_words(self):
        single = np.left_shift(
            np.uint64(1), np.arange(64, dtype=np.uint64)
        )
        np.testing.assert_array_equal(popcount(single), np.ones(64))
        extremes = np.array([0, 2**64 - 1], dtype=np.uint64)
        np.testing.assert_array_equal(popcount(extremes), [0, 64])

    @pytest.mark.parametrize("words", [1, 1023, 1024])
    def test_complement_distance_is_exact(self, words):
        # 1024 words is 65536 bits: one more than uint16 holds, so the
        # tile reduction must widen its accumulator to stay exact.
        zeros = np.zeros((2, words), dtype=np.uint64)
        ones = np.full((3, words), 2**64 - 1, dtype=np.uint64)
        full = words * 64
        np.testing.assert_array_equal(
            hamming_cross(zeros, ones), np.full((2, 3), full)
        )
        dense = pairwise_hamming_blocked(np.concatenate([zeros, ones]))
        assert dense[0, 2] == dense[4, 1] == full
        assert dense[0, 1] == dense[2, 4] == 0

    @pytest.mark.parametrize("block_rows", [1, 2, 5])
    def test_hamming_cross_spans_reference_tiles(self, block_rows, rng):
        # Enough references that one query block needs several tiles.
        queries = rng.integers(0, 2**64, size=(5, 2), dtype=np.uint64)
        refs = rng.integers(0, 2**64, size=(140_000, 2), dtype=np.uint64)
        got = hamming_cross(queries, refs, block_rows=block_rows)
        np.testing.assert_array_equal(
            got, xor_popcount_swar(queries[:, None, :], refs[None, :, :])
        )

    def test_hamming_cross_non_contiguous_inputs(self, rng):
        base = rng.integers(0, 2**64, size=(12, 10), dtype=np.uint64)
        queries = base[::3, ::2]
        refs = np.asfortranarray(base[1::2, 1::2])
        np.testing.assert_array_equal(
            hamming_cross(queries, refs),
            hamming_cross(
                np.ascontiguousarray(queries), np.ascontiguousarray(refs)
            ),
        )
        np.testing.assert_array_equal(
            hamming_cross(queries, refs),
            xor_popcount_swar(queries[:, None, :], refs[None, :, :]),
        )

    def test_kernel_runtime_record(self):
        record = kernel_runtime()
        assert record == {"tier": "numpy", "tier_version": np.__version__}

    def test_kernel_tier_env_var_is_ignored(self, monkeypatch, rng):
        monkeypatch.setenv("REPRO_KERNEL_TIER", "fortran")
        words = rng.integers(0, 2**64, size=(3, 2), dtype=np.uint64)
        np.testing.assert_array_equal(
            hamming_cross(words, words),
            xor_popcount_swar(words[:, None, :], words[None, :, :]),
        )
        assert kernel_runtime()["tier"] == "numpy"


class TestPipelineFastPathEquivalence:
    def test_pipeline_hypervectors_match_reference_encoding(
        self, labelled_dataset
    ):
        from repro import SpecHDConfig, SpecHDPipeline

        config = SpecHDConfig(
            encoder=EncoderConfig(dim=256, mz_bins=2_000, intensity_levels=16)
        )
        pipeline = SpecHDPipeline(config)
        result = pipeline.run(labelled_dataset.spectra)
        reference = pipeline.encoder.encode_batch_reference(result.spectra)
        assert result.hypervectors.tobytes() == reference.tobytes()
