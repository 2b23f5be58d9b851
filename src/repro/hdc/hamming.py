"""Hamming-distance kernels on packed hypervector matrices.

These functions are the software twins of the FPGA's XOR + popcount distance
module (§III-C): pairwise distances over packed uint64 rows, a condensed
lower-triangular layout matching the on-chip distance memory, and 16-bit
fixed-point quantization identical to the hardware's storage format.
"""

from __future__ import annotations

import numpy as np

from ..errors import EncodingError
from .bitops import WORD_BITS

#: The FPGA stores distances as 16-bit fixed point; with D_hv <= 65535 the
#: raw Hamming count always fits losslessly.
DISTANCE_DTYPE = np.uint16

#: Largest dimensionality whose raw Hamming counts fit in DISTANCE_DTYPE.
MAX_CONDENSED_DIM = np.iinfo(DISTANCE_DTYPE).max

#: Byte budget of one word-major XOR tile ``(words, rows, others)`` in the
#: blocked kernels: small enough to stay cache-resident from the XOR
#: through the popcount to the reduction, large enough to amortise the
#: per-tile Python overhead.
_TILE_BYTES = 1 << 20


def _tile_pairs(words: int) -> int:
    """Row pairs per tile so one XOR tile stays near ``_TILE_BYTES``."""
    return max(1, _TILE_BYTES // (8 * max(words, 1)))


def _block_rows(n: int, words: int) -> int:
    """Rows per block so one block against ``n`` rows fills a tile."""
    return max(1, _tile_pairs(words) // max(n, 1))


def _guard_condensed_dim(words: int) -> None:
    """Reject packed widths whose distances could overflow DISTANCE_DTYPE."""
    dim = words * 64
    if dim > MAX_CONDENSED_DIM:
        raise EncodingError(
            f"condensed distances use {DISTANCE_DTYPE.__name__}; "
            f"dim {dim} (from {words} words) can exceed {MAX_CONDENSED_DIM}"
        )


def pairwise_hamming(vectors: np.ndarray) -> np.ndarray:
    """Dense symmetric pairwise Hamming-distance matrix (int64).

    ``vectors`` is a packed matrix of shape ``(n, words)``.  For bucket-sized
    inputs (n up to a few thousand) the O(n² · words) vectorised loop below
    is memory-friendly: one XOR row-broadcast per anchor row.
    """
    vectors = np.asarray(vectors, dtype=np.uint64)
    if vectors.ndim != 2:
        raise EncodingError("pairwise_hamming expects a 2-D packed matrix")
    n = vectors.shape[0]
    distances = np.zeros((n, n), dtype=np.int64)
    for row in range(n):
        xor = np.bitwise_xor(vectors[row : row + 1], vectors[row + 1 :])
        if xor.size:
            row_distances = np.bitwise_count(xor).sum(axis=1)
            distances[row, row + 1 :] = row_distances
            distances[row + 1 :, row] = row_distances
    return distances


def _xor_popcount_block(
    row_words: np.ndarray, other_words: np.ndarray
) -> np.ndarray:
    """Hamming distances between every row pair of two packed matrices.

    Both inputs are word-major (transposed) packed matrices, ``(words, m)``
    and ``(words, n)``.  One broadcast XOR and one ``np.bitwise_count``
    cover the whole ``(words, m, n)`` tile; the per-word counts are then
    summed over the leading axis, one contiguous ``(m, n)`` plane per
    word, into the narrowest unsigned type that holds ``words * 64`` —
    the software shape of the FPGA's per-word XOR + popcount tree.
    Returns the ``(m, n)`` distances.
    """
    xor = np.bitwise_xor(row_words[:, :, None], other_words[:, None, :])
    dtype = np.min_scalar_type(row_words.shape[0] * WORD_BITS)
    return np.add.reduce(np.bitwise_count(xor), axis=0, dtype=dtype)


def pairwise_hamming_blocked(
    vectors: np.ndarray, block_rows: int | None = None
) -> np.ndarray:
    """Blocked dense pairwise Hamming distances, bit-identical to
    :func:`pairwise_hamming`.

    Processes whole row blocks of the lower triangle per word-major
    XOR + popcount pass (the software shape of the FPGA's unrolled
    distance array) instead of one Python-level pass per anchor row, and
    mirrors each block into the upper triangle.  ``block_rows`` defaults
    to a size that keeps each XOR intermediate cache-friendly.
    """
    vectors = np.asarray(vectors, dtype=np.uint64)
    if vectors.ndim != 2:
        raise EncodingError(
            "pairwise_hamming_blocked expects a 2-D packed matrix"
        )
    n, words = vectors.shape
    if block_rows is None:
        block_rows = _block_rows(n, words)
    if block_rows < 1:
        raise EncodingError("block_rows must be >= 1")
    columns = np.ascontiguousarray(vectors.T)
    distances = np.zeros((n, n), dtype=np.int64)
    for lo in range(0, n, block_rows):
        hi = min(lo + block_rows, n)
        # Rows lo:hi against all columns < hi covers this block's share of
        # the lower triangle (plus the in-block upper corner, which holds
        # correct distances too); mirror it for the upper triangle.
        block = _xor_popcount_block(columns[:, lo:hi], columns[:, :hi])
        distances[lo:hi, :hi] = block
        distances[:hi, lo:hi] = block.T
    np.fill_diagonal(distances, 0)
    return distances


def condensed_pairwise_hamming_blocked(
    vectors: np.ndarray, block_rows: int | None = None
) -> np.ndarray:
    """Blocked condensed pairwise Hamming distances (uint16).

    Bit-identical to :func:`condensed_pairwise_hamming` but computes whole
    row blocks of the lower triangle per word-major XOR + popcount pass.
    """
    vectors = np.asarray(vectors, dtype=np.uint64)
    if vectors.ndim != 2:
        raise EncodingError(
            "condensed_pairwise_hamming_blocked expects a 2-D packed matrix"
        )
    n, words = vectors.shape
    _guard_condensed_dim(words)
    if block_rows is None:
        block_rows = _block_rows(n, words)
    if block_rows < 1:
        raise EncodingError("block_rows must be >= 1")
    columns = np.ascontiguousarray(vectors.T)
    out = np.zeros(n * (n - 1) // 2, dtype=DISTANCE_DTYPE)
    for lo in range(1, n, block_rows):
        hi = min(lo + block_rows, n)
        # Rows lo:hi of the triangle all compare against vectors[:hi-1];
        # one broadcast XOR covers the block, sliced to j < i below.
        block = _xor_popcount_block(columns[:, lo:hi], columns[:, : hi - 1])
        for offset, i in enumerate(range(lo, hi)):
            start = i * (i - 1) // 2
            out[start : start + i] = block[offset, :i]
    return out


def hamming_cross(
    queries: np.ndarray,
    refs: np.ndarray,
    block_rows: int | None = None,
) -> np.ndarray:
    """Dense Hamming-distance matrix between two packed matrices (int64).

    Returns shape ``(len(queries), len(refs))``, bit-identical to stacking
    :func:`hamming_to_query` over the query rows.  The computation is
    tiled over both query rows and reference rows so each word-major
    XOR + popcount tile stays near ``_TILE_BYTES`` (the same
    cache discipline as the pairwise kernels) even when one side is a
    large medoid matrix — this is the kernel the repository's batched
    shard scans are built on.  ``block_rows`` overrides the query rows
    per tile.
    """
    queries = np.asarray(queries, dtype=np.uint64)
    refs = np.asarray(refs, dtype=np.uint64)
    if queries.ndim != 2 or refs.ndim != 2:
        raise EncodingError("hamming_cross expects two 2-D packed matrices")
    if queries.shape[1] != refs.shape[1]:
        raise EncodingError(
            "word-count mismatch between query and reference matrices"
        )
    num_queries, words = queries.shape
    num_refs = refs.shape[0]
    distances = np.zeros((num_queries, num_refs), dtype=np.int64)
    if num_queries == 0 or num_refs == 0:
        return distances
    if block_rows is None:
        block_rows = min(num_queries, _block_rows(num_refs, words))
    if block_rows < 1:
        raise EncodingError("block_rows must be >= 1")
    ref_rows = max(1, _tile_pairs(words) // block_rows)
    query_columns = np.ascontiguousarray(queries.T)
    ref_columns = np.ascontiguousarray(refs.T)
    for lo in range(0, num_queries, block_rows):
        hi = min(lo + block_rows, num_queries)
        for ref_lo in range(0, num_refs, ref_rows):
            ref_hi = min(ref_lo + ref_rows, num_refs)
            distances[lo:hi, ref_lo:ref_hi] = _xor_popcount_block(
                query_columns[:, lo:hi], ref_columns[:, ref_lo:ref_hi]
            )
    return distances


def hamming_to_query(vectors: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Hamming distance from every row of ``vectors`` to a single ``query``."""
    vectors = np.asarray(vectors, dtype=np.uint64)
    query = np.asarray(query, dtype=np.uint64)
    if query.ndim != 1 or vectors.ndim != 2:
        raise EncodingError("expected (n, words) matrix and (words,) query")
    if vectors.shape[1] != query.shape[0]:
        raise EncodingError("word-count mismatch between matrix and query")
    xor = np.bitwise_xor(vectors, query[None, :])
    return np.bitwise_count(xor).sum(axis=1)


def condensed_index(i: int, j: int, n: int) -> int:
    """Index into the condensed (lower-triangle, row-major) distance array.

    The condensed layout stores ``d(i, j)`` for ``0 <= j < i < n`` at
    position ``i*(i-1)/2 + j`` — exactly the addressing scheme of the FPGA's
    triangular distance BRAM.
    """
    if i == j or i < 0 or j < 0 or i >= n or j >= n:
        raise EncodingError(f"invalid condensed index ({i}, {j}) for n={n}")
    if i < j:
        i, j = j, i
    return i * (i - 1) // 2 + j


def condensed_pairwise_hamming(vectors: np.ndarray) -> np.ndarray:
    """Condensed lower-triangular pairwise Hamming distances (uint16).

    Returns an array of length ``n*(n-1)/2`` in the layout of
    :func:`condensed_index`, stored with the hardware's 16-bit width.
    """
    vectors = np.asarray(vectors, dtype=np.uint64)
    if vectors.ndim != 2:
        raise EncodingError(
            "condensed_pairwise_hamming expects a 2-D packed matrix"
        )
    _guard_condensed_dim(vectors.shape[1])
    n = vectors.shape[0]
    out = np.zeros(n * (n - 1) // 2, dtype=DISTANCE_DTYPE)
    for i in range(1, n):
        xor = np.bitwise_xor(vectors[:i], vectors[i : i + 1])
        row = np.bitwise_count(xor).sum(axis=1)
        start = i * (i - 1) // 2
        out[start : start + i] = row.astype(DISTANCE_DTYPE)
    return out


def squareform(condensed: np.ndarray, n: int) -> np.ndarray:
    """Expand a condensed distance array into a dense symmetric matrix."""
    condensed = np.asarray(condensed)
    expected = n * (n - 1) // 2
    if condensed.shape[0] != expected:
        raise EncodingError(
            f"condensed array has {condensed.shape[0]} entries, "
            f"expected {expected} for n={n}"
        )
    dense = np.zeros((n, n), dtype=np.float64)
    for i in range(1, n):
        start = i * (i - 1) // 2
        dense[i, :i] = condensed[start : start + i]
        dense[:i, i] = condensed[start : start + i]
    return dense


def normalized_hamming(distances: np.ndarray, dim: int) -> np.ndarray:
    """Normalise raw Hamming counts to [0, 1] by the dimensionality."""
    if dim < 1:
        raise EncodingError("dim must be >= 1")
    return np.asarray(distances, dtype=np.float64) / float(dim)
