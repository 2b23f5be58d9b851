"""Exact probe-word pruning index over one shard's medoid matrix.

The brute-force serving path is a dense XOR + popcount scan of every
medoid (:func:`repro.hdc.hamming_cross`).  This module prunes that scan
while keeping results provably exact.  At build time the index gathers
``probe_bits`` seeded, sampled bit positions of every medoid into a
compact row-major word matrix ``probe`` of shape
``(count, ceil(probe_bits / 64))`` — a shard-sized sketch that costs
roughly ``probe_bits / dim`` of a full scan to search.

Candidate generation is two-phase:

1.  The queries' sampled bits are packed the same way and scanned
    against ``probe`` with one :func:`~repro.hdc.hamming_cross` pass,
    yielding every medoid's Hamming distance restricted to the sampled
    positions — a *lower bound* on its full distance.
2.  The ``pilot`` medoids with the smallest bounds are scored exactly;
    the k-th best exact pilot distance ``tau`` caps the answer, and the
    candidate set is every medoid whose bound is at most ``tau``.

Exactness: the global k-th nearest distance is at most ``tau`` (the
pilot alone provides ``k`` distances no worse), and any medoid with full
distance ``d <= tau`` has bound ``<= d <= tau``, so *every* medoid tied
with or beating the k-th nearest — including all distance ties, which
the caller breaks by medoid ordinal — lands in the candidate set.
Medoids outside it have full distance strictly above ``tau`` and cannot
appear in the exact top-k.  Rows whose candidate set the filter fails
to shrink (novel or contrast-free queries) are answered by one dense
scan of just those rows; the other rows of the batch are verified by
gather.  The filter pass itself is never free, so serving engages the
index only on shards of at least :data:`DEFAULT_MIN_MEDOIDS` medoids,
the measured point above which it beats the dense scan on every mix of
replicate and novel rows.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Tuple, Union

import numpy as np

from ..errors import ConfigurationError, ParseError
from ..hdc import hamming_cross
from ..hdc.bitops import extract_bit_columns, pack_bits, xor_popcount_rows

#: Default number of sampled bit positions per shard index.  Pruning
#: needs the sampled-mismatch count of a *far* medoid (~probe_bits / 2)
#: to exceed the k-th nearest exact distance, so deeper probing widens
#: the workloads the filter can prune; 256 positions (four probe words)
#: prune replicate-style serving at the common dimensionalities while
#: costing a quarter of a dense scan at D_hv = 1024.
DEFAULT_PROBE_BITS = 256

#: Default medoid count below which serving skips the index entirely:
#: the measured crossover (``benchmarks/bench_kernels.py``) above which
#: the indexed scan beats the dense one on all-replicate and 25%-novel
#: batches alike.
DEFAULT_MIN_MEDOIDS = 16384

#: Format version written into an index file's metadata record.
#: Version 1 stored transposed bit planes; those files load as unreadable
#: and are rebuilt from the medoids.
INDEX_FORMAT_VERSION = 2

#: Fixed seed for position sampling: the sampled layout is a pure function
#: of (dim, probe_bits), so rebuilt and reloaded indexes agree bit-for-bit.
_INDEX_SEED = 0x5B17_51CE

#: Minimum pilot size — more pilots tighten ``tau`` at negligible cost.
_PILOT_MIN = 32

#: Per-row candidate fraction beyond which gather-based verification
#: would cost more than the dense scan it replaces; such rows are sent
#: to the dense scan instead.
_FALLBACK_FRACTION = 0.25

#: Candidate pairs verified per gather chunk in :meth:`topk`.
_FLAT_CHUNK = 1 << 18


def batched_topk(
    distances: np.ndarray, k: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Smallest-k entries per row with ``(distance, column)`` tie order.

    Returns ``(indices, distances)`` of shape ``(rows, min(k, columns))``;
    each row is ascending by ``(distance, column)`` — exactly the order a
    stable full sort per row would produce, so ties always resolve to the
    lowest column ordinal.  Implemented with one ``argpartition`` over a
    composite ``distance << 32 | column`` key instead of a full sort, so
    selection is O(columns) per row.
    """
    distances = np.asarray(distances, dtype=np.int64)
    if distances.ndim != 2:
        raise ConfigurationError("batched_topk expects a 2-D distance matrix")
    if k < 1:
        raise ConfigurationError("k must be >= 1")
    columns = distances.shape[1]
    if columns >= 1 << 32 or (
        distances.size and int(distances.max()) >= 1 << 31
    ):
        raise ConfigurationError("distance matrix too large for composite keys")
    keep = min(k, columns)
    keys = (distances << np.int64(32)) + np.arange(
        columns, dtype=np.int64
    )[None, :]
    if keep < columns:
        kept = np.take_along_axis(
            keys, np.argpartition(keys, keep - 1, axis=1)[:, :keep], axis=1
        )
    else:
        kept = keys
    kept.sort(axis=1)
    return kept & np.int64(0xFFFF_FFFF), kept >> np.int64(32)


@dataclass
class BitSliceMedoidIndex:
    """Sampled bits of one shard's medoids, packed into probe words.

    ``positions`` holds the sorted sampled bit positions; row ``i`` of
    ``probe`` is medoid ``i``'s bits at those positions, packed like a
    hypervector (``ceil(probe_bits / 64)`` words per medoid).
    """

    dim: int
    count: int
    positions: np.ndarray
    probe: np.ndarray

    @property
    def probe_bits(self) -> int:
        """Number of sampled bit positions."""
        return int(self.positions.size)

    @classmethod
    def build(
        cls,
        vectors: np.ndarray,
        dim: int,
        probe_bits: int = DEFAULT_PROBE_BITS,
    ) -> "BitSliceMedoidIndex":
        """Index a packed medoid matrix (``probe_bits`` capped at ``dim``)."""
        vectors = np.asarray(vectors, dtype=np.uint64)
        if vectors.ndim != 2:
            raise ConfigurationError("index expects a 2-D packed matrix")
        if probe_bits < 1:
            raise ConfigurationError("probe_bits must be >= 1")
        count, words = vectors.shape
        if count < 1:
            raise ConfigurationError("cannot index an empty medoid matrix")
        if dim < 1 or dim > words * 64:
            raise ConfigurationError(
                f"dim {dim} inconsistent with packed width {words}"
            )
        sampled = min(probe_bits, dim)
        rng = np.random.default_rng(_INDEX_SEED)
        positions = np.sort(
            rng.choice(dim, size=sampled, replace=False)
        ).astype(np.int64)
        probe = pack_bits(extract_bit_columns(vectors, positions))
        return cls(dim=dim, count=count, positions=positions, probe=probe)

    # ------------------------------------------------------------------
    # Probing
    # ------------------------------------------------------------------

    def lower_bounds(self, queries: np.ndarray) -> np.ndarray:
        """Per-medoid Hamming distance restricted to the sampled positions.

        Returns an int64 matrix of shape ``(len(queries), count)``; every
        entry is a lower bound on the corresponding full Hamming
        distance.  One cross scan of the queries' packed sampled bits
        against the stored probe words.
        """
        queries = np.asarray(queries, dtype=np.uint64)
        if queries.ndim != 2:
            raise ConfigurationError("queries must be a 2-D packed matrix")
        sampled = pack_bits(extract_bit_columns(queries, self.positions))
        return hamming_cross(sampled, self.probe)

    def candidate_mask(
        self, vectors: np.ndarray, queries: np.ndarray, k: int
    ) -> np.ndarray:
        """Boolean ``(len(queries), count)`` candidate mask for top-k.

        Guaranteed to contain every medoid of each query's exact top-k,
        including all distance ties at the boundary (see module
        docstring for the argument).
        """
        vectors = np.asarray(vectors, dtype=np.uint64)
        queries = np.asarray(queries, dtype=np.uint64)
        bounds = self.lower_bounds(queries)
        keep = min(k, self.count)
        pilot = min(self.count, max(keep, _PILOT_MIN))
        # Any ``pilot`` medoids keep the cap exact; the best-bounded ones
        # keep it tight, and their order does not matter.
        pilot_ids = np.argpartition(bounds, pilot - 1, axis=1)[:, :pilot]
        pilot_distances = xor_popcount_rows(
            vectors[pilot_ids], queries[:, None, :]
        )
        tau = np.partition(pilot_distances, keep - 1, axis=1)[:, keep - 1]
        return bounds <= tau[:, None]

    def topk(
        self, vectors: np.ndarray, queries: np.ndarray, k: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Exact batched top-k against the indexed medoid matrix.

        Bit-identical to ``batched_topk(hamming_cross(queries, vectors), k)``
        — same medoid ordinals, same distances, same ``(distance, ordinal)``
        tie order.  Rows with more than ``_FALLBACK_FRACTION`` of the
        medoids as candidates are scanned densely as one sub-batch; the
        candidates of every other row are verified exactly by gather.
        """
        vectors = np.asarray(vectors, dtype=np.uint64)
        queries = np.asarray(queries, dtype=np.uint64)
        if vectors.shape[0] != self.count:
            raise ConfigurationError(
                f"index covers {self.count} medoids, got {vectors.shape[0]}"
            )
        keep = min(k, self.count)
        if queries.shape[0] == 0 or keep >= self.count:
            return batched_topk(hamming_cross(queries, vectors), k)
        mask = self.candidate_mask(vectors, queries, k)
        dense = mask.sum(axis=1) > _FALLBACK_FRACTION * self.count
        indices = np.empty((queries.shape[0], keep), dtype=np.int64)
        distances = np.empty((queries.shape[0], keep), dtype=np.int64)
        if dense.any():
            indices[dense], distances[dense] = batched_topk(
                hamming_cross(queries[dense], vectors), k
            )
        sparse = np.flatnonzero(~dense)
        if sparse.size:
            indices[sparse], distances[sparse] = _verify_candidates(
                vectors, queries[sparse], mask[sparse], keep
            )
        return indices, distances

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def save(self, path: Union[str, Path]) -> None:
        """Write the index as an ``.npz`` (pickle-free) archive."""
        meta = json.dumps(
            {
                "format_version": INDEX_FORMAT_VERSION,
                "dim": self.dim,
                "count": self.count,
            }
        )
        np.savez(
            path,
            positions=self.positions,
            probe=self.probe,
            meta=np.array(meta),
        )

    @classmethod
    def load(cls, path: Union[str, Path]) -> "BitSliceMedoidIndex":
        """Read an index written by :meth:`save`."""
        try:
            with np.load(path, allow_pickle=False) as archive:
                meta = json.loads(str(archive["meta"]))
                if meta.get("format_version") != INDEX_FORMAT_VERSION:
                    raise ParseError(
                        f"unsupported index version {meta.get('format_version')}",
                        str(path),
                    )
                return cls(
                    dim=int(meta["dim"]),
                    count=int(meta["count"]),
                    positions=archive["positions"].astype(np.int64),
                    probe=archive["probe"].astype(np.uint64),
                )
        except ParseError:
            raise
        except Exception as exc:  # np.load raises zip/OS/key errors
            raise ParseError(
                f"cannot read medoid index: {exc}", str(path)
            ) from exc


def _verify_candidates(
    vectors: np.ndarray, queries: np.ndarray, mask: np.ndarray, keep: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Exact top-``keep`` of each query row over its candidate columns.

    Every row of ``mask`` holds at least ``keep`` candidates (the pilot
    alone supplies them).  Candidates are scored in gather chunks, then
    one global stable sort keyed ``(query, distance, ordinal)`` puts each
    query's top-k first in its group.
    """
    num_queries = queries.shape[0]
    query_ids, medoid_ids = np.nonzero(mask)
    exact = np.empty(query_ids.size, dtype=np.int64)
    for lo in range(0, query_ids.size, _FLAT_CHUNK):
        hi = min(lo + _FLAT_CHUNK, query_ids.size)
        exact[lo:hi] = xor_popcount_rows(
            vectors[medoid_ids[lo:hi]], queries[query_ids[lo:hi]]
        )
    order = np.lexsort((medoid_ids, exact, query_ids))
    sorted_queries = query_ids[order]
    starts = np.zeros(num_queries, dtype=np.int64)
    np.cumsum(np.bincount(query_ids, minlength=num_queries)[:-1],
              out=starts[1:])
    rank = np.arange(order.size, dtype=np.int64) - starts[sorted_queries]
    selected = rank < keep
    indices = np.empty((num_queries, keep), dtype=np.int64)
    distances = np.empty((num_queries, keep), dtype=np.int64)
    indices[sorted_queries[selected], rank[selected]] = (
        medoid_ids[order][selected]
    )
    distances[sorted_queries[selected], rank[selected]] = (
        exact[order][selected]
    )
    return indices, distances
