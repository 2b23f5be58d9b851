"""The SpecHD end-to-end pipeline: preprocess → bucket → encode → cluster.

This is the library's main entry point.  It runs the *algorithmic* pipeline
in software (bit-exact with the hardware model's kernels) and, in parallel,
drives the FPGA performance model with the actual operation counts so every
run yields both cluster assignments and a hardware timing/energy report.

Typical use::

    from repro import SpecHDPipeline, SpecHDConfig
    from repro.datasets import small_benchmark_dataset

    data = small_benchmark_dataset()
    pipeline = SpecHDPipeline(SpecHDConfig(cluster_threshold=0.3))
    result = pipeline.run(data.spectra)
    print(result.labels, result.quality(data.labels))
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .cluster import (
    ClusteringStats,
    cut_at_height,
    nn_chain_linkage,
    quality_report,
    representative_indices,
    select_medoids,
)
from .cluster.metrics import QualityReport
from .errors import ConfigurationError
from .execution import execution_map, validate_backend
from .fpga import constants as hw
from .fpga.kernels import (
    distance_matrix_cycles,
    encoder_cycles,
    nnchain_cycles_from_stats,
)
from .hdc import EncoderConfig, IDLevelEncoder, pairwise_hamming_blocked
from .spectrum import (
    BucketingConfig,
    MassSpectrum,
    PeakBatch,
    PreprocessingConfig,
    partition_spectra,
    preprocess_peaks,
    preprocess_spectrum,  # noqa: F401 - perfbench's tracer wraps this name
)


@dataclass(frozen=True)
class SpecHDConfig:
    """Configuration of the full SpecHD pipeline.

    ``cluster_threshold`` is the merge cut expressed as a *normalised*
    Hamming distance in [0, 1] (fraction of differing hypervector bits);
    0.5 is the orthogonality distance of unrelated spectra.

    ``execution_backend`` selects how independent precursor buckets are
    clustered (``serial`` / ``threads`` / ``processes``, see
    :mod:`repro.execution`); ``num_workers`` bounds the pool size (default:
    host CPU count).  ``encode_batch_size`` is the streaming granularity of
    the encoder stage.  All backends produce identical labels.
    """

    preprocessing: PreprocessingConfig = field(
        default_factory=PreprocessingConfig
    )
    bucketing: BucketingConfig = field(default_factory=BucketingConfig)
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    linkage: str = "complete"
    cluster_threshold: float = 0.3
    num_cluster_kernels: int = hw.DEFAULT_CLUSTER_KERNELS
    clock_hz: float = hw.U280_CLOCK_HZ
    execution_backend: str = "serial"
    num_workers: Optional[int] = None
    encode_batch_size: int = 4096

    def __post_init__(self) -> None:
        if not 0.0 <= self.cluster_threshold <= 1.0:
            raise ConfigurationError(
                "cluster_threshold is a normalised Hamming distance in [0, 1]"
            )
        if self.num_cluster_kernels < 1:
            raise ConfigurationError("need at least one clustering kernel")
        validate_backend(self.execution_backend)
        if self.num_workers is not None and self.num_workers < 1:
            raise ConfigurationError("num_workers must be >= 1")
        if self.encode_batch_size < 1:
            raise ConfigurationError("encode_batch_size must be >= 1")


@dataclass
class HardwareReport:
    """Cycle-accurate hardware accounting for one pipeline run."""

    encoder_cycles: float = 0.0
    distance_cycles: float = 0.0
    nnchain_cycles: float = 0.0
    clock_hz: float = hw.U280_CLOCK_HZ
    num_cluster_kernels: int = hw.DEFAULT_CLUSTER_KERNELS

    @property
    def cluster_cycles(self) -> float:
        """Total clustering-kernel cycles (distance + NN-chain)."""
        return self.distance_cycles + self.nnchain_cycles

    @property
    def encode_seconds(self) -> float:
        """Encoder kernel wall time."""
        return self.encoder_cycles / self.clock_hz

    @property
    def cluster_seconds(self) -> float:
        """Clustering wall time with buckets spread across kernels."""
        return self.cluster_cycles / (self.clock_hz * self.num_cluster_kernels)


@dataclass
class SpecHDResult:
    """Everything a pipeline run produces."""

    labels: np.ndarray
    kept_indices: List[int]
    spectra: List[MassSpectrum]
    hypervectors: np.ndarray
    bucket_keys: Dict[Tuple[int, int], List[int]]
    medoids: Dict[int, int]
    distances_by_bucket: Dict[Tuple[int, int], np.ndarray]
    clustering_stats: ClusteringStats
    hardware: HardwareReport

    @property
    def num_clusters(self) -> int:
        """Number of clusters over the kept spectra."""
        if self.labels.size == 0:
            return 0
        return int(self.labels.max()) + 1

    def labels_for_input(self, input_size: int) -> np.ndarray:
        """Labels aligned to the *original* input (dropped spectra get -1)."""
        full = np.full(input_size, -1, dtype=np.int64)
        for position, original_index in enumerate(self.kept_indices):
            full[original_index] = self.labels[position]
        return full

    def quality(self, truth: Sequence[Optional[str]]) -> QualityReport:
        """Quality metrics against ground-truth labels for the full input."""
        full_labels = self.labels_for_input(len(truth))
        return quality_report(full_labels, truth)

    def representatives(self) -> List[int]:
        """Kept-set indices of representative (medoid/singleton) spectra."""
        representatives: List[int] = []
        for label, medoid in self.medoids.items():
            representatives.append(medoid)
        clustered = set()
        for members in _members_by_label(self.labels).values():
            if len(members) >= 2:
                clustered.update(members)
        for index in range(self.labels.size):
            if index not in clustered and index not in representatives:
                representatives.append(index)
        return sorted(set(representatives))


def _members_by_label(labels: np.ndarray) -> Dict[int, List[int]]:
    members: Dict[int, List[int]] = {}
    for index, label in enumerate(labels):
        members.setdefault(int(label), []).append(index)
    return members


def cluster_bucket_vectors(task) -> tuple:
    """Cluster one precursor bucket of packed hypervectors.

    ``task`` is ``(vectors, linkage, threshold_bits)``.  Returns
    ``(labels, stats, distances)`` where ``stats`` is the tuple
    ``(distance_scans, distance_updates, chain_extensions, merges)``.

    Top-level by design: the ``processes`` execution backend pickles this
    function together with its task, one independent bucket per work item —
    the software analogue of SpecHD's replicated clustering kernels.
    """
    vectors, linkage, threshold_bits = task
    distances = pairwise_hamming_blocked(vectors).astype(np.float64)
    result = nn_chain_linkage(distances, linkage)
    labels = cut_at_height(result, threshold_bits)
    stats = result.stats
    return (
        labels,
        (
            stats.distance_scans,
            stats.distance_updates,
            stats.chain_extensions,
            stats.merges,
        ),
        distances,
    )


def cluster_bucket_labels(task) -> np.ndarray:
    """Labels-only variant of :func:`cluster_bucket_vectors`.

    For callers that do not need the bucket's distance matrix (incremental
    leftover clustering): dropping it inside the worker avoids pickling an
    O(n^2) float64 array back from every ``processes``-backend task.
    """
    labels, _stats, _distances = cluster_bucket_vectors(task)
    return labels


class SpecHDPipeline:
    """End-to-end SpecHD: the software twin of Fig. 3's dataflow."""

    def __init__(self, config: SpecHDConfig = SpecHDConfig()) -> None:
        self.config = config
        self.encoder = IDLevelEncoder(config.encoder)

    def run_files(self, paths) -> "SpecHDResult":
        """Run the pipeline over one or more spectrum files (MGF/MS2/mzML).

        Built on the staged streaming dataflow (:mod:`repro.streaming`):
        files are parsed lazily and each batch is preprocessed *and
        HD-encoded* the moment it streams in, with parse/encode of
        later batches overlapping on the configured execution backend
        while earlier ones are collected.  Peak memory is bounded by the
        *preprocessed* dataset (top-k peaks per spectrum) plus the
        packed hypervectors, mirroring the near-storage flow where raw
        data never reaches the host.  Labels are invariant under the
        backend and worker count.
        """
        from .io.source import SpectrumSource
        from .streaming import StreamConfig, stream_encoded_batches

        config = self.config
        source = SpectrumSource(paths)
        stream_config = StreamConfig(
            batch_size=config.encode_batch_size,
            backend=config.execution_backend,
            workers=config.num_workers,
        )
        kept: List[MassSpectrum] = []
        kept_indices: List[int] = []
        vector_parts: List[np.ndarray] = []
        file_base = 0
        current_file = 0
        file_raw_total = 0
        for batch in stream_encoded_batches(
            source,
            config.preprocessing,
            config.encoder,
            stream_config,
            keep_spectra=True,
            encoder=self.encoder,
        ):
            if batch.file_index != current_file:
                # Batches arrive file-major, so the previous file's raw
                # total is final the moment a new file's batch shows up.
                file_base += file_raw_total
                file_raw_total = 0
                current_file = batch.file_index
            file_raw_total = batch.raw_start + batch.raw_count
            kept.extend(batch.spectra)
            batch_base = file_base + batch.raw_start
            kept_indices.extend(
                int(batch_base + offset) for offset in batch.kept_offsets
            )
            vector_parts.append(batch.vectors)
        hypervectors = (
            np.vstack(vector_parts)
            if vector_parts
            else np.zeros((0, config.encoder.dim // 64), dtype=np.uint64)
        )
        return self._run_preprocessed(
            kept, kept_indices, hypervectors=hypervectors
        )

    def encode_only(self, spectra: Sequence[MassSpectrum]):
        """Preprocess + encode without clustering; returns a store.

        This is the "one-time preprocessing" artefact (§IV-B): a
        :class:`repro.io.HypervectorStore` that persists the compressed
        dataset for later (incremental) clustering, repository ingest
        (``repro ingest``/:class:`repro.store.ClusterRepository`), or
        library search.
        """
        from .io.hvstore import HypervectorStore

        processed, _ = preprocess_peaks(
            PeakBatch.from_spectra(spectra), self.config.preprocessing
        )
        kept = processed.to_spectra()
        if kept:
            vectors = np.vstack(
                list(
                    self.encoder.encode_stream(
                        kept, batch_size=self.config.encode_batch_size
                    )
                )
            )
        else:
            vectors = np.zeros(
                (0, self.config.encoder.dim // 64), dtype=np.uint64
            )
        return HypervectorStore.from_encoding(
            kept,
            vectors,
            dim=self.config.encoder.dim,
            encoder_seed=self.config.encoder.seed,
        )

    def run(self, spectra: Sequence[MassSpectrum]) -> SpecHDResult:
        """Run the full pipeline over in-memory spectra.

        Stages: batch preprocessing (drops QC failures), precursor
        bucketing (Eq. 1), ID-Level encoding (Eq. 2), per-bucket Hamming
        distance matrices, per-bucket NN-chain HAC with the configured
        linkage cut at ``cluster_threshold``, and medoid selection.
        """
        processed, kept = preprocess_peaks(
            PeakBatch.from_spectra(spectra), self.config.preprocessing
        )
        return self._run_preprocessed(processed.to_spectra(), kept.tolist())

    def _run_preprocessed(
        self,
        kept: List[MassSpectrum],
        kept_indices: List[int],
        hypervectors: Optional[np.ndarray] = None,
    ) -> SpecHDResult:
        """Bucket, encode and cluster already-preprocessed spectra.

        ``hypervectors`` lets a caller that already encoded the spectra
        (the streaming stage graph) skip the encode stage here; the
        hardware encoder-cycle accounting is identical either way since
        it depends only on spectrum and peak counts.
        """
        config = self.config
        hardware = HardwareReport(
            clock_hz=config.clock_hz,
            num_cluster_kernels=config.num_cluster_kernels,
        )
        if not kept:
            return SpecHDResult(
                labels=np.zeros(0, dtype=np.int64),
                kept_indices=[],
                spectra=[],
                hypervectors=np.zeros(
                    (0, config.encoder.dim // 64), dtype=np.uint64
                ),
                bucket_keys={},
                medoids={},
                distances_by_bucket={},
                clustering_stats=ClusteringStats(),
                hardware=hardware,
            )

        buckets = partition_spectra(kept, config.bucketing)
        if hypervectors is None:
            # Stream encode batches (fast vectorised path) rather than one
            # monolithic call, mirroring the FPGA's burst dataflow and
            # bounding encoder scratch memory for very large runs.
            hypervectors = np.vstack(
                list(
                    self.encoder.encode_stream(
                        kept, batch_size=config.encode_batch_size
                    )
                )
            )
        else:
            hypervectors = np.asarray(hypervectors, dtype=np.uint64)
        average_peaks = float(np.mean([s.peak_count for s in kept]))
        hardware.encoder_cycles = encoder_cycles(
            len(kept), average_peaks, config.encoder.dim
        )

        labels = np.full(len(kept), -1, dtype=np.int64)
        distances_by_bucket: Dict[Tuple[int, int], np.ndarray] = {}
        total_stats = ClusteringStats()
        threshold_bits = config.cluster_threshold * config.encoder.dim
        # Multi-member buckets are independent work items: fan them out on
        # the configured execution backend, then stitch labels back together
        # serially in sorted-key order so every backend yields identical
        # labelling.
        sorted_keys = sorted(buckets)
        multi_keys = [key for key in sorted_keys if len(buckets[key]) >= 2]
        outcomes = execution_map(
            cluster_bucket_vectors,
            [
                (hypervectors[buckets[key]], config.linkage, threshold_bits)
                for key in multi_keys
            ],
            backend=config.execution_backend,
            workers=config.num_workers,
        )
        results_by_key = dict(zip(multi_keys, outcomes))
        next_label = 0
        for key in sorted_keys:
            members = buckets[key]
            if len(members) == 1:
                labels[members[0]] = next_label
                next_label += 1
                continue
            bucket_labels, stats, distances = results_by_key[key]
            distances_by_bucket[key] = distances
            for local_index, member in enumerate(members):
                labels[member] = next_label + int(bucket_labels[local_index])
            next_label += int(bucket_labels.max()) + 1

            scans, updates, extensions, merges = stats
            total_stats.distance_scans += scans
            total_stats.distance_updates += updates
            total_stats.chain_extensions += extensions
            total_stats.merges += merges
            hardware.distance_cycles += distance_matrix_cycles(
                len(members), config.encoder.dim
            )
            hardware.nnchain_cycles += nnchain_cycles_from_stats(
                scans, updates, len(members)
            )

        # Medoids per multi-member cluster, using original bucket distances.
        medoids: Dict[int, int] = {}
        for key, members in buckets.items():
            if len(members) < 2:
                continue
            distances = distances_by_bucket[key]
            member_array = np.array(members)
            local_labels = labels[member_array]
            for label in np.unique(local_labels):
                local_members = np.flatnonzero(local_labels == label)
                if local_members.size < 2:
                    continue
                sub = distances[np.ix_(local_members, local_members)]
                mean_distance = sub.sum(axis=1) / (local_members.size - 1)
                winner = local_members[int(np.argmin(mean_distance))]
                medoids[int(label)] = int(member_array[winner])

        return SpecHDResult(
            labels=labels,
            kept_indices=kept_indices,
            spectra=kept,
            hypervectors=hypervectors,
            bucket_keys=buckets,
            medoids=medoids,
            distances_by_bucket=distances_by_bucket,
            clustering_stats=total_stats,
            hardware=hardware,
        )
