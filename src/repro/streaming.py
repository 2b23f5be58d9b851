"""The staged streaming dataflow: parse → preprocess → encode → route.

This is the software twin of the paper's near-storage pipeline, where raw
spectra stream continuously through preprocessing and HD encoding without
ever being materialised on the host.  The stage graph here feeds any
consumer that applies encoded batches in order — the sharded repository
(:class:`repro.store.StreamingIngestor`) and the end-to-end pipeline
(:meth:`repro.pipeline.SpecHDPipeline.run_files`) both ride on it:

.. code-block:: text

    reader ──> preprocess ──> encode ──> bucket-route ─┐  (per worker,
    reader ──> preprocess ──> encode ──> bucket-route ─┤   bounded queue
    reader ──> preprocess ──> encode ──> bucket-route ─┘   per file)
                                      └──────> ordered apply (caller)

Scheduling varies by backend, **output never does**: batches are yielded
file-major in batch order — exactly the order a sequential loop over
``SpectrumSource.iter_batches`` produces — so every downstream label and
journal record is invariant under the backend and worker count.

``serial`` (or one worker)
    A plain generator; one batch in flight, minimal memory.
``threads``
    One producer task per file on an :class:`repro.execution.ExecutionPool`;
    each producer parses, preprocesses and encodes its file and hands
    encoded batches over a *bounded* queue (``queue_depth`` batches per
    in-flight file — the backpressure knob).  Parsing is pure Python but
    encoding and the consumer's numpy/fsync work release the GIL, so
    stages genuinely overlap.
``processes``
    One task per file shipped to worker processes, which parse +
    preprocess + encode near the data and return only the compact encoded
    batches (``dim/8`` bytes per spectrum — plus the preprocessed top-k
    peaks when the consumer asked for ``keep_spectra``); a sliding window
    of ``workers + queue_depth`` in-flight files bounds memory.  This is
    the backend that scales parse-bound multi-file ingest with core count.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from .errors import ConfigurationError
from .execution import ExecutionPool, validate_backend
from .hdc import EncoderConfig, IDLevelEncoder
from .io.source import SpectrumFile, SpectrumSource
from .spectrum import (
    MassSpectrum,
    PeakBatch,
    PreprocessingConfig,
    preprocess_peaks,
    preprocess_spectrum,  # noqa: F401 - perfbench's tracer wraps this name
)

#: Default encoded batches buffered per in-flight file (threads backend)
#: and extra files in flight beyond the worker count (processes backend).
DEFAULT_QUEUE_DEPTH = 4

#: Seconds between backpressure polls of the stop flag while a producer
#: waits on a full queue.
_PUT_POLL_SECONDS = 0.05


@dataclass(frozen=True)
class StreamConfig:
    """Knobs of the streaming dataflow (validated at construction)."""

    batch_size: int = 1024
    queue_depth: int = DEFAULT_QUEUE_DEPTH
    backend: str = "serial"
    workers: Optional[int] = None

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        if self.queue_depth < 1:
            raise ConfigurationError("queue_depth must be >= 1")
        validate_backend(self.backend)
        if self.workers is not None and self.workers < 1:
            raise ConfigurationError("num_workers must be >= 1")


@dataclass
class EncodedBatch:
    """One batch after the preprocess + encode stages.

    ``raw_count`` counts every spectrum parsed into the batch;
    ``kept_offsets`` are the within-batch offsets of the QC survivors, so
    consumers can reconstruct original-input indices.  The parallel
    arrays (``identifiers``/``precursor_mz``/``charge``/``vectors``)
    cover survivors only.  ``spectra`` carries the preprocessed spectrum
    objects when the producer ran with ``keep_spectra=True`` (the
    clustering pipeline needs peaks; repository ingest does not).
    """

    file_index: int
    batch_index: int
    raw_start: int
    raw_count: int
    kept_offsets: np.ndarray
    identifiers: List[str]
    precursor_mz: np.ndarray
    charge: np.ndarray
    vectors: np.ndarray
    spectra: Optional[List[MassSpectrum]] = None

    @property
    def num_kept(self) -> int:
        """Spectra that survived preprocessing QC."""
        return int(self.vectors.shape[0])

    @property
    def num_dropped(self) -> int:
        """Spectra the preprocess stage dropped."""
        return self.raw_count - self.num_kept


@dataclass
class StreamStats:
    """Thread-safe progress counters of one streaming run.

    Producers (threads backend) update parse/encode counters live; the
    processes backend updates them as batches arrive back in the parent.
    The consumer calls :meth:`note_applied` per applied batch, making
    ``pending_batches`` the depth of the encode→apply hand-off.
    """

    files_total: int = 0
    files_done: int = 0
    spectra_parsed: int = 0
    spectra_kept: int = 0
    spectra_dropped: int = 0
    batches_encoded: int = 0
    batches_applied: int = 0
    spectra_applied: int = 0
    #: Live gauge maintained by the stage machinery: encoded batches
    #: sitting in bounded queues (threads) or in-flight files (processes).
    queue_depth: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def note_encoded(self, batch: EncodedBatch) -> None:
        with self._lock:
            self.spectra_parsed += batch.raw_count
            self.spectra_kept += batch.num_kept
            self.spectra_dropped += batch.num_dropped
            self.batches_encoded += 1

    def note_file_done(self) -> None:
        with self._lock:
            self.files_done += 1

    def note_applied(self, batch: EncodedBatch) -> None:
        with self._lock:
            self.batches_applied += 1
            self.spectra_applied += batch.num_kept

    def set_queue_depth(self, depth: int) -> None:
        with self._lock:
            self.queue_depth = depth

    def queue_delta(self, delta: int) -> None:
        """Incrementally adjust the queue-depth gauge (O(1) per batch)."""
        with self._lock:
            self.queue_depth += delta

    def snapshot(self) -> Dict[str, int]:
        """A consistent copy of all counters."""
        with self._lock:
            return {
                "files_total": self.files_total,
                "files_done": self.files_done,
                "spectra_parsed": self.spectra_parsed,
                "spectra_kept": self.spectra_kept,
                "spectra_dropped": self.spectra_dropped,
                "batches_encoded": self.batches_encoded,
                "batches_applied": self.batches_applied,
                "spectra_applied": self.spectra_applied,
                "queue_depth": self.queue_depth,
            }


def _encode_raw_batch(
    raw: PeakBatch,
    preprocessing: PreprocessingConfig,
    encoder: IDLevelEncoder,
    keep_spectra: bool,
    file_index: int,
    batch_index: int,
    raw_start: int,
) -> EncodedBatch:
    """Preprocess + encode one raw batch (runs on whichever worker owns it)."""
    processed, kept = preprocess_peaks(raw, preprocessing)
    return EncodedBatch(
        file_index=file_index,
        batch_index=batch_index,
        raw_start=raw_start,
        raw_count=len(raw),
        kept_offsets=kept,
        identifiers=processed.identifiers,
        precursor_mz=processed.precursor_mz,
        charge=processed.charge.astype(np.int16),
        vectors=encoder.encode_batch(processed),
        spectra=processed.to_spectra() if keep_spectra else None,
    )


def encode_spectra(
    spectra: Sequence[MassSpectrum],
    preprocessing: PreprocessingConfig,
    encoder: IDLevelEncoder,
    keep_spectra: bool = False,
) -> EncodedBatch:
    """Preprocess + encode one in-memory batch; the RPC-shaped entry point.

    The file-streaming paths above chop inputs themselves; this is for
    callers whose batches arrive already materialised — the cluster
    service daemon runs every client ingest and query payload through it
    *outside* its writer lock, so only the compact encoded rows enter
    the repository's critical section.  Semantics (QC drops, encoding,
    ``kept_offsets`` bookkeeping) are exactly the stage graph's.
    """
    return _encode_raw_batch(
        PeakBatch.from_spectra(spectra),
        preprocessing,
        encoder,
        keep_spectra,
        file_index=0,
        batch_index=0,
        raw_start=0,
    )


def _iter_file_batches(
    entry: SpectrumFile,
    file_index: int,
    preprocessing: PreprocessingConfig,
    encoder: IDLevelEncoder,
    batch_size: int,
    keep_spectra: bool,
) -> Iterator[EncodedBatch]:
    """Parse one file into encoded batches, lazily and in order."""
    raw_start = 0
    for batch_index, raw in enumerate(entry.read_batches(batch_size)):
        yield _encode_raw_batch(
            raw,
            preprocessing,
            encoder,
            keep_spectra,
            file_index,
            batch_index,
            raw_start,
        )
        raw_start += len(raw)


# ----------------------------------------------------------------------
# processes backend: file-grained tasks, encoder cached per process
# ----------------------------------------------------------------------

#: Per-process encoder cache keyed by (frozen, hashable) EncoderConfig.
_PROCESS_ENCODERS: Dict[EncoderConfig, IDLevelEncoder] = {}


def _process_encoder(config: EncoderConfig) -> IDLevelEncoder:
    encoder = _PROCESS_ENCODERS.get(config)
    if encoder is None:
        encoder = IDLevelEncoder(config)
        _PROCESS_ENCODERS.clear()  # one live item memory per worker
        _PROCESS_ENCODERS[config] = encoder
    return encoder


def _encode_file_task(task: tuple) -> List[EncodedBatch]:
    """Worker-process task: parse + preprocess + encode one whole file.

    Top-level by design (the ``processes`` backend pickles it).  Returns
    the file's encoded batches; with ``keep_spectra=False`` (repository
    ingest) raw spectra never leave the worker, so the bytes shipped
    back scale with ``dim/8`` per spectrum, not with peak counts — the
    near-storage compression argument applied to IPC.  With
    ``keep_spectra=True`` (``run_files``, which clusters the peaks
    downstream) each batch also carries its preprocessed top-k spectra.
    """
    (
        path,
        format_name,
        preprocessing,
        encoder_config,
        batch_size,
        keep_spectra,
        file_index,
    ) = task
    from pathlib import Path

    entry = SpectrumFile(path=Path(path), format=format_name)
    encoder = _process_encoder(encoder_config)
    return list(
        _iter_file_batches(
            entry, file_index, preprocessing, encoder, batch_size, keep_spectra
        )
    )


# ----------------------------------------------------------------------
# threads backend: per-file producers feeding bounded queues
# ----------------------------------------------------------------------

_DONE = object()


class _StageError:
    """An exception captured on a producer, re-raised by the consumer."""

    def __init__(self, error: BaseException) -> None:
        self.error = error


def _bounded_put(
    target: "queue.Queue", item, stop: threading.Event
) -> bool:
    """Put with backpressure that stays responsive to shutdown."""
    while not stop.is_set():
        try:
            target.put(item, timeout=_PUT_POLL_SECONDS)
            return True
        except queue.Full:
            continue
    return False


def _drain(target: "queue.Queue") -> None:
    while True:
        try:
            target.get_nowait()
        except queue.Empty:
            return


def _stream_threaded(
    source: SpectrumSource,
    preprocessing: PreprocessingConfig,
    base_encoder: IDLevelEncoder,
    config: StreamConfig,
    keep_spectra: bool,
    stats: StreamStats,
    pool: ExecutionPool,
) -> Iterator[EncodedBatch]:
    """Per-file producer tasks handing batches over bounded queues.

    The consumer walks files strictly in plan order, so producers ahead
    of the apply frontier fill their ``queue_depth`` slots and then block
    — bounded lookahead, not unbounded buffering.  A stop event keeps
    every blocked ``put`` responsive to consumer-side teardown (error or
    early ``close`` of the generator).
    """
    # Warm the shared lookup tables on this thread before any producer
    # clones the encoder concurrently — clone() reads them lazily.
    base_encoder.clone()
    queues: List["queue.Queue"] = [
        queue.Queue(maxsize=config.queue_depth) for _ in source.files
    ]
    stop = threading.Event()

    def produce(file_index: int) -> None:
        out = queues[file_index]
        try:
            encoder = base_encoder.clone()
            batches = _iter_file_batches(
                source.files[file_index],
                file_index,
                preprocessing,
                encoder,
                config.batch_size,
                keep_spectra,
            )
            for batch in batches:
                stats.note_encoded(batch)
                # Gauge up *before* the put: the consumer decrements
                # after its get, so the other order could swing the
                # gauge negative between the two.
                stats.queue_delta(1)
                if not _bounded_put(out, batch, stop):
                    stats.queue_delta(-1)
                    return
            stats.note_file_done()
            _bounded_put(out, _DONE, stop)
        except BaseException as exc:  # noqa: BLE001 - ferried to consumer
            _bounded_put(out, _StageError(exc), stop)

    futures = [pool.submit(produce, index) for index in range(len(queues))]
    try:
        for file_queue in queues:
            while True:
                item = file_queue.get()
                if item is _DONE:
                    break
                if isinstance(item, _StageError):
                    raise item.error
                stats.queue_delta(-1)
                yield item
    finally:
        # Unblock producers stuck on full queues, then let the pool's
        # own close (caller-owned or our finally) join the threads.
        stop.set()
        for file_queue in queues:
            _drain(file_queue)
        for future in futures:
            future.cancel()
        stats.set_queue_depth(0)


def _stream_processes(
    source: SpectrumSource,
    preprocessing: PreprocessingConfig,
    encoder_config: EncoderConfig,
    config: StreamConfig,
    keep_spectra: bool,
    stats: StreamStats,
    pool: ExecutionPool,
) -> Iterator[EncodedBatch]:
    """Sliding window of per-file tasks on a process pool, consumed in order."""
    from collections import deque

    window = pool.workers + config.queue_depth
    pending: "deque" = deque()
    next_file = 0

    def submit_next() -> None:
        nonlocal next_file
        if next_file >= len(source.files):
            return
        entry = source.files[next_file]
        pending.append(
            pool.submit(
                _encode_file_task,
                (
                    str(entry.path),
                    entry.format,
                    preprocessing,
                    encoder_config,
                    config.batch_size,
                    keep_spectra,
                    next_file,
                ),
            )
        )
        next_file += 1

    for _ in range(window):
        submit_next()
    while pending:
        stats.set_queue_depth(len(pending))
        batches = pending.popleft().result()
        submit_next()
        for batch in batches:
            stats.note_encoded(batch)
            yield batch
        stats.note_file_done()
    stats.set_queue_depth(0)


def stream_encoded_batches(
    source: SpectrumSource,
    preprocessing: PreprocessingConfig,
    encoder_config: EncoderConfig,
    config: StreamConfig = StreamConfig(),
    *,
    keep_spectra: bool = False,
    encoder: Optional[IDLevelEncoder] = None,
    stats: Optional[StreamStats] = None,
    pool: Optional[ExecutionPool] = None,
) -> Iterator[EncodedBatch]:
    """Run the parse→preprocess→encode stage graph over a source.

    Yields :class:`EncodedBatch` objects file-major in batch order —
    byte-identical content and ordering for every backend.  ``encoder``
    may supply a pre-built encoder whose item memory the worker clones
    share (the repository passes its own, guaranteeing the streamed
    vectors match what ``add_batch`` would have encoded).  A caller-owned
    ``pool`` is borrowed, never closed; otherwise a pool matching
    ``config`` is created and torn down even when a stage raises.
    """
    if encoder is not None:
        if encoder.config != encoder_config:
            raise ConfigurationError(
                "shared encoder configuration does not match encoder_config"
            )
        if encoder.item_memory.config != encoder_config.item_memory_config():
            # Process workers rebuild their encoder from encoder_config
            # alone, so an encoder carrying a custom item memory would
            # silently diverge there; reject it on every backend to keep
            # the output backend-invariant.
            raise ConfigurationError(
                "shared encoder carries a custom item memory; streaming "
                "workers rebuild encoders from encoder_config, so only "
                "config-derived item memories are supported"
            )
    if stats is None:
        stats = StreamStats()
    stats.files_total = len(source.files)

    owned_pool = None
    if pool is None:
        pool = owned_pool = ExecutionPool(config.backend, config.workers)
    try:
        if pool.is_inline:
            base = encoder or IDLevelEncoder(encoder_config)
            for file_index, entry in enumerate(source.files):
                for batch in _iter_file_batches(
                    entry,
                    file_index,
                    preprocessing,
                    base,
                    config.batch_size,
                    keep_spectra,
                ):
                    stats.note_encoded(batch)
                    yield batch
                stats.note_file_done()
        elif pool.backend == "threads":
            base = encoder or IDLevelEncoder(encoder_config)
            yield from _stream_threaded(
                source, preprocessing, base, config, keep_spectra, stats, pool
            )
        else:
            yield from _stream_processes(
                source,
                preprocessing,
                encoder_config,
                config,
                keep_spectra,
                stats,
                pool,
            )
    except BaseException:
        if owned_pool is not None:
            owned_pool.close(cancel_pending=True)
            owned_pool = None
        raise
    finally:
        if owned_pool is not None:
            owned_pool.close()
