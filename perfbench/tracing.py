"""Span recording around the public entry points of each layer.

The program itself carries no spans yet, so the benchmark wraps the
functions each layer exposes (patching the reference a caller module
imported, where it imported the name) and records one span per call:
name, start and end on ``CLOCK_MONOTONIC`` (one clock for every process
on the host, so spans of the load generator and the daemons line up),
parent span, thread and process.  Spans stay in memory and are written
out when the process shuts down.

Wrappers are installed only in traced runs; untraced runs execute the
program unmodified.
"""

import functools
import itertools
import json
import os
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Fields of one span record, in storage order.
FIELDS = ("id", "parent", "name", "start", "end", "thread", "pid", "attrs")


def now_ns() -> int:
    """The shared span clock."""
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


class Tracer:
    """In-memory span sink for one process."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._pid = os.getpid()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [getattr(self._local, "inherited", 0)]
        return stack

    def current(self) -> int:
        """Id of the innermost open span on this thread (0 when none)."""
        return self._stack()[-1]

    def record(
        self,
        name: str,
        start: int,
        end: int,
        parent: int = 0,
        attrs: Optional[dict] = None,
        span_id: Optional[int] = None,
    ) -> int:
        """Store one finished span (used for spans timed by the caller)."""
        if span_id is None:
            span_id = next(self._ids)
        self.spans.append(
            (
                span_id,
                parent,
                name,
                start,
                end,
                threading.get_ident(),
                self._pid,
                attrs,
            )
        )
        return span_id

    def wrap(
        self,
        name: str,
        function: Callable,
        attrs: Optional[Callable] = None,
    ) -> Callable:
        """``function`` with one span per call; ``attrs(args, kwargs,
        result)`` returns the counts recorded on the span."""

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1]
            span_id = next(self._ids)
            stack.append(span_id)
            start = now_ns()
            try:
                result = function(*args, **kwargs)
            except BaseException:
                stack.pop()
                self.record(name, start, now_ns(), parent, None, span_id)
                raise
            end = now_ns()
            stack.pop()
            extra = attrs(args, kwargs, result) if attrs else None
            self.record(name, start, end, parent, extra, span_id)
            return result

        return traced

    def wrap_generator(
        self, name: str, function: Callable, attrs: Callable
    ) -> Callable:
        """A generator function whose every ``next()`` is one span."""

        @functools.wraps(function)
        def traced(*args, **kwargs):
            iterator = iter(function(*args, **kwargs))
            while True:
                stack = self._stack()
                parent = stack[-1]
                span_id = next(self._ids)
                stack.append(span_id)
                start = now_ns()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    stack.pop()
                    end = now_ns()
                self.record(name, start, end, parent, attrs(item), span_id)
                yield item

        return traced

    def propagate_executor(self) -> None:
        """Make thread-pool tasks children of the span that submitted them."""
        from concurrent.futures import ThreadPoolExecutor

        original = ThreadPoolExecutor.submit
        tracer = self

        @functools.wraps(original)
        def submit(pool, function, *args, **kwargs):
            parent = tracer.current()

            def run(*inner_args, **inner_kwargs):
                tracer._local.inherited = parent
                tracer._local.stack = [parent]
                try:
                    return function(*inner_args, **inner_kwargs)
                finally:
                    tracer._local.stack = [0]
                    tracer._local.inherited = 0

            return original(pool, run, *args, **kwargs)

        ThreadPoolExecutor.submit = submit

    def dump(self, path: str) -> None:
        """Write every recorded span as one JSON document."""
        spans = [list(span) for span in list(self.spans)]
        with open(path, "w") as handle:
            json.dump({"pid": self._pid, "spans": spans}, handle)


def load_spans(paths: Iterable[str]) -> List[dict]:
    """Read span dumps back as dicts keyed by :data:`FIELDS`."""
    spans = []
    for path in paths:
        with open(path) as handle:
            document = json.load(handle)
        spans.extend(dict(zip(FIELDS, span)) for span in document["spans"])
    return spans


def patch_classmethod(cls, attribute: str, tracer: Tracer, name: str, attrs=None):
    """Wrap a classmethod so the span covers the underlying function."""
    function = cls.__dict__[attribute].__func__
    setattr(cls, attribute, classmethod(tracer.wrap(name, function, attrs)))


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------


def covered(intervals: Sequence[Tuple[int, int]], start: int, end: int) -> int:
    """Length of ``[start, end)`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(a, start), min(b, end)) for a, b in intervals if b > start and a < end
    )
    total = 0
    cursor = start
    for a, b in clipped:
        if b <= cursor:
            continue
        total += b - max(a, cursor)
        cursor = b
    return total


def self_time(span: dict, children: Iterable[dict]) -> int:
    """A span's duration minus the part of it its children cover."""
    intervals = [(child["start"], child["end"]) for child in children]
    return (span["end"] - span["start"]) - covered(
        intervals, span["start"], span["end"]
    )


def children_by_parent(spans: Iterable[dict]) -> Dict[Tuple[int, int], List[dict]]:
    """Group spans under ``(pid, parent id)``."""
    groups: Dict[Tuple[int, int], List[dict]] = {}
    for span in spans:
        groups.setdefault((span["pid"], span["parent"]), []).append(span)
    return groups


# ----------------------------------------------------------------------
# Layer wrappers, per launched role
# ----------------------------------------------------------------------


def _rows(value) -> int:
    return int(getattr(value, "shape", (len(value),))[0])


def _encode_attrs(args, kwargs, result):
    return {"rows": len(args[1])}


def _cross_attrs(args, kwargs, result):
    queries, refs = args[0], args[1]
    rows_q, rows_r, words = _rows(queries), _rows(refs), int(queries.shape[1])
    return {
        "ops": rows_q * rows_r * words,
        "bytes": (rows_q + rows_r) * words * 8 + int(getattr(result, "nbytes", 0)),
    }


def install_cluster_layers(tracer: Tracer) -> None:
    """Offline clustering: parse → preprocess → encode → bucket → HAC."""
    import repro.pipeline as pipeline
    import repro.streaming as streaming
    from repro.hdc.encoder import IDLevelEncoder
    from repro.io.source import SpectrumFile

    SpectrumFile.read_batches = tracer.wrap_generator(
        "io.read", SpectrumFile.read_batches, lambda batch: {"spectra": len(batch)}
    )
    preprocess = tracer.wrap(
        "spectrum.preprocess",
        streaming.preprocess_spectrum,
        lambda args, kwargs, result: {"kept": result is not None},
    )
    streaming.preprocess_spectrum = preprocess
    pipeline.preprocess_spectrum = preprocess
    IDLevelEncoder.encode_batch = tracer.wrap(
        "hdc.encode", IDLevelEncoder.encode_batch, _encode_attrs
    )
    pipeline.partition_spectra = tracer.wrap(
        "spectrum.bucketing",
        pipeline.partition_spectra,
        lambda args, kwargs, result: {
            "max_bucket": max((len(v) for v in result.values()), default=0)
        },
    )
    pipeline.pairwise_hamming_blocked = tracer.wrap(
        "hdc.pairwise",
        pipeline.pairwise_hamming_blocked,
        lambda args, kwargs, result: {
            "pairs": _rows(args[0]) * (_rows(args[0]) - 1) // 2,
            "bytes": int(args[0].nbytes) + int(result.nbytes),
        },
    )
    pipeline.nn_chain_linkage = tracer.wrap(
        "cluster.nnchain",
        pipeline.nn_chain_linkage,
        lambda args, kwargs, result: {"merges": int(result.stats.merges)},
    )
    pipeline.SpecHDPipeline.run_files = tracer.wrap(
        "pipeline.run_files", pipeline.SpecHDPipeline.run_files
    )


def install_daemon_layers(tracer: Tracer) -> None:
    """One serving node: dispatch, scan, index, kernels, ingest, checkpoint."""
    import repro.service.daemon as daemon
    import repro.store.index as index
    import repro.store.query as query
    from repro.hdc.encoder import IDLevelEncoder
    from repro.incremental import IncrementalClusterStore
    from repro.store.repository import ClusterRepository
    from repro.store.snapshot import RepositorySnapshot
    from repro.store.wal import WriteAheadLog

    tracer.propagate_executor()
    service = daemon.ClusterService
    service.query_vectors = tracer.wrap(
        "service.query_vectors",
        service.query_vectors,
        lambda args, kwargs, result: {"rows": _rows(args[1])},
    )
    service.query_vectors_at = tracer.wrap(
        "service.query_vectors_at",
        service.query_vectors_at,
        lambda args, kwargs, result: {"rows": _rows(args[1])},
    )
    service.ingest = tracer.wrap(
        "service.ingest",
        service.ingest,
        lambda args, kwargs, result: {"spectra": len(args[1])},
    )
    daemon.encode_spectra = tracer.wrap(
        "streaming.encode",
        daemon.encode_spectra,
        lambda args, kwargs, result: {
            "spectra": len(args[0]),
            "kept": int(result.num_kept),
        },
    )
    ClusterRepository.add_encoded_batch = tracer.wrap(
        "store.add_encoded_batch",
        ClusterRepository.add_encoded_batch,
        lambda args, kwargs, result: {"bytes": int(args[1].nbytes)},
    )
    original_append = WriteAheadLog.append_encoded

    @functools.wraps(original_append)
    def append_encoded(wal, seq, vectors, *args, **kwargs):
        before = wal.path.stat().st_size if wal.path.exists() else 0
        start = now_ns()
        parent = tracer.current()
        try:
            return original_append(wal, seq, vectors, *args, **kwargs)
        finally:
            end = now_ns()
            after = wal.path.stat().st_size if wal.path.exists() else 0
            tracer.record(
                "store.wal.append",
                start,
                end,
                parent,
                {"bytes": max(0, after - before), "rows": _rows(vectors)},
            )

    WriteAheadLog.append_encoded = append_encoded
    IncrementalClusterStore.add_encoded = tracer.wrap(
        "incremental.apply",
        IncrementalClusterStore.add_encoded,
        lambda args, kwargs, result: {
            "added": int(result.num_added),
            "absorbed": int(result.num_absorbed),
        },
    )

    def checkpoint_attrs(args, kwargs, result):
        if result is None:
            return {"bytes": 0}
        directory = ClusterRepository._generation_dir(args[0].directory, result)
        written = sum(
            entry.stat().st_size for entry in directory.rglob("*") if entry.is_file()
        )
        return {"bytes": written}

    ClusterRepository.checkpoint = tracer.wrap(
        "store.checkpoint", ClusterRepository.checkpoint, checkpoint_attrs
    )
    patch_classmethod(RepositorySnapshot, "open", tracer, "store.snapshot.open")
    query.QueryService.query_vectors = tracer.wrap(
        "store.query.pass",
        query.QueryService.query_vectors,
        lambda args, kwargs, result: {"rows": _rows(args[1])},
    )
    index.BitSliceMedoidIndex.candidate_mask = tracer.wrap(
        "store.index.candidate_mask",
        index.BitSliceMedoidIndex.candidate_mask,
        lambda args, kwargs, result: {
            "candidates": int(result.sum()),
            "scanned": int(result.size),
        },
    )
    cross = tracer.wrap("hdc.cross", query.hamming_cross, _cross_attrs)
    query.hamming_cross = cross
    index.hamming_cross = cross
    IDLevelEncoder.encode_batch = tracer.wrap(
        "hdc.encode", IDLevelEncoder.encode_batch, _encode_attrs
    )


def install_router_layers(tracer: Tracer) -> None:
    """The router: routed request, per-node scatter calls."""
    from repro.fleet.router import RouterDaemon
    from repro.service.client import ServiceClient

    tracer.propagate_executor()
    RouterDaemon.query_vectors_traced = tracer.wrap(
        "fleet.router",
        RouterDaemon.query_vectors_traced,
        lambda args, kwargs, result: {"rows": _rows(args[1])},
    )
    ServiceClient.query_partial = tracer.wrap(
        "fleet.scatter",
        ServiceClient.query_partial,
        lambda args, kwargs, result: {
            "pinned": kwargs.get("generation") is not None
        },
    )


INSTALLERS = {
    "cluster": install_cluster_layers,
    "daemon": install_daemon_layers,
    "router": install_router_layers,
}
