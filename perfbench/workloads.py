"""The four workloads: inputs, set-up, load, correctness gates.

Each workload runs one *phase*: build and start the system (``setups``
times, keeping the last one), warm it up, measure for ``seconds``, stop
it, then check its answers.  A phase returns the end-to-end metrics, the
per-phase request accounting, and — when ``traced`` — every span the
launched processes and the load generator recorded.

Inputs come only from ``--seed`` (through :mod:`numpy.random` and the
repository's own generators); the program receives the generated files
and vectors, never the seed.
"""

import math
import shutil
import statistics
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

import stats
import tracing
from system import System

#: Medoids in the served repository ("tens of thousands") and its shards.
MEDOIDS = 20_000
NUM_SHARDS = 8
#: Rows per query request that are near replicates of stored medoids;
#: the rest of each request's rows are novel vectors, so the bit-slice
#: index cannot prune every row.
REPLICATE_ROWS = 6
#: Pre-generated query requests the load cycles through.
QUERY_POOL = 256
#: Load-generator threads and connections (the bench host's nproc).
CLIENTS = 2
WARMUP_SECONDS = 1.0
#: Requests checked against a local QueryService before timing.
GATE_SAMPLE = 12
#: Every n-th measured request's answer is also kept and checked after.
VERIFY_EVERY = 25
#: ``ingest_query``: an open-loop writer at a fixed rate well under
#: capacity, in small batches so a run holds >= 500 of them, beside one
#: closed-loop reader.  The repository is smaller than the query
#: workloads' because every default checkpoint cycle (each ~2 s while
#: ingest flows) rewrites it and republishes the snapshot; at 20k medoids
#: that cycle kept the 2-vCPU host busy ~50% of the time, and with 10k a
#: fixed-rate reader still saw IQR/median spreads of 0.2-0.45 on every
#: latency statistic across seeds.
INGEST_MEDOIDS = 5_000
INGEST_RATE = 128.0
INGEST_BATCH = 4
#: ``cluster_files`` data: 15 peptides in mass groups of 3, 200
#: replicates each (five precursor buckets of ~600 spectra) plus 2500
#: singleton peptides.  Deep enough that NN-chain HAC is a real share of
#: the run next to MGF parsing.
CLUSTER_DATA = dict(
    num_peptides=15, replicates_per_peptide=200, extra_singleton_peptides=2500
)
WARMUP_DATA = dict(num_peptides=6, replicates_per_peptide=6)
#: The paper's Fig. 10 operating point: at most 1% incorrect clustering.
MAX_ICR = 0.01
#: Percentile reported as ``latency_tail_ms``, and whether it is taken
#: per sub-window (median-combined like the other served figures) or
#: over the whole window.  A direct or routed sub-window holds >= 100
#: queries, enough for p90 (>= 10 samples beyond it).  The
#: ``ingest_query`` reader reports p75: with ~6 checkpoint cycles per run
#: every percentile from p90 up sat on the checkpoint-stalled queries and
#: spread 0.21 (p90 per sub-window) to 0.30 (p98 over the run) IQR/median
#: across ten seeds; the stalls are measured per layer instead.  A run
#: holds under 20 clustering jobs, too few for any tail, so
#: ``cluster_files`` reports its 75th-percentile job.
TAIL = {
    "cluster_files": (75.0, False),
    "query_direct": (90.0, True),
    "query_routed": (90.0, True),
    "ingest_query": (75.0, True),
}
#: Equal parts of the measured window whose figures are median-combined.
SUB_WINDOWS = 3


class GateFailure(AssertionError):
    """A correctness gate failed: the run is not correct."""


# ----------------------------------------------------------------------
# Request accounting
# ----------------------------------------------------------------------


class Accounting:
    """attempted / succeeded / failed / shed per phase and operation."""

    def __init__(self) -> None:
        self.counts: Dict[str, Dict[str, Dict[str, int]]] = {}
        self.errors: List[str] = []
        self._lock = threading.Lock()

    def _bump(self, phase: str, op: str, key: str) -> None:
        with self._lock:
            record = self.counts.setdefault(phase, {}).setdefault(
                op, {"attempted": 0, "succeeded": 0, "failed": 0, "shed": 0}
            )
            record[key] += 1

    def call(self, phase: str, op: str, function: Callable):
        """Run one request; returns ``(ok, result)``."""
        from repro.errors import ServiceBusy

        self._bump(phase, op, "attempted")
        try:
            result = function()
        except ServiceBusy:
            self._bump(phase, op, "shed")
            return False, None
        except Exception as exc:  # noqa: BLE001 - counted, not fatal
            self._bump(phase, op, "failed")
            with self._lock:
                if len(self.errors) < 10:
                    self.errors.append(f"{phase}/{op}: {type(exc).__name__}: {exc}")
            return False, None
        self._bump(phase, op, "succeeded")
        return True, result

    def total(self, phase: str, key: str) -> int:
        return sum(record[key] for record in self.counts.get(phase, {}).values())


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------


def _bench_service():
    import bench_service

    return bench_service


def make_medoids(seed: int, count: int) -> np.ndarray:
    """Replicate-family medoids from ``benchmarks/bench_service.py``."""
    service = _bench_service()
    return service._make_medoids(np.random.default_rng([seed, 1]), count)


def make_query_pool(seed: int, medoids: np.ndarray) -> List[np.ndarray]:
    """Query requests: ``REPLICATE_ROWS`` near replicates + novel rows."""
    from repro.hdc import pack_bits

    service = _bench_service()
    rng = np.random.default_rng([seed, 2])
    rows, dim = service.REQUEST_ROWS, service.DIM
    novel = rows - REPLICATE_ROWS
    pool = []
    for _ in range(QUERY_POOL):
        picks = rng.integers(0, medoids.shape[0], size=REPLICATE_ROWS)
        replicas = medoids[picks] ^ pack_bits(
            rng.random((REPLICATE_ROWS, dim)) < service.QUERY_FLIP
        )
        fresh = rng.integers(
            0,
            np.iinfo(np.uint64).max,
            size=(novel, medoids.shape[1]),
            dtype=np.uint64,
            endpoint=True,
        )
        pool.append(np.ascontiguousarray(np.vstack([replicas, fresh])))
    return pool


def build_repository(directory: Path, medoids: np.ndarray) -> None:
    """A checkpointed repository holding every medoid as a cluster."""
    from repro.io.hvstore import HypervectorStore
    from repro.store import ClusterRepository, RepositoryConfig

    service = _bench_service()
    count = medoids.shape[0]
    repository = ClusterRepository.create(
        directory,
        RepositoryConfig(
            num_shards=NUM_SHARDS, shard_width=1, encoder=service.ENCODER
        ),
    )
    store = HypervectorStore(
        vectors=medoids,
        precursor_mz=300.0 + 0.7 * np.arange(count),
        charge=np.full(count, 2, dtype=np.int16),
        labels=np.full(count, -1, dtype=np.int64),
        identifiers=[f"m{i}" for i in range(count)],
        dim=service.DIM,
        encoder_seed=service.ENCODER.seed,
    )
    repository.add_store(store, batch_rows=4096)
    repository.checkpoint()
    repository.close()


def local_answers(directory: Path, requests: List[np.ndarray], k: int) -> list:
    """Answers of a local QueryService over the published generation."""
    from repro.store import QueryService, RepositorySnapshot

    with RepositorySnapshot.open(directory) as snapshot:
        with QueryService(snapshot) as service:
            return [service.query_vectors(batch, k) for batch in requests]


def make_ingest_batches(seed: int, seconds: float) -> list:
    """Fresh synthetic spectra, enough for the whole open-loop schedule."""
    from repro.datasets import SyntheticConfig, generate_dataset

    needed = int(math.ceil(INGEST_RATE * (WARMUP_SECONDS + seconds) * 1.2)) + 64
    dataset = generate_dataset(
        SyntheticConfig(
            num_peptides=int(math.ceil(needed / 8)),
            replicates_per_peptide=8,
            seed=seed,
        )
    )
    spectra = dataset.spectra
    return [
        spectra[start : start + INGEST_BATCH]
        for start in range(0, len(spectra) - INGEST_BATCH + 1, INGEST_BATCH)
    ]


# ----------------------------------------------------------------------
# Shared phase machinery
# ----------------------------------------------------------------------


class Phase:
    """State of one measured phase."""

    def __init__(self, name: str, work: Path, src: Path, traced: bool) -> None:
        self.name = name
        self.work = work
        self.src = src
        self.traced = traced
        self.accounting = Accounting()
        self.setup_seconds: List[float] = []
        self.client_spans: List[dict] = []
        self.window = (0, 0)
        self.cpu_seconds = 0.0
        self.peak_rss_mb = 0.0
        self.detail: dict = {}
        self.spans: List[dict] = []
        self._span_files: List[str] = []
        self.system: Optional[System] = None

    def spec(self, role: str, **fields) -> dict:
        spec = {"role": role, "traced": self.traced, **fields}
        if self.traced:
            path = self.work / f"spans-{role}-{len(self._span_files)}.json"
            spec["span_path"] = str(path)
            self._span_files.append(str(path))
        return spec

    def new_system(self) -> System:
        """Stop the previous set-up's processes and start a fresh group."""
        if self.system is not None and not self.system.stop():
            raise GateFailure(f"{self.name}: a launched process did not stop cleanly")
        self._span_files.clear()
        self.system = System(self.work, self.src)
        return self.system

    def measure_resources(self, start: bool) -> None:
        cpu = stats.total_cpu_seconds(self.system.pids)
        if start:
            self.cpu_seconds = -cpu
        else:
            self.cpu_seconds += cpu
            self.peak_rss_mb = stats.total_peak_rss_mb(self.system.pids)

    def finish(self) -> None:
        """Stop every process and collect the spans they dumped."""
        if self.system is not None:
            clean = self.system.stop()
            self.system = None
            if not clean:
                raise GateFailure(f"{self.name}: a launched process did not stop cleanly")
        if self.traced:
            self.spans = tracing.load_spans(self._span_files)

    def client_span(self, name: str, start: int, end: int, ok: bool) -> None:
        self.client_spans.append(
            {"name": name, "start": start, "end": end, "ok": ok, "pid": 0, "parent": 0}
        )


def _sleep_until(deadline: float) -> None:
    delay = deadline - time.monotonic()
    if delay > 0:
        time.sleep(delay)


def _window_bounds(warmup: float, seconds: float):
    start = time.monotonic() + 0.05
    return start, start + warmup, start + warmup + seconds


# ----------------------------------------------------------------------
# Served workloads
# ----------------------------------------------------------------------


def _start_direct(phase: Phase, directory: Path) -> int:
    system = phase.new_system()
    daemon = system.launch(phase.spec("daemon", repository=str(directory)), "daemon")
    daemon.wait_ready()
    return daemon.port


def _start_routed(phase: Phase, directory: Path) -> int:
    system = phase.new_system()
    daemons = []
    for node in range(2):
        node_dir = directory.parent / f"{directory.name}-node{node}"
        shutil.copytree(directory, node_dir)
        daemons.append(
            system.launch(phase.spec("daemon", repository=str(node_dir)), "daemon")
        )
    for daemon in daemons:
        daemon.wait_ready()
    router = system.launch(
        phase.spec(
            "router",
            nodes=[[f"node{i}", "127.0.0.1", d.port] for i, d in enumerate(daemons)],
            num_shards=NUM_SHARDS,
            replication=1,
        ),
        "router",
    )
    router.wait_ready()
    return router.port


def _client(port: int):
    from repro.service import NO_RETRY, ServiceClient

    return ServiceClient(port=port, retry=NO_RETRY)


def _setup_served(phase, setups, medoids, starter, k, first):
    """Build + start ``setups`` times; the last system stays up.

    Each set-up is timed from the repository build to the first answer,
    which must equal a local QueryService's (computed off the clock).
    """
    expected = None
    for attempt in range(setups):
        directory = phase.work / f"repo-{phase.name}-{attempt}"
        begin = time.perf_counter()
        build_repository(directory, medoids)
        built = time.perf_counter() - begin
        if expected is None:
            expected = local_answers(directory, [first], k)[0]
        begin = time.perf_counter()
        port = starter(phase, directory)
        with _client(port) as client:
            ok, answer = phase.accounting.call(
                "setup", "query", lambda: client.query_vectors(first, k)
            )
        if not ok or answer != expected:
            raise GateFailure("first answer after start-up is wrong")
        phase.setup_seconds.append(built + time.perf_counter() - begin)
    return port, directory


def _gate_served(phase, port, directory, pool, k, seed) -> None:
    """Served answers on a request sample == a local QueryService."""
    rng = np.random.default_rng([seed, 3])
    sample = [pool[i] for i in rng.choice(len(pool), GATE_SAMPLE, replace=False)]
    expected = local_answers(directory, sample, k)
    with _client(port) as client:
        for batch, want in zip(sample, expected):
            ok, got = phase.accounting.call(
                "setup", "query", lambda: client.query_vectors(batch, k)
            )
            if not ok or got != want:
                raise GateFailure("served answer differs from local QueryService")


def _metrics(phase: Phase) -> dict:
    """Daemon ``metrics`` records summed over every serving node."""
    total: dict = {"counters": {}, "transport": {}}
    for member in phase.system.members:
        if member.spec["role"] != "daemon":
            continue
        with _client(member.port) as client:
            record = client.metrics()
        for section in ("counters", "transport"):
            for key, value in record.get(section, {}).items():
                if isinstance(value, (int, float)):
                    total[section][key] = total[section].get(key, 0) + value
        total["kernel"] = record.get("kernel")
    return total


def _closed_loop(phase, port, pool, seconds, k, seed):
    """``CLIENTS`` connections, each sending its next request on reply."""
    start, measure_from, measure_to = _window_bounds(WARMUP_SECONDS, seconds)
    kept: List[tuple] = []
    wire = [0, 0]
    lock = threading.Lock()

    def worker(index: int) -> None:
        rng = np.random.default_rng([seed, 10 + index])
        sent = 0
        with _client(port) as client:
            _sleep_until(start)
            while True:
                now = time.monotonic()
                if now >= measure_to:
                    break
                measured = now >= measure_from
                choice = int(rng.integers(len(pool)))
                before = (client.bytes_sent, client.bytes_received)
                begin = tracing.now_ns()
                ok, answer = phase.accounting.call(
                    "measured" if measured else "warmup",
                    "query",
                    lambda: client.query_vectors(pool[choice], k),
                )
                end = tracing.now_ns()
                if not measured:
                    continue
                sent += 1
                with lock:
                    phase.client_span("client.query", begin, end, ok)
                    wire[0] += client.bytes_sent - before[0]
                    wire[1] += client.bytes_received - before[1]
                    if ok and sent % VERIFY_EVERY == 1:
                        kept.append((choice, answer))

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(CLIENTS)]
    for thread in threads:
        thread.start()
    _sleep_until(measure_from)
    phase.window = (tracing.now_ns(), 0)
    phase.measure_resources(start=True)
    _sleep_until(measure_to)
    for thread in threads:
        thread.join()
    phase.measure_resources(start=False)
    phase.window = (phase.window[0], tracing.now_ns())
    return kept, wire


def run_query(phase: Phase, seed: int, seconds: float, setups: int, routed: bool):
    k = _bench_service().TOP_K
    medoids = make_medoids(seed, MEDOIDS)
    pool = make_query_pool(seed, medoids)
    starter = _start_routed if routed else _start_direct
    port, directory = _setup_served(phase, setups, medoids, starter, k, pool[0])
    _gate_served(phase, port, directory, pool, k, seed)
    before = _metrics(phase)
    kept, wire = _closed_loop(phase, port, pool, seconds, k, seed)
    after = _metrics(phase)
    phase.finish()
    expected = local_answers(directory, [pool[choice] for choice, _ in kept], k)
    if any(got != want for (_, got), want in zip(kept, expected)):
        raise GateFailure("an answer given under load differs from local")
    phase.detail["offered"] = {
        "clients": CLIENTS,
        "query_rows": _bench_service().REQUEST_ROWS,
        "novel_rows": _bench_service().REQUEST_ROWS - REPLICATE_ROWS,
        "medoids": MEDOIDS,
        "shards": NUM_SHARDS,
        "daemons": 2 if routed else 1,
    }
    phase.detail["verified_under_load"] = len(kept)
    phase.detail["wire_bytes"] = {"sent": wire[0], "received": wire[1]}
    phase.detail["daemon_metrics"] = _counter_delta(before, after)
    phase.detail["kernel"] = after.get("kernel")
    return _served_metrics(phase, "query")


def _counter_delta(before: dict, after: dict) -> dict:
    counters_before = before.get("counters", {})
    delta = {
        key: value - counters_before.get(key, 0)
        for key, value in after.get("counters", {}).items()
        if isinstance(value, (int, float))
    }
    transport_before = before.get("transport", {})
    for key in ("bytes_sent", "bytes_received", "frames_sent", "frames_received"):
        if key in after.get("transport", {}):
            delta[f"transport.{key}"] = after["transport"][key] - transport_before.get(key, 0)
    return delta


def _served_metrics(phase, op):
    """Throughput and latency of the measured ``op`` requests.

    The window is cut into ``SUB_WINDOWS`` equal parts by request start
    and each figure is the median of its per-part values, so a transient
    stall of the host in one part does not move the run's result.  A
    tail that no part holds enough samples for is taken over the whole
    window (see :data:`TAIL`).
    """
    spans = [
        span
        for span in phase.client_spans
        if span["ok"] and span["name"] == f"client.{op}"
    ]
    tail, tail_per_part = TAIL[phase.name]
    begin, end = phase.window
    width = (end - begin) / SUB_WINDOWS
    parts = [[] for _ in range(SUB_WINDOWS)]
    for span in spans:
        index = min(SUB_WINDOWS - 1, max(0, int((span["start"] - begin) // width)))
        parts[index].append((span["end"] - span["start"]) / 1e6)
    parts = [part for part in parts if part]
    if not parts:
        raise GateFailure(f"no {op} request succeeded in the measured window")
    latencies = [latency for part in parts for latency in part]
    per_part = [
        {
            "throughput_per_s": len(part) / (width / 1e9),
            "latency_p50_ms": stats.percentile(part, 50.0),
            "latency_tail_ms": stats.percentile(part, tail),
        }
        for part in parts
    ]
    summary = stats.summarize(latencies, tail)
    summary["parts"] = per_part
    phase.detail[f"{op}_latency_ms"] = summary
    metrics = {
        name: statistics.median([part[name] for part in per_part])
        for name in per_part[0]
    }
    if not tail_per_part:
        metrics["latency_tail_ms"] = summary[f"p{tail:g}"]
    metrics["server_cpu_ms_per_request"] = (
        phase.cpu_seconds * 1e3 / max(1, len(spans))
    )
    return metrics


# ----------------------------------------------------------------------
# ingest_query: open loop, writes beside reads
# ----------------------------------------------------------------------


def _writes_beside_reads(phase, port, pool, batches, seconds, k):
    """An open-loop ingest stream beside a closed-loop query stream.

    The writer sends batch ``i`` when it is due (``start + i / rate``)
    whether or not the daemon kept up; the reader sends its next query
    when the previous one returns.  One connection each.  Returns the
    measured rows per stream — ``(due, sent, done, ok, spectra_acked)``,
    with ``due == sent`` for the closed loop — and the ingest totals
    acknowledged over the whole phase.
    """
    start, measure_from, measure_to = _window_bounds(WARMUP_SECONDS, seconds)
    records = {"ingest": [], "query": []}
    acked = {"spectra": 0, "dropped": 0, "batches": 0, "sent": 0}
    interval = INGEST_BATCH / INGEST_RATE

    def run(op: str, send: Callable, due_at: Callable) -> None:
        with _client(port) as client:
            _sleep_until(start)
            index = 0
            while True:
                due = due_at(index)
                if due >= measure_to:
                    break
                _sleep_until(due)
                sent = time.monotonic()
                measured = due >= measure_from
                ok, result = phase.accounting.call(
                    "measured" if measured else "warmup",
                    op,
                    lambda: send(client, index),
                )
                done = time.monotonic()
                added = 0
                if op == "ingest" and ok:
                    added = result.num_added
                    acked["spectra"] += added
                    acked["dropped"] += result.num_dropped
                    acked["batches"] += 1
                if measured:
                    records[op].append((due, sent, done, ok, added))
                index += 1

    def send_ingest(client, index):
        acked["sent"] += len(batches[index])
        return client.ingest(batches[index])

    def send_query(client, index):
        return client.query_vectors(pool[index % len(pool)], k)

    if int((WARMUP_SECONDS + seconds) / interval) + 1 > len(batches):
        raise GateFailure("ingest pool smaller than the schedule")
    threads = [
        threading.Thread(
            target=run,
            args=("ingest", send_ingest, lambda index: start + index * interval),
        ),
        threading.Thread(
            target=run, args=("query", send_query, lambda index: time.monotonic())
        ),
    ]
    for thread in threads:
        thread.start()
    _sleep_until(measure_from)
    phase.window = (tracing.now_ns(), 0)
    phase.measure_resources(start=True)
    for thread in threads:
        thread.join()
    phase.measure_resources(start=False)
    phase.window = (phase.window[0], tracing.now_ns())
    return records, acked


def _to_ns(monotonic_seconds: float, offset: int) -> int:
    return int(monotonic_seconds * 1e9) + offset


def run_ingest_query(phase: Phase, seed: int, seconds: float, setups: int):
    from repro.store import ClusterRepository

    k = _bench_service().TOP_K
    medoids = make_medoids(seed, INGEST_MEDOIDS)
    pool = make_query_pool(seed, medoids)
    batches = make_ingest_batches(seed, seconds)
    port, directory = _setup_served(
        phase, setups, medoids, _start_direct, k, pool[0]
    )
    before = _metrics(phase)
    records, acked = _writes_beside_reads(phase, port, pool, batches, seconds, k)
    after = _metrics(phase)
    phase.finish()
    reopened = ClusterRepository.open(directory)
    try:
        stored = len(reopened)
    finally:
        reopened.close()
    if stored != INGEST_MEDOIDS + acked["spectra"]:
        raise GateFailure(
            f"reopened repository holds {stored} spectra, expected "
            f"{INGEST_MEDOIDS} + {acked['spectra']} acknowledged"
        )
    # time.monotonic() and the span clock are both CLOCK_MONOTONIC.
    offset = tracing.now_ns() - int(time.monotonic() * 1e9)
    for op, rows in records.items():
        for _due, sent, done, ok, _added in rows:
            phase.client_span(
                f"client.{op}", _to_ns(sent, offset), _to_ns(done, offset), ok
            )
    ingest_ok = [row for row in records["ingest"] if row[3]]
    ingest = stats.due_time_latencies(
        [row[0] for row in ingest_ok],
        [row[1] for row in ingest_ok],
        [row[2] for row in ingest_ok],
    )
    ingest_ms = [1e3 * value for value in ingest["latency"]]
    late_ms = [1e3 * value for value in ingest["late"]]
    ingest_summary = stats.summarize(ingest_ms, 95.0)
    window_seconds = (phase.window[1] - phase.window[0]) / 1e9
    acked_spectra = sum(row[4] for row in ingest_ok)
    metrics = _served_metrics(phase, "query")
    completed = sum(1 for rows in records.values() for row in rows if row[3])
    metrics["server_cpu_ms_per_request"] = (
        phase.cpu_seconds * 1e3 / max(1, completed)
    )
    query = phase.detail["query_latency_ms"]
    phase.detail.update(
        {
            "offered": {
                "ingest_spectra_per_s": INGEST_RATE,
                "ingest_batch": INGEST_BATCH,
                "query_clients": 1,
                "query_rows": _bench_service().REQUEST_ROWS,
                "medoids": INGEST_MEDOIDS,
            },
            "acknowledged": acked,
            "reopened_spectra": stored,
            "ingest_latency_ms": ingest_summary,
            "loadgen_late_ms": stats.summarize(late_ms, 99.0),
            "daemon_metrics": _counter_delta(before, after),
            "kernel": after.get("kernel"),
            "named_metrics": {
                "ingest_spectra_per_s": acked_spectra / window_seconds,
                "ingest_p50_ms": ingest_summary.get("p50"),
                "ingest_p95_ms": ingest_summary.get("p95"),
                "query_rps": metrics["throughput_per_s"],
                "query_p50_ms": query.get("p50"),
                "query_p99_ms": stats.percentile(
                    [(s["end"] - s["start"]) / 1e6 for s in phase.client_spans
                     if s["name"] == "client.query" and s["ok"]],
                    99.0,
                ),
                "loadgen_late_p99_ms": stats.percentile(late_ms, 99.0),
            },
        }
    )
    return metrics


# ----------------------------------------------------------------------
# cluster_files: offline batch clustering
# ----------------------------------------------------------------------


def _write_dataset(path: Path, seed: int, shape: dict):
    from repro.datasets import SyntheticConfig, generate_dataset
    from repro.io import write_mgf

    dataset = generate_dataset(SyntheticConfig(seed=seed, **shape))
    write_mgf(dataset.spectra, str(path))
    return dataset


def _quality(labels: List[int], truth):
    from repro.cluster.metrics import quality_report

    return quality_report(np.asarray(labels, dtype=np.int64), truth)


def run_cluster_files(phase: Phase, seed: int, seconds: float, setups: int):
    data_path = phase.work / "cluster-input.mgf"
    warm_path = phase.work / "cluster-warmup.mgf"
    from repro.pipeline import SpecHDConfig, SpecHDPipeline

    dataset = _write_dataset(data_path, seed, CLUSTER_DATA)
    warm = _write_dataset(warm_path, seed + 1, WARMUP_DATA)
    # The warm-up file is too small for an ICR threshold to mean anything
    # (one wrong merge of its 36 spectra is 5%), so a launched worker's
    # first answer must instead equal an in-process pipeline's.
    expected_warm = (
        SpecHDPipeline(SpecHDConfig())
        .run_files([str(warm_path)])
        .labels_for_input(len(warm.spectra))
        .tolist()
    )
    worker = None
    for _ in range(setups):
        system = phase.new_system()
        begin = time.perf_counter()
        worker = system.launch(phase.spec("cluster"), "cluster")
        worker.wait_ready()
        ok, reply = phase.accounting.call(
            "setup",
            "cluster",
            lambda: worker.request(
                {"op": "run", "paths": [str(warm_path)], "total": len(warm.spectra)}
            ),
        )
        if not ok or reply["labels"] != expected_warm:
            raise GateFailure("warm-up clustering differs from a local pipeline run")
        phase.setup_seconds.append(time.perf_counter() - begin)

    command = {"op": "run", "paths": [str(data_path)], "total": len(dataset.spectra)}
    ok, reply = phase.accounting.call("warmup", "cluster", lambda: worker.request(command))
    if not ok:
        raise GateFailure("warm-up clustering run failed")
    reference = reply["labels"]
    call_ms: List[float] = []
    phase.window = (tracing.now_ns(), 0)
    phase.measure_resources(start=True)
    begin = time.monotonic()
    while not call_ms or time.monotonic() - begin < seconds:
        start = tracing.now_ns()
        ok, reply = phase.accounting.call(
            "measured", "cluster", lambda: worker.request(command)
        )
        end = tracing.now_ns()
        phase.client_span("client.run_files", start, end, ok)
        if not ok:
            raise GateFailure("a clustering job failed")
        if reply["labels"] != reference:
            raise GateFailure("clustering labels changed between runs of one input")
        call_ms.append((end - start) / 1e6)
    phase.measure_resources(start=False)
    phase.window = (phase.window[0], tracing.now_ns())
    phase.finish()
    quality = _quality(reference, dataset.labels)
    if quality.incorrect_clustering_ratio > MAX_ICR:
        raise GateFailure(
            f"ICR {quality.incorrect_clustering_ratio:.4f} exceeds {MAX_ICR}"
        )
    # The median job sets the rate: one job slowed by the host does not.
    median_ms = statistics.median(call_ms)
    throughput = len(dataset.spectra) / (median_ms / 1e3)
    phase.detail.update(
        {
            "input": {"spectra": len(dataset.spectra), **CLUSTER_DATA},
            "quality": {
                "clustered_ratio": quality.clustered_spectra_ratio,
                "icr": quality.incorrect_clustering_ratio,
                "completeness": quality.completeness,
                "clusters": quality.num_clusters,
            },
            "run_files_ms": stats.summarize(call_ms, TAIL[phase.name][0]),
            "named_metrics": {
                "cluster_spectra_per_s": throughput,
                "clustered_ratio": quality.clustered_spectra_ratio,
            },
        }
    )
    return {
        "throughput_per_s": throughput,
        "latency_p50_ms": median_ms,
        "latency_tail_ms": stats.percentile(call_ms, TAIL[phase.name][0]),
        "server_cpu_ms_per_request": phase.cpu_seconds * 1e3 / len(call_ms),
    }


WORKLOADS = {
    "cluster_files": run_cluster_files,
    "query_direct": lambda phase, seed, seconds, setups: run_query(
        phase, seed, seconds, setups, routed=False
    ),
    "query_routed": lambda phase, seed, seconds, setups: run_query(
        phase, seed, seconds, setups, routed=True
    ),
    "ingest_query": run_ingest_query,
}
