"""Query-engine benchmark: batched + indexed serving vs the PR 2 scan path.

Sweeps repository medoid counts (1k-100k), query batch sizes, and shard
counts on a replicate-structured workload (families of near-identical
medoids, queries = fresh replicates — the shape of real mass-spec
serving traffic).  Three serving paths are measured on identical
repositories:

``reference``
    The retained PR 2 path: per-query Python scans with a full lexsort
    per shard, per-candidate Python merge.
``batched``
    The cross-Hamming engine: one ``hamming_cross`` + ``argpartition``
    top-k pass per shard per batch, vectorised global merge.
``indexed``
    The batched engine with the probe-word medoid index forced on for
    every shard, whatever its size (exact by construction; verified
    here).  Serving engages it only on shards of at least 16384 medoids.

Every configuration asserts that all three paths return byte-identical
matches, so the reported speedups are for *exact* serving.  This is the
first benchmark where queries/s must not fall as shards grow: the shard
sweep runs the batched engine on the ``threads`` backend with the
1-shard configuration measured first.

Run under pytest (see README) or directly::

    PYTHONPATH=src python benchmarks/bench_query_engine.py [--smoke]

``--smoke`` runs a seconds-scale configuration for CI wiring checks and
does not overwrite the committed full report.
"""

import os
import time

import numpy as np

from repro.hdc import EncoderConfig, pack_bits
from repro.io.hvstore import HypervectorStore
from repro.reporting import banner, format_table
from repro.store import ClusterRepository, QueryService, RepositoryConfig

DIM = 1024
ENCODER = EncoderConfig(dim=DIM, mz_bins=8_000, intensity_levels=32)
TOP_K = 10
PROBE_BITS = 256  # D_hv / 4, the default: prunes replicate-style traffic
FAMILY_SIZE = 64
FAMILY_FLIP = 0.02  # medoid noise around its family base vector
QUERY_FLIP = 0.05  # query noise around a sampled medoid


def _make_medoids(rng, count):
    """Replicate-structured packed vectors: families around base vectors."""
    words = DIM // 64
    num_bases = max(1, count // FAMILY_SIZE)
    bases = rng.integers(
        0, np.iinfo(np.uint64).max, size=(num_bases, words),
        dtype=np.uint64, endpoint=True,
    )
    family = bases[np.arange(count) % num_bases]
    return family ^ pack_bits(rng.random((count, DIM)) < FAMILY_FLIP)


def _make_queries(rng, medoids, batch):
    """Fresh replicates of sampled medoids."""
    picks = rng.integers(0, medoids.shape[0], size=batch)
    return medoids[picks] ^ pack_bits(rng.random((batch, DIM)) < QUERY_FLIP)


def _build_repository(root, rng, count, num_shards, tag):
    """A repository of ``count`` singleton clusters spread over shards.

    Precursor masses are spaced so every vector lands its own bucket
    (one cluster per medoid), and ``shard_width=1`` cycles buckets over
    the shards evenly.
    """
    repository = ClusterRepository.create(
        root / f"repo-{tag}-{count}-{num_shards}",
        RepositoryConfig(
            num_shards=num_shards,
            shard_width=1,
            encoder=ENCODER,
            index_probe_bits=PROBE_BITS,
        ),
    )
    vectors = _make_medoids(rng, count)
    store = HypervectorStore(
        vectors=vectors,
        precursor_mz=np.array([300.0 + 0.7 * i for i in range(count)]),
        charge=np.full(count, 2, dtype=np.int16),
        labels=np.full(count, -1, dtype=np.int64),
        identifiers=[f"m{i}" for i in range(count)],
        dim=DIM,
        encoder_seed=ENCODER.seed,
    )
    repository.add_store(store)
    return repository, vectors


def _best_rate(callable_, batch, reps):
    """Best-of-``reps`` throughput (queries/s) of one serving call."""
    elapsed = []
    for _ in range(reps):
        start = time.perf_counter()
        callable_()
        elapsed.append(time.perf_counter() - start)
    return batch / min(elapsed)


def _assert_exact(reference, batched, indexed, where):
    assert batched == reference, f"batched != reference ({where})"
    assert indexed == reference, f"indexed != reference ({where})"


def _medoid_sweep(root, rng, smoke):
    """Engine throughput vs the PR 2 path across medoid counts."""
    counts = (512,) if smoke else (1_000, 10_000, 100_000)
    batch = 64 if smoke else 256
    reference_batch = 16 if not smoke else batch
    reps = 1 if smoke else 3
    rows = []
    for count in counts:
        repository, _ = _build_repository(
            root, rng, count, num_shards=4, tag="medoids"
        )
        queries = _make_queries(rng, _medoid_matrix(repository), batch)
        with QueryService(repository) as service:
            reference = service.query_vectors_reference(queries, k=TOP_K)
            batched = service.query_vectors(queries, k=TOP_K)
            reference_rate = _best_rate(
                lambda: service.query_vectors_reference(
                    queries[:reference_batch], k=TOP_K
                ),
                reference_batch,
                reps,
            )
        with QueryService(repository, use_index=False) as service:
            service.query_vectors(queries[:8], k=TOP_K)  # warm snapshots
            batched_rate = _best_rate(
                lambda: service.query_vectors(queries, k=TOP_K), batch, reps
            )
        with QueryService(
            repository, use_index=True, index_min_medoids=1
        ) as service:
            indexed = service.query_vectors(queries, k=TOP_K)
            indexed_rate = _best_rate(
                lambda: service.query_vectors(queries, k=TOP_K), batch, reps
            )
        _assert_exact(reference, batched, indexed, f"{count} medoids")
        rows.append(
            [
                f"{count:,}",
                f"{reference_rate:,.0f}",
                f"{batched_rate:,.0f}",
                f"{indexed_rate:,.0f}",
                f"{batched_rate / reference_rate:.1f}x",
                f"{indexed_rate / reference_rate:.1f}x",
            ]
        )
    return format_table(
        [
            "medoids",
            "PR2 q/s",
            "batched q/s",
            "indexed q/s",
            "batched x",
            "indexed x",
        ],
        rows,
    )


def _medoid_matrix(repository):
    """All medoid vectors of a repository, in (shard, label) order."""
    blocks = []
    for shard_id in range(repository.num_shards):
        shard = repository.shard(shard_id)
        rows_by_label = shard.medoid_rows()
        rows = [rows_by_label[label] for label in sorted(rows_by_label)]
        if rows:
            blocks.append(shard.vectors_at(rows))
    return np.vstack(blocks)


def _batch_sweep(root, rng, smoke):
    """Engine throughput across query batch sizes (default index policy)."""
    count = 512 if smoke else 20_000
    batches = (1, 16) if smoke else (1, 16, 64, 256, 1024)
    reps = 1 if smoke else 3
    repository, _ = _build_repository(
        root, rng, count, num_shards=4, tag="batch"
    )
    medoids = _medoid_matrix(repository)
    rows = []
    for batch in batches:
        queries = _make_queries(rng, medoids, batch)
        with QueryService(repository) as service:
            engine = service.query_vectors(queries, k=TOP_K)
            reference = service.query_vectors_reference(queries, k=TOP_K)
            assert engine == reference, f"batch {batch} mismatch"
            rate = _best_rate(
                lambda: service.query_vectors(queries, k=TOP_K), batch, reps
            )
        rows.append([batch, f"{rate:,.0f}", f"{1e3 * batch / rate:.2f}"])
    return format_table(
        ["batch", "queries/s", "batch ms"], rows
    )


def _shard_sweep(root, rng, smoke):
    """Batched-engine throughput vs shard count on the threads backend.

    Work per batch is constant across shard counts (the union of shard
    scans covers the same medoids), so queries/s must not *fall* as
    shards grow — the regression this PR removes.  Configurations are
    measured interleaved (1 shard first in each rep) and the best rep
    per configuration is kept, so drift hits every shard count equally.
    """
    count = 512 if smoke else 32_000
    shard_counts = (1, 2) if smoke else (1, 2, 4, 8)
    batch = 64 if smoke else 256
    reps = 2 if smoke else 5
    services = []
    queries = None
    for num_shards in shard_counts:
        repository, _ = _build_repository(
            root, rng, count, num_shards, tag="shards"
        )
        if queries is None:
            queries = _make_queries(rng, _medoid_matrix(repository), batch)
        service = QueryService(
            repository,
            execution_backend="threads",
            use_index=False,
        )
        service.query_vectors(queries[:8], k=TOP_K)  # build snapshots
        services.append((num_shards, service))
    # Exactness first: every shard layout must serve identical clusters
    # (global labels are routing-invariant for singleton ingest order).
    baseline = None
    for num_shards, service in services:
        matches = [
            [(m.global_label, m.distance) for m in result]
            for result in service.query_vectors(queries, k=TOP_K)
        ]
        reference = [
            [(m.global_label, m.distance) for m in result]
            for result in service.query_vectors_reference(queries, k=TOP_K)
        ]
        assert matches == reference, f"{num_shards}-shard engine mismatch"
        if baseline is None:
            baseline = matches
    best = {num_shards: 0.0 for num_shards, _ in services}
    for _ in range(reps):
        for num_shards, service in services:
            start = time.perf_counter()
            service.query_vectors(queries, k=TOP_K)
            rate = batch / (time.perf_counter() - start)
            best[num_shards] = max(best[num_shards], rate)
    rows = [
        [num_shards, f"{best[num_shards]:,.0f}"]
        for num_shards, _ in services
    ]
    for _, service in services:
        service.close()
    return format_table(["shards", "queries/s"], rows)


def _run(root, smoke):
    rng = np.random.default_rng(2024)
    sections = [
        banner(
            "Batched query engine: cross-Hamming scans + probe-word index "
            f"(D_hv = {DIM}, k = {TOP_K}"
            + (", smoke mode)" if smoke else ")")
        ),
        "Medoid-count sweep (4 shards; PR2 = retained per-query scan "
        "path;",
        f"indexed = index forced on every shard, probe_bits = {PROBE_BITS}):",
        "",
        _medoid_sweep(root, rng, smoke),
        "",
        "Batch-size sweep, default index policy "
        + ("(512 medoids, 4 shards):" if smoke else
           "(20,000 medoids, 4 shards):"),
        "",
        _batch_sweep(root, rng, smoke),
        "",
        "Shard sweep, threads backend, batched scan path "
        + ("(512 medoids):" if smoke else "(32,000 medoids):"),
        "",
        _shard_sweep(root, rng, smoke),
        "",
        "All three paths are asserted byte-identical per configuration:",
        "the index prunes, it never approximates.  Workload: families of",
        f"{FAMILY_SIZE} near-replicate medoids ({FAMILY_FLIP:.0%} flips),",
        f"queries are fresh replicates ({QUERY_FLIP:.0%} flips).",
    ]
    return "\n".join(sections)


def bench_query_engine(emit_report, tmp_path_factory):
    smoke = os.environ.get("REPRO_BENCH_SMOKE", "") == "1"
    text = _run(tmp_path_factory.mktemp("query-engine"), smoke)
    emit_report("query_engine", text)


if __name__ == "__main__":
    import argparse
    import tempfile
    from pathlib import Path

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="seconds-scale run for CI wiring checks (no report file)",
    )
    arguments = parser.parse_args()
    with tempfile.TemporaryDirectory(prefix="bench-query-") as scratch:
        report = _run(Path(scratch), arguments.smoke)
    print(report)
    if not arguments.smoke:
        results = Path(__file__).parent / "results"
        results.mkdir(exist_ok=True)
        (results / "query_engine.txt").write_text(
            report + "\n", encoding="utf-8"
        )
