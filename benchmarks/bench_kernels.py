"""Kernel benchmark: the ``np.bitwise_count`` kernels + FAISS head-to-head.

Two questions, answered with committed numbers:

1. What do the packed-bit kernels cost?  Every kernel is one numpy
   implementation with ``np.bitwise_count`` as the popcount.  The sweep
   times ``hamming_cross`` at the serving shapes (8 and 64 query rows
   against 20k and 100k medoids at 1024 dims), ``popcount``,
   ``xor_popcount_rows`` (the row kernel behind index verification) and
   the CSA encode pair (``csa_accumulate`` + ``counts_from_planes``).
   Before any timing it asserts that each ``hamming_cross`` result
   equals ``hamming_to_query`` stacked over the query rows.
2. How does :class:`~repro.store.index.BitSliceMedoidIndex` compare to
   FAISS binary indexes?  ``IndexBinaryFlat`` (exact) and
   ``IndexBinaryIVF`` (approximate) over the same packed medoids:
   build time, query throughput, recall@k against exact brute force.
   Runs only when faiss imports; otherwise the head-to-head is an
   explicit ``{"available": false, "reason": ...}`` record.

Run under pytest (see README) or directly::

    PYTHONPATH=src python benchmarks/bench_kernels.py [--smoke]

``--smoke`` runs a seconds-scale configuration for CI wiring checks and
does not overwrite the committed full report.
"""

import os
import time

import numpy as np

from repro.hdc import hamming_cross, hamming_to_query, kernel_runtime
from repro.hdc.bitops import (
    counts_from_planes,
    csa_accumulate,
    popcount,
    xor_popcount_rows,
)
from repro.reporting import banner, format_table
from repro.store.index import BitSliceMedoidIndex, batched_topk

TOP_K = 10
DIM = 1_024
#: hamming_cross shapes: (query rows, medoids), the serving batch sizes.
CROSS_SHAPES = ((8, 20_000), (64, 20_000), (8, 100_000), (64, 100_000))
POPCOUNT_WORDS = 4_000_000
PAIR_ROWS = 1_000_000
CSA_ROWS, CSA_LANES = 48, 4_096
INDEX_MEDOIDS, INDEX_QUERIES = 100_000, 1_000


def _best_of(function, repeats=3):
    """Best-of-N wall time plus the last result (cold effects excluded)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = function()
        best = min(best, time.perf_counter() - start)
    return best, result


def _random_words(rng, shape):
    return rng.integers(0, 2**64, size=shape, dtype=np.uint64)


def _assert_cross_exact(queries, refs):
    """``hamming_cross`` must equal ``hamming_to_query`` row by row."""
    cross = hamming_cross(queries, refs)
    for row, query in enumerate(queries):
        np.testing.assert_array_equal(
            cross[row], hamming_to_query(refs, query),
            err_msg=f"hamming_cross row {row} diverged",
        )


def _kernel_cases(rng, smoke):
    """(kernel, shape label, thunk) per timed kernel configuration."""
    scale = 64 if smoke else 1
    words = DIM // 64
    cases = []
    for num_queries, num_refs in CROSS_SHAPES:
        queries = _random_words(rng, (num_queries, words))
        refs = _random_words(rng, (num_refs // scale, words))
        _assert_cross_exact(queries, refs)
        cases.append(
            (
                "hamming_cross",
                f"{num_queries}x{refs.shape[0]}",
                lambda q=queries, r=refs: hamming_cross(q, r),
            )
        )
    flat = _random_words(rng, POPCOUNT_WORDS // scale)
    pairs_a = _random_words(rng, (PAIR_ROWS // scale, words))
    pairs_b = _random_words(rng, (PAIR_ROWS // scale, words))
    csa_rows = _random_words(rng, (CSA_ROWS, CSA_LANES // scale, words))

    def csa():
        planes = csa_accumulate(csa_rows, CSA_ROWS)
        return counts_from_planes(planes, DIM)

    return cases + [
        ("popcount", f"{flat.size} words", lambda: popcount(flat)),
        (
            "xor_popcount_rows",
            f"{pairs_a.shape[0]} rows",
            lambda: xor_popcount_rows(pairs_a, pairs_b),
        ),
        ("csa+counts", f"{CSA_ROWS}x{csa_rows.shape[1]} lanes", csa),
    ]


def _kernel_sweep(rng, smoke):
    """Best-of timings of every kernel case (equivalence checked first)."""
    repeats = 1 if smoke else 3
    rows = []
    records = []
    for name, shape, thunk in _kernel_cases(rng, smoke):
        seconds, _ = _best_of(thunk, repeats)
        records.append(
            {"kernel": name, "shape": shape, "best_ms": round(seconds * 1e3, 2)}
        )
        rows.append([name, shape, f"{seconds * 1e3:,.2f}"])
    return rows, records


def _recall_at_k(got_ids, want_ids):
    """Mean fraction of the exact top-k recovered per query."""
    hits = 0
    for got, want in zip(got_ids, want_ids):
        hits += len(set(got.tolist()) & set(want.tolist()))
    return hits / want_ids.size


def _faiss_head_to_head(rng, smoke):
    """BitSliceMedoidIndex vs FAISS binary indexes (or a reason record)."""
    try:
        import faiss
    except Exception as exc:  # noqa: BLE001 - optional dependency
        return None, {
            "available": False,
            "reason": f"{type(exc).__name__}: {exc}",
        }

    scale = 64 if smoke else 1
    count = INDEX_MEDOIDS // scale
    num_queries = INDEX_QUERIES // scale
    words = DIM // 64
    vectors = rng.integers(
        0, 2**64, size=(count, words), dtype=np.uint64
    )
    queries = rng.integers(
        0, 2**64, size=(num_queries, words), dtype=np.uint64
    )
    exact = hamming_cross(queries, vectors)
    want_ids, _ = batched_topk(exact, TOP_K)

    contenders = []

    def time_build(make):
        start = time.perf_counter()
        built = make()
        return time.perf_counter() - start, built

    build_s, index = time_build(
        lambda: BitSliceMedoidIndex.build(vectors, DIM)
    )
    query_s, (got_ids, _) = _best_of(
        lambda: index.topk(vectors, queries, TOP_K),
        repeats=1 if smoke else 3,
    )
    contenders.append(
        ("bitslice (exact)", build_s, query_s,
         _recall_at_k(got_ids, want_ids))
    )

    packed = np.ascontiguousarray(
        vectors.view(np.uint8).reshape(count, words * 8)
    )
    packed_queries = np.ascontiguousarray(
        queries.view(np.uint8).reshape(num_queries, words * 8)
    )

    build_s, flat = time_build(
        lambda: _faiss_add(faiss.IndexBinaryFlat(DIM), packed)
    )
    query_s, (_, got) = _best_of(
        lambda: flat.search(packed_queries, TOP_K),
        repeats=1 if smoke else 3,
    )
    contenders.append(
        ("faiss IndexBinaryFlat", build_s, query_s,
         _recall_at_k(got, want_ids))
    )

    nlist = max(1, min(count // 64, 4_096))

    def make_ivf():
        quantizer = faiss.IndexBinaryFlat(DIM)
        ivf = faiss.IndexBinaryIVF(quantizer, DIM, nlist)
        ivf.train(packed)
        ivf.add(packed)
        ivf.nprobe = max(1, nlist // 16)
        return ivf

    build_s, ivf = time_build(make_ivf)
    query_s, (_, got) = _best_of(
        lambda: ivf.search(packed_queries, TOP_K),
        repeats=1 if smoke else 3,
    )
    contenders.append(
        (f"faiss IndexBinaryIVF (nlist={nlist})", build_s, query_s,
         _recall_at_k(got, want_ids))
    )

    rows = [
        [
            name,
            f"{build_s:.3f}",
            f"{num_queries / query_s:,.0f}",
            f"{recall:.4f}",
        ]
        for name, build_s, query_s, recall in contenders
    ]
    record = {
        "available": True,
        "medoids": count,
        "queries": num_queries,
        "dim": DIM,
        "k": TOP_K,
        "contenders": [
            {
                "index": name,
                "build_s": round(build_s, 4),
                "queries_per_s": round(num_queries / query_s, 1),
                "recall_at_k": round(recall, 4),
            }
            for name, build_s, query_s, recall in contenders
        ],
    }
    return rows, record


def _faiss_add(index, packed):
    index.add(packed)
    return index


def _run(smoke):
    rng = np.random.default_rng(20_240_808)
    runtime = kernel_runtime()
    sweep_rows, sweep_records = _kernel_sweep(rng, smoke)
    faiss_rows, faiss_record = _faiss_head_to_head(rng, smoke)

    sections = [
        banner(
            "Kernels: np.bitwise_count sweep + FAISS head-to-head"
            + (" (smoke mode)" if smoke else "")
        ),
        f"kernels: {runtime['tier']} {runtime['tier_version']} "
        f"(bitwise_count); {os.cpu_count()} CPUs",
        "",
        format_table(["kernel", "shape", "best ms"], sweep_rows),
        "",
        "hamming_cross asserted equal to stacked hamming_to_query",
        "on every shape before timing.",
    ]
    if faiss_rows is None:
        sections += [
            "",
            f"FAISS head-to-head skipped: {faiss_record['reason']}",
        ]
    else:
        sections += [
            "",
            format_table(
                ["index", "build s", "q/s", f"recall@{TOP_K}"],
                faiss_rows,
            ),
        ]

    headline = {
        "benchmark": "kernels",
        "runtime": runtime,
        "cpu_count": os.cpu_count(),
        "kernel_sweep": sweep_records,
        "faiss_head_to_head": faiss_record,
    }
    return "\n".join(sections), headline


def bench_kernels(emit_report):
    smoke = os.environ.get("REPRO_BENCH_SMOKE", "") == "1"
    text, headline = _run(smoke)
    emit_report("kernels", text)
    if not smoke:
        from bench_json import write_bench_json

        write_bench_json("kernels", headline)


if __name__ == "__main__":
    import argparse
    from pathlib import Path

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="seconds-scale run for CI wiring checks (no report file)",
    )
    arguments = parser.parse_args()
    report, headline = _run(arguments.smoke)
    print(report)
    if not arguments.smoke:
        from bench_json import write_bench_json

        results = Path(__file__).parent / "results"
        results.mkdir(exist_ok=True)
        (results / "kernels.txt").write_text(
            report + "\n", encoding="utf-8"
        )
        print(f"headline numbers -> {write_bench_json('kernels', headline)}")
