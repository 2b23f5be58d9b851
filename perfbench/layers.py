"""Per-layer metrics computed from the spans of one traced phase.

Conventions (see ``perfbench/README.md`` for the full table):

* ``*.ms`` / ``*_ms`` on the ``cluster_files`` layers is busy time per
  ``run_files`` job (the layers are called thousands of times per job);
  on every other layer it is the mean duration of one call.
* Counts on kernels (``hdc.cross.ops`` …) are per client request or per
  job; ``*_ratio`` metrics are summed numerators over summed
  denominators.
* ``share.*`` split the client-observed time of the workload's request
  into named layers plus ``share.unattributed``.

A layer the workload does not cross reads 0.
"""

import bisect
from typing import Dict, Iterable, List

import stats
import tracing

CLUSTER_LAYERS = {
    "io.read": "io.read.ms",
    "spectrum.preprocess": "spectrum.preprocess.ms",
    "hdc.encode": "hdc.encode.ms",
    "spectrum.bucketing": "spectrum.bucketing.ms",
    "hdc.pairwise": "hdc.pairwise.ms",
    "cluster.nnchain": "cluster.nnchain.ms",
}

CLUSTER_SHARES = {
    "io.read": "share.io",
    "spectrum.preprocess": "share.preprocess",
    "hdc.encode": "share.encode",
    "spectrum.bucketing": "share.bucketing",
    "hdc.pairwise": "share.pairwise",
    "cluster.nnchain": "share.nnchain",
}

#: Every per-layer metric: unit and which direction is better, in report
#: order.  Counts of work done read lower-is-better; coalescing and
#: absorption read higher-is-better.
METRICS = {
    "io.read.ms": ("ms", "lower"),
    "io.read.spectra": ("count", "higher"),
    "spectrum.preprocess.ms": ("ms", "lower"),
    "spectrum.preprocess.kept_ratio": ("ratio", "higher"),
    "hdc.encode.ms": ("ms", "lower"),
    "hdc.encode.rows": ("count", "lower"),
    "spectrum.bucketing.ms": ("ms", "lower"),
    "spectrum.bucketing.max_bucket": ("count", "lower"),
    "hdc.pairwise.ms": ("ms", "lower"),
    "hdc.pairwise.pairs": ("count", "lower"),
    "hdc.pairwise.bytes": ("bytes", "lower"),
    "cluster.nnchain.ms": ("ms", "lower"),
    "cluster.nnchain.merges": ("count", "lower"),
    "pipeline.self_ms": ("ms", "lower"),
    "service.wire.ms": ("ms", "lower"),
    "service.wire.bytes_per_request": ("bytes", "lower"),
    "service.dispatch.wait_ms": ("ms", "lower"),
    "service.dispatch.rows_per_pass": ("rows", "higher"),
    "service.dispatch.shed": ("count", "lower"),
    "store.query.pass_ms": ("ms", "lower"),
    "store.query.rows_per_pass": ("rows", "higher"),
    "store.index.candidate_ratio": ("ratio", "lower"),
    "hdc.cross.ms": ("ms", "lower"),
    "hdc.cross.ops": ("count", "lower"),
    "hdc.cross.bytes": ("bytes", "lower"),
    "fleet.router.ms": ("ms", "lower"),
    "fleet.scatter.ms": ("ms", "lower"),
    "fleet.merge.self_ms": ("ms", "lower"),
    "fleet.fanout": ("count", "lower"),
    "fleet.repins": ("count", "lower"),
    "streaming.encode.ms": ("ms", "lower"),
    "streaming.kept_ratio": ("ratio", "higher"),
    "store.wal.append_ms": ("ms", "lower"),
    "store.wal.bytes_per_spectrum": ("bytes", "lower"),
    "incremental.apply_ms": ("ms", "lower"),
    "incremental.absorption_ratio": ("ratio", "higher"),
    "service.write_lock.wait_ms": ("ms", "lower"),
    "store.checkpoint.ms": ("ms", "lower"),
    "store.checkpoint.count": ("count", "lower"),
    "store.checkpoint.write_amp": ("ratio", "lower"),
    "store.snapshot.open_ms": ("ms", "lower"),
    "service.stalled_queries": ("count", "lower"),
    "service.stalled_queries.p50_ms": ("ms", "lower"),
    "share.io": ("ratio", "lower"),
    "share.preprocess": ("ratio", "lower"),
    "share.encode": ("ratio", "lower"),
    "share.bucketing": ("ratio", "lower"),
    "share.pairwise": ("ratio", "lower"),
    "share.nnchain": ("ratio", "lower"),
    "share.pipeline_self": ("ratio", "lower"),
    "share.wire": ("ratio", "lower"),
    "share.dispatch_wait": ("ratio", "lower"),
    "share.store_query": ("ratio", "lower"),
    "share.fleet_merge": ("ratio", "lower"),
    "share.fleet_node_wire": ("ratio", "lower"),
    "share.unattributed": ("ratio", "lower"),
    "overhead.throughput_per_s": ("1/s", "higher"),
    "overhead.latency_p50_ms": ("ms", "lower"),
    "overhead.latency_tail_ms": ("ms", "lower"),
    "overhead.server_cpu_ms_per_request": ("ms", "lower"),
}


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _sum_attr(spans: Iterable[dict], key: str) -> float:
    return float(sum((span["attrs"] or {}).get(key, 0) for span in spans))


def _ms(span: dict) -> float:
    return (span["end"] - span["start"]) / 1e6


def dispatch_waits(requests: List[dict], passes: List[dict]):
    """Match each daemon request span to the coalesced pass that served it.

    The pass runs on the dispatcher thread, inside the request's
    interval; the latest-ending pass that fits is the one whose result
    released the request.  Returns ``[(request, pass), ...]``.
    """
    by_pid: Dict[int, List[dict]] = {}
    for span in passes:
        by_pid.setdefault(span["pid"], []).append(span)
    ends = {}
    for pid, group in by_pid.items():
        group.sort(key=lambda span: span["end"])
        ends[pid] = [span["end"] for span in group]
    matched = []
    for request in requests:
        group = by_pid.get(request["pid"], [])
        position = bisect.bisect_right(ends.get(request["pid"], []), request["end"])
        while position > 0:
            candidate = group[position - 1]
            if candidate["start"] >= request["start"]:
                matched.append((request, candidate))
                break
            if candidate["end"] < request["start"]:
                break
            position -= 1
    return matched


def compute(spans: List[dict], client_spans: List[dict], window, detail: dict) -> dict:
    """All :data:`METRICS` for one traced phase."""
    begin, end = window
    inside = [s for s in spans if begin <= s["start"] < end]
    named: Dict[str, List[dict]] = {}
    for span in inside:
        named.setdefault(span["name"], []).append(span)
    out = {name: 0.0 for name in METRICS}

    def mean_ms(name: str) -> float:
        return _mean([_ms(span) for span in named.get(name, [])])

    # --- offline pipeline -------------------------------------------
    jobs = named.get("pipeline.run_files", [])
    if jobs:
        per_job = len(jobs)
        client_ms = sum(_ms(s) for s in client_spans if s["ok"]) or 1.0
        for layer, metric in CLUSTER_LAYERS.items():
            total = sum(_ms(span) for span in named.get(layer, []))
            out[metric] = total / per_job
            out[CLUSTER_SHARES[layer]] = total / client_ms
        out["io.read.spectra"] = _sum_attr(named.get("io.read", []), "spectra") / per_job
        preprocess = named.get("spectrum.preprocess", [])
        out["spectrum.preprocess.kept_ratio"] = _ratio(
            _sum_attr(preprocess, "kept"), len(preprocess)
        )
        out["hdc.encode.rows"] = _sum_attr(named.get("hdc.encode", []), "rows") / per_job
        out["spectrum.bucketing.max_bucket"] = max(
            [(s["attrs"] or {}).get("max_bucket", 0) for s in named.get("spectrum.bucketing", [])],
            default=0,
        )
        pairwise = named.get("hdc.pairwise", [])
        out["hdc.pairwise.pairs"] = _sum_attr(pairwise, "pairs") / per_job
        out["hdc.pairwise.bytes"] = _sum_attr(pairwise, "bytes") / per_job
        out["cluster.nnchain.merges"] = (
            _sum_attr(named.get("cluster.nnchain", []), "merges") / per_job
        )
        selfs = []
        for job in jobs:
            within = [
                s
                for s in inside
                if s is not job
                and s["pid"] == job["pid"]
                and s["start"] >= job["start"]
                and s["end"] <= job["end"]
            ]
            selfs.append(tracing.self_time(job, within) / 1e6)
        out["pipeline.self_ms"] = _mean(selfs)
        out["share.pipeline_self"] = sum(selfs) / client_ms
        attributed = sum(out[name] for name in CLUSTER_SHARES.values())
        out["share.unattributed"] = 1.0 - attributed - out["share.pipeline_self"]
        return out

    # --- served paths -----------------------------------------------
    queries = [s for s in client_spans if s["name"] == "client.query" and s["ok"]]
    requests = len(queries)
    client_ms = _mean([_ms(s) for s in queries])
    wire = detail.get("wire_bytes")
    if wire and requests:
        out["service.wire.bytes_per_request"] = (wire["sent"] + wire["received"]) / requests

    daemon_requests = named.get("service.query_vectors", [])
    passes = named.get("store.query.pass", [])
    matched = dispatch_waits(daemon_requests, passes)
    routers = named.get("fleet.router", [])
    front_ms = mean_ms("fleet.router") if routers else mean_ms("service.query_vectors")
    if requests and (routers or daemon_requests):
        out["service.wire.ms"] = client_ms - front_ms
    if matched:
        out["service.dispatch.wait_ms"] = _mean(
            [(p["start"] - r["start"]) / 1e6 for r, p in matched]
        )
        served = {id(p): p for _, p in matched}.values()
        out["service.dispatch.rows_per_pass"] = _ratio(
            _sum_attr(served, "rows"), len(served)
        )
    out["service.dispatch.shed"] = float(
        detail.get("daemon_metrics", {}).get("queries_shed", 0)
    )
    out["store.query.pass_ms"] = mean_ms("store.query.pass")
    out["store.query.rows_per_pass"] = _ratio(_sum_attr(passes, "rows"), len(passes))
    masks = named.get("store.index.candidate_mask", [])
    out["store.index.candidate_ratio"] = _ratio(
        _sum_attr(masks, "candidates"), _sum_attr(masks, "scanned")
    )
    cross = named.get("hdc.cross", [])
    out["hdc.cross.ms"] = mean_ms("hdc.cross")
    if requests:
        out["hdc.cross.ops"] = _sum_attr(cross, "ops") / requests
        out["hdc.cross.bytes"] = _sum_attr(cross, "bytes") / requests

    children = tracing.children_by_parent(inside)
    scatter = named.get("fleet.scatter", [])
    if routers:
        merge = [
            tracing.self_time(r, children.get((r["pid"], r["id"]), [])) / 1e6
            for r in routers
        ]
        out["fleet.router.ms"] = mean_ms("fleet.router")
        out["fleet.scatter.ms"] = mean_ms("fleet.scatter")
        out["fleet.merge.self_ms"] = _mean(merge)
        out["fleet.fanout"] = _ratio(len(scatter), len(routers))
        out["fleet.repins"] = _sum_attr(scatter, "pinned")

    ingests = named.get("service.ingest", [])
    encodes = named.get("streaming.encode", [])
    out["streaming.encode.ms"] = mean_ms("streaming.encode")
    out["streaming.kept_ratio"] = _ratio(
        _sum_attr(encodes, "kept"), _sum_attr(encodes, "spectra")
    )
    if ingests:
        out["hdc.encode.ms"] = mean_ms("hdc.encode")
        out["hdc.encode.rows"] = _ratio(
            _sum_attr(named.get("hdc.encode", []), "rows"), len(named.get("hdc.encode", []))
        )
    appends = named.get("store.wal.append", [])
    out["store.wal.append_ms"] = mean_ms("store.wal.append")
    out["store.wal.bytes_per_spectrum"] = _ratio(
        _sum_attr(appends, "bytes"), _sum_attr(appends, "rows")
    )
    applies = named.get("incremental.apply", [])
    out["incremental.apply_ms"] = mean_ms("incremental.apply")
    out["incremental.absorption_ratio"] = _ratio(
        _sum_attr(applies, "absorbed"), _sum_attr(applies, "added")
    )
    if ingests:
        out["service.write_lock.wait_ms"] = _mean(
            [
                tracing.self_time(s, children.get((s["pid"], s["id"]), [])) / 1e6
                for s in ingests
            ]
        )
    checkpoints = named.get("store.checkpoint", [])
    out["store.checkpoint.ms"] = mean_ms("store.checkpoint")
    out["store.checkpoint.count"] = float(len(checkpoints))
    out["store.checkpoint.write_amp"] = _ratio(
        _sum_attr(checkpoints, "bytes"),
        _sum_attr(named.get("store.add_encoded_batch", []), "bytes"),
    )
    out["store.snapshot.open_ms"] = mean_ms("store.snapshot.open")
    if checkpoints:
        stalled = [
            _ms(q)
            for q in queries
            if any(q["start"] < c["end"] and q["end"] > c["start"] for c in checkpoints)
        ]
        out["service.stalled_queries"] = float(len(stalled))
        if stalled:
            out["service.stalled_queries.p50_ms"] = stats.percentile(stalled, 50.0)

    if requests and client_ms > 0:
        pass_ms = out["store.query.pass_ms"]
        if routers:
            named_shares = {
                "share.wire": out["service.wire.ms"],
                "share.fleet_merge": out["fleet.merge.self_ms"],
                "share.fleet_node_wire": out["fleet.scatter.ms"]
                - mean_ms("service.query_vectors_at"),
                "share.store_query": pass_ms,
            }
        else:
            named_shares = {
                "share.wire": out["service.wire.ms"],
                "share.dispatch_wait": out["service.dispatch.wait_ms"],
                "share.store_query": _mean([_ms(p) for _, p in matched]),
            }
        for name, value in named_shares.items():
            out[name] = value / client_ms
        out["share.unattributed"] = 1.0 - sum(out[name] for name in named_shares)
    return out
