"""Unit tests for the benchmark's own helpers (no system under test).

Run from the repository root::

    python -m pytest perfbench/tests -q
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent


def _load(name):
    # Loaded by path under a private name so the benchmark's flat module
    # names never shadow anything else in a shared test session.
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", HERE / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


stats = _load("stats")
tracing = _load("tracing")


# ----------------------------------------------------------------------
# Percentile with >= 10 samples beyond it
# ----------------------------------------------------------------------


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 50.0) == 50
    assert stats.percentile(values, 99.0) == 99
    assert stats.percentile(values, 100.0) == 100
    assert stats.percentile([7.0], 99.0) == 7.0


@pytest.mark.parametrize(
    "count, expected",
    [(9, None), (20, 50.0), (40, 75.0), (100, 90.0), (199, 90.0),
     (200, 95.0), (334, 97.0), (500, 98.0), (999, 98.0), (1000, 99.0),
     (10_000, 99.9)],
)
def test_supported_percentile_needs_ten_samples_beyond(count, expected):
    assert stats.supported_percentile(count) == expected
    if expected is not None:
        assert stats.samples_beyond(count, expected) >= stats.MIN_BEYOND


def test_summarize_flags_unsupported_tails():
    summary = stats.summarize([float(v) for v in range(150)], 99.0)
    assert summary["count"] == 150
    assert summary["supported"] is False
    assert summary["highest_supported"] == 90.0
    assert summary["p99"] == 148.0


# ----------------------------------------------------------------------
# Self time from nested spans
# ----------------------------------------------------------------------


def _span(start, end, **extra):
    return {"start": start, "end": end, **extra}


def test_self_time_subtracts_union_of_children():
    parent = _span(0, 100)
    children = [_span(10, 30), _span(20, 40), _span(90, 120)]
    # Overlapping children count once; the part past the parent is clipped.
    assert tracing.self_time(parent, children) == 100 - 30 - 10


def test_self_time_without_children_is_duration():
    assert tracing.self_time(_span(5, 25), []) == 20


def test_tracer_records_parents_and_self_time():
    tracer = tracing.Tracer()

    def inner():
        return 1

    wrapped_inner = tracer.wrap("inner", inner)

    def outer():
        return wrapped_inner() + wrapped_inner()

    assert tracer.wrap("outer", outer, lambda a, k, r: {"result": r})() == 2
    spans = [dict(zip(tracing.FIELDS, span)) for span in tracer.spans]
    outer_span = next(s for s in spans if s["name"] == "outer")
    inner_spans = [s for s in spans if s["name"] == "inner"]
    assert outer_span["attrs"] == {"result": 2}
    assert outer_span["parent"] == 0
    assert all(s["parent"] == outer_span["id"] for s in inner_spans)
    children = tracing.children_by_parent(spans)[(outer_span["pid"], outer_span["id"])]
    expected = (outer_span["end"] - outer_span["start"]) - sum(
        s["end"] - s["start"] for s in inner_spans
    )
    assert tracing.self_time(outer_span, children) == expected


def test_tracer_parents_thread_pool_tasks():
    from concurrent.futures import ThreadPoolExecutor

    tracer = tracing.Tracer()
    original = ThreadPoolExecutor.submit
    try:
        tracer.propagate_executor()
        task = tracer.wrap("task", lambda: None)

        def fan_out():
            with ThreadPoolExecutor(2) as pool:
                for future in [pool.submit(task) for _ in range(3)]:
                    future.result()

        tracer.wrap("root", fan_out)()
    finally:
        ThreadPoolExecutor.submit = original
    spans = [dict(zip(tracing.FIELDS, span)) for span in tracer.spans]
    root = next(s for s in spans if s["name"] == "root")
    assert [s["parent"] for s in spans if s["name"] == "task"] == [root["id"]] * 3


def test_generator_spans_time_each_batch():
    tracer = tracing.Tracer()
    batches = tracer.wrap_generator(
        "read", lambda: iter([[1, 2], [3]]), lambda batch: {"n": len(batch)}
    )
    assert list(batches()) == [[1, 2], [3]]
    assert [span[-1] for span in tracer.spans] == [{"n": 2}, {"n": 1}]


# ----------------------------------------------------------------------
# Due-time latency in the open loop
# ----------------------------------------------------------------------


def test_due_time_latency_charges_queueing_to_the_system():
    # The second request was due at 1.0 but could only go out at 1.5,
    # after the first (stalled) one returned.
    timed = stats.due_time_latencies(
        due=[0.0, 1.0, 2.0], sent=[0.0, 1.5, 2.5], done=[1.5, 2.0, 2.6]
    )
    assert timed["latency"] == pytest.approx([1.5, 1.0, 0.6])
    assert timed["late"] == pytest.approx([0.0, 0.5, 0.5])


def test_due_time_latency_rejects_ragged_input():
    with pytest.raises(ValueError):
        stats.due_time_latencies([0.0], [0.0, 1.0], [1.0])


# ----------------------------------------------------------------------
# /proc CPU and RSS summed across launched processes
# ----------------------------------------------------------------------


def _fake_proc(root, pid, utime, stime, hwm_kb):
    directory = root / str(pid)
    directory.mkdir()
    fields = ["S"] + ["0"] * 10 + [str(utime), str(stime)] + ["0"] * 30
    (directory / "stat").write_text(f"{pid} (py thon) " + " ".join(fields) + "\n")
    (directory / "status").write_text(f"Name:\tpython\nVmHWM:\t{hwm_kb} kB\nVmRSS:\t1 kB\n")


def test_proc_totals_sum_over_processes(tmp_path):
    _fake_proc(tmp_path, 11, utime=150, stime=50, hwm_kb=2048)
    _fake_proc(tmp_path, 12, utime=30, stime=20, hwm_kb=1024)
    ticks = stats._CLOCK_TICKS
    assert stats.total_cpu_seconds([11, 12], str(tmp_path)) == pytest.approx(250 / ticks)
    assert stats.total_peak_rss_mb([11, 12], str(tmp_path)) == pytest.approx(3.0)


def test_proc_readers_work_on_live_processes():
    child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(5)"])
    try:
        pids = [os.getpid(), child.pid]
        assert stats.total_cpu_seconds(pids) >= stats.proc_cpu_seconds(os.getpid())
        assert stats.total_peak_rss_mb(pids) > stats.proc_peak_rss_mb(os.getpid())
    finally:
        child.kill()
        child.wait()


# ----------------------------------------------------------------------
# BENCHMARK.json names exactly what the benchmark prints
# ----------------------------------------------------------------------


def test_benchmark_json_matches_the_code():
    import ast
    import json

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    run = _load("run")
    # layers.py imports its siblings by plain name; read its table as data.
    tree = ast.parse((HERE / "layers.py").read_text())
    table = next(
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and node.targets[0].id == "METRICS"
    )
    metrics = ast.literal_eval(table)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        (name, unit, better) for name, (unit, better) in metrics.items()
    ]
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] > max(
        m["bound"] for m in bench["end_to_end"] if m["name"] != "setup_s"
    )
