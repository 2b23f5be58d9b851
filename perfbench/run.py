"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload query_direct --seed 1 \
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with the program
unmodified.  ``--trace 1`` runs the workload twice, each for half of
``--seconds``: once untraced and once with span wrappers installed, and
reports the per-layer metrics of the traced half plus the tracing
overhead (traced minus untraced end-to-end numbers).

The last line of stdout is the result object; the line before it is a
detail record (provenance, per-phase request accounting, sample counts
and the workload's own named metrics).  Exit code 0 means every
correctness gate passed.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BENCHMARKS = ROOT / "benchmarks"
WORK = ROOT / ".perfbench-work"

#: Set-up repetitions per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Seed kept out of every run made while the benchmark or a change to
#: the program was being written; re-check claims on it.
HELD_OUT_SEED = 90017

#: End-to-end figures whose traced-minus-untraced difference is reported.
OVERHEAD = (
    "throughput_per_s",
    "latency_p50_ms",
    "latency_tail_ms",
    "server_cpu_ms_per_request",
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_ratio": "ratio",
    "server_cpu_ms_per_request": "ms",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(ROOT),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def provenance(args) -> dict:
    import numpy

    from repro.hdc.kernels import kernel_runtime

    return {
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel": kernel_runtime(),
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _phase(workloads, args, label, seconds, setups, traced, work):
    """Run one phase of the workload in ``work/label``."""
    phase = workloads.Phase(args.workload, work / label, SRC, traced)
    phase.work.mkdir()
    try:
        metrics = workloads.WORKLOADS[args.workload](
            phase, args.seed, seconds, setups
        )
    finally:
        if phase.system is not None:
            phase.system.stop()
    accounting = phase.accounting
    attempted = accounting.total("measured", "attempted")
    metrics["setup_s"] = statistics.median(phase.setup_seconds)
    metrics["peak_rss_mb"] = phase.peak_rss_mb
    metrics["success_ratio"] = (
        accounting.total("measured", "succeeded") / attempted if attempted else 0.0
    )
    return phase, metrics


def _failed(phase) -> int:
    """Measured requests that failed, ``ServiceBusy`` sheds included."""
    return phase.accounting.total("measured", "failed") + phase.accounting.total(
        "measured", "shed"
    )


def _accounting(phase) -> dict:
    attempted = phase.accounting.total("measured", "attempted")
    return {
        "phases": phase.accounting.counts,
        "errors": phase.accounting.errors,
        "error_ratio": _failed(phase) / attempted if attempted else 1.0,
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro").is_dir() or not (BENCHMARKS / "bench_service.py").is_file():
        print("perfbench: the program sources (src/, benchmarks/) are missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(SRC), str(BENCHMARKS)]
    import workloads
    import layers

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              + ", ".join(workloads.WORKLOADS), file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be > 0", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-{os.getpid()}-{time.time_ns()}"
    work.mkdir(parents=True)
    detail = {"provenance": provenance(args)}
    try:
        if args.trace == 0:
            phase, e2e = _phase(workloads, args, "run", args.seconds, SETUPS, False, work)
            metrics = {name: e2e[name] for name in END_TO_END_UNITS}
            units = END_TO_END_UNITS
            detail.update(setup_runs=phase.setup_seconds)
        else:
            half = args.seconds / 2.0
            _, base = _phase(workloads, args, "untraced", half, 1, False, work)
            phase, traced = _phase(workloads, args, "traced", half, 1, True, work)
            metrics = layers.compute(
                phase.spans, phase.client_spans, phase.window, phase.detail
            )
            for name in OVERHEAD:
                metrics[f"overhead.{name}"] = traced[name] - base[name]
            units = {name: unit for name, (unit, _) in layers.METRICS.items()}
            detail.update(untraced=base, traced=traced, spans=len(phase.spans))
        detail.update(phase.detail, accounting=_accounting(phase))
    except workloads.GateFailure as exc:
        print(f"perfbench: correctness gate failed: {exc}", file=sys.stderr)
        return 1
    except Exception:  # noqa: BLE001 - report and fail the run
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    print(json.dumps(detail, default=str))
    result = {
        "correct": True,
        "attempted": phase.accounting.total("measured", "attempted"),
        "failed": _failed(phase),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]} for name in units
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
