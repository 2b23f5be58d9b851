"""Statistics and process accounting helpers shared by the benchmark.

Everything here is pure (or reads ``/proc`` only) so it can be unit
tested without starting the system under test.
"""

import math
import os
from typing import Dict, Iterable, List, Optional, Sequence

#: Percentiles considered for a timing's tail, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 98.0, 97.0, 95.0, 90.0, 75.0, 50.0)
#: A percentile is reported only when at least this many samples lie
#: beyond it; fewer makes the number a property of a handful of requests.
MIN_BEYOND = 10


def _rank(count: int, q: float) -> int:
    # The epsilon keeps float noise (99.9 * 10000 / 100) off the ceiling.
    return max(1, math.ceil(q * count / 100.0 - 1e-9))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with ``q``% at or below."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    return float(ordered[_rank(len(ordered), q) - 1])


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie strictly above the ``q``th rank."""
    return count - _rank(count, q)


def supported_percentile(count: int) -> Optional[float]:
    """Highest candidate percentile with >= ``MIN_BEYOND`` samples beyond."""
    for q in TAIL_CANDIDATES:
        if samples_beyond(count, q) >= MIN_BEYOND:
            return q
    return None


def summarize(values: Sequence[float], tail: float) -> dict:
    """Median plus the requested tail, with the evidence for the tail.

    ``supported`` tells whether the sample holds ``MIN_BEYOND`` values
    beyond ``tail``; ``highest_supported`` is the best the sample allows.
    """
    count = len(values)
    if count == 0:
        return {"count": 0}
    return {
        "count": count,
        "p50": percentile(values, 50.0),
        f"p{tail:g}": percentile(values, tail),
        "tail": tail,
        "supported": samples_beyond(count, tail) >= MIN_BEYOND,
        "highest_supported": supported_percentile(count),
        "max": float(max(values)),
    }


def due_time_latencies(
    due: Sequence[float], sent: Sequence[float], done: Sequence[float]
) -> Dict[str, List[float]]:
    """Open-loop timing: latency from when each request was *due*.

    A stalled request delays every request queued behind it on the same
    stream; timing from the due time (not the send time) charges that
    wait to the system instead of hiding it.  ``late`` is how far behind
    schedule the generator sent each request.
    """
    if not len(due) == len(sent) == len(done):
        raise ValueError("due, sent and done must have equal lengths")
    return {
        "latency": [end - start for start, end in zip(due, done)],
        "late": [max(0.0, out - start) for start, out in zip(due, sent)],
    }


# ----------------------------------------------------------------------
# /proc accounting
# ----------------------------------------------------------------------

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


def proc_cpu_seconds(pid: int, proc_root: str = "/proc") -> float:
    """User + system CPU seconds of one process, from ``/proc/<pid>/stat``."""
    with open(os.path.join(proc_root, str(pid), "stat")) as handle:
        raw = handle.read()
    # The command name may contain spaces; fields resume after its ')'.
    fields = raw[raw.rindex(")") + 2 :].split()
    utime, stime = int(fields[11]), int(fields[12])
    return (utime + stime) / _CLOCK_TICKS


def proc_peak_rss_mb(pid: int, proc_root: str = "/proc") -> float:
    """Peak resident set (``VmHWM``) of one process, in MiB."""
    with open(os.path.join(proc_root, str(pid), "status")) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise ValueError(f"no VmHWM line for pid {pid}")


def total_cpu_seconds(pids: Iterable[int], proc_root: str = "/proc") -> float:
    """CPU seconds summed over every launched process."""
    return sum(proc_cpu_seconds(pid, proc_root) for pid in pids)


def total_peak_rss_mb(pids: Iterable[int], proc_root: str = "/proc") -> float:
    """Per-process peak RSS summed over every launched process."""
    return sum(proc_peak_rss_mb(pid, proc_root) for pid in pids)

