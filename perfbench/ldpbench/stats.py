"""Metric extraction: percentiles, W1, span self time, /proc parsing, spreads.

The parsers and estimators are pure functions of their arguments so the
benchmark's own tests can pin them on fixed inputs.
"""

from __future__ import annotations

import math
import os
import statistics
import time
from collections import defaultdict
from typing import Sequence

#: A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10
#: :func:`speed_probe_ns` on an uncontended core of the 2-core reference host.
PROBE_REF_NS = 2_300_000
#: Probes a child takes at the end of its set-up.
SETUP_PROBES = 5


def nearest_rank(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (``q`` in (0, 100]) of a sample."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"q must be in (0, 100], got {q}")
    ordered = sorted(samples)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def beyond_count(n: int, q: float) -> int:
    """How many of ``n`` samples rank strictly above the nearest-rank percentile."""
    return n - max(math.ceil(q / 100.0 * n), 1)


def reportable_percentile(
    samples: Sequence[float], q: float, min_beyond: int = MIN_BEYOND
) -> float | None:
    """The percentile, or ``None`` when fewer than ``min_beyond`` samples lie beyond it."""
    if not samples or beyond_count(len(samples), q) < min_beyond:
        return None
    return nearest_rank(samples, q)


def w1_unit(p: Sequence[float], q: Sequence[float]) -> float:
    """Wasserstein-1 distance between two histograms over the same ``d`` bins of [0, 1].

    Mass sits at bin centres, so the distance is the summed CDF gap times
    the bin width. Both inputs are normalised first.
    """
    if len(p) != len(q) or len(p) == 0:
        raise ValueError("histograms must be non-empty and the same length")
    sp, sq = float(sum(p)), float(sum(q))
    if sp <= 0.0 or sq <= 0.0:
        raise ValueError("histograms must carry positive mass")
    gap, cp, cq = 0.0, 0.0, 0.0
    for a, b in zip(p[:-1], q[:-1]):
        cp += a / sp
        cq += b / sq
        gap += abs(cp - cq)
    return gap / len(p)


def self_times(spans: Sequence[tuple]) -> dict[int, int]:
    """Self time (ns) of each span: its duration minus what its children cover.

    ``spans`` are ``(span_id, parent_id, name, start_ns, end_ns, ...)``
    tuples; children are clipped to the parent's interval and overlapping
    children are counted once.
    """
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    bounds: dict[int, tuple[int, int]] = {}
    for span in spans:
        span_id, parent, _name, start, end = span[:5]
        bounds[span_id] = (start, end)
        if parent:
            children[parent].append((start, end))
    result: dict[int, int] = {}
    for span_id, (start, end) in bounds.items():
        covered, cursor = 0, start
        for c_start, c_end in sorted(children.get(span_id, ())):
            lo, hi = max(c_start, cursor), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span_id] = (end - start) - covered
    return result


def parse_proc_cpu_seconds(stat_text: str, clk_tck: int) -> float:
    """User+system CPU seconds from the text of ``/proc/<pid>/stat``."""
    # comm (field 2) may contain spaces and parentheses; fields resume after the last ')'.
    rest = stat_text[stat_text.rindex(")") + 2 :].split()
    utime, stime = int(rest[11]), int(rest[12])
    return (utime + stime) / clk_tck


def parse_vm_hwm_kb(status_text: str) -> int:
    """Peak resident set size (kB) from the text of ``/proc/<pid>/status``."""
    for line in status_text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise ValueError("no VmHWM line in status text")


def speed_probe_ns(repeats: int = 1) -> int:
    """Time a fixed mix of NumPy and interpreter work: the host-speed probe.

    Run beside an op on the same thread, it measures how fast the core the
    op ran on was at that moment (see ``PROBE_REF_NS``). With ``repeats``,
    the median of that many probes, so one preempted probe does not count.
    """
    import numpy as np

    times = []
    for _ in range(repeats):
        start = time.perf_counter_ns()
        values = np.random.default_rng(0).random(50_000)
        for _ in range(2):
            values = np.sort(values * 1.0001) + np.cumsum(values) * 1e-9
        total = 0
        for i in range(20_000):
            total += i
        times.append(time.perf_counter_ns() - start)
    return int(statistics.median(times))


def cores_speed_ns() -> int:
    """The mean of one :func:`speed_probe_ns` on each core this thread may use.

    The thread is pinned to each core in turn and unpinned afterwards. The
    process under test spreads its threads over the cores, whose speeds
    vary independently, so its speed is taken as their mean. Run it only
    while the process under test is idle.
    """
    cores = os.sched_getaffinity(0)
    times = []
    try:
        for core in sorted(cores):
            os.sched_setaffinity(0, {core})
            times.append(speed_probe_ns())
    finally:
        os.sched_setaffinity(0, cores)
    return int(statistics.mean(times))


def slowdowns(probes_ns: Sequence[int], span: int) -> list[float]:
    """Per probe, how much slower than the reference the host ran around it.

    The median of the probes within ``span`` places on either side, over
    ``PROBE_REF_NS``: one preempted probe moves it little.
    """
    return [
        statistics.median(probes_ns[max(0, i - span) : i + span + 1]) / PROBE_REF_NS
        for i in range(len(probes_ns))
    ]


def proc_cpu_seconds(pid: int) -> float:
    with open(f"/proc/{pid}/stat") as fh:
        return parse_proc_cpu_seconds(fh.read(), os.sysconf("SC_CLK_TCK"))


def proc_peak_rss_mb(pid: int | str = "self") -> float:
    with open(f"/proc/{pid}/status") as fh:
        return parse_vm_hwm_kb(fh.read()) / 1024.0


def spread(values: Sequence[float]) -> dict[str, float]:
    """Median, quartiles, extremes and the quartile distance as a share of the median."""
    if len(values) < 2:
        only = float(values[0]) if values else math.nan
        return {"median": only, "q1": only, "q3": only, "min": only, "max": only, "iqr_frac": 0.0}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "iqr_frac": (q3 - q1) / med if med else math.inf,
    }
