"""Benchmark of the LDP collection pipeline: three closed-loop workloads.

    python3 perfbench/run.py --workload round_inproc --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off. ``--trace
1`` makes one untraced and one traced run and reports the per-layer
metrics, the tracing overhead and span coverage. ``--steadiness N`` runs a
workload (or ``all``) N times with consecutive seeds, each in a fresh
process, and prints every metric's median, quartiles and extremes.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--workload all`` runs every
workload in turn, each ending with its own such line. Run it from the
repository root; it imports the program from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "BENCHMARK.json"


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _filesystem(path: Path) -> str:
    """Type of the filesystem holding ``path``, from ``/proc/mounts``."""
    real, best, kind = str(path.resolve()), "", "unknown"
    with open("/proc/mounts") as fh:
        for line in fh:
            fields = line.split()
            mount = fields[1]
            inside = real == mount or real.startswith(mount.rstrip("/") + "/")
            if inside and len(mount) > len(best):
                best, kind = mount, fields[2]
    return f"{kind} at {best}"


def _header(args, rundir: Path) -> None:
    import numpy

    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print(f"# effective_cores={len(os.sched_getaffinity(0))} python={platform.python_version()} "
          f"numpy={numpy.__version__} journal_fs={_filesystem(rundir)}")


def end_to_end(run, workload: str, raw_setup_s: list[float]) -> tuple[dict, list[str], bool]:
    """The end-to-end metrics of one run, its report lines and whether p90 was reportable."""
    from ldpbench.stats import beyond_count, nearest_rank, reportable_percentile

    n = len(run.op_ms)
    p90 = reportable_percentile(run.op_ms, 90)
    per_s, cpu_us = run.window_rates()
    windows = f"median of {len(per_s)} windows; overall {run.reports} reports"
    values = {
        "op_p50_ms": (nearest_rank(run.op_ms, 50), "ms",
                      f"n={n}, scaled to the reference host speed; "
                      f"as measured {nearest_rank(run.raw_op_ms, 50):.3f}"),
        "op_p90_ms": (p90 if p90 is not None else nearest_rank(run.op_ms, 90), "ms",
                      f"n={n}, {beyond_count(n, 90)} beyond"
                      + ("" if p90 is not None else " (too few: not reportable)")),
        "reports_per_s": (statistics.median(per_s), "1/s", f"{windows} in {run.wall_s:.3f} s"),
        "cpu_us_per_report": (statistics.median(cpu_us), "us",
                              f"{windows}, {run.cpu_s:.2f} s CPU"),
        "peak_rss_mb": (run.peak_rss_mb, "MB", "VmHWM"),
        "setup_s": (statistics.median(run.setup_s), "s",
                    f"median of {len(run.setup_s)} launches, scaled to the reference host speed: "
                    + " ".join(f"{s:.3f}" for s in run.setup_s)
                    + "; as measured " + " ".join(f"{s:.3f}" for s in raw_setup_s)),
        "estimate_w1": (run.w1, "domain", "W1 over the unit domain"),
    }
    if workload == "monitor_http":
        values["advance_p50_ms"] = (nearest_rank(run.advance_ms, 50), "ms", f"n={len(run.advance_ms)}")
    values["fail_frac"] = (run.failed / max(run.attempted, 1), "frac",
                           f"{run.failed} of {run.attempted} attempts")
    lines = [f"{name:<20} {value:>14.6g} {unit:<6} {note}" for name, (value, unit, note) in values.items()]
    return {k: v[:2] for k, v in values.items()}, lines, p90 is not None


def _declared(kind: str) -> list[dict]:
    return json.loads(BENCH.read_text())[kind]


def _json_line(correct: bool, attempted: int, failed: int, metrics: dict, kind: str) -> str:
    chosen = {}
    for spec in _declared(kind):
        value, unit = metrics[spec["name"]]
        if unit != spec["unit"]:
            raise RuntimeError(f"{spec['name']} measured in {unit}, declared in {spec['unit']}")
        chosen[spec["name"]] = {"value": value, "unit": unit}
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": chosen})


def measure(args, rundir: Path) -> None:
    from ldpbench.workloads import WORKLOADS, Context

    ctx = Context(ROOT, rundir, args.seed, args.seconds, False)
    try:
        run = WORKLOADS[args.workload](ctx)
    finally:
        ctx.stop_children()
    metrics, lines, p90_ok = end_to_end(run, args.workload, ctx.raw_setup_s)
    print("\n".join(lines))
    for failure in run.failures[:10]:
        print(f"! {failure}")
    correct = run.failed == 0 and p90_ok and all(math.isfinite(v) for v, _ in metrics.values())
    print(_json_line(correct, run.attempted, run.failed, metrics, "end_to_end"))


def trace(args, rundir: Path) -> None:
    from ldpbench.layers import PER_LAYER, layer_metrics, op_coverage, server_share
    from ldpbench.spans import missing_layers
    from ldpbench.stats import nearest_rank
    from ldpbench.workloads import WORKLOADS, Context

    missing = missing_layers()
    if missing:
        print(f"# untraced: the program has no {', '.join(missing)}; their metrics read 0")

    runs = []
    for name, tracing in (("untraced", False), ("traced", True)):
        ctx = Context(ROOT, rundir / name, args.seed, args.seconds, tracing, 1)
        try:
            runs.append(WORKLOADS[args.workload](ctx))
        finally:
            ctx.stop_children()
    base, traced = runs
    ops = len(traced.op_ms)
    layers = layer_metrics(traced.spans, traced.window, traced.samples, ops,
                           traced.advances, traced.skew)
    units = dict(PER_LAYER)
    for name, value in layers.items():
        print(f"{name:<26} {value:>14.6g} {units[name]}")
    untraced_p50, traced_p50 = nearest_rank(base.op_ms, 50), nearest_rank(traced.op_ms, 50)
    print(f"tracing_overhead_ms {traced_p50 - untraced_p50:.4f} "
          f"(op_p50_ms traced {traced_p50:.4f} - untraced {untraced_p50:.4f}, spans={len(traced.spans)})")
    coverage_failures = []
    if args.workload == "round_inproc":
        cover = op_coverage(traced.spans)
        print(f"blocking_span_coverage min={min(cover):.4f} mean={statistics.mean(cover):.4f} "
              f"over {len(cover)} ops (privatize, to_feed, ingest_feed, report)")
        if min(cover) < 0.95:
            coverage_failures.append(f"blocking spans cover only {min(cover):.3f} of an op")
    else:
        shares = server_share(traced.spans, traced.samples, traced.window)
        print("server_span_share " + " ".join(f"{k}={v:.4f}" for k, v in shares.items())
              + " (handler span time over client latency)")
    for failure in (base.failures + traced.failures + coverage_failures)[:10]:
        print(f"! {failure}")
    failed = base.failed + traced.failed + len(coverage_failures)
    metrics = {name: (value, units[name]) for name, value in layers.items()}
    print(_json_line(failed == 0, base.attempted + traced.attempted, failed, metrics, "per_layer"))


def steadiness(args) -> int:
    """Run the workload(s) repeatedly in fresh processes; print each metric's spread."""
    from ldpbench.stats import spread

    names = list(_workload_names()) if args.workload == "all" else [args.workload]
    bounds = {m["name"]: m["bound"] for m in _declared("end_to_end")}
    summary = {}
    for name in names:
        values: dict[str, list[float]] = {}
        for i in range(args.steadiness):
            seed = args.seed + i
            out = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, cwd=ROOT, check=True,
            ).stdout.strip().splitlines()
            result = json.loads(out[-1])
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
            print(f"{name} seed={seed} correct={result['correct']} failed={result['failed']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                  flush=True)
        summary[name] = {}
        print(f"\n{name}: {args.steadiness} runs")
        print(f"{'metric':<20} {'median':>12} {'q1':>12} {'q3':>12} {'min':>12} {'max':>12} "
              f"{'iqr/med':>8} {'bound':>6}")
        for metric, vals in values.items():
            s = spread(vals)
            summary[name][metric] = s
            print(f"{metric:<20} {s['median']:>12.5g} {s['q1']:>12.5g} {s['q3']:>12.5g} "
                  f"{s['min']:>12.5g} {s['max']:>12.5g} {s['iqr_frac']:>8.4f} "
                  f"{bounds[metric]:>6}", flush=True)
    print(json.dumps(summary))
    return 0


def _workload_names() -> list[str]:
    return [w["name"] for w in json.loads(BENCH.read_text())["workloads"]]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, default=0, metavar="N",
                        help="run N times with consecutive seeds and print the spreads")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return _fail(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
    if not BENCH.is_file():
        return _fail(f"{BENCH} is missing")
    known = _workload_names()
    if args.workload not in known and args.workload != "all":
        return _fail(f"unknown workload {args.workload!r}; choose from {known} or 'all'")
    sys.path.insert(0, str(ROOT / "src"))
    if args.steadiness:
        return steadiness(args)

    for name in known if args.workload == "all" else [args.workload]:
        one = argparse.Namespace(**{**vars(args), "workload": name})
        rundir = ROOT / ".bench_run" / str(os.getpid())
        rundir.mkdir(parents=True)
        try:
            _header(one, rundir)
            trace(one, rundir) if one.trace else measure(one, rundir)
        finally:
            shutil.rmtree(rundir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
