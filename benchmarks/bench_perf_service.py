"""Performance benchmark for the sharded collection service.

Drives ``repro.service`` the way a deployment would and writes a
machine-readable ``BENCH_service.json`` (uploaded as a CI artifact):

1. **Sharded ingest** — a >=1M-report synthetic feed (``--quick``: 60k)
   streamed through 1-shard and 4-shard collectors, recording sustained
   reports/sec, the tracemalloc peak of the whole ingest tier, and the
   acceptance contract: the 4-shard merged estimate is **bit-identical**
   to the single-shard ingest of the same frames.
2. **Backpressure exactness** — the same feed against a tiny
   (``queue_depth=2``) collector with retry-on-429 semantics; every
   report must land exactly once despite throttling.
3. **HTTP end-to-end** — ``loadgen.run_load`` against a real socket
   service: upload latency p50/p95/p99 and reports/sec, then one
   ``/estimate`` round-trip.

Exit status gates only the deterministic contracts (bit-identity,
exact accepted counts, bounded ingest memory); wall-clock numbers are
recorded for the trajectory but would flake on noisy shared runners.

Run:  PYTHONPATH=src python benchmarks/bench_perf_service.py [--quick]
          [--out benchmarks/BENCH_service.json]
"""

from __future__ import annotations

import argparse
import json
import platform
import time
import tracemalloc
from pathlib import Path

import numpy as np

from repro.engine.backend import effective_cpu_count
from repro.service import (
    ServiceConfig,
    ServiceOverloadError,
    ShardedCollector,
    run_load,
    start_local_service,
)
from repro.service.loadgen import synthesize_frames
from repro.tasks import (
    AnalysisPlan,
    AttributeSpec,
    Distribution,
    Mean,
    Quantiles,
)

#: The "never materialize the feed" contract: peak tracked ingest memory
#: must stay under a fixed working-set allowance (estimator state, batch
#: synthesis buffers, queue slots) plus half the raw feed volume. Peak
#: scales with queue_depth x batch, not with the feed, so the fraction
#: only gets easier to meet as the feed grows.
MEMORY_FIXED_ALLOWANCE_BYTES = 4_000_000
MEMORY_BUDGET_FRACTION = 0.5


def bench_plan() -> AnalysisPlan:
    return AnalysisPlan(
        epsilon=2.0,
        attributes=(
            AttributeSpec("age", low=0.0, high=100.0, d=64),
            AttributeSpec("income", low=0.0, high=1e5, d=64),
        ),
        tasks=(
            Distribution("age"),
            Mean("income"),
            Quantiles("income", quantiles=(0.5, 0.9)),
        ),
    )


def _drain_submit(collector: ShardedCollector, frame: bytes, round_id: str) -> int:
    """Submit with retry-on-backpressure; returns throttle count.

    Only :class:`ServiceOverloadError` (a full queue, HTTP 429) is retried;
    any other rejection — e.g. a feed that can never fit ``queue_depth`` —
    is permanent and propagates.
    """
    throttled = 0
    while True:
        try:
            collector.submit_feed(frame, round_id)
            return throttled
        except ServiceOverloadError:
            throttled += 1
            collector.flush()


def bench_sharded_ingest(plan: AnalysisPlan, n_users: int, batch: int) -> dict:
    """1-shard vs 4-shard streaming ingest of one synthetic feed."""
    results: dict = {"n_users": n_users, "batch_size": batch}
    estimates: dict[int, dict] = {}
    for n_shards in (1, 4):
        collector = ShardedCollector(
            ServiceConfig(plan=plan, n_shards=n_shards, queue_depth=8)
        )
        feed_bytes = 0
        throttled = 0
        tracemalloc.start()
        tracemalloc.reset_peak()
        started = time.perf_counter()
        for frame, _n in synthesize_frames(
            plan, "bench", n_users, batch_size=batch, rng=7
        ):
            feed_bytes += len(frame)
            throttled += _drain_submit(collector, frame, "bench")
        collector.flush()
        ingest_s = time.perf_counter() - started
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        solve_started = time.perf_counter()
        estimate = collector.estimate("bench")
        solve_s = time.perf_counter() - solve_started
        stats = collector.stats()
        collector.close()
        estimates[n_shards] = estimate
        results[f"shards_{n_shards}"] = {
            "ingest_s": round(ingest_s, 4),
            "reports_per_second": round(n_users / ingest_s, 1),
            "solve_s": round(solve_s, 4),
            "feed_bytes": feed_bytes,
            "peak_tracked_bytes": peak,
            "peak_over_feed": round(peak / feed_bytes, 4),
            "throttled_submissions": throttled,
            "per_shard_reports": [
                s["reports_ingested"] for s in stats["shards"]
            ],
        }
    single, multi = estimates[1], estimates[4]
    results["bit_identical_1_vs_4_shards"] = bool(
        single["estimates"] == multi["estimates"]
        and single["n_reports"] == multi["n_reports"]
        and single["report"] == multi["report"]
    )
    results["errors"] = {**single["errors"], **multi["errors"]}
    results["memory_bounded"] = all(
        results[f"shards_{n}"]["peak_tracked_bytes"]
        < MEMORY_FIXED_ALLOWANCE_BYTES
        + MEMORY_BUDGET_FRACTION * results[f"shards_{n}"]["feed_bytes"]
        for n in (1, 4)
    )
    return results


def bench_backpressure(plan: AnalysisPlan, n_users: int, batch: int) -> dict:
    """Tiny queues + retries: throttling must never lose or double-count."""
    collector = ShardedCollector(
        ServiceConfig(plan=plan, n_shards=2, queue_depth=2)
    )
    throttled = 0
    for frame, _n in synthesize_frames(
        plan, "bp", n_users, batch_size=batch, rng=11
    ):
        throttled += _drain_submit(collector, frame, "bp")
    collector.flush()
    ingested = sum(
        s["reports_ingested"] for s in collector.stats()["shards"]
    )
    errors = sum(s["ingest_errors"] for s in collector.stats()["shards"])
    collector.close()
    return {
        "n_users": n_users,
        "queue_depth": 2,
        "throttled_submissions": throttled,
        "reports_ingested": ingested,
        "ingest_errors": errors,
        "exact": bool(ingested == n_users and errors == 0),
    }


def bench_http(plan: AnalysisPlan, n_users: int, batch: int, concurrency: int) -> dict:
    """Real-socket load run + one estimate round-trip."""
    with start_local_service(
        ServiceConfig(plan=plan, n_shards=4, queue_depth=32)
    ) as handle:
        report = run_load(
            handle.host, handle.port, plan, "load", n_users,
            batch_size=batch, concurrency=concurrency, rng=13,
        )
        solve_started = time.perf_counter()
        estimate = handle.collector.estimate("load")
        solve_s = time.perf_counter() - solve_started
        return {
            **report.to_dict(),
            "concurrency": concurrency,
            "estimate_s": round(solve_s, 4),
            "estimate_errors": estimate["errors"],
            "all_accepted": bool(
                report.n_reports_accepted == n_users and report.n_errors == 0
            ),
        }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="small sizes for CI smoke (60k reports instead of 1M)",
    )
    parser.add_argument(
        "--out", default="benchmarks/BENCH_service.json",
        help="where to write the JSON report",
    )
    args = parser.parse_args()

    if args.quick:
        ingest_users, ingest_batch = 60_000, 10_000
        bp_users, bp_batch = 10_000, 1_000
        http_users, http_batch = 20_000, 2_000
    else:
        ingest_users, ingest_batch = 1_000_000, 50_000
        bp_users, bp_batch = 100_000, 5_000
        http_users, http_batch = 200_000, 10_000

    plan = bench_plan()
    report: dict = {
        "benchmark": "service",
        "quick": args.quick,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "effective_cores": effective_cpu_count(),
    }
    report["sharded_ingest"] = bench_sharded_ingest(
        plan, ingest_users, ingest_batch
    )
    report["backpressure"] = bench_backpressure(plan, bp_users, bp_batch)
    report["http"] = bench_http(plan, http_users, http_batch, concurrency=8)

    report["targets"] = {
        "bit_identical_1_vs_4_shards_ok": report["sharded_ingest"][
            "bit_identical_1_vs_4_shards"
        ],
        "memory_fixed_allowance_bytes": MEMORY_FIXED_ALLOWANCE_BYTES,
        "memory_budget_fraction": MEMORY_BUDGET_FRACTION,
        "memory_bounded_ok": report["sharded_ingest"]["memory_bounded"],
        "backpressure_exact_ok": report["backpressure"]["exact"],
        "http_all_accepted_ok": report["http"]["all_accepted"],
        "http_estimate_clean_ok": report["http"]["estimate_errors"] == {},
    }

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2) + "\n")

    ingest = report["sharded_ingest"]
    for shards in (1, 4):
        row = ingest[f"shards_{shards}"]
        print(
            f"ingest {shards} shard(s): {row['reports_per_second']:,.0f} "
            f"reports/s, peak/feed={row['peak_over_feed']:.2f}, "
            f"solve={row['solve_s']:.3f}s"
        )
    print(
        f"bit-identical 1-vs-4 shards: {ingest['bit_identical_1_vs_4_shards']}"
    )
    bp = report["backpressure"]
    print(
        f"backpressure: {bp['throttled_submissions']} throttles, "
        f"{bp['reports_ingested']:,} ingested, exact={bp['exact']}"
    )
    http = report["http"]
    print(
        f"http: {http['reports_per_second']:,.0f} reports/s, "
        f"p50={http['latency_ms']['p50']:.2f}ms "
        f"p95={http['latency_ms']['p95']:.2f}ms "
        f"p99={http['latency_ms']['p99']:.2f}ms, "
        f"throttled={http['n_throttled']}"
    )
    print(f"wrote {out}")

    targets = report["targets"]
    ok = all(
        targets[key]
        for key in (
            "bit_identical_1_vs_4_shards_ok",
            "memory_bounded_ok",
            "backpressure_exact_ok",
            "http_all_accepted_ok",
            "http_estimate_clean_ok",
        )
    )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
