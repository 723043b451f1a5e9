"""Fault-tolerance benchmark: journal overhead, recovery time, replay exactness.

Measures what durability costs and proves what it buys, writing a
machine-readable ``BENCH_resilience.json`` (uploaded as a CI artifact):

1. **Journal overhead** — one synthetic feed ingested three ways: no
   journal, journaled (``fsync=checkpoint``), and journaled with
   ``fsync=always``. Records reports/sec and journal bytes per report;
   the acceptance contract is that journaling changes *nothing* about
   the answer: journaled estimates are **bit-identical** to the
   unjournaled run's.
2. **Cold recovery** — restart a fresh collector over the journal dir
   and time checkpoint-restore + tail replay. Gate: the recovered
   estimates are bit-identical to the pre-restart ones, and every
   keyed upload replay-acks (exactly-once across the restart).
3. **Crash storm** — a seeded :class:`~repro.service.faults.FaultPlan`
   crashes ingest at every journal/commit boundary
   (``prob`` per site, deterministic from the seed); the simulated
   client retries through restarts under stable idempotency keys.
   Gate: the survivors' estimates are bit-identical to a fault-free
   run and the accepted-upload count is exact.

Exit status gates only the deterministic contracts (bit-identity,
exactly-once counts); wall-clock numbers are recorded for the
trajectory but would flake on noisy shared runners.

Run:  PYTHONPATH=src python benchmarks/bench_perf_resilience.py [--quick]
          [--out benchmarks/BENCH_resilience.json]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.service import (
    Fault,
    FaultPlan,
    InjectedFault,
    ServiceConfig,
    ShardedCollector,
)
from repro.service.loadgen import synthesize_frames
from repro.tasks import AnalysisPlan, AttributeSpec, Distribution, Mean

CRASH_SITES = (
    "journal.append.before",
    "journal.append.after",
    "journal.truncate",
    "meta.commit.before",
    "meta.commit.after",
)


def bench_plan() -> AnalysisPlan:
    return AnalysisPlan(
        epsilon=2.0,
        attributes=(
            AttributeSpec("age", low=0.0, high=100.0, d=64),
            AttributeSpec("income", low=0.0, high=1e5, d=64),
        ),
        tasks=(Distribution("age"), Mean("income")),
    )


def keyed_uploads(plan: AnalysisPlan, n_users: int, batch: int) -> list:
    frames = synthesize_frames(plan, "bench", n_users, batch_size=batch, rng=7)
    return [
        (f"bench-{index}", frame)
        for index, (frame, _n) in enumerate(frames)
    ]


def estimates_json(collector: ShardedCollector) -> str:
    collector.flush()
    estimate = collector.estimate("bench")
    return json.dumps(
        {"estimates": estimate["estimates"], "n": estimate["n_reports"]},
        sort_keys=True,
    )


def bench_journal_overhead(
    plan: AnalysisPlan, uploads: list, workdir: Path
) -> dict:
    """Ingest throughput without a journal vs with, at both fsync levels."""
    results: dict = {"n_uploads": len(uploads)}
    fingerprints: dict[str, str] = {}
    for mode, kwargs in (
        ("no_journal", {}),
        ("journal_checkpoint", {"journal_dir": workdir / "wal-ckpt"}),
        (
            "journal_fsync_always",
            {"journal_dir": workdir / "wal-sync", "journal_fsync": "always"},
        ),
    ):
        config = ServiceConfig(plan=plan, n_shards=4, **kwargs)
        with ShardedCollector(config) as collector:
            started = time.perf_counter()
            n_users = 0
            for key, frame in uploads:
                n_users += collector.submit(frame, "bench", key=key).accepted
            collector.flush()
            ingest_s = time.perf_counter() - started
            stats = collector.stats()
            journal_bytes = (
                sum(stats["journal"]["bytes"]) if stats["journal"] else 0
            )
            fingerprints[mode] = estimates_json(collector)
            results[mode] = {
                "ingest_s": round(ingest_s, 4),
                "reports_per_second": round(n_users / ingest_s, 1),
                "journal_bytes": journal_bytes,
                "journal_bytes_per_report": (
                    round(journal_bytes / n_users, 2) if n_users else 0.0
                ),
            }
    base = results["no_journal"]["ingest_s"]
    for mode in ("journal_checkpoint", "journal_fsync_always"):
        results[mode]["overhead_vs_no_journal"] = round(
            results[mode]["ingest_s"] / base, 3
        )
    results["journal_bit_identical"] = bool(
        fingerprints["no_journal"]
        == fingerprints["journal_checkpoint"]
        == fingerprints["journal_fsync_always"]
    )
    return results


def bench_recovery(
    plan: AnalysisPlan, uploads: list, workdir: Path, checkpoint_every: int
) -> dict:
    """Cold-restart recovery time from checkpoint + journal tail."""
    config = ServiceConfig(
        plan=plan,
        n_shards=4,
        journal_dir=workdir / "wal-recovery",
        checkpoint_every=checkpoint_every,
    )
    with ShardedCollector(config) as collector:
        for key, frame in uploads:
            collector.submit(frame, "bench", key=key)
        before = estimates_json(collector)
    started = time.perf_counter()
    recovered = ShardedCollector(config)
    recovery_s = time.perf_counter() - started
    try:
        after = estimates_json(recovered)
        stats = recovered.stats()
        replays = sum(
            recovered.submit(frame, "bench", key=key).replayed
            for key, frame in uploads
        )
        return {
            "recovery_s": round(recovery_s, 4),
            "recovered_records": stats["journal"]["recovered_records"],
            "uploads_recovered": stats["uploads_accepted"],
            "checkpoint_every": checkpoint_every,
            "replay_bit_identical": bool(after == before),
            "all_retries_replay_acked": bool(replays == len(uploads)),
        }
    finally:
        recovered.close()


def bench_crash_storm(
    plan: AnalysisPlan, uploads: list, workdir: Path, seed: int
) -> dict:
    """Seeded crashes at every commit boundary; exactly-once through retries."""
    baseline_config = ServiceConfig(
        plan=plan, n_shards=4, journal_dir=workdir / "wal-baseline"
    )
    with ShardedCollector(baseline_config) as collector:
        for key, frame in uploads:
            collector.submit(frame, "bench", key=key)
        baseline = estimates_json(collector)
    faults = FaultPlan(
        [Fault(site, prob=0.08, times=None) for site in CRASH_SITES],
        seed=seed,
    )
    config = ServiceConfig(
        plan=plan,
        n_shards=4,
        journal_dir=workdir / "wal-storm",
        faults=faults,
    )
    collector = ShardedCollector(config)
    crashes = replays = 0
    recovery_total_s = 0.0
    started = time.perf_counter()
    try:
        for key, frame in uploads:
            while True:
                try:
                    receipt = collector.submit(frame, "bench", key=key)
                except InjectedFault:
                    crashes += 1
                    collector.close()
                    restart = time.perf_counter()
                    collector = ShardedCollector(config)
                    recovery_total_s += time.perf_counter() - restart
                    continue
                replays += receipt.replayed
                break
        elapsed = time.perf_counter() - started
        exact = bool(
            estimates_json(collector) == baseline
            and collector.stats()["uploads_accepted"] == len(uploads)
        )
        return {
            "seed": seed,
            "crashes": crashes,
            "replay_acks": replays,
            "restarts_s_total": round(recovery_total_s, 4),
            "elapsed_s": round(elapsed, 4),
            "crash_exactly_once": exact,
        }
    finally:
        collector.close()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="small sizes for CI smoke (40k reports instead of 400k)",
    )
    parser.add_argument(
        "--out", default="benchmarks/BENCH_resilience.json",
        help="where to write the JSON report",
    )
    args = parser.parse_args()

    if args.quick:
        n_users, batch, checkpoint_every = 40_000, 4_000, 4
    else:
        n_users, batch, checkpoint_every = 400_000, 10_000, 16

    plan = bench_plan()
    uploads = keyed_uploads(plan, n_users, batch)
    report: dict = {
        "benchmark": "resilience",
        "quick": args.quick,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "effective_cores": len(os.sched_getaffinity(0)),
        "n_users": n_users,
    }
    workdir = Path(tempfile.mkdtemp(prefix="bench-resilience-"))
    try:
        report["journal_overhead"] = bench_journal_overhead(
            plan, uploads, workdir
        )
        report["recovery"] = bench_recovery(
            plan, uploads, workdir, checkpoint_every
        )
        report["crash_storm"] = bench_crash_storm(plan, uploads, workdir, 2026)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report["targets"] = {
        "journal_bit_identical_ok": report["journal_overhead"][
            "journal_bit_identical"
        ],
        "replay_bit_identical_ok": report["recovery"]["replay_bit_identical"],
        "replay_acks_exact_ok": report["recovery"]["all_retries_replay_acked"],
        "crash_exactly_once_ok": report["crash_storm"]["crash_exactly_once"],
        "crash_storm_stormed_ok": report["crash_storm"]["crashes"] > 0,
    }

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2) + "\n")

    overhead = report["journal_overhead"]
    for mode in ("no_journal", "journal_checkpoint", "journal_fsync_always"):
        row = overhead[mode]
        extra = (
            f", overhead x{row['overhead_vs_no_journal']}"
            if "overhead_vs_no_journal" in row
            else ""
        )
        print(
            f"{mode}: {row['reports_per_second']:,.0f} reports/s, "
            f"{row['journal_bytes_per_report']:.1f} journal B/report{extra}"
        )
    recovery = report["recovery"]
    print(
        f"recovery: {recovery['recovery_s']:.3f}s, "
        f"{recovery['recovered_records']} records replayed, "
        f"bit-identical={recovery['replay_bit_identical']}"
    )
    storm = report["crash_storm"]
    print(
        f"crash storm: {storm['crashes']} crashes, "
        f"{storm['replay_acks']} replay acks, "
        f"exactly-once={storm['crash_exactly_once']}"
    )
    print(f"wrote {out}")

    return 0 if all(report["targets"].values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
