"""Performance benchmark for the streaming collection engine.

Exercises ``repro.streaming`` the way a longitudinal deployment would and
writes a machine-readable ``BENCH_streaming.json`` (uploaded as a CI
artifact):

1. **Window maintenance** — a sliding window of ``W`` rounds (50k reports
   each in full mode) advanced one round at a time. Records the O(d)
   advance cost against the O(W * n) re-ingest a deployment without state
   arithmetic would pay (re-running ``partial_fit`` over every surviving
   round's reports, measured on sampled ticks), plus the O(W * d)
   payload re-merge as a secondary baseline. Every advance checks the
   exactness contract: the maintained aggregate is **bit-identical** to
   rebuilding from the ring. The tracemalloc peak of the maintenance
   phase must stay O(W * d + batch) — a fixed allowance plus ring-buffer
   and one-round working set — never O(total reports).
2. **Warm vs cold scheduling** — the same drifting stream ticked through
   a collector that warm-starts EM from the previous posterior, and its
   windows solved cold by the estimator's own ``estimate()``; the warm
   pass must spend strictly fewer EM iterations in total. Per-tick latency
   is recorded for the trajectory.
3. **Fusion** — a multi-attribute tick solved through one fused
   ``run_many`` batch vs per-attribute dispatch.
4. **Stream budget audit** — the multi-round accounting identity
   (``cumulative = rounds * per_round`` under every-round participation)
   checked exactly.

Exit status gates only the deterministic contracts (bit-identity, warm <
cold iterations, bounded memory, audit identity — plus the >=20x
advance-vs-reingest speedup in full mode, where W=64 makes the asymptotic
gap overwhelming); wall-clock numbers are recorded but not gated in
``--quick`` CI smoke.

Run:  PYTHONPATH=src python benchmarks/bench_perf_streaming.py [--quick]
          [--out benchmarks/BENCH_streaming.json]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
import tracemalloc
from pathlib import Path

import numpy as np

from repro.api import make_estimator
from repro.privacy import audit_stream_budget
from repro.streaming import SlidingWindowState, StreamingCollector
from repro.streaming.telemetry import drifting_stream
from repro.streaming.window import clone_template
from repro.utils.rng import as_generator

#: Fixed working-set allowance for the maintenance phase: estimator
#: states, the JSON payload ring, interpreter noise. The variable part
#: scales with W * d (ring payloads) and one round's report batch — never
#: with the total number of reports seen by the stream.
MEMORY_FIXED_ALLOWANCE_BYTES = 4_000_000
MEMORY_PER_RING_SLOT_FACTOR = 64  # bytes per (window x d) cell, generous
SPEEDUP_TARGET = 20.0


def bench_window_maintenance(
    d: int, window: int, n_rounds: int, reports_per_round: int
) -> dict:
    """Advance vs re-ingest over a full stream of rounds."""
    template = make_estimator("sw-ems", 1.0, d)
    gen = as_generator(7)
    win = SlidingWindowState(template, window=window)
    scratch = clone_template(template)

    advance_s = 0.0
    remerge_s = 0.0
    bit_identical = True
    report_batch_bytes = reports_per_round * 8

    # Phase A: the maintained stream. Memory-tracked: peak must be the
    # ring (W * d payloads) plus one round's report batch, never the
    # n_rounds * reports_per_round total.
    tracemalloc.start()
    tracemalloc.reset_peak()
    for _ in range(n_rounds):
        scratch.reset()
        scratch.partial_fit(gen.random(reports_per_round), rng=gen)
        started = time.perf_counter()
        win.push(scratch)
        advance_s += time.perf_counter() - started

        started = time.perf_counter()
        rebuilt = win.rebuild()
        remerge_s += time.perf_counter() - started
        if not (
            (win.current._counts == rebuilt._counts).all()
            and win.current.n_reports == rebuilt.n_reports
        ):
            bit_identical = False
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    # Phase B: what one tick costs a deployment WITHOUT state arithmetic —
    # re-ingesting all W surviving rounds' reports through partial_fit.
    # Sampled (it is the O(W * n) slow path being benchmarked against);
    # report batches are regenerated outside the timed region.
    reingest_samples = 3
    reingest_s = 0.0
    gen_b = as_generator(11)
    for _ in range(reingest_samples):
        batches = [gen_b.random(reports_per_round) for _ in range(window)]
        fresh = clone_template(template)
        started = time.perf_counter()
        for batch in batches:
            fresh.partial_fit(batch, rng=gen_b)
        reingest_s += time.perf_counter() - started
    reingest_per_tick = reingest_s / reingest_samples
    advance_per_tick = advance_s / n_rounds

    memory_budget = (
        MEMORY_FIXED_ALLOWANCE_BYTES
        + MEMORY_PER_RING_SLOT_FACTOR * window * d
        + 4 * report_batch_bytes
    )
    speedup = (
        reingest_per_tick / advance_per_tick
        if advance_per_tick > 0
        else float("inf")
    )
    remerge_per_tick = remerge_s / n_rounds
    return {
        "d": d,
        "window": window,
        "n_rounds": n_rounds,
        "reports_per_round": reports_per_round,
        "total_reports": n_rounds * reports_per_round,
        "advance_s_per_tick": round(advance_per_tick, 8),
        "reingest_s_per_tick": round(reingest_per_tick, 6),
        "reingest_samples": reingest_samples,
        "remerge_s_per_tick": round(remerge_per_tick, 8),
        "speedup_advance_vs_reingest": round(speedup, 1),
        "speedup_advance_vs_remerge": round(
            remerge_per_tick / advance_per_tick, 2
        ),
        "bit_identical_every_tick": bit_identical,
        "peak_tracked_bytes": peak,
        "memory_budget_bytes": memory_budget,
        "memory_bounded": bool(peak < memory_budget),
    }


def bench_warm_vs_cold(
    d: int, window: int, n_ticks: int, reports_per_round: int
) -> dict:
    """Total EM iterations across a drifting stream, warm vs cold.

    The warm side ticks a ``StreamingCollector``. The cold side pushes the
    same rounds into a window of its own and solves it with the
    estimator's own ``estimate()``, which starts from the uniform prior.
    """
    template = make_estimator("sw-ems", 1.0, d)
    collector = StreamingCollector({"value": template}, window=window)
    cold_window = SlidingWindowState(template, window)
    iterations = {"warm": 0, "cold": 0}
    tick_seconds: dict[str, list[float]] = {"warm": [], "cold": []}
    for values in drifting_stream(n_ticks, reports_per_round, rng=3):
        round_estimator = collector.make_round("value", values, rng=as_generator(5))
        started = time.perf_counter()
        result = collector.tick({"value": round_estimator})
        tick_seconds["warm"].append(time.perf_counter() - started)
        iterations["warm"] += result.total_iterations
        started = time.perf_counter()
        cold_window.push(round_estimator)
        cold_window.current.estimate()
        tick_seconds["cold"].append(time.perf_counter() - started)
        iterations["cold"] += cold_window.current.result_.iterations
    out: dict = {
        "d": d,
        "window": window,
        "n_ticks": n_ticks,
        "reports_per_round": reports_per_round,
    }
    for mode in ("warm", "cold"):
        arr = np.asarray(tick_seconds[mode])
        out[mode] = {
            "total_em_iterations": iterations[mode],
            "tick_s_mean": round(float(arr.mean()), 6),
            "tick_s_max": round(float(arr.max()), 6),
        }
    out["iteration_ratio_warm_over_cold"] = round(
        iterations["warm"] / iterations["cold"], 4
    )
    out["warm_fewer_iterations"] = bool(iterations["warm"] < iterations["cold"])
    return out


def bench_fusion(d: int, n_attrs: int, reports_per_round: int) -> dict:
    """One fused run_many dispatch vs per-attribute solo solves."""
    gen = as_generator(17)
    batches = [gen.random(reports_per_round) for _ in range(n_attrs)]

    fused_collector = StreamingCollector(
        {f"a{i}": make_estimator("sw-ems", 1.0, d) for i in range(n_attrs)},
        window=4,
    )
    rounds = {
        f"a{i}": fused_collector.make_round(f"a{i}", batches[i], rng=as_generator(i))
        for i in range(n_attrs)
    }
    started = time.perf_counter()
    fused_result = fused_collector.tick(rounds)
    fused_s = time.perf_counter() - started

    solo_s = 0.0
    for i in range(n_attrs):
        solo = StreamingCollector(
            {f"a{i}": make_estimator("sw-ems", 1.0, d)}, window=4
        )
        solo_rounds = {
            f"a{i}": solo.make_round(f"a{i}", batches[i], rng=as_generator(i))
        }
        started = time.perf_counter()
        solo.tick(solo_rounds)
        solo_s += time.perf_counter() - started

    return {
        "d": d,
        "n_attrs": n_attrs,
        "fused_groups": fused_result.fused_groups,
        "fused_tick_s": round(fused_s, 6),
        "solo_ticks_s": round(solo_s, 6),
        "all_fused": bool(
            all(t.fused for t in fused_result.attributes.values())
        ),
    }


def bench_stream_audit() -> dict:
    """The multi-round accounting identity, checked exactly."""
    allocation = {"income": 0.5, "hours": 0.5, "trips": 1.0}
    rounds = 64
    every = audit_stream_budget(allocation, 8.0, rounds=rounds)
    once = audit_stream_budget(
        allocation, 8.0, rounds=rounds, participation="once"
    )
    identity = (
        every.cumulative_epsilon == rounds * every.per_round_epsilon
        and once.cumulative_epsilon == once.per_round_epsilon
    )
    return {
        "allocation": allocation,
        "rounds": rounds,
        "per_round_epsilon": every.per_round_epsilon,
        "every_round_window_epsilon": every.cumulative_epsilon,
        "once_window_epsilon": once.cumulative_epsilon,
        "identity_holds": bool(identity),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="small sizes for CI smoke (W=8 rounds of 2k reports)",
    )
    parser.add_argument(
        "--out", default="benchmarks/BENCH_streaming.json",
        help="where to write the JSON report",
    )
    args = parser.parse_args()

    if args.quick:
        d, window, n_rounds, reports = 64, 8, 12, 2_000
        warm_ticks, warm_reports = 8, 2_000
        fusion_attrs, fusion_reports = 4, 2_000
    else:
        d, window, n_rounds, reports = 256, 64, 96, 50_000
        warm_ticks, warm_reports = 24, 50_000
        fusion_attrs, fusion_reports = 8, 50_000

    report: dict = {
        "benchmark": "streaming",
        "quick": args.quick,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "effective_cores": len(os.sched_getaffinity(0)),
    }
    report["window_maintenance"] = bench_window_maintenance(
        d, window, n_rounds, reports
    )
    report["warm_vs_cold"] = bench_warm_vs_cold(
        d, window, warm_ticks, warm_reports
    )
    report["fusion"] = bench_fusion(d, fusion_attrs, fusion_reports)
    report["stream_audit"] = bench_stream_audit()

    maintenance = report["window_maintenance"]
    speedup_ok = (
        maintenance["speedup_advance_vs_reingest"] >= SPEEDUP_TARGET
        if not args.quick
        else True  # wall-clock gate only at full W=64 scale
    )
    report["targets"] = {
        "bit_identical_every_tick_ok": maintenance["bit_identical_every_tick"],
        "speedup_target": SPEEDUP_TARGET,
        "speedup_ok": speedup_ok,
        "memory_fixed_allowance_bytes": MEMORY_FIXED_ALLOWANCE_BYTES,
        "memory_bounded_ok": maintenance["memory_bounded"],
        "warm_fewer_iterations_ok": report["warm_vs_cold"][
            "warm_fewer_iterations"
        ],
        "fusion_single_dispatch_ok": report["fusion"]["fused_groups"] == 1
        and report["fusion"]["all_fused"],
        "stream_audit_identity_ok": report["stream_audit"]["identity_holds"],
    }

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2) + "\n")

    print(
        f"window W={maintenance['window']} d={maintenance['d']}: advance "
        f"{maintenance['advance_s_per_tick'] * 1e3:.3f}ms/tick vs re-ingest "
        f"{maintenance['reingest_s_per_tick'] * 1e3:.3f}ms/tick "
        f"({maintenance['speedup_advance_vs_reingest']:.1f}x), "
        f"bit-identical={maintenance['bit_identical_every_tick']}"
    )
    warm = report["warm_vs_cold"]
    print(
        f"warm vs cold over {warm['n_ticks']} drifting ticks: "
        f"{warm['warm']['total_em_iterations']} vs "
        f"{warm['cold']['total_em_iterations']} EM iterations "
        f"(ratio {warm['iteration_ratio_warm_over_cold']:.2f})"
    )
    fusion = report["fusion"]
    print(
        f"fusion: {fusion['n_attrs']} attrs in {fusion['fused_groups']} "
        f"dispatch ({fusion['fused_tick_s'] * 1e3:.1f}ms fused vs "
        f"{fusion['solo_ticks_s'] * 1e3:.1f}ms solo)"
    )
    print(f"wrote {out}")

    targets = report["targets"]
    ok = all(
        targets[key]
        for key in (
            "bit_identical_every_tick_ok",
            "speedup_ok",
            "memory_bounded_ok",
            "warm_fewer_iterations_ok",
            "fusion_single_dispatch_ok",
            "stream_audit_identity_ok",
        )
    )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
