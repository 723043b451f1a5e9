"""Performance benchmark for the shared compute engine (``repro.engine``).

Times the three engine claims against their pre-engine baselines and writes
a machine-readable ``BENCH_engine.json`` so the perf trajectory is recorded
from run to run (the CI perf-smoke step uploads it as an artifact):

1. **Matrix cache** — cold exact Square Wave transition-matrix construction
   vs a warm cache fetch (target: >= 5x).
2. **Batched EM/EMS** — ``B`` reconstruction problems sharing one matrix,
   solved as one engine batch vs ``B`` sequential single-problem calls at a
   pinned iteration count (target: >= 2x for B >= 16).
3. **Parallel sweep** — ``run_sweep(n_jobs=2)`` vs the serial path on the
   same config, asserting the results are bit-identical.

Run:  PYTHONPATH=src python benchmarks/bench_perf_engine.py [--quick]
          [--jobs 2] [--out benchmarks/BENCH_engine.json]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from pathlib import Path

import numpy as np

from repro.core.em import expectation_maximization
from repro.core.smoothing import binomial_kernel
from repro.core.square_wave import SquareWave
from repro.datasets.base import Dataset
from repro.engine.cache import cached_transition_matrix, clear_caches
from repro.engine.solver import batched_expectation_maximization
from repro.experiments.runner import SweepConfig, run_sweep


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_matrix_cache(d: int, repeats: int) -> dict:
    """Cold exact-trapezoid construction vs warm cache fetch."""
    sw = SquareWave(1.0)

    def cold():
        clear_caches()
        cached_transition_matrix(sw, d, d)

    cold_s = _best_of(cold, repeats)
    cached_transition_matrix(sw, d, d)  # prime
    fetches = 100
    warm_s = _best_of(
        lambda: [cached_transition_matrix(sw, d, d) for _ in range(fetches)],
        repeats,
    ) / fetches
    return {
        "d": d,
        "d_out": d,
        "cold_build_s": cold_s,
        "warm_fetch_s": warm_s,
        "speedup": cold_s / warm_s,
    }


def bench_batched_em(
    d: int, batch: int, iters: int, repeats: int, *, smoothing: bool
) -> dict:
    """One engine batch vs B sequential solves at a pinned iteration count."""
    rng = np.random.default_rng(0)
    matrix = np.asarray(SquareWave(1.0).transition_matrix(d, d))
    counts = np.stack(
        [
            rng.multinomial(50_000, matrix @ rng.dirichlet(np.ones(d))).astype(float)
            for _ in range(batch)
        ],
        axis=1,
    )
    kernel = binomial_kernel(2) if smoothing else None
    # tol = -1 never triggers, so both paths run exactly `iters` iterations.
    kwargs = dict(tol=-1.0, max_iter=iters, smoothing_kernel=kernel)

    sequential_s = _best_of(
        lambda: [
            expectation_maximization(matrix, counts[:, j], **kwargs)
            for j in range(batch)
        ],
        repeats,
    )
    batched_s = _best_of(
        lambda: batched_expectation_maximization(matrix, counts, **kwargs),
        repeats,
    )
    # Sanity: both paths agree column by column.
    batched = batched_expectation_maximization(matrix, counts, **kwargs)
    for j in range(batch):
        seq = expectation_maximization(matrix, counts[:, j], **kwargs)
        np.testing.assert_allclose(
            batched.estimates[:, j], seq.estimate, atol=1e-10
        )
    return {
        "d": d,
        "d_out": d,
        "batch": batch,
        "iterations": iters,
        "sequential_s": sequential_s,
        "batched_s": batched_s,
        "speedup": sequential_s / batched_s,
    }


def bench_parallel_sweep(n_users: int, d: int, repeats: int, jobs: int) -> dict:
    """Serial vs n_jobs sweep on one config; results must be bit-identical.

    Skips (with the reason recorded) when the *effective* core count —
    what the scheduler actually grants this process, not what the machine
    has — is 1: a multiprocess sweep cannot beat serial there, and the
    ~1.0x it would report is scheduler noise, not a perf signal.
    """
    cores = len(os.sched_getaffinity(0))
    if cores < 2:
        return {
            "skipped": True,
            "reason": (
                f"only {cores} effective core available "
                "(os.sched_getaffinity); a multiprocess sweep "
                "cannot demonstrate a speedup on this runner"
            ),
            "effective_cores": cores,
            "n_jobs": jobs,
        }
    values = np.random.default_rng(0).beta(5, 2, n_users)
    dataset = Dataset(name="beta", values=values, default_bins=d)
    config = SweepConfig(
        dataset="beta",
        methods=("sw-ems", "sw-em"),
        epsilons=(0.5, 1.0),
        metrics=("w1", "ks"),
        repeats=repeats,
        d=d,
        seed=0,
    )
    start = time.perf_counter()
    serial = run_sweep(config, dataset=dataset)
    serial_s = time.perf_counter() - start
    start = time.perf_counter()
    parallel = run_sweep(config, dataset=dataset, n_jobs=jobs)
    parallel_s = time.perf_counter() - start
    return {
        "n_users": n_users,
        "trials": len(config.methods) * len(config.epsilons) * config.repeats,
        "n_jobs": jobs,
        "serial_s": serial_s,
        "parallel_s": parallel_s,
        "speedup": serial_s / parallel_s,
        "parallel_matches_serial": serial == parallel,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="reduced configuration for CI smoke runs",
    )
    parser.add_argument("--jobs", type=int, default=2, help="sweep worker count")
    parser.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parent / "BENCH_engine.json"),
        help="output JSON path",
    )
    args = parser.parse_args()

    timing_reps = 3 if args.quick else 5
    report = {
        "benchmark": "engine",
        "quick": bool(args.quick),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        # The parallel-sweep speedup is bounded by the *effective* core
        # count (scheduler affinity), which containers and pinned CI
        # runners set far below the machine's cpu_count; both are recorded.
        "cpu_count": os.cpu_count(),
        "effective_cores": len(os.sched_getaffinity(0)),
        "matrix_cache": bench_matrix_cache(
            d=256 if args.quick else 1024, repeats=timing_reps
        ),
        "batched_em": bench_batched_em(
            d=128 if args.quick else 256,
            batch=16 if args.quick else 32,
            iters=25 if args.quick else 50,
            repeats=timing_reps,
            smoothing=False,
        ),
        "batched_ems": bench_batched_em(
            d=128 if args.quick else 256,
            batch=16 if args.quick else 32,
            iters=25 if args.quick else 50,
            repeats=timing_reps,
            smoothing=True,
        ),
        "parallel_sweep": bench_parallel_sweep(
            n_users=5_000 if args.quick else 200_000,
            d=64 if args.quick else 256,
            repeats=2 if args.quick else 4,
            jobs=args.jobs,
        ),
    }
    report["targets"] = {
        "matrix_cache_speedup_min": 5.0,
        "batched_em_speedup_min": 2.0,
        "matrix_cache_ok": report["matrix_cache"]["speedup"] >= 5.0,
        "batched_em_ok": report["batched_em"]["speedup"] >= 2.0,
        # A skipped sweep (1 effective core) is not a failure — the reason
        # is recorded in the parallel_sweep block.
        "parallel_sweep_ok": (
            True
            if report["parallel_sweep"].get("skipped")
            else report["parallel_sweep"]["parallel_matches_serial"]
        ),
    }

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2) + "\n")

    print(f"matrix cache : {report['matrix_cache']['speedup']:>10.1f}x "
          f"(cold {report['matrix_cache']['cold_build_s'] * 1e3:.2f} ms -> "
          f"warm {report['matrix_cache']['warm_fetch_s'] * 1e6:.2f} us)")
    print(f"batched EM   : {report['batched_em']['speedup']:>10.1f}x "
          f"(B={report['batched_em']['batch']}, "
          f"{report['batched_em']['iterations']} iters)")
    print(f"batched EMS  : {report['batched_ems']['speedup']:>10.1f}x")
    sweep = report["parallel_sweep"]
    if sweep.get("skipped"):
        print(f"parallel sweep: skipped ({sweep['reason']})")
    else:
        print(f"parallel sweep: {sweep['speedup']:>9.1f}x "
              f"(n_jobs={sweep['n_jobs']}, bit-identical="
              f"{sweep['parallel_matches_serial']})")
    print(f"wrote {out}")

    # Exit status gates only the deterministic correctness bit (parallel ==
    # serial). The wall-clock speedup targets are recorded in the JSON for
    # the trajectory but deliberately do not fail the run: on noisy shared
    # CI runners a timing gate would flake on unrelated changes.
    return 0 if report["targets"]["parallel_sweep_ok"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
