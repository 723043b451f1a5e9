"""Performance benchmark for the protocol-v2 serving stack.

Times the serving stack and writes a machine-readable
``BENCH_protocol.json`` so the perf trajectory is recorded from run to run
(the CI perf-smoke step uploads it as an artifact):

1. **Frame codec** — encode and decode of n SW reports through the RPF2
   frame, the one wire format (``encode_frame`` and
   ``decode_frame_grouped``); recorded, not gated.
2. **Incremental estimation** — a mid-round ``CollectionServer.estimate()``
   after a small ingest delta (warm-started from the cached posterior) vs
   the estimator's own cold EMS solve from the uniform prior on identical
   counts (target: measurably cheaper, i.e. >= 2x and fewer EM iterations).

Run:  PYTHONPATH=src python benchmarks/bench_perf_protocol.py [--quick]
          [--out benchmarks/BENCH_protocol.json]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from pathlib import Path

import numpy as np

from repro.api.base import Estimator
from repro.core.square_wave import SquareWave
from repro.protocol.frames import decode_frame_grouped, encode_frame
from repro.protocol.server import CollectionServer


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_wire_codecs(n: int, repeats: int) -> dict:
    """Frame encode and decode times on n SW reports."""
    reports = SquareWave(1.0).privatize(
        np.random.default_rng(0).random(n), rng=np.random.default_rng(1)
    )

    def decode(frame: bytes) -> np.ndarray:
        _, groups = decode_frame_grouped(frame, expected_round="r")
        return groups["value"].reports

    frame_encode_s = _best_of(
        lambda: encode_frame("r", reports, "float"), repeats
    )
    frame = encode_frame("r", reports, "float")
    frame_decode_s = _best_of(lambda: decode(frame), repeats)
    np.testing.assert_array_equal(decode(frame), reports)  # lossless

    return {
        "n_reports": n,
        "frame_encode_s": frame_encode_s,
        "frame_decode_s": frame_decode_s,
        "frame_bytes": len(frame),
    }


def bench_incremental_estimate(
    n_initial: int, n_delta: int, d: int, repeats: int
) -> dict:
    """Warm mid-round estimate after a small delta vs a cold solve."""
    gen = np.random.default_rng(2)
    values = gen.beta(5.0, 2.0, n_initial + n_delta)

    server = CollectionServer("r", "sw-ems", 1.0, d)
    server.ingest_reports(server.privatize(values[:n_initial], rng=gen))
    start = time.perf_counter()
    server.estimate()
    cold_first_s = time.perf_counter() - start
    cold_iterations = server.estimator.result_.iterations

    server.ingest_reports(server.privatize(values[n_initial:], rng=gen))
    start = time.perf_counter()
    server.estimate()
    warm_s = time.perf_counter() - start
    warm_iterations = server.estimator.result_.iterations

    # Cold baseline on the *same* final counts: the estimator's own
    # estimate() solves from the uniform prior every time.
    cold = Estimator.from_state(server.estimator.to_state())
    cold_s = _best_of(cold.estimate, repeats)

    # And the free case: nothing new arrived, the solve is skipped.
    skip_s = _best_of(server.estimate, repeats)

    return {
        "d": d,
        "n_initial": n_initial,
        "n_delta": n_delta,
        "cold_first_estimate_s": cold_first_s,
        "cold_iterations": cold_iterations,
        "cold_solve_s": cold_s,
        "warm_delta_estimate_s": warm_s,
        "warm_iterations": warm_iterations,
        "unchanged_estimate_s": skip_s,
        "warm_speedup": cold_s / warm_s,
        "skip_speedup": cold_s / skip_s,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="reduced configuration for CI smoke runs",
    )
    parser.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parent / "BENCH_protocol.json"),
        help="output JSON path",
    )
    args = parser.parse_args()

    timing_reps = 2 if args.quick else 3
    report = {
        "benchmark": "protocol",
        "quick": bool(args.quick),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "effective_cores": len(os.sched_getaffinity(0)),
        "wire_codecs": bench_wire_codecs(
            n=100_000 if args.quick else 1_000_000, repeats=timing_reps
        ),
        "incremental_estimate": bench_incremental_estimate(
            n_initial=50_000 if args.quick else 500_000,
            n_delta=1_000,
            d=256 if args.quick else 1024,
            repeats=timing_reps,
        ),
    }
    wire = report["wire_codecs"]
    inc = report["incremental_estimate"]
    report["targets"] = {
        "incremental_speedup_min": 2.0,
        "incremental_ok": inc["warm_speedup"] >= 2.0
        and inc["warm_iterations"] < inc["cold_iterations"],
    }

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2) + "\n")

    print(f"frame encode : {wire['frame_encode_s'] * 1e3:>8.2f} ms, "
          f"decode {wire['frame_decode_s'] * 1e3:.2f} ms "
          f"({wire['frame_bytes']:,} bytes at n={wire['n_reports']:,})")
    print(f"warm estimate: {inc['warm_speedup']:>10.1f}x vs cold solve "
          f"({inc['cold_iterations']} -> {inc['warm_iterations']} EM iterations "
          f"after +{inc['n_delta']:,} of {inc['n_initial']:,} reports)")
    print(f"no-op estimate: {inc['skip_speedup']:>9.1f}x (solve skipped)")
    print(f"wrote {out}")

    # Exit status gates only the deterministic bits (lossless codecs are
    # asserted inline; iteration counts are hardware-independent). The
    # wall-clock speedup targets are recorded for the trajectory but do not
    # fail the run: timing gates flake on noisy shared CI runners.
    return 0 if inc["warm_iterations"] < inc["cold_iterations"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
