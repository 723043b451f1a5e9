"""Performance benchmark for the structured channel operators.

Times the EM/EMS hot loop against the dense-matrix baseline and writes a
machine-readable ``BENCH_solver.json`` so the perf trajectory is recorded
from run to run (the CI perf-smoke step uploads it as an artifact):

1. **Per-iteration cost** — pinned-iteration EM and EMS at large ``d``
   through the dense matrix vs the structured operator
   (``UniformPlusToeplitzChannel`` for continuous SW,
   ``UniformPlusBandedChannel`` for discrete SW). Target: >= 10x per
   iteration at ``d = 4096``.
2. **Cold and warm-start solves** — full paper-tolerance reconstructions
   from the uniform prior and from a previous posterior (the
   ``CollectionServer`` incremental path), dense vs operator, with
   identical per-column iteration counts asserted.
3. **Correctness** — operator estimates match the dense path, and the
   dense fallback (raw ndarray vs ``DenseChannel``) is bitwise-identical.
4. **OLH support counting** — per-report cost of the in-place chunked
   ``support_counts`` across candidate ``_AGGREGATE_CHUNK`` sizes, so the
   default is tuned by data.

Run:  PYTHONPATH=src python benchmarks/bench_perf_solver.py [--quick]
          [--out benchmarks/BENCH_solver.json]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from pathlib import Path

import numpy as np

from repro.api.config import EMConfig
from repro.core.smoothing import binomial_kernel
from repro.core.square_wave import DiscreteSquareWave, SquareWave
from repro.engine.cache import cached_transition_matrix
from repro.engine.operators import DenseChannel
from repro.engine.solver import batched_expectation_maximization
from repro.freq_oracle import olh as olh_module
from repro.freq_oracle.olh import OLH


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _sw_case(d: int, batch: int, seed: int = 0):
    """Continuous SW channel (dense + operator) and multinomial counts."""
    sw = SquareWave(1.0)
    dense = np.asarray(cached_transition_matrix(sw, d, d))
    operator = sw.channel_operator(d, d)
    rng = np.random.default_rng(seed)
    truth = rng.dirichlet(np.full(d, 2.0), size=batch).T
    counts = np.stack(
        [
            rng.multinomial(200_000, dense @ truth[:, j]).astype(float)
            for j in range(batch)
        ],
        axis=1,
    )
    return sw, dense, operator, counts


def bench_per_iteration(
    d: int, batch: int, iters: int, repeats: int, *, smoothing: bool
) -> dict:
    """Pinned-iteration EM/EMS: dense matmuls vs structured operator."""
    _, dense, operator, counts = _sw_case(d, batch)
    kernel = binomial_kernel(2) if smoothing else None
    kwargs = dict(tol=-1.0, max_iter=iters, smoothing_kernel=kernel)
    dense_s = _best_of(
        lambda: batched_expectation_maximization(
            dense, counts, validate_matrix=False, **kwargs
        ),
        repeats,
    )
    operator_s = _best_of(
        lambda: batched_expectation_maximization(
            operator, counts, validate_matrix=False, **kwargs
        ),
        repeats,
    )
    ref = batched_expectation_maximization(
        dense, counts, validate_matrix=False, **kwargs
    )
    got = batched_expectation_maximization(
        operator, counts, validate_matrix=False, **kwargs
    )
    return {
        "d": d,
        "d_out": d,
        "batch": batch,
        "iterations": iters,
        "dense_s": dense_s,
        "operator_s": operator_s,
        "dense_per_iter_s": dense_s / iters,
        "operator_per_iter_s": operator_s / iters,
        "speedup": dense_s / operator_s,
        "max_abs_diff": float(np.abs(got.estimates - ref.estimates).max()),
    }


def bench_discrete_per_iteration(d: int, iters: int, repeats: int) -> dict:
    """Pinned-iteration plain EM on the discrete SW band channel."""
    mech = DiscreteSquareWave(1.0, d)
    dense = np.asarray(mech.transition_matrix())
    operator = mech.channel_operator()
    rng = np.random.default_rng(1)
    truth = rng.dirichlet(np.full(d, 2.0))
    counts = rng.multinomial(200_000, dense @ truth).astype(float)[:, None]
    kwargs = dict(tol=-1.0, max_iter=iters, validate_matrix=False)
    dense_s = _best_of(
        lambda: batched_expectation_maximization(dense, counts, **kwargs), repeats
    )
    operator_s = _best_of(
        lambda: batched_expectation_maximization(operator, counts, **kwargs),
        repeats,
    )
    return {
        "d": d,
        "d_out": mech.d_out,
        "b": mech.b,
        "iterations": iters,
        "dense_s": dense_s,
        "operator_s": operator_s,
        "speedup": dense_s / operator_s,
    }


def bench_cold_vs_warm(
    d: int, repeats: int, *, smoothing: bool, max_iter: int = 600
) -> dict:
    """Paper-tolerance solves, uniform prior vs near-posterior start.

    ``max_iter`` caps the cold plain-EM run (paper tolerance needs
    thousands of iterations at large ``d``, which would turn the *dense
    baseline* timing into minutes); both paths share the cap, so the
    per-column iteration equality check stays meaningful.
    """
    sw, dense, operator, counts = _sw_case(d, batch=1, seed=2)
    config = EMConfig(postprocess="ems" if smoothing else "em")
    tol = config.resolve_tolerance(sw.epsilon)
    kwargs = dict(tol=tol, max_iter=max_iter, smoothing_kernel=config.kernel())

    cold_ref = batched_expectation_maximization(
        dense, counts, validate_matrix=False, **kwargs
    )
    cold_got = batched_expectation_maximization(
        operator, counts, validate_matrix=False, **kwargs
    )
    # Converged posterior for the warm start (solved once via the cheap
    # operator path at the uncapped paper setting, like a server round).
    posterior = batched_expectation_maximization(
        operator,
        counts,
        tol=tol,
        max_iter=config.max_iter,
        smoothing_kernel=config.kernel(),
        validate_matrix=False,
    ).estimates[:, 0]
    # Simulate the CollectionServer mid-round delta: +0.5% new reports.
    rng = np.random.default_rng(3)
    delta = rng.multinomial(1_000, dense @ posterior).astype(float)[:, None]
    new_counts = counts + delta
    x0 = 0.999999 * posterior + 1e-6 / d

    warm_ref = batched_expectation_maximization(
        dense, new_counts, x0=x0, validate_matrix=False, **kwargs
    )
    warm_got = batched_expectation_maximization(
        operator, new_counts, x0=x0, validate_matrix=False, **kwargs
    )
    cold_dense_s = _best_of(
        lambda: batched_expectation_maximization(
            dense, counts, validate_matrix=False, **kwargs
        ),
        repeats,
    )
    cold_operator_s = _best_of(
        lambda: batched_expectation_maximization(
            operator, counts, validate_matrix=False, **kwargs
        ),
        repeats,
    )
    warm_dense_s = _best_of(
        lambda: batched_expectation_maximization(
            dense, new_counts, x0=x0, validate_matrix=False, **kwargs
        ),
        repeats,
    )
    warm_operator_s = _best_of(
        lambda: batched_expectation_maximization(
            operator, new_counts, x0=x0, validate_matrix=False, **kwargs
        ),
        repeats,
    )
    cold_iters = int(cold_got.iterations[0])
    warm_iters = int(warm_got.iterations[0])
    return {
        "d": d,
        "cold_iterations": cold_iters,
        "warm_iterations": warm_iters,
        "iterations_match_dense": bool(
            cold_iters == int(cold_ref.iterations[0])
            and warm_iters == int(warm_ref.iterations[0])
        ),
        "cold_dense_s": cold_dense_s,
        "cold_operator_s": cold_operator_s,
        "cold_speedup": cold_dense_s / cold_operator_s,
        "cold_per_iter_speedup": (cold_dense_s / max(cold_iters, 1))
        / (cold_operator_s / max(cold_iters, 1)),
        "warm_dense_s": warm_dense_s,
        "warm_operator_s": warm_operator_s,
        "warm_speedup": warm_dense_s / warm_operator_s,
        "warm_vs_cold_operator": cold_operator_s / warm_operator_s,
        "max_abs_diff": float(
            np.abs(warm_got.estimates - warm_ref.estimates).max()
        ),
    }


def check_dense_bitwise(d: int) -> bool:
    """Raw-ndarray vs DenseChannel plain-EM output must be bitwise equal."""
    _, dense, _, counts = _sw_case(d, batch=2, seed=4)
    ref = batched_expectation_maximization(dense, counts, tol=1e-3)
    got = batched_expectation_maximization(DenseChannel(dense), counts, tol=1e-3)
    return bool(
        np.array_equal(got.estimates, ref.estimates)
        and np.array_equal(got.iterations, ref.iterations)
        and np.array_equal(got.log_likelihood, ref.log_likelihood)
    )


def bench_olh_support_counts(
    n: int, d: int, repeats: int, chunks: tuple[int, ...]
) -> dict:
    """Per-report support-count cost across _AGGREGATE_CHUNK candidates."""
    oracle = OLH(1.0, d)
    values = np.random.default_rng(5).integers(0, d, size=n)
    reports = oracle.privatize(values, rng=np.random.default_rng(6))
    results = {}
    original = olh_module._AGGREGATE_CHUNK
    try:
        for chunk in chunks:
            olh_module._AGGREGATE_CHUNK = chunk
            seconds = _best_of(lambda: oracle.support_counts(reports), repeats)
            results[str(chunk)] = {
                "seconds": seconds,
                "ns_per_report": seconds / n * 1e9,
            }
    finally:
        olh_module._AGGREGATE_CHUNK = original
    best = min(results, key=lambda k: results[k]["seconds"])
    return {
        "n": n,
        "d": d,
        "default_chunk": original,
        "by_chunk": results,
        "fastest_chunk": int(best),
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
        default=str(Path(__file__).resolve().parent / "BENCH_solver.json"),
        help="output JSON path",
    )
    args = parser.parse_args()

    timing_reps = 2 if args.quick else 3
    d = 512 if args.quick else 4096
    iters = 10 if args.quick else 25
    report = {
        "benchmark": "solver",
        "quick": bool(args.quick),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "effective_cores": len(os.sched_getaffinity(0)),
        "per_iteration_em": bench_per_iteration(
            d, batch=1, iters=iters, repeats=timing_reps, smoothing=False
        ),
        "per_iteration_ems": bench_per_iteration(
            d, batch=1, iters=iters, repeats=timing_reps, smoothing=True
        ),
        "per_iteration_em_batched": bench_per_iteration(
            d // 4, batch=16, iters=iters, repeats=timing_reps, smoothing=False
        ),
        "per_iteration_discrete_em": bench_discrete_per_iteration(
            d, iters=iters, repeats=timing_reps
        ),
        "cold_vs_warm_em": bench_cold_vs_warm(
            d, repeats=timing_reps, smoothing=False
        ),
        "cold_vs_warm_ems": bench_cold_vs_warm(
            d, repeats=timing_reps, smoothing=True
        ),
        "olh_support_counts": bench_olh_support_counts(
            n=20_000 if args.quick else 200_000,
            d=256 if args.quick else 1024,
            repeats=timing_reps,
            chunks=(1024, 4096, 16384),
        ),
    }
    report["dense_bitwise_identical"] = check_dense_bitwise(128)
    equivalence_ok = (
        report["per_iteration_em"]["max_abs_diff"] < 1e-8
        and report["per_iteration_ems"]["max_abs_diff"] < 1e-8
        and report["cold_vs_warm_em"]["iterations_match_dense"]
        and report["cold_vs_warm_ems"]["iterations_match_dense"]
    )
    report["targets"] = {
        "per_iteration_speedup_min": 10.0,
        "at_d": 4096,
        "em_speedup_ok": bool(
            args.quick or report["per_iteration_em"]["speedup"] >= 10.0
        ),
        "ems_speedup_ok": bool(
            args.quick or report["per_iteration_ems"]["speedup"] >= 10.0
        ),
        "equivalence_ok": bool(equivalence_ok),
        "dense_bitwise_ok": bool(report["dense_bitwise_identical"]),
    }

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2) + "\n")

    em = report["per_iteration_em"]
    ems = report["per_iteration_ems"]
    disc = report["per_iteration_discrete_em"]
    cold = report["cold_vs_warm_em"]
    print(
        f"EM  per-iter : {em['speedup']:>8.1f}x at d={em['d']} "
        f"({em['dense_per_iter_s'] * 1e3:.2f} ms -> "
        f"{em['operator_per_iter_s'] * 1e3:.3f} ms)"
    )
    print(
        f"EMS per-iter : {ems['speedup']:>8.1f}x at d={ems['d']} "
        f"({ems['dense_per_iter_s'] * 1e3:.2f} ms -> "
        f"{ems['operator_per_iter_s'] * 1e3:.3f} ms)"
    )
    print(f"discrete EM  : {disc['speedup']:>8.1f}x at d={disc['d']}")
    print(
        f"cold solve   : {cold['cold_speedup']:>8.1f}x "
        f"({cold['cold_iterations']} iters), warm "
        f"{report['cold_vs_warm_em']['warm_speedup']:.1f}x "
        f"({cold['warm_iterations']} iters)"
    )
    print(
        f"olh chunks   : fastest _AGGREGATE_CHUNK="
        f"{report['olh_support_counts']['fastest_chunk']}"
    )
    print(
        f"dense bitwise: {report['dense_bitwise_identical']}, "
        f"equivalence: {equivalence_ok}"
    )
    print(f"wrote {out}")

    # Exit status gates only the deterministic correctness bits; wall-clock
    # targets are recorded for the trajectory but would flake on noisy CI.
    ok = report["targets"]["equivalence_ok"] and report["targets"]["dense_bitwise_ok"]
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
