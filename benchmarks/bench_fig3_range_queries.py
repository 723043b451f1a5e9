"""Figure 3: random range-query MAE (alpha = 0.1 and 0.4).

Adds the hierarchy baselines (HH, HaarHRR) that are evaluated on range
queries only, per the paper's Table 2.
"""

import numpy as np
import pytest

from conftest import (
    BENCH_D,
    BENCH_EPSILONS,
    BENCH_N,
    BENCH_REPEATS,
    BENCH_SEED,
    save_series,
)

from repro.api import make_estimator
from repro.experiments.figures import fig3_range_queries


@pytest.fixture(scope="module")
def fig3_rows():
    return fig3_range_queries(
        epsilons=BENCH_EPSILONS, n=BENCH_N, repeats=BENCH_REPEATS, seed=BENCH_SEED
    )


@pytest.mark.parametrize("method", ("hh", "haar-hrr"))
def test_fig3_hierarchy_fit(benchmark, beta_dataset_bench, method):
    """Time the hierarchy estimators' collection + reconstruction."""
    estimator = make_estimator(method, 1.0, BENCH_D)
    rng = np.random.default_rng(0)
    out = benchmark.pedantic(
        lambda: estimator.fit(beta_dataset_bench.values, rng=rng),
        rounds=3,
        iterations=1,
    )
    # Unbiased but possibly-negative estimates; totals stay near 1.
    assert out.sum() == pytest.approx(1.0, abs=0.05)


def test_fig3_series(benchmark, results_dir, fig3_rows):
    benchmark.pedantic(lambda: fig3_rows, rounds=1, iterations=1)
    save_series(rows=fig3_rows, name="fig3", results_dir=results_dir,
                title="Figure 3: range query MAE (alpha=0.1 and alpha=0.4)")
    # Shape claim: SW-EMS beats the raw hierarchy baselines on average
    # (paper: 'SW with EMS outperforms HH and HaarHRR').
    by_method = {}
    for row in fig3_rows:
        by_method.setdefault(row.method, []).append(row.mean)
    means = {m: np.mean(v) for m, v in by_method.items()}
    assert means["sw-ems"] < means["hh"]
    assert means["sw-ems"] < means["haar-hrr"]
