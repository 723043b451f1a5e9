"""Figure 2: Wasserstein and KS distance vs epsilon for all methods.

Regenerates both metric panels for every dataset at reduced scale and
benchmarks a single fit of each competing method (the unit of work behind
each figure point).
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
from repro.experiments.figures import fig2_distribution_distances

_METHODS = ("sw-ems", "sw-em", "hh-admm", "cfo-16", "cfo-32", "cfo-64")


@pytest.fixture(scope="module")
def fig2_rows():
    return fig2_distribution_distances(
        epsilons=BENCH_EPSILONS, n=BENCH_N, repeats=BENCH_REPEATS, seed=BENCH_SEED
    )


@pytest.mark.parametrize("method", _METHODS)
def test_fig2_method_fit(benchmark, beta_dataset_bench, method):
    """Time one full collection + reconstruction round per method."""
    estimator = make_estimator(method, 1.0, BENCH_D)
    rng = np.random.default_rng(0)
    out = benchmark.pedantic(
        lambda: estimator.fit(beta_dataset_bench.values, rng=rng),
        rounds=3,
        iterations=1,
    )
    assert out.sum() == pytest.approx(1.0, abs=1e-6)


def test_fig2_series(benchmark, results_dir, fig2_rows):
    """Persist the regenerated panels and check the paper's shape claims."""
    benchmark.pedantic(lambda: fig2_rows, rounds=1, iterations=1)
    save_series(rows=fig2_rows, name="fig2", results_dir=results_dir,
                title="Figure 2: distribution distances (W1 top, KS bottom)")
    # Headline shape: averaged over datasets and epsilons, SW-EMS has the
    # lowest W1 of all methods (paper Section 6.2).
    by_method = {}
    for row in fig2_rows:
        if row.metric == "w1":
            by_method.setdefault(row.method, []).append(row.mean)
    means = {m: np.mean(v) for m, v in by_method.items()}
    assert min(means, key=means.get) == "sw-ems", means
    # EMS beats plain EM.
    assert means["sw-ems"] < means["sw-em"]
