"""Unit tests for EM and EMS reconstruction."""

import numpy as np
import pytest

from repro.api.config import EMConfig
from repro.core.em import expectation_maximization
from repro.core.smoothing import binomial_kernel
from repro.core.square_wave import SquareWave


def _identity_problem(d=8, n=1000, rng=None):
    """Noiseless 'mechanism': reports equal inputs exactly."""
    gen = np.random.default_rng(rng)
    x = gen.dirichlet(np.ones(d))
    counts = np.round(x * n)
    return np.eye(d), counts, counts / counts.sum()


class TestEMBasics:
    def test_identity_matrix_recovers_input(self):
        matrix, counts, target = _identity_problem(rng=0)
        result = expectation_maximization(matrix, counts, tol=1e-12, max_iter=500)
        np.testing.assert_allclose(result.estimate, target, atol=1e-6)

    def test_estimate_is_distribution(self, rng):
        sw = SquareWave(1.0)
        matrix = sw.transition_matrix(16, 16)
        counts = rng.integers(0, 100, 16).astype(float)
        result = expectation_maximization(matrix, counts)
        assert (result.estimate >= 0).all()
        assert result.estimate.sum() == pytest.approx(1.0)

    def test_loglik_monotone_without_smoothing(self, rng):
        sw = SquareWave(1.0)
        matrix = sw.transition_matrix(16, 16)
        counts = rng.integers(1, 100, 16).astype(float)
        result = expectation_maximization(matrix, counts, tol=-np.inf, max_iter=60)
        assert (np.diff(result.history) >= -1e-8).all()

    def test_convergence_flag(self, rng):
        sw = SquareWave(1.0)
        matrix = sw.transition_matrix(8, 8)
        counts = rng.integers(1, 50, 8).astype(float)
        converged = expectation_maximization(matrix, counts, tol=1.0, max_iter=100)
        assert converged.converged
        capped = expectation_maximization(matrix, counts, tol=-np.inf, max_iter=3)
        assert not capped.converged
        assert capped.iterations == 3

    def test_custom_x0(self):
        matrix, counts, target = _identity_problem(rng=1)
        x0 = np.full(8, 1.0 / 8)
        result = expectation_maximization(matrix, counts, x0=x0, tol=1e-12, max_iter=500)
        np.testing.assert_allclose(result.estimate, target, atol=1e-6)

    def test_mle_matches_observed_distribution(self, rng):
        """With an invertible mixing matrix and consistent counts, the MLE
        must satisfy M x = observed frequencies."""
        sw = SquareWave(2.0)
        matrix = sw.transition_matrix(8, 8)
        x_true = np.array([0.3, 0.05, 0.05, 0.1, 0.2, 0.1, 0.1, 0.1])
        counts = matrix @ x_true * 1e6  # exact expected counts
        result = expectation_maximization(matrix, counts, tol=1e-10, max_iter=20_000)
        np.testing.assert_allclose(result.estimate, x_true, atol=1e-3)


class TestEMValidation:
    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="counts"):
            expectation_maximization(np.eye(4), np.ones(3))

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError, match="non-negative"):
            expectation_maximization(np.eye(3), np.array([1.0, -1.0, 0.0]))

    def test_rejects_zero_counts(self):
        with pytest.raises(ValueError, match="at least one report"):
            expectation_maximization(np.eye(3), np.zeros(3))

    def test_rejects_bad_columns(self):
        with pytest.raises(ValueError, match="columns"):
            expectation_maximization(np.eye(3) * 2.0, np.ones(3))

    def test_rejects_bad_x0(self):
        with pytest.raises(ValueError, match="x0"):
            expectation_maximization(np.eye(3), np.ones(3), x0=np.array([1.0, -1.0, 1.0]))

    def test_rejects_bad_max_iter(self):
        with pytest.raises(ValueError, match="max_iter"):
            expectation_maximization(np.eye(3), np.ones(3), max_iter=0)


class TestEMS:
    def test_smoothing_produces_smoother_estimate(self, rng):
        """EMS output has lower total variation than plain EM on noisy data."""
        sw = SquareWave(0.5)
        d = 32
        matrix = sw.transition_matrix(d, d)
        x_true = np.full(d, 1.0 / d)
        expected = matrix @ x_true
        counts = rng.multinomial(3000, expected).astype(float)
        em = expectation_maximization(matrix, counts, tol=1e-6, max_iter=2000)
        ems = expectation_maximization(
            matrix, counts, tol=1e-6, max_iter=2000, smoothing_kernel=binomial_kernel(2)
        )
        tv = lambda x: np.abs(np.diff(x)).sum()  # noqa: E731
        assert tv(ems.estimate) < tv(em.estimate)

    def test_ems_estimate_is_distribution(self, rng):
        sw = SquareWave(1.0)
        matrix = sw.transition_matrix(16, 16)
        counts = rng.integers(1, 100, 16).astype(float)
        result = EMConfig(postprocess="ems").run(matrix, counts, 1.0)
        assert (result.estimate >= 0).all()
        assert result.estimate.sum() == pytest.approx(1.0)

    def test_paper_default_tolerances(self, rng):
        """EM's tol scales by e^eps; EMS's is a fixed 1e-3."""
        sw = SquareWave(1.0)
        matrix = sw.transition_matrix(8, 8)
        counts = rng.integers(1, 50, 8).astype(float)
        # Both should converge and produce distributions.
        for postprocess in ("em", "ems"):
            result = EMConfig(postprocess=postprocess).run(matrix, counts, 1.0)
            assert result.converged
            assert result.estimate.sum() == pytest.approx(1.0)

    def test_ems_recovers_smooth_distribution_better(self):
        """At the paper's granularity regime (fine buckets, strong noise),
        EMS beats paper-tolerance EM in average W1 — the reason the paper
        adds the S-step. At coarse granularity the effect reverses, which is
        consistent with the paper using 256-1024 buckets."""
        from repro.metrics.distances import wasserstein_distance

        epsilon, d, n = 0.5, 256, 20_000
        sw = SquareWave(epsilon)
        matrix = sw.transition_matrix(d, d)
        base = np.random.default_rng(99).beta(5, 2, 100_000)
        x_true = np.bincount(
            np.minimum((base * d).astype(int), d - 1), minlength=d
        ) / base.size
        em_errors, ems_errors = [], []
        for seed in range(3):
            counts = (
                np.random.default_rng(seed)
                .multinomial(n, matrix @ x_true)
                .astype(float)
            )
            em = EMConfig(postprocess="em").run(matrix, counts, epsilon)
            ems = EMConfig(postprocess="ems").run(matrix, counts, epsilon)
            em_errors.append(wasserstein_distance(x_true, em.estimate))
            ems_errors.append(wasserstein_distance(x_true, ems.estimate))
        assert np.mean(ems_errors) < np.mean(em_errors)
