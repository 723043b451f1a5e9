"""Unit and integration tests for the high-level estimators."""

import json

import numpy as np
import pytest

from repro.api import Estimator
from repro.core.general_wave import GeneralWave
from repro.core.pipeline import (
    DiscreteSWEstimator,
    SWEstimator,
    WaveEstimator,
    estimate_distribution,
)
from repro.metrics.distances import wasserstein_distance
from tests.conftest import true_histogram


class TestSWEstimatorConstruction:
    def test_defaults(self):
        est = SWEstimator(1.0, d=64)
        assert est.postprocess == "ems"
        assert est.tol == pytest.approx(1e-3)
        assert est.d_out == 64

    def test_em_tolerance_scales_with_epsilon(self):
        est = SWEstimator(2.0, d=64, postprocess="em")
        assert est.tol == pytest.approx(1e-3 * np.exp(2.0))

    def test_explicit_tol_respected(self):
        assert SWEstimator(1.0, d=64, tol=0.5).tol == 0.5

    def test_rejects_bad_postprocess(self):
        with pytest.raises(ValueError, match="postprocess"):
            SWEstimator(1.0, d=64, postprocess="magic")

    def test_matrix_cached(self):
        est = SWEstimator(1.0, d=32)
        assert est.transition_matrix is est.transition_matrix


class TestSWEstimatorFit:
    def test_output_is_distribution(self, beta_values, rng):
        est = SWEstimator(1.0, d=64)
        out = est.fit(beta_values, rng=rng)
        assert out.shape == (64,)
        assert (out >= 0).all()
        assert out.sum() == pytest.approx(1.0)

    def test_diagnostics_populated(self, beta_values, rng):
        est = SWEstimator(1.0, d=64)
        est.fit(beta_values, rng=rng)
        assert est.result_ is not None
        assert est.result_.iterations >= 1

    def test_reconstruction_quality(self, beta_values, rng):
        """At eps=2 and n=20k the reconstruction must be close."""
        est = SWEstimator(2.0, d=64)
        out = est.fit(beta_values, rng=rng)
        truth = true_histogram(beta_values, 64)
        assert wasserstein_distance(truth, out) < 0.02

    def test_split_client_server_equals_fit(self, beta_values):
        est = SWEstimator(1.0, d=32)
        reports = est.privatize(beta_values, rng=np.random.default_rng(5))
        split = est.aggregate(reports)
        whole = SWEstimator(1.0, d=32).fit(beta_values, rng=np.random.default_rng(5))
        np.testing.assert_allclose(split, whole)

    def test_higher_epsilon_better(self, beta_values):
        truth = true_histogram(beta_values, 64)
        errors = []
        for eps in (0.25, 4.0):
            est = SWEstimator(eps, d=64)
            out = est.fit(beta_values, rng=np.random.default_rng(0))
            errors.append(wasserstein_distance(truth, out))
        assert errors[1] < errors[0]

    def test_dout_different_from_d(self, beta_values, rng):
        est = SWEstimator(1.0, d=32, d_out=64)
        out = est.fit(beta_values, rng=rng)
        assert out.shape == (32,)
        assert est.transition_matrix.shape == (64, 32)


class TestWaveEstimator:
    def test_general_wave_backend(self, beta_values, rng):
        est = WaveEstimator(GeneralWave(1.0, ratio=0.5), d=32)
        out = est.fit(beta_values, rng=rng)
        assert out.sum() == pytest.approx(1.0)

    def test_epsilon_property(self):
        est = WaveEstimator(GeneralWave(1.7, ratio=0.0), d=16)
        assert est.epsilon == pytest.approx(1.7)


class TestNonFiniteCounts:
    """``inf``/``NaN`` never reach the solver: ``NaN < 0`` is False, so a
    sign check alone lets them through (to a 10k-iteration NaN solve)."""

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_ingest_counts_rejects_and_leaves_state_unchanged(self, bad):
        est = SWEstimator(1.0, d=16)
        est.ingest_counts(np.ones(16))
        before = est.to_state()
        counts = np.ones(16)
        counts[5] = bad
        with pytest.raises(ValueError, match="counts must be finite"):
            est.ingest_counts(counts)
        assert est.to_state() == before

    def test_estimate_rejects_non_finite_warm_start(self):
        est = SWEstimator(1.0, d=16)
        est.ingest_counts(np.arange(16.0))
        x0 = np.full(16, 1.0 / 16)
        x0[2] = np.inf
        with pytest.raises(ValueError, match="x0 must be finite"):
            est.estimate(x0=x0)

    def test_json_state_holding_infinity_is_rejected(self):
        est = SWEstimator(1.0, d=16)
        est.ingest_counts(np.ones(16))
        payload = est.to_state()
        payload["state"]["counts"][3] = float("inf")
        text = json.dumps(payload)  # Python's json writes and reads Infinity
        assert "Infinity" in text
        with pytest.raises(ValueError, match="counts must be finite"):
            Estimator.from_state(json.loads(text))


class TestDiscreteSWEstimator:
    def test_output_is_distribution(self, beta_values, rng):
        est = DiscreteSWEstimator(1.0, d=64)
        out = est.fit(beta_values, rng=rng)
        assert out.shape == (64,)
        assert out.sum() == pytest.approx(1.0)

    def test_comparable_to_continuous(self, beta_values):
        """R-B and B-R agree closely (paper Section 5.4 finding)."""
        truth = true_histogram(beta_values, 64)
        cont = SWEstimator(1.0, d=64).fit(beta_values, rng=np.random.default_rng(1))
        disc = DiscreteSWEstimator(1.0, d=64).fit(beta_values, rng=np.random.default_rng(2))
        w_cont = wasserstein_distance(truth, cont)
        w_disc = wasserstein_distance(truth, disc)
        assert abs(w_cont - w_disc) < 0.02

    def test_rejects_bad_postprocess(self):
        with pytest.raises(ValueError):
            DiscreteSWEstimator(1.0, d=16, postprocess="nope")


class TestEstimateDistribution:
    def test_sw_ems(self, beta_values, rng):
        out = estimate_distribution(beta_values, 1.0, d=32, method="sw-ems", rng=rng)
        assert out.sum() == pytest.approx(1.0)

    def test_sw_em(self, beta_values, rng):
        out = estimate_distribution(beta_values, 1.0, d=32, method="sw-em", rng=rng)
        assert out.sum() == pytest.approx(1.0)

    def test_discrete(self, beta_values, rng):
        out = estimate_distribution(
            beta_values, 1.0, d=32, method="sw-discrete-ems", rng=rng
        )
        assert out.sum() == pytest.approx(1.0)

    def test_unknown_method(self, beta_values):
        with pytest.raises(ValueError, match="method"):
            estimate_distribution(beta_values, 1.0, method="nope")
