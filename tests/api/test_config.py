"""Tests for the centralized EM configuration (repro.api.EMConfig)."""

import numpy as np
import pytest

from repro.api import EMConfig
from repro.core.pipeline import SWEstimator
from repro.protocol.server import CollectionServer


class TestDefaultTolerance:
    def test_ems_fixed(self):
        assert EMConfig.default_tolerance("ems", 4.0) == 1e-3

    def test_em_scales_with_epsilon(self):
        assert EMConfig.default_tolerance("em", 2.0) == pytest.approx(
            1e-3 * np.exp(2.0)
        )

    @pytest.mark.parametrize("postprocess", ["ems", "em"])
    @pytest.mark.parametrize("epsilon", [0.5, 1.0, 4.0])
    def test_always_plain_float(self, postprocess, epsilon):
        """The paper rule must yield a plain float, never a NumPy scalar."""
        tol = EMConfig.default_tolerance(postprocess, epsilon)
        assert type(tol) is float

    def test_rejects_unknown_postprocess(self):
        with pytest.raises(ValueError, match="postprocess"):
            EMConfig.default_tolerance("norm-sub", 1.0)

    @pytest.mark.parametrize("epsilon", [0.0, -1.0, float("nan")])
    def test_em_rule_rejects_invalid_budget(self, epsilon):
        with pytest.raises(ValueError, match="epsilon"):
            EMConfig.default_tolerance("em", epsilon)


class TestToleranceConsistencyAcrossSurfaces:
    """Regression: pipeline (math.exp) and server (np.exp) used to drift."""

    @pytest.mark.parametrize("postprocess", ["ems", "em"])
    @pytest.mark.parametrize("epsilon", [0.25, 1.0, 3.0])
    def test_server_and_estimator_identical(self, postprocess, epsilon):
        est = SWEstimator(epsilon, d=32, postprocess=postprocess)
        server = CollectionServer("r", f"sw-{postprocess}", epsilon, 32).estimator
        assert est.tol == server.tol
        assert type(est.tol) is float
        assert type(server.tol) is float
        assert not isinstance(server.tol, np.floating)

    def test_explicit_tol_respected_on_both(self):
        assert SWEstimator(1.0, d=32, tol=0.5).tol == 0.5
        assert CollectionServer("r", "sw-ems", 1.0, 32, tol=0.5).estimator.tol == 0.5


class TestEMConfigValidation:
    def test_rejects_bad_postprocess(self):
        with pytest.raises(ValueError, match="postprocess"):
            EMConfig(postprocess="magic")

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError, match="tol"):
            EMConfig(tol=-1.0)

    def test_rejects_bad_max_iter(self):
        with pytest.raises(ValueError, match="max_iter"):
            EMConfig(max_iter=0)

    def test_rejects_bad_smoothing_order(self):
        with pytest.raises(ValueError, match="smoothing_order"):
            EMConfig(smoothing_order=0)

    def test_kernel_only_for_ems(self):
        assert EMConfig(postprocess="em").kernel() is None
        kernel = EMConfig(postprocess="ems", smoothing_order=2).kernel()
        np.testing.assert_allclose(kernel.sum(), 1.0)

    def test_dict_round_trip(self):
        config = EMConfig(postprocess="em", tol=0.2, max_iter=50)
        assert EMConfig(**config.to_dict()) == config


class TestConfigConsumers:
    def test_estimator_accepts_config_object(self, beta_values, rng):
        config = EMConfig(postprocess="em", max_iter=20)
        est = SWEstimator(1.0, d=32, config=config)
        assert est.postprocess == "em"
        assert est.max_iter == 20
        assert est.config is config
        out = est.fit(beta_values[:2000], rng=rng)
        assert out.sum() == pytest.approx(1.0)

    def test_server_shares_config_type(self):
        config = EMConfig(postprocess="em", tol=0.7)
        server = CollectionServer("r", "sw-em", 1.0, 32, config=config)
        assert server.estimator.config is config
        assert server.estimator.tol == 0.7
