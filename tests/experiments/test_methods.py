"""Unit tests for the method registry (paper Table 2)."""

import pytest

from repro.api import make_estimator
from repro.experiments.methods import DISTRIBUTION_METRICS, METHOD_REGISTRY


class TestRegistryContents:
    def test_all_paper_methods_present(self):
        expected = {
            "sw-ems",
            "sw-em",
            "hh-admm",
            "cfo-16",
            "cfo-32",
            "cfo-64",
            "hh",
            "haar-hrr",
            "sr",
            "pm",
        }
        assert set(METHOD_REGISTRY) == expected

    def test_table2_applicability(self):
        """Mirror of the paper's Table 2 checkmarks."""
        reg = METHOD_REGISTRY
        for name in ("sw-ems", "sw-em", "hh-admm", "cfo-16", "cfo-32", "cfo-64"):
            assert set(reg[name].supported_metrics) == set(DISTRIBUTION_METRICS)
        for name in ("hh", "haar-hrr"):
            assert set(reg[name].supported_metrics) == {"range-0.1", "range-0.4"}
        for name in ("sr", "pm"):
            assert set(reg[name].supported_metrics) == {"mean", "variance"}

    def test_table2_row_order_matches_paper(self):
        assert list(METHOD_REGISTRY) == [
            "sw-ems",
            "sw-em",
            "hh-admm",
            "cfo-16",
            "cfo-32",
            "cfo-64",
            "hh",
            "haar-hrr",
            "sr",
            "pm",
        ]

    def test_kinds(self):
        assert METHOD_REGISTRY["sw-ems"].kind == "distribution"
        assert METHOD_REGISTRY["hh"].kind == "leaf-signed"
        assert METHOD_REGISTRY["pm"].kind == "scalar"

    def test_supports_helper(self):
        assert METHOD_REGISTRY["sw-ems"].supports("w1")
        assert not METHOD_REGISTRY["hh"].supports("w1")


class TestMakeMethod:
    """Each Table-2 method builds through ``repro.api.make_estimator``."""

    @pytest.mark.parametrize(
        "name", ["sw-ems", "sw-em", "hh-admm", "cfo-16", "hh", "haar-hrr"]
    )
    def test_instantiates_fit_capable(self, name, beta_values, rng):
        method = make_estimator(name, 1.0, 64)
        out = method.fit(beta_values, rng=rng)
        assert out.shape == (64,)

    def test_scalar_factories(self):
        """Scalar methods are real estimators now, not (name, eps) tuples."""
        from repro.mean.scalar import ScalarMeanEstimator

        sr = make_estimator("sr", 1.0, 64)
        assert isinstance(sr, ScalarMeanEstimator)
        assert sr.name == "sr"
        assert sr.epsilon == 1.0
        pm = make_estimator("pm", 2.0, 64)
        assert pm.name == "pm"
        assert pm.epsilon == 2.0
        assert pm.kind == "scalar"

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown estimator"):
            make_estimator("dp-sgd", 1.0, 64)
