"""Tests for the central estimator registry (repro.api.registry)."""

import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import repro
from repro.api import (
    Estimator,
    get_spec,
    list_estimators,
    make_estimator,
    register_estimator,
)
from repro.api.registry import _REGISTRY
from repro.core.pipeline import SWEstimator, estimate_distribution
from repro.experiments.methods import METHOD_REGISTRY

#: Every registered name must build an estimator that completes a full
#: fit on a small synthetic dataset at this granularity (64 = 4^3 = 2^6,
#: compatible with every family's domain constraint).
D = 64


@pytest.fixture(scope="module")
def unit_values():
    return np.random.default_rng(9).beta(5.0, 2.0, 3000)


class TestRegistryContents:
    def test_every_family_registered(self):
        names = {spec.name for spec in list_estimators()}
        assert {
            "sw-ems",
            "sw-em",
            "sw-discrete-ems",
            "sw-discrete-em",
            "cfo",
            "cfo-16",
            "cfo-32",
            "cfo-64",
            "hh",
            "haar-hrr",
            "hh-admm",
            "sr",
            "pm",
            "grr",
            "olh",
            "hrr",
        } <= names

    def test_kind_filter(self):
        kinds = {s.kind for s in list_estimators(kind="distribution")}
        assert kinds == {"distribution"}
        assert {s.name for s in list_estimators(kind="scalar")} == {"sr", "pm"}

    def test_metric_filter(self):
        """The planner's capability query: who can answer this metric?"""
        mean_capable = {s.name for s in list_estimators(metric="mean")}
        assert {"sw-ems", "sr", "pm"} <= mean_capable
        assert "hh" not in mean_capable
        range_capable = {s.name for s in list_estimators(metric="range-0.1")}
        assert {"hh", "haar-hrr", "hh-admm", "sw-ems"} <= range_capable
        assert "sr" not in range_capable

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown estimator"):
            make_estimator("dp-sgd", 1.0, D)

    def test_duplicate_registration_rejected(self):
        spec = get_spec("sw-ems")
        with pytest.raises(ValueError, match="already registered"):
            register_estimator("sw-ems", spec.factory, kind="distribution")

    def test_overwrite_allowed_explicitly(self):
        spec = get_spec("sw-ems")
        register_estimator(
            "sw-ems",
            spec.factory,
            kind=spec.kind,
            supported_metrics=spec.supported_metrics,
            description=spec.description,
            tags=tuple(spec.tags),
            overwrite=True,
        )
        assert get_spec("sw-ems").description == spec.description
        _REGISTRY["sw-ems"] = spec  # restore the exact original object

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            register_estimator("x", lambda e, d: None, kind="magic")


#: What the collection servers dispatch on; each is declared on the family
#: or an ancestor below the ``Estimator`` root.
CAPABILITIES = ("name", "kind", "wire_codec", "n_reports")


def package_estimator_classes() -> set[type]:
    """Every ``Estimator`` subclass defined in the package, all modules loaded."""
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if not info.name.endswith(".__main__"):
            importlib.import_module(info.name)
    found: set[type] = set()
    stack = [Estimator]
    while stack:
        for sub in stack.pop().__subclasses__():
            if sub not in found:
                found.add(sub)
                stack.append(sub)
    return {cls for cls in found if cls.__module__.startswith("repro.")}


def families(classes: set[type]) -> set[type]:
    """The public, concrete classes that are not the base of another class
    in ``classes``: family bases such as ``WaveEstimator`` are left out."""
    return {
        cls
        for cls in classes
        if not cls.__name__.startswith("_")
        and not inspect.isabstract(cls)
        and not any(other is not cls and issubclass(other, cls) for other in classes)
    }


def registration_problems(classes: set[type]) -> list[str]:
    """Families in ``classes`` that no registered name builds, or that lack
    a capability below the ``Estimator`` root."""
    built = {type(make_estimator(spec.name, 1.0, D)) for spec in list_estimators()}
    problems = []
    for cls in families(classes):
        label = f"{cls.__module__}.{cls.__qualname__}"
        if cls not in built:
            problems.append(f"{label} is built by no registered name")
        below_root = cls.__mro__[: cls.__mro__.index(Estimator)]
        for attr in CAPABILITIES:
            if not any(attr in vars(klass) for klass in below_root):
                problems.append(f"{label} does not declare {attr}")
    return sorted(problems)


class TestEveryFamilyRegistered:
    """Every concrete estimator family in the package is registered and
    declares what the servers dispatch on, checked against the registry."""

    def test_package_families_are_registered_and_capable(self):
        classes = package_estimator_classes()
        assert registration_problems(classes) == []
        assert SWEstimator in families(classes)

    def test_unregistered_concrete_subclass_is_reported(self):
        class BogusEstimator(SWEstimator):
            name = "bogus"

        problems = registration_problems(package_estimator_classes() | {BogusEstimator})
        label = f"{__name__}.{BogusEstimator.__qualname__}"
        assert problems == [f"{label} is built by no registered name"]

    def test_missing_capability_is_reported(self):
        class BareEstimator(Estimator):
            name = "bare"

        # Concrete for the check without implementing the lifecycle.
        BareEstimator.__abstractmethods__ = frozenset()
        assert registration_problems({BareEstimator}) == [
            f"{__name__}.{BareEstimator.__qualname__} does not declare {attr}"
            for attr in ("kind", "n_reports", "wire_codec")
        ] + [f"{__name__}.{BareEstimator.__qualname__} is built by no registered name"]


class TestRegistryRoundTrip:
    @pytest.mark.parametrize(
        "name", [spec.name for spec in list_estimators()]
    )
    def test_make_and_fit_every_registered_name(self, name, unit_values):
        spec = get_spec(name)
        est = make_estimator(name, 1.0, D)
        assert isinstance(est, Estimator)
        assert est.kind == spec.kind
        rng = np.random.default_rng(3)
        if spec.kind == "scalar":
            out = est.fit(unit_values, rng=rng)
            assert 0.0 <= out <= 1.0
        elif spec.kind == "frequency":
            out = est.fit(rng.integers(0, D, 3000), rng=rng)
            assert out.shape == (D,)
            assert np.isfinite(out).all()
        else:
            out = est.fit(unit_values, rng=rng)
            assert out.shape == (D,)
            assert np.isfinite(out).all()
            if spec.kind == "distribution":
                assert (out >= -1e-12).all()
                assert out.sum() == pytest.approx(1.0)

    def test_kwargs_forwarded(self):
        est = make_estimator("cfo", 1.0, D, bins=8)
        assert est.bins == 8
        est = make_estimator("hh", 1.0, 64, branching=8)
        assert est.tree.branching == 8


class TestSingleDispatchTable:
    """No consumer keeps an independent dispatch table anymore."""

    def test_method_registry_is_a_view(self):
        for name, spec in METHOD_REGISTRY.items():
            assert spec is get_spec(name)

    def test_table2_tag_matches_paper(self):
        assert set(METHOD_REGISTRY) == {
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

    def test_choose_oracle_uses_registry(self):
        from repro.freq_oracle.adaptive import choose_oracle
        from repro.freq_oracle.grr import GRR
        from repro.freq_oracle.olh import OLH

        assert isinstance(choose_oracle(1.0, 4), GRR)
        assert isinstance(choose_oracle(1.0, 1024), OLH)
        assert isinstance(choose_oracle(1.0, 4), Estimator)


class TestEstimateDistributionViaRegistry:
    def test_non_sw_method_now_works(self, unit_values):
        out = estimate_distribution(
            unit_values, 1.0, d=D, method="cfo-16", rng=np.random.default_rng(0)
        )
        assert out.sum() == pytest.approx(1.0)

    def test_leaf_signed_rejected(self, unit_values):
        """hh/haar-hrr can return negative mass — not a distribution."""
        with pytest.raises(ValueError, match="leaf-signed"):
            estimate_distribution(unit_values, 1.0, d=D, method="haar-hrr")

    def test_scalar_rejected(self, unit_values):
        with pytest.raises(ValueError, match="scalar"):
            estimate_distribution(unit_values, 1.0, d=D, method="pm")

    def test_unknown_method_message(self, unit_values):
        with pytest.raises(ValueError, match="unknown method"):
            estimate_distribution(unit_values, 1.0, method="nope")
