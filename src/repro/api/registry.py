"""Central capability-aware estimator registry.

One registry replaces the string-dispatch tables that used to live in
``repro.core.pipeline.estimate_distribution`` and
``repro.experiments.methods.METHOD_REGISTRY``: every estimator family is
registered here once, with its capabilities (kind and supported
metrics), and every consumer — ``estimate_distribution``,
``choose_oracle``, the experiment runner, the CLI, and the protocol server —
resolves names through :func:`make_estimator`.

Factories import their estimator classes lazily, which keeps this module at
the bottom of the import graph and start-up cheap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = [
    "DISTRIBUTION_METRICS",
    "RANGE_METRICS",
    "SCALAR_METRICS",
    "ESTIMATOR_KINDS",
    "EstimatorSpec",
    "register_estimator",
    "get_spec",
    "make_estimator",
    "list_estimators",
]

#: Metrics computable from a reconstructed probability distribution
#: (paper Table 2, full row).
DISTRIBUTION_METRICS: tuple[str, ...] = (
    "w1",
    "ks",
    "range-0.1",
    "range-0.4",
    "mean",
    "variance",
    "quantile",
)

#: Metrics applicable to unbiased but possibly-negative leaf estimates.
RANGE_METRICS: tuple[str, ...] = ("range-0.1", "range-0.4")

#: Metrics applicable to scalar (mean/variance) mechanisms.
SCALAR_METRICS: tuple[str, ...] = ("mean", "variance")

#: Valid values for :attr:`EstimatorSpec.kind`.
ESTIMATOR_KINDS: tuple[str, ...] = (
    "distribution",
    "leaf-signed",
    "scalar",
    "frequency",
)


@dataclass(frozen=True)
class EstimatorSpec:
    """Registry entry for one estimator family.

    Attributes
    ----------
    name:
        Registry key (``make_estimator(name, ...)``).
    kind:
        What ``estimate()`` returns; one of :data:`ESTIMATOR_KINDS`.
    factory:
        ``factory(epsilon, d, **kwargs) -> Estimator``.
    supported_metrics:
        Benchmark metrics this estimator is evaluated on (paper Table 2).
    tags:
        Free-form labels; ``"table2"`` marks the paper's benchmark set.
    """

    name: str
    kind: str
    factory: Callable[..., Any] = field(repr=False)
    supported_metrics: tuple[str, ...] = ()
    description: str = ""
    tags: frozenset[str] = frozenset()

    def supports(self, metric: str) -> bool:
        return metric in self.supported_metrics


_REGISTRY: dict[str, EstimatorSpec] = {}


def register_estimator(
    name: str,
    factory: Callable[..., Any],
    *,
    kind: str,
    supported_metrics: tuple[str, ...] = (),
    description: str = "",
    tags: tuple[str, ...] = (),
    overwrite: bool = False,
) -> EstimatorSpec:
    """Register an estimator factory under a unique name.

    Third-party mechanisms plug in the same way the built-ins do; pass
    ``overwrite=True`` to replace an existing entry deliberately.
    """
    if kind not in ESTIMATOR_KINDS:
        raise ValueError(f"kind must be one of {ESTIMATOR_KINDS}, got {kind!r}")
    if not overwrite and name in _REGISTRY:
        raise ValueError(f"estimator {name!r} is already registered")
    spec = EstimatorSpec(
        name=name,
        kind=kind,
        factory=factory,
        supported_metrics=tuple(supported_metrics),
        description=description,
        tags=frozenset(tags),
    )
    _REGISTRY[name] = spec
    return spec


def get_spec(name: str) -> EstimatorSpec:
    """Look up a registry entry; raises ``ValueError`` for unknown names."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown estimator {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def make_estimator(name: str, epsilon: float, d: int | None = None, **kwargs: Any) -> Any:
    """Instantiate a registered estimator for one ``(epsilon, d)``.

    ``d`` may be omitted for families with a natural default (or none at
    all, like the scalar mechanisms); extra keyword arguments are forwarded
    to the factory.
    """
    spec = get_spec(name)
    if d is None:
        return spec.factory(epsilon, **kwargs)
    return spec.factory(epsilon, d, **kwargs)


def list_estimators(
    *,
    kind: str | None = None,
    tag: str | None = None,
    metric: str | None = None,
) -> list[EstimatorSpec]:
    """All registered specs (sorted by name), optionally filtered.

    ``metric`` filters to estimators whose ``supported_metrics`` include it —
    the capability query the task planner (:mod:`repro.tasks.planner`) uses
    to answer "which mechanisms can serve a mean/quantile/range task?".
    """
    specs = sorted(_REGISTRY.values(), key=lambda spec: spec.name)
    if kind is not None:
        specs = [spec for spec in specs if spec.kind == kind]
    if tag is not None:
        specs = [spec for spec in specs if tag in spec.tags]
    if metric is not None:
        specs = [spec for spec in specs if spec.supports(metric)]
    return specs


# ----------------------------------------------------------------------
# Built-in registrations. Factories lazy-import so that importing the
# registry never drags in (or cycles with) the estimator modules.
# ----------------------------------------------------------------------


def _sw(postprocess: str) -> Callable[..., Any]:
    def factory(epsilon: float, d: int = 1024, **kwargs: Any) -> Any:
        from repro.core.pipeline import SWEstimator

        return SWEstimator(epsilon, d, postprocess=postprocess, **kwargs)

    return factory


def _sw_discrete(postprocess: str) -> Callable[..., Any]:
    def factory(epsilon: float, d: int = 1024, **kwargs: Any) -> Any:
        from repro.core.pipeline import DiscreteSWEstimator

        return DiscreteSWEstimator(epsilon, d, postprocess=postprocess, **kwargs)

    return factory


def _cfo(bins: int | None) -> Callable[..., Any]:
    def factory(epsilon: float, d: int = 1024, **kwargs: Any) -> Any:
        from repro.binning.cfo_binning import CFOBinning

        if bins is not None:
            kwargs.setdefault("bins", bins)
        return CFOBinning(epsilon, d, **kwargs)

    return factory


def _hh(epsilon: float, d: int = 1024, **kwargs: Any) -> Any:
    from repro.hierarchy.hh import HierarchicalHistogram

    kwargs.setdefault("branching", 4)
    return HierarchicalHistogram(epsilon, d, **kwargs)


def _hh_admm(epsilon: float, d: int = 1024, **kwargs: Any) -> Any:
    from repro.hierarchy.admm import HHADMM

    kwargs.setdefault("branching", 4)
    return HHADMM(epsilon, d, **kwargs)


def _haar_hrr(epsilon: float, d: int = 1024, **kwargs: Any) -> Any:
    from repro.hierarchy.haar import HaarHRR

    return HaarHRR(epsilon, d, **kwargs)


def _scalar(mechanism: str) -> Callable[..., Any]:
    def factory(epsilon: float, d: int | None = None, **kwargs: Any) -> Any:
        from repro.mean.scalar import ScalarMeanEstimator

        return ScalarMeanEstimator(epsilon, mechanism=mechanism, d=d, **kwargs)

    return factory


def _oracle(name: str) -> Callable[..., Any]:
    def factory(epsilon: float, d: int, **kwargs: Any) -> Any:
        from repro.freq_oracle.grr import GRR
        from repro.freq_oracle.hrr import HRR
        from repro.freq_oracle.olh import OLH

        cls = {"grr": GRR, "olh": OLH, "hrr": HRR}[name]
        return cls(epsilon, d, **kwargs)

    return factory


register_estimator(
    "sw-ems",
    _sw("ems"),
    kind="distribution",
    supported_metrics=DISTRIBUTION_METRICS,
    description="Square Wave + EM with smoothing (this paper)",
    tags=("table2",),
)
register_estimator(
    "sw-em",
    _sw("em"),
    kind="distribution",
    supported_metrics=DISTRIBUTION_METRICS,
    description="Square Wave + plain EM (this paper)",
    tags=("table2",),
)
register_estimator(
    "sw-discrete-ems",
    _sw_discrete("ems"),
    kind="distribution",
    supported_metrics=DISTRIBUTION_METRICS,
    description="Discrete SW (bucketize-before-randomize, Section 5.4) + EMS",
)
register_estimator(
    "sw-discrete-em",
    _sw_discrete("em"),
    kind="distribution",
    supported_metrics=DISTRIBUTION_METRICS,
    description="Discrete SW (bucketize-before-randomize, Section 5.4) + plain EM",
)
register_estimator(
    "hh-admm",
    _hh_admm,
    kind="distribution",
    supported_metrics=DISTRIBUTION_METRICS,
    description="Hierarchical histogram + ADMM post-processing (this paper)",
    tags=("table2",),
)
for _bins in (16, 32, 64):
    register_estimator(
        f"cfo-{_bins}",
        _cfo(_bins),
        kind="distribution",
        supported_metrics=DISTRIBUTION_METRICS,
        description=f"CFO with {_bins} bins + Norm-Sub",
        tags=("table2",),
    )
register_estimator(
    "cfo",
    _cfo(None),
    kind="distribution",
    supported_metrics=DISTRIBUTION_METRICS,
    description="CFO with binning, configurable bins= (defaults to 32)",
)
register_estimator(
    "hh",
    _hh,
    kind="leaf-signed",
    supported_metrics=RANGE_METRICS,
    description="Hierarchical histogram, constrained inference only [18]",
    tags=("table2",),
)
register_estimator(
    "haar-hrr",
    _haar_hrr,
    kind="leaf-signed",
    supported_metrics=RANGE_METRICS,
    description="Discrete Haar transform + Hadamard randomized response [18]",
    tags=("table2",),
)
register_estimator(
    "sr",
    _scalar("sr"),
    kind="scalar",
    supported_metrics=SCALAR_METRICS,
    description="Stochastic Rounding mean/variance estimator [9]",
    tags=("table2",),
)
register_estimator(
    "pm",
    _scalar("pm"),
    kind="scalar",
    supported_metrics=SCALAR_METRICS,
    description="Piecewise Mechanism mean/variance estimator [30]",
    tags=("table2",),
)
register_estimator(
    "grr",
    _oracle("grr"),
    kind="frequency",
    description="Generalized Randomized Response frequency oracle",
)
register_estimator(
    "olh",
    _oracle("olh"),
    kind="frequency",
    description="Optimized Local Hashing frequency oracle",
)
register_estimator(
    "hrr",
    _oracle("hrr"),
    kind="frequency",
    description="Hadamard Randomized Response frequency oracle",
)
