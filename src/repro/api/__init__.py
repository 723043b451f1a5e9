"""repro.api — the canonical estimator contract, EM config, and registry.

Three pieces every method in the package plugs into:

* :class:`~repro.api.base.Mechanism` / :class:`~repro.api.base.Estimator` —
  the client/server lifecycle (``privatize -> ingest/partial_fit ->
  estimate``) with shard ``merge`` and ``to_state``/``from_state``;
* :class:`~repro.api.config.EMConfig` — the single source of truth for
  EM/EMS settings, including the paper's Section 6.1 tolerance rule;
* the registry — ``make_estimator(name, epsilon, d, **kw)`` over every
  registered family, with capability metadata for runners and CLIs.
"""

from repro.api.arithmetic import (
    subtract_payload,
    subtract_state,
    supports_state_arithmetic,
)
from repro.api.base import (
    Estimator,
    Mechanism,
    mechanism_from_spec,
    mechanism_spec,
)
from repro.api.config import DEFAULT_MAX_ITER, POSTPROCESS_CHOICES, EMConfig
from repro.api.errors import EmptyAggregateError
from repro.api.registry import (
    DISTRIBUTION_METRICS,
    ESTIMATOR_KINDS,
    RANGE_METRICS,
    SCALAR_METRICS,
    EstimatorSpec,
    get_spec,
    list_estimators,
    make_estimator,
    register_estimator,
)

__all__ = [
    "Mechanism",
    "Estimator",
    "mechanism_spec",
    "mechanism_from_spec",
    "subtract_state",
    "subtract_payload",
    "supports_state_arithmetic",
    "EMConfig",
    "EmptyAggregateError",
    "DEFAULT_MAX_ITER",
    "POSTPROCESS_CHOICES",
    "EstimatorSpec",
    "register_estimator",
    "get_spec",
    "make_estimator",
    "list_estimators",
    "DISTRIBUTION_METRICS",
    "RANGE_METRICS",
    "SCALAR_METRICS",
    "ESTIMATOR_KINDS",
]
