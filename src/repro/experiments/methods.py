"""Method table for the evaluation (paper Table 2) — a registry view.

The specs here *are* the central registry's specs
(:mod:`repro.api.registry`): entries tagged ``"table2"`` are exactly the
paper's competitors, in the paper's row order, so there is no independent
table to drift. Build an estimator for one with
:func:`repro.api.make_estimator`.

Method kinds:

* ``distribution`` — ``fit`` returns a valid probability histogram; every
  metric applies.
* ``leaf-signed`` — ``fit`` returns unbiased but possibly-negative leaf
  estimates (HH, HaarHRR); only range queries apply.
* ``scalar`` — SR/PM; only mean and variance apply. ``fit`` estimates the
  mean; the paper's two-phase variance protocol lives in
  :mod:`repro.mean.variance` and is orchestrated by the runner.
"""

from __future__ import annotations

from repro.api.registry import (
    DISTRIBUTION_METRICS,
    EstimatorSpec,
    get_spec,
    list_estimators,
)

__all__ = ["METHOD_REGISTRY", "DISTRIBUTION_METRICS"]

#: The paper's Table 2 row order (presentation only; specs live in the
#: registry). Rendering code iterates METHOD_REGISTRY and must match it.
_TABLE2_ORDER: tuple[str, ...] = (
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
)

#: The paper's Table 2 evaluation matrix, keyed by method name.
METHOD_REGISTRY: dict[str, EstimatorSpec] = {
    name: get_spec(name) for name in _TABLE2_ORDER
}

if set(METHOD_REGISTRY) != {spec.name for spec in list_estimators(tag="table2")}:
    raise RuntimeError(
        "Table 2 order list out of sync with the registry's 'table2' tags"
    )
