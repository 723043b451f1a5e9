"""repro — Estimating Numerical Distributions under Local Differential Privacy.

A faithful, self-contained reproduction of Li et al. (SIGMOD 2020): the
Square Wave (SW) reporting mechanism with Expectation Maximization with
Smoothing (EMS) reconstruction, the HH-ADMM hierarchical estimator, and
every baseline the paper evaluates against (GRR, OLH, HRR, CFO-with-binning,
HH, HaarHRR, SR, PM).

Quickstart::

    import numpy as np
    from repro import SWEstimator

    values = np.random.default_rng(0).beta(5, 2, 100_000)   # users' data
    estimator = SWEstimator(epsilon=1.0, d=256)
    histogram = estimator.fit(values)                        # LDP estimate

The estimator splits cleanly across trust boundaries: ``privatize`` runs on
each client, ``aggregate`` on the untrusted server.

Every public name resolves on first access (PEP 562), so ``import repro``
loads no estimator family, and importing a subpackage loads only what that
subpackage imports. A process that serves collection rounds never pays for
the families it does not run: the hierarchical estimators, and scipy with
them, load only when one is first built.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Any

__version__ = "1.0.0"

#: Every public name and the module it is imported from on first access.
_EXPORTS: dict[str, str] = {
    "Estimator": "repro.api",
    "Mechanism": "repro.api",
    "EMConfig": "repro.api",
    "EmptyAggregateError": "repro.api",
    "EstimatorSpec": "repro.api",
    "make_estimator": "repro.api",
    "list_estimators": "repro.api",
    "register_estimator": "repro.api",
    "ScalarMeanEstimator": "repro.mean",
    "SWEstimator": "repro.core",
    "DiscreteSWEstimator": "repro.core",
    "WaveEstimator": "repro.core",
    "SquareWave": "repro.core",
    "DiscreteSquareWave": "repro.core",
    "GeneralWave": "repro.core",
    "optimal_bandwidth": "repro.core",
    "estimate_distribution": "repro.core",
    "CFOBinning": "repro.binning",
    "GRR": "repro.freq_oracle",
    "OLH": "repro.freq_oracle",
    "HRR": "repro.freq_oracle",
    "choose_oracle": "repro.freq_oracle",
    "HierarchicalHistogram": "repro.hierarchy",
    "HaarHRR": "repro.hierarchy",
    "HHADMM": "repro.hierarchy",
    "StochasticRounding": "repro.mean",
    "PiecewiseMechanism": "repro.mean",
    "estimate_mean_unit": "repro.mean",
    "estimate_variance_unit": "repro.mean",
    "Dataset": "repro.datasets",
    "load_dataset": "repro.datasets",
    "wasserstein_distance": "repro.metrics",
    "ks_distance": "repro.metrics",
    "range_query": "repro.metrics",
    "range_query_mae": "repro.metrics",
    "mean_error": "repro.metrics",
    "variance_error": "repro.metrics",
    "quantile_error": "repro.metrics",
    "norm_sub": "repro.postprocess",
    "ConfidenceBands": "repro.core.confidence",
    "estimator_confidence_bands": "repro.core.confidence",
    "make_wave": "repro.core.waves",
    "ALL_WAVE_SHAPES": "repro.core.waves",
    "CosineWave": "repro.core.waves",
    "EpanechnikovWave": "repro.core.waves",
    "CollectionServer": "repro.protocol",
    "PlanServer": "repro.protocol",
    "olh_variance": "repro.analysis",
    "required_population": "repro.analysis",
    "sw_exact_mutual_information": "repro.analysis",
    "AnalysisPlan": "repro.tasks",
    "AttributeSpec": "repro.tasks",
    "Distribution": "repro.tasks",
    "Mean": "repro.tasks",
    "Variance": "repro.tasks",
    "Quantiles": "repro.tasks",
    "RangeQueries": "repro.tasks",
    "Marginals": "repro.tasks",
    "Session": "repro.tasks",
    "TaskResult": "repro.tasks",
    "AnalysisReport": "repro.tasks",
    "plan_analysis": "repro.tasks",
    "load_plan": "repro.tasks",
    "audit_budget": "repro.privacy",
    "audit_stream_budget": "repro.privacy",
    "StreamingCollector": "repro.streaming",
    "SlidingWindowState": "repro.streaming",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str) -> Any:
    """Import a public name's module on first access and cache the name."""
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})


if TYPE_CHECKING:
    from repro.analysis import (
        olh_variance as olh_variance,
        required_population as required_population,
        sw_exact_mutual_information as sw_exact_mutual_information,
    )
    from repro.api import (
        EMConfig as EMConfig,
        EmptyAggregateError as EmptyAggregateError,
        Estimator as Estimator,
        EstimatorSpec as EstimatorSpec,
        Mechanism as Mechanism,
        list_estimators as list_estimators,
        make_estimator as make_estimator,
        register_estimator as register_estimator,
    )
    from repro.binning import (
        CFOBinning as CFOBinning,
    )
    from repro.core.confidence import (
        ConfidenceBands as ConfidenceBands,
        estimator_confidence_bands as estimator_confidence_bands,
    )
    from repro.core.waves import (
        ALL_WAVE_SHAPES as ALL_WAVE_SHAPES,
        CosineWave as CosineWave,
        EpanechnikovWave as EpanechnikovWave,
        make_wave as make_wave,
    )
    from repro.core import (
        DiscreteSquareWave as DiscreteSquareWave,
        DiscreteSWEstimator as DiscreteSWEstimator,
        GeneralWave as GeneralWave,
        SquareWave as SquareWave,
        SWEstimator as SWEstimator,
        WaveEstimator as WaveEstimator,
        estimate_distribution as estimate_distribution,
        optimal_bandwidth as optimal_bandwidth,
    )
    from repro.datasets import (
        Dataset as Dataset,
        load_dataset as load_dataset,
    )
    from repro.freq_oracle import (
        GRR as GRR,
        HRR as HRR,
        OLH as OLH,
        choose_oracle as choose_oracle,
    )
    from repro.hierarchy import (
        HHADMM as HHADMM,
        HaarHRR as HaarHRR,
        HierarchicalHistogram as HierarchicalHistogram,
    )
    from repro.mean import (
        PiecewiseMechanism as PiecewiseMechanism,
        ScalarMeanEstimator as ScalarMeanEstimator,
        StochasticRounding as StochasticRounding,
        estimate_mean_unit as estimate_mean_unit,
        estimate_variance_unit as estimate_variance_unit,
    )
    from repro.metrics import (
        ks_distance as ks_distance,
        mean_error as mean_error,
        quantile_error as quantile_error,
        range_query as range_query,
        range_query_mae as range_query_mae,
        variance_error as variance_error,
        wasserstein_distance as wasserstein_distance,
    )
    from repro.postprocess import (
        norm_sub as norm_sub,
    )
    from repro.privacy import (
        audit_budget as audit_budget,
        audit_stream_budget as audit_stream_budget,
    )
    from repro.protocol import (
        CollectionServer as CollectionServer,
        PlanServer as PlanServer,
    )
    from repro.streaming import (
        SlidingWindowState as SlidingWindowState,
        StreamingCollector as StreamingCollector,
    )
    from repro.tasks import (
        AnalysisPlan as AnalysisPlan,
        AnalysisReport as AnalysisReport,
        AttributeSpec as AttributeSpec,
        Distribution as Distribution,
        Marginals as Marginals,
        Mean as Mean,
        Quantiles as Quantiles,
        RangeQueries as RangeQueries,
        Session as Session,
        TaskResult as TaskResult,
        Variance as Variance,
        load_plan as load_plan,
        plan_analysis as plan_analysis,
    )
