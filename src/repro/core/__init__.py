"""The paper's primary contribution: Square Wave reporting + EM/EMS.

Start with :class:`~repro.core.pipeline.SWEstimator` for the end-to-end
pipeline, or use the pieces directly: :class:`SquareWave` /
:class:`GeneralWave` mechanisms, :func:`optimal_bandwidth`, the exact
transition matrices in :mod:`repro.core.transform`, and
:func:`expectation_maximization`.
"""

from repro.core.bandwidth import (
    discrete_bandwidth,
    mutual_information_bound,
    optimal_bandwidth,
)
from repro.core.em import EMResult, expectation_maximization
from repro.core.general_wave import WAVE_SHAPES, GeneralWave
from repro.core.pipeline import (
    DiscreteSWEstimator,
    SWEstimator,
    WaveEstimator,
    estimate_distribution,
)
from repro.core.smoothing import binomial_kernel, smooth
from repro.core.square_wave import DiscreteSquareWave, SquareWave

__all__ = [
    "SquareWave",
    "DiscreteSquareWave",
    "GeneralWave",
    "WAVE_SHAPES",
    "optimal_bandwidth",
    "discrete_bandwidth",
    "mutual_information_bound",
    "EMResult",
    "expectation_maximization",
    "binomial_kernel",
    "smooth",
    "WaveEstimator",
    "SWEstimator",
    "DiscreteSWEstimator",
    "estimate_distribution",
]
