"""Empty-state behavior: estimate() before ingest raises EmptyAggregateError."""

import numpy as np
import pytest

from repro.api import EmptyAggregateError
from repro.binning.cfo_binning import CFOBinning
from repro.core.pipeline import DiscreteSWEstimator, SWEstimator, WaveEstimator
from repro.core.waves import make_wave
from repro.freq_oracle.grr import GRR
from repro.freq_oracle.hrr import HRR
from repro.freq_oracle.olh import OLH
from repro.hierarchy.admm import HHADMM
from repro.hierarchy.haar import HaarHRR
from repro.hierarchy.hh import HierarchicalHistogram
from repro.mean.scalar import ScalarMeanEstimator
from repro.protocol.server import CollectionServer

_EMPTY_ESTIMATORS = [
    pytest.param(lambda: SWEstimator(1.0, d=16), id="sw"),
    pytest.param(lambda: DiscreteSWEstimator(1.0, d=16), id="sw-discrete"),
    pytest.param(lambda: CFOBinning(1.0, d=32, bins=16), id="cfo"),
    # Eight chunks at eps=1 pick GRR, the chunk oracle that sixteen do not.
    pytest.param(lambda: CFOBinning(1.0, d=32, bins=8), id="cfo-grr"),
    pytest.param(
        lambda: WaveEstimator(make_wave("triangle", 1.0), d=16), id="wave-triangle"
    ),
    pytest.param(lambda: HierarchicalHistogram(1.0, d=16), id="hh"),
    pytest.param(lambda: HHADMM(1.0, d=16), id="hh-admm"),
    pytest.param(lambda: HaarHRR(1.0, d=16), id="haar-hrr"),
    pytest.param(lambda: GRR(1.0, 8), id="grr"),
    pytest.param(lambda: OLH(1.0, 8), id="olh"),
    pytest.param(lambda: HRR(1.0, 8), id="hrr"),
    pytest.param(lambda: ScalarMeanEstimator(1.0, "pm"), id="pm"),
    pytest.param(lambda: ScalarMeanEstimator(1.0, "sr"), id="sr"),
]


@pytest.mark.parametrize("factory", _EMPTY_ESTIMATORS)
def test_estimate_on_empty_state_raises_empty_aggregate_error(factory):
    with pytest.raises(EmptyAggregateError, match="no reports ingested"):
        factory().estimate()


@pytest.mark.parametrize("factory", _EMPTY_ESTIMATORS)
def test_empty_aggregate_error_is_a_runtime_error(factory):
    # Backwards compatibility: callers catching RuntimeError keep working.
    with pytest.raises(RuntimeError):
        factory().estimate()


def test_server_estimate_on_empty_round():
    server = CollectionServer("r1", "sw-ems", 1.0, 16)
    with pytest.raises(EmptyAggregateError, match="no reports ingested"):
        server.estimate()


def test_error_raised_before_the_solver_is_reached():
    # The guard must fire at the estimator boundary, not surface the EM
    # solver's "counts must contain at least one report" ValueError.
    est = SWEstimator(1.0, d=16)
    with pytest.raises(EmptyAggregateError):
        est.estimate()
    est.partial_fit(np.random.default_rng(0).random(100))
    est.estimate()  # with reports ingested it reconstructs fine
    est.reset()
    with pytest.raises(EmptyAggregateError):
        est.estimate()


def test_exported_at_top_level():
    import repro

    assert repro.EmptyAggregateError is EmptyAggregateError
