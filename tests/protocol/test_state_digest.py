"""The posterior cache's key makes the same hit/miss decisions as state text.

:func:`repro.protocol.server.state_digest` hashes a state's pickle. The
reference key is the state's sorted JSON text: for every registered family
and every pair of states below, the digests are equal exactly when that
text is, and equal or different as the cache needs them to be.
"""

import json

import numpy as np
import pytest

from repro.api import list_estimators, make_estimator
from repro.api.base import Estimator
from repro.protocol.server import state_digest
from repro.streaming.window import SlidingWindowState, clone_template

SPECS = list_estimators()


def _values(spec, rng, n=300, d=64):
    if spec.kind == "frequency":
        return rng.integers(0, d, size=n)
    return rng.random(n)


def _fed(spec, *batches, seed=0):
    estimator = make_estimator(spec.name, 1.0, 64)
    rng = np.random.default_rng(seed)
    for values in batches:
        estimator.ingest(estimator.privatize(values, rng=rng))
    return estimator


def _same_key(a: Estimator, b: Estimator) -> bool:
    """Whether two states share a digest; asserts the text agrees."""
    left, right = a._state(), b._state()
    same_text = json.dumps(left, sort_keys=True) == json.dumps(right, sort_keys=True)
    same_digest = state_digest(left) == state_digest(right)
    assert len(state_digest(left)) == 16
    assert same_digest == same_text
    return same_digest


@pytest.mark.parametrize("spec", SPECS, ids=[spec.name for spec in SPECS])
class TestDigestDecisions:
    def test_equal_states_share_a_digest(self, spec):
        rng = np.random.default_rng(1)
        batch = _values(spec, rng)
        assert _same_key(_fed(spec, batch), _fed(spec, batch))

    def test_state_round_trips_share_a_digest(self, spec):
        estimator = _fed(spec, _values(spec, np.random.default_rng(2)))
        payload = estimator.to_state()
        assert _same_key(estimator, Estimator.from_state(payload))
        rebuilt = Estimator.from_state(json.loads(json.dumps(payload)))
        assert _same_key(estimator, rebuilt)

    def test_merged_state_shares_the_one_ingest_digest(self, spec):
        rng = np.random.default_rng(3)
        first, second = _values(spec, rng), _values(spec, rng)
        together = make_estimator(spec.name, 1.0, 64)
        parts = [make_estimator(spec.name, 1.0, 64) for _ in range(2)]
        report_rng = np.random.default_rng(4)
        for part, values in zip(parts, (first, second), strict=True):
            reports = part.privatize(values, rng=report_rng)
            part.ingest(reports)
            together.ingest(reports)
        assert _same_key(together, parts[0].merge(parts[1]))

    def test_one_more_report_changes_the_digest(self, spec):
        rng = np.random.default_rng(5)
        batch = _values(spec, rng)
        grown = _fed(spec, batch, _values(spec, rng, n=1))
        assert not _same_key(_fed(spec, batch), grown)

    def test_reset_and_reingest_of_other_values_changes_the_digest(self, spec):
        rng = np.random.default_rng(6)
        estimator = _fed(spec, _values(spec, rng))
        before = Estimator.from_state(estimator.to_state())
        estimator.reset()
        estimator.ingest(estimator.privatize(_values(spec, rng), rng=rng))
        assert estimator.n_reports == before.n_reports
        assert not _same_key(before, estimator)

    def test_window_eviction_changes_the_digest(self, spec):
        rng = np.random.default_rng(7)
        template = make_estimator(spec.name, 1.0, 64)
        window = SlidingWindowState(template, window=2)
        rounds = [_fed(spec, _values(spec, rng), seed=seed) for seed in range(3)]
        window.push(rounds[0])
        window.push(rounds[1])
        before = window.fingerprint()
        kept = clone_template(template)
        kept.merge(window.current)
        window.push(rounds[2])  # evicts rounds[0], same report count
        assert window.fingerprint() != before
        assert not _same_key(kept, window.current)

