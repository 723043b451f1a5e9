"""Warm-cache survival across the merge tier's re-merges.

Every poll of a sharded deployment folds shard snapshots into freshly
merged estimators and solves those (``ShardedCollector.estimate``), with
one posterior cache entry per ``(round, attr)``. These tests pin the cache
contract that makes that cheap — an unchanged re-merge must serve the
cached posterior without a solve, a small delta must warm-start EM from
it — and that the contract holds when polls race uploads on threads, as
they do under the service's solve pool.
"""

import sys
import threading

import numpy as np
import pytest

import repro.engine.solver as solver_module
from repro.protocol import PlanServer
from repro.service import ServiceConfig, ShardedCollector
from repro.service.loadgen import synthesize_frames
from repro.tasks import AnalysisPlan, AttributeSpec, Distribution

D = 32


def _plan() -> AnalysisPlan:
    return AnalysisPlan(
        epsilon=1.0,
        attributes=(AttributeSpec("x", low=0.0, high=1.0, d=D),),
        tasks=(Distribution("x"),),
    )


def _uploads(n_users, seed, batch=400):
    frames = synthesize_frames(_plan(), "r", n_users, batch_size=batch, rng=seed)
    return [frame for frame, _ in frames]


def _collector(uploads):
    collector = ShardedCollector(ServiceConfig(plan=_plan(), n_shards=3))
    for frame in uploads:
        collector.submit(frame, "r")
    return collector


def _estimate(collector):
    return np.asarray(collector.estimate("r")["estimates"]["x"], dtype=np.float64)


@pytest.fixture
def solves(monkeypatch):
    """``(counts, x0, estimates, iterations)`` of every batched solve."""
    record: list[tuple] = []
    lock = threading.Lock()
    original = solver_module.batched_expectation_maximization

    def recording(matrix, counts, **kwargs):
        result = original(matrix, counts, **kwargs)
        with lock:
            record.append(
                (
                    np.array(counts, dtype=np.float64),
                    kwargs.get("x0"),
                    result.estimates.copy(),
                    result.iterations.tolist(),
                )
            )
        return result

    monkeypatch.setattr(solver_module, "batched_expectation_maximization", recording)
    return record


class TestCacheSurvivesRemerge:
    def test_identical_remerge_skips_the_solve(self, solves):
        with _collector(_uploads(1200, seed=0)) as collector:
            first = _estimate(collector)
            assert len(solves) == 1
            # Poll two re-merges the same shard states into new estimators.
            second = _estimate(collector)
            assert len(solves) == 1
            assert second.tobytes() == first.tobytes()

    def test_cache_survives_many_cycles(self, solves):
        with _collector(_uploads(800, seed=1)) as collector:
            reference = _estimate(collector)
            for _ in range(5):
                assert _estimate(collector).tobytes() == reference.tobytes()
            assert len(solves) == 1

    def test_delta_remerge_warm_starts(self, solves):
        """A re-merge with one extra upload solves warm: strictly fewer EM
        iterations than the same state solved cold."""
        base = _uploads(3000, seed=2, batch=1000)
        delta = _uploads(100, seed=99)
        with _collector(base) as collector:
            _estimate(collector)  # populate the posterior cache
            collector.submit(delta[0], "r")
            solves.clear()
            warm_estimate = _estimate(collector)
        ((_, x0, _, (warm_iterations,)),) = solves
        assert x0 is not None

        reference = PlanServer(_plan(), "r")
        for frame in base + delta:
            reference.ingest_feed(frame)
        cold = reference.server("x").estimator
        cold_estimate = cold.estimate()  # the estimator's own solve: cold
        assert warm_iterations < cold.result_.iterations
        # Same fixed point: both stop within the EM convergence tolerance
        # of it, so the posteriors agree to solver precision, not bit-level.
        np.testing.assert_allclose(warm_estimate, cold_estimate, atol=5e-3)


class TestConcurrentRebindEstimate:
    def test_estimates_race_rebind_cycles_safely(self, solves):
        """Polls racing uploads always see a consistent posterior — never a
        torn state, an exception, or a stale shape — and the last poll's
        answer comes from a solve of the final counts."""
        extra = _uploads(2000, seed=5, batch=200)
        errors: list[BaseException] = []
        done = threading.Event()
        with _collector(_uploads(1000, seed=4, batch=500)) as collector:
            _estimate(collector)

            def submitter():
                try:
                    for frame in extra:
                        collector.submit(frame, "r")
                except BaseException as exc:  # pragma: no cover - failure path
                    errors.append(exc)
                finally:
                    done.set()

            def poller():
                try:
                    while not done.is_set():
                        estimate = _estimate(collector)
                        assert estimate.shape == (D,)
                        assert np.all(np.isfinite(estimate))
                        assert estimate.sum() == pytest.approx(1.0)
                except BaseException as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            threads = [threading.Thread(target=submitter)] + [
                threading.Thread(target=poller) for _ in range(3)
            ]
            previous = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
            finally:
                sys.setswitchinterval(previous)
            assert not any(thread.is_alive() for thread in threads)
            assert errors == []
            final = collector.estimate("r")
        assert final["n_reports"]["x"] == 3000
        reference = PlanServer(_plan(), "r")
        for frame in _uploads(1000, seed=4, batch=500) + extra:
            reference.ingest_feed(frame)
        counts = reference.server("x").estimator._counts
        served = np.asarray(final["estimates"]["x"], dtype=np.float64).tobytes()
        sources = [
            record[0][:, j]
            for record in solves
            for j in range(record[2].shape[1])
            if record[2][:, j].tobytes() == served
        ]
        assert sources, "the served estimate came from no recorded solve"
        np.testing.assert_array_equal(sources[-1], counts)
