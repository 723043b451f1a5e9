"""Concurrency and error-surfacing contracts of the collection server.

The service tier (``repro.service``) ingests on its admitting thread
while estimates run on a solve pool; these tests pin the primitives
that make that safe: locked ingest/estimate/merge interleavings and
``estimate_rounds``'s structured per-key failures.
"""

import threading

import numpy as np
import pytest

import repro.engine.solver as solver_module
from repro.api.errors import EmptyAggregateError
from repro.protocol import CollectionServer
from repro.protocol.server import estimate_rounds


def seeded_batches(seed, n_batches=8, n=250, d=32):
    rng = np.random.default_rng(seed)
    scratch = CollectionServer("r", "olh", 1.0, d)
    return [
        scratch.privatize(rng.integers(0, d, size=n), rng=rng)
        for _ in range(n_batches)
    ]


class TestConcurrentIngestEstimate:
    def test_parallel_ingest_matches_sequential(self):
        batches = seeded_batches(3, n_batches=12)
        reference = CollectionServer("r", "olh", 1.0, 32)
        shared = CollectionServer("r", "olh", 1.0, 32)
        for batch in batches:
            reference.ingest_reports(batch)

        def worker(part):
            for batch in part:
                shared.ingest_reports(batch)

        threads = [
            threading.Thread(target=worker, args=(batches[i::4],))
            for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert shared.n_reports == reference.n_reports
        # OLH ingest is a float accumulation, so thread order moves the
        # last bits; the population estimate must agree to rounding.
        np.testing.assert_allclose(
            shared.estimate(), reference.estimate(), rtol=1e-10, atol=1e-12
        )

    def test_estimates_interleaved_with_ingest_never_error(self):
        """Readers racing writers see *some* consistent prefix, never a
        torn state or an exception."""
        batches = seeded_batches(5, n_batches=20, n=200)
        server = CollectionServer("r", "sw-ems", 1.0, 32)
        server.ingest_reports(
            server.privatize(np.random.default_rng(0).random(200))
        )
        errors: list[Exception] = []
        done = threading.Event()

        def ingester():
            scratch = CollectionServer("r", "sw-ems", 1.0, 32)
            rng = np.random.default_rng(1)
            try:
                for _ in range(20):
                    server.ingest_reports(
                        scratch.privatize(rng.random(200), rng=rng)
                    )
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)
            finally:
                done.set()

        def estimator():
            try:
                while not done.is_set():
                    estimate = server.estimate()
                    assert np.all(np.isfinite(estimate))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=ingester)] + [
            threading.Thread(target=estimator) for _ in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert server.n_reports == 200 * 21

    def test_concurrent_merges_do_not_deadlock(self):
        """Two servers merged in opposite directions concurrently: the
        lock-ordering in merge() must prevent the classic AB/BA deadlock."""
        a = CollectionServer("r", "olh", 1.0, 16)
        b = CollectionServer("r", "olh", 1.0, 16)
        rng = np.random.default_rng(2)
        for server in (a, b):
            server.ingest_reports(
                server.privatize(rng.integers(0, 16, size=100), rng=rng)
            )
        barrier = threading.Barrier(2)
        errors: list[Exception] = []

        def merge(dst, src):
            try:
                barrier.wait(timeout=5)
                for _ in range(50):
                    dst.merge(src)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        t1 = threading.Thread(target=merge, args=(a, b))
        t2 = threading.Thread(target=merge, args=(b, a))
        t1.start(); t2.start()
        t1.join(timeout=30); t2.join(timeout=30)
        assert not t1.is_alive() and not t2.is_alive(), "merge deadlocked"
        assert errors == []


class TestEstimateRoundsErrors:
    def build(self):
        rng = np.random.default_rng(11)
        servers = {}
        for name in ("alpha", "beta"):
            server = CollectionServer("r", "sw-ems", 1.0, 32, attr=name)
            server.ingest_reports(server.privatize(rng.random(400), rng=rng))
            servers[name] = server
        servers["hollow"] = CollectionServer("r", "sw-ems", 1.0, 32)
        return servers

    def test_raise_mode_still_solves_surviving_rounds_first(self, monkeypatch):
        """The failing key must not cost the healthy keys their solve: their
        posteriors are cached before the raise, so the retry solves nothing."""
        servers = self.build()
        with pytest.raises(EmptyAggregateError, match="no reports ingested"):
            estimate_rounds(servers)
        solves = []
        original = solver_module.batched_expectation_maximization

        def counting(*args, **kwargs):
            solves.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(solver_module, "batched_expectation_maximization", counting)
        estimate_rounds({name: servers[name] for name in ("alpha", "beta")})
        assert solves == []

    def test_empty_mapping_is_empty_result(self):
        assert estimate_rounds({}) == {}
