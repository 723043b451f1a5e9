"""Tests for the mechanism-agnostic CollectionServer."""

import numpy as np
import pytest

from repro.api.base import Estimator
from repro.api.errors import EmptyAggregateError
from repro.api.registry import list_estimators
from repro.protocol import CollectionServer


def reportable_values(spec, rng, n=400, d=64):
    """Raw client values appropriate for one registry family."""
    if spec.kind == "frequency":
        return rng.integers(0, d, size=n)
    return rng.random(n)


ALL_SPECS = list_estimators()


class TestRegistryRoundTrip:
    """Acceptance: every registered family completes privatize → encode →
    decode → ingest → estimate through the generic server, on both wires."""

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=[s.name for s in ALL_SPECS])
    @pytest.mark.parametrize("wire", ["frame", "jsonl"])
    def test_full_round_trip(self, spec, wire, rng):
        server = CollectionServer("round-1", spec.name, 1.0, 64)
        values = reportable_values(spec, rng)
        reports = server.privatize(values, rng=rng)
        feed = server.encode(reports, format=wire)
        assert server.ingest_feed(feed) == values.shape[0]
        estimate = server.estimate()
        if spec.kind == "scalar":
            assert 0.0 <= estimate <= 1.0
        else:
            assert np.isfinite(np.asarray(estimate)).all()

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=[s.name for s in ALL_SPECS])
    def test_wire_equals_direct_ingest(self, spec, rng):
        """Decoding its own encoded feed must not change the estimate."""
        direct = CollectionServer("r", spec.name, 1.0, 64)
        wired = CollectionServer("r", spec.name, 1.0, 64)
        reports = direct.privatize(reportable_values(spec, rng), rng=rng)
        direct.ingest_reports(reports)
        wired.ingest_feed(wired.encode(reports, format="frame"))
        left, right = direct.estimate(), wired.estimate()
        if spec.kind == "scalar":
            assert left == pytest.approx(right)
        else:
            np.testing.assert_allclose(left, right)


class TestRoundScoping:
    def test_foreign_round_frame_rejected(self, rng):
        a = CollectionServer("round-a", "sw-ems", 1.0, 32)
        feed = a.encode(a.privatize(rng.random(10), rng=rng))
        b = CollectionServer("round-b", "sw-ems", 1.0, 32)
        with pytest.raises(ValueError, match="round"):
            b.ingest_feed(feed)

    def test_foreign_attr_rejected(self, rng):
        a = CollectionServer("r", "sw-ems", 1.0, 32, attr="income")
        feed = a.encode(a.privatize(rng.random(10), rng=rng))
        b = CollectionServer("r", "sw-ems", 1.0, 32, attr="age")
        with pytest.raises(ValueError, match="attribute"):
            b.ingest_feed(feed)

    def test_codec_mismatch_rejected(self, rng):
        grr = CollectionServer("r", "grr", 1.0, 32)
        feed = grr.encode(grr.privatize(rng.integers(0, 32, 10), rng=rng))
        sw = CollectionServer("r", "sw-ems", 1.0, 32)
        with pytest.raises(ValueError, match="payloads"):
            sw.ingest_feed(feed)

    def test_non_frame_bytes_rejected(self):
        server = CollectionServer("r", "sw-ems", 1.0, 32)
        with pytest.raises(ValueError, match="magic"):
            server.ingest_feed(b"junk bytes")

    def test_empty_estimate_names_round_and_attr(self):
        server = CollectionServer("r7", "sw-ems", 1.0, 32, attr="income")
        with pytest.raises(EmptyAggregateError, match=r"'r7'.*'income'"):
            server.estimate()

    def test_empty_error_is_runtime_error(self):
        server = CollectionServer("r", "grr", 1.0, 32)
        with pytest.raises(RuntimeError):
            server.estimate()


class TestIncrementalEstimate:
    def test_skip_when_nothing_new(self, rng):
        server = CollectionServer("r", "sw-ems", 1.0, 64)
        server.ingest_reports(server.privatize(rng.random(2000), rng=rng))
        first = server.estimate()
        iterations = server.estimator.result_.iterations
        second = server.estimate()
        np.testing.assert_array_equal(first, second)
        # No new solve ran: the diagnostics are still the first solve's.
        assert server.estimator.result_.iterations == iterations

    def test_skip_returns_defensive_copy(self, rng):
        server = CollectionServer("r", "sw-ems", 1.0, 64)
        server.ingest_reports(server.privatize(rng.random(2000), rng=rng))
        first = server.estimate()
        first[:] = -1.0
        np.testing.assert_array_equal(server.estimate() >= 0, True)

    def test_warm_start_converges_faster_and_agrees(self, beta_values):
        gen = np.random.default_rng(5)
        warm = CollectionServer("r", "sw-ems", 1.0, 64)
        warm.ingest_reports(warm.privatize(beta_values, rng=gen))
        warm.estimate()
        cold_iterations = warm.estimator.result_.iterations
        delta = warm.privatize(beta_values[:500], rng=gen)
        warm.ingest_reports(delta)
        warm_estimate = warm.estimate()
        warm_iterations = warm.estimator.result_.iterations
        assert warm_iterations < cold_iterations

        # The estimator's own estimate() on the same counts solves cold.
        cold = Estimator.from_state(warm.estimator.to_state())
        np.testing.assert_allclose(warm_estimate, cold.estimate(), atol=2e-3)
        assert cold.result_.iterations > warm_iterations

    def test_reset_and_reingest_invalidates_cache(self, rng):
        """Same report count, different content: the cache must not serve
        the old posterior (it is keyed on state content, not count)."""
        server = CollectionServer("r", "grr", 1.0, 8)
        low = np.zeros(500, dtype=np.int64)
        high = np.full(500, 7, dtype=np.int64)
        server.ingest_reports(server.privatize(low, rng=rng))
        first = server.estimate()
        server.estimator.reset()
        server.ingest_reports(server.privatize(high, rng=rng))
        second = server.estimate()
        assert server.n_reports == 500
        assert np.argmax(first) != np.argmax(second)

    def test_non_em_families_skip_solve_too(self, rng):
        server = CollectionServer("r", "grr", 1.0, 16)
        server.ingest_reports(server.privatize(rng.integers(0, 16, 500), rng=rng))
        first = server.estimate()
        second = server.estimate()
        np.testing.assert_array_equal(first, second)


class TestMergeAndState:
    def test_shard_merge_equals_union(self, rng):
        shards = []
        union = CollectionServer("r", "grr", 1.0, 16)
        batches = []
        for _ in range(3):
            shard = CollectionServer("r", "grr", 1.0, 16)
            reports = shard.privatize(rng.integers(0, 16, 300), rng=rng)
            shard.ingest_reports(reports)
            batches.append(reports)
            shards.append(shard)
        merged = shards[0].merge(shards[1]).merge(shards[2])
        for batch in batches:
            union.ingest_reports(batch)
        np.testing.assert_allclose(merged.estimate(), union.estimate())

    def test_merge_checks_round_attr_and_type(self):
        a = CollectionServer("r", "grr", 1.0, 16)
        with pytest.raises(ValueError, match="round"):
            a.merge(CollectionServer("other", "grr", 1.0, 16))
        with pytest.raises(ValueError, match="attribute"):
            a.merge(CollectionServer("r", "grr", 1.0, 16, attr="x"))
        with pytest.raises(TypeError):
            a.merge(object())

    def test_merge_into_itself_rejected(self, rng):
        """A self-merge would double every count; it fails and changes nothing."""
        server = CollectionServer("r", "sw-ems", 1.0, 16)
        server.ingest_reports(server.privatize(rng.random(500), rng=rng))
        with pytest.raises(ValueError, match="itself"):
            server.merge(server)
        assert server.n_reports == 500

    def test_state_roundtrip(self, rng):
        server = CollectionServer("r", "olh", 1.0, 16, attr="income")
        server.ingest_reports(server.privatize(rng.integers(0, 16, 200), rng=rng))
        rebuilt = CollectionServer.from_state(server.to_state())
        assert rebuilt.round_id == "r"
        assert rebuilt.attr == "income"
        assert rebuilt.mechanism_name == "olh"
        assert rebuilt.n_reports == 200
        np.testing.assert_allclose(rebuilt.estimate(), server.estimate())

    def test_repr_names_mechanism_and_codec(self):
        server = CollectionServer("r", "olh", 1.0, 16)
        assert "olh" in repr(server)
