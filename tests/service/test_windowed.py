"""Windowed (streaming) service mode: config, collector, and HTTP routes."""

import asyncio
import json

import pytest

from repro.service import ServiceConfig, ShardedCollector, start_local_service
from repro.service.loadgen import http_request, synthesize_frames
from repro.tasks import AnalysisPlan, AttributeSpec, Distribution


@pytest.fixture(scope="module")
def plan() -> AnalysisPlan:
    return AnalysisPlan(
        epsilon=2.0,
        attributes=(
            AttributeSpec("income", low=0.0, high=1e5, d=32),
            AttributeSpec("hours", low=0.0, high=120.0, d=32),
        ),
        tasks=(Distribution("income"), Distribution("hours")),
    )


def ingest_round(collector, plan, round_id, seed, n_users=600):
    for frame, _n in synthesize_frames(
        plan, round_id, n_users, batch_size=300, rng=seed
    ):
        collector.submit(frame, round_id)
    collector.flush()


class TestWindowedConfig:
    def test_window_bounds(self, plan):
        with pytest.raises(ValueError, match="window"):
            ServiceConfig(plan=plan, window=0)
        assert ServiceConfig(plan=plan, window=4).windowed

    def test_one_shot_by_default(self, plan):
        assert not ServiceConfig(plan=plan).windowed


class TestWindowedCollector:
    def test_one_shot_collector_rejects_window_calls(self, plan):
        collector = ShardedCollector(ServiceConfig(plan=plan, n_shards=1))
        try:
            with pytest.raises(RuntimeError, match="windowed"):
                collector.advance_window("r1")
            with pytest.raises(RuntimeError, match="windowed"):
                collector.window_estimate()
        finally:
            collector.close()

    def test_advance_then_estimate(self, plan):
        config = ServiceConfig(plan=plan, n_shards=2, window=3)
        collector = ShardedCollector(config)
        try:
            for i in range(4):
                round_id = f"r{i}"
                ingest_round(collector, plan, round_id, seed=i)
                result = collector.advance_window(round_id)
                assert result["round"] == round_id
                assert result["tick"] == i + 1
            estimate = collector.window_estimate()
            assert set(estimate) == {
                "window", "ticks", "rounds", "estimates", "audit"
            }
            assert estimate["window"] == 3
            assert estimate["ticks"] == 4
            assert set(estimate["estimates"]) == {"income", "hours"}
            assert len(estimate["estimates"]["income"]) == 32
            audit = estimate["audit"]
            # Every advanced round is charged, not only the 3 in the window.
            assert audit["rounds"] == 4
            assert audit["cumulative_epsilon"] == pytest.approx(
                4 * audit["per_round_epsilon"]
            )
            stats = collector.stats()
            assert stats["windowed"] is True
            assert stats["window_ticks"] == 4
        finally:
            collector.close()

    def test_warm_ticks_after_the_first(self, plan):
        config = ServiceConfig(plan=plan, n_shards=1, window=2)
        collector = ShardedCollector(config)
        try:
            ingest_round(collector, plan, "r0", seed=0)
            first = collector.advance_window("r0")
            ingest_round(collector, plan, "r1", seed=1)
            second = collector.advance_window("r1")
            attrs_first = first["attributes"]
            attrs_second = second["attributes"]
            assert not any(a["warm"] for a in attrs_first.values())
            assert all(a["warm"] for a in attrs_second.values())
        finally:
            collector.close()

    def test_double_advance_rejected(self, plan):
        config = ServiceConfig(plan=plan, n_shards=1, window=2)
        collector = ShardedCollector(config)
        try:
            ingest_round(collector, plan, "r0", seed=0)
            collector.advance_window("r0")
            with pytest.raises(ValueError, match="already advanced"):
                collector.advance_window("r0")
        finally:
            collector.close()

    def test_advance_unknown_round_rejected(self, plan):
        config = ServiceConfig(plan=plan, n_shards=1, window=2)
        collector = ShardedCollector(config)
        try:
            with pytest.raises(LookupError):
                collector.advance_window("never-seen")
        finally:
            collector.close()

    def test_estimate_before_first_advance_rejected(self, plan):
        config = ServiceConfig(plan=plan, n_shards=1, window=2)
        collector = ShardedCollector(config)
        try:
            with pytest.raises(LookupError, match="advance"):
                collector.window_estimate()
        finally:
            collector.close()


def request(handle, method, path, *, body=b""):
    async def go():
        status, payload, _reader, writer = await http_request(
            handle.host, handle.port, method, path, body=body
        )
        writer.close()
        return status, json.loads(payload) if payload else {}

    return asyncio.run(go())


class TestWindowedHttp:
    @pytest.fixture()
    def service(self, plan):
        config = ServiceConfig(plan=plan, n_shards=2, window=3)
        with start_local_service(config) as handle:
            yield handle

    def upload(self, handle, plan, round_id, seed):
        for frame, _n in synthesize_frames(
            plan, round_id, 400, batch_size=200, rng=seed
        ):
            status, payload = request(
                handle, "POST", f"/v1/rounds/{round_id}/reports", body=frame
            )
            assert status == 202, payload

    def test_advance_and_stream_estimate(self, service, plan):
        for i in range(2):
            round_id = f"r{i}"
            self.upload(service, plan, round_id, seed=i)
            status, payload = request(
                service, "POST", f"/v1/rounds/{round_id}/advance"
            )
            assert status == 200, payload
            assert payload["round"] == round_id
            assert payload["tick"] == i + 1
        status, payload = request(service, "GET", "/v1/stream/estimate")
        assert status == 200
        assert payload["window"] == 3
        assert set(payload["estimates"]) == {"income", "hours"}
        assert payload["audit"]["rounds"] == 2

    def test_double_advance_is_conflict(self, service, plan):
        self.upload(service, plan, "r0", seed=0)
        status, _ = request(service, "POST", "/v1/rounds/r0/advance")
        assert status == 200
        status, payload = request(service, "POST", "/v1/rounds/r0/advance")
        assert status == 409
        assert "already advanced" in payload["error"]

    def test_advance_unknown_round_is_404(self, service):
        status, _ = request(service, "POST", "/v1/rounds/ghost/advance")
        assert status == 404

    def test_stream_estimate_before_advance_is_404(self, service):
        status, _ = request(service, "GET", "/v1/stream/estimate")
        assert status == 404

    def test_advance_is_post_only(self, service):
        status, _ = request(service, "GET", "/v1/rounds/r0/advance")
        assert status == 405

    def test_stream_estimate_is_get_only(self, service):
        status, _ = request(service, "POST", "/v1/stream/estimate")
        assert status == 405

    def test_one_shot_service_advance_is_400(self, plan):
        with start_local_service(ServiceConfig(plan=plan, n_shards=1)) as handle:
            self.upload(handle, plan, "r0", seed=0)
            status, _ = request(handle, "POST", "/v1/rounds/r0/advance")
            assert status == 400
            status, _ = request(handle, "GET", "/v1/stream/estimate")
            assert status == 400
