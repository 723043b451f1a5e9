"""End-to-end HTTP tests over real sockets against a local service."""

import asyncio
import json
import threading

import numpy as np
import pytest

from repro.protocol.frames import is_frame
from repro.service import ServiceConfig, start_local_service
from repro.service.loadgen import http_request, synthesize_frames
from repro.tasks import (
    AnalysisPlan,
    AttributeSpec,
    Distribution,
    Mean,
    Session,
)


@pytest.fixture(scope="module")
def plan() -> AnalysisPlan:
    return AnalysisPlan(
        epsilon=2.0,
        attributes=(
            AttributeSpec("age", low=0.0, high=100.0, d=32),
            AttributeSpec("income", low=0.0, high=1e5, d=32),
        ),
        tasks=(Distribution("age"), Mean("income")),
    )


@pytest.fixture()
def service(plan):
    with start_local_service(ServiceConfig(plan=plan, n_shards=2)) as handle:
        yield handle


def request(handle, method, path, *, body=b"", content_type="application/x-repro-frame"):
    """One client request on a fresh connection, from the test thread."""

    async def go():
        status, payload, _reader, writer = await http_request(
            handle.host, handle.port, method, path,
            body=body, content_type=content_type,
        )
        writer.close()
        return status, json.loads(payload) if payload else {}

    return asyncio.run(go())


def upload_round(handle, plan, round_id="r1", n_users=1200, seed=3):
    total = 0
    for frame, n in synthesize_frames(
        plan, round_id, n_users, batch_size=400, rng=seed
    ):
        status, payload = request(
            handle, "POST", f"/v1/rounds/{round_id}/reports", body=frame
        )
        assert status == 202, payload
        total += payload["accepted"]
    return total


class TestIngestRoutes:
    def test_frame_upload_accepted(self, service, plan):
        assert upload_round(service, plan) == 1200

    def test_jsonl_upload_accepted(self, service, plan):
        session = Session(plan)
        reports = session.privatize(
            {
                "age": np.linspace(1.0, 99.0, 60),
                "income": np.linspace(50.0, 9e4, 60),
            },
            rng=np.random.default_rng(0),
        )
        feed = session.to_feed(reports, "r1", format="jsonl")
        status, payload = request(
            service, "POST", "/v1/rounds/r1/reports",
            body=feed.encode("utf-8"), content_type="application/jsonlines",
        )
        assert status == 202
        assert payload["accepted"] == 60

    def test_empty_body_is_400(self, service):
        status, payload = request(service, "POST", "/v1/rounds/r1/reports")
        assert status == 400
        assert "empty" in payload["error"]

    def test_garbage_frame_is_400(self, service):
        status, payload = request(
            service, "POST", "/v1/rounds/r1/reports", body=b"\x00\x01not a frame"
        )
        assert status == 400

    def test_round_mismatch_is_400(self, service, plan):
        frame, _ = next(synthesize_frames(plan, "r1", 50, batch_size=50, rng=1))
        status, payload = request(
            service, "POST", "/v1/rounds/other/reports", body=frame
        )
        assert status == 400
        assert "round" in payload["error"]

    def test_v1_jsonl_line_is_400(self, service):
        """The v1 Square-Wave line is no longer decoded, even for a planned
        float attribute; nothing of the upload is accepted."""
        line = '{"round_id":"r1","value":0.25,"version":1,"attr":"age"}'
        status, payload = request(
            service, "POST", "/v1/rounds/r1/reports",
            body=line.encode("utf-8"), content_type="application/jsonlines",
        )
        assert status == 400
        assert "line 1: unsupported protocol version 1" in payload["error"]
        _, statz = request(service, "GET", "/statz")
        assert statz["uploads_accepted"] == 0
        assert sum(s["reports_ingested"] for s in statz["shards"]) == 0

    def test_get_reports_is_405(self, service):
        status, _ = request(service, "GET", "/v1/rounds/r1/reports")
        assert status == 405

    def test_unknown_route_is_404(self, service):
        status, _ = request(service, "GET", "/v2/nope")
        assert status == 404
        status, _ = request(service, "POST", "/v1/rounds/r1/unknown", body=b"x")
        assert status == 404

    def test_oversized_body_is_413(self, plan):
        config = ServiceConfig(plan=plan, max_body_bytes=1024)
        with start_local_service(config) as handle:
            status, payload = request(
                handle, "POST", "/v1/rounds/r1/reports", body=b"x" * 2048
            )
            assert status == 413
            assert "upload limit" in payload["error"]


class TestAdmissionPlacement:
    def test_admission_on_the_loop_and_jsonl_parse_off_it(
        self, service, plan, monkeypatch
    ):
        """Frames parse and every upload is admitted on the loop thread;
        a JSON-lines decode never runs there."""
        collector = service.collector
        seen: list[tuple[str, threading.Thread]] = []
        real_parse, real_submit = collector.parse, collector.submit

        def parse(data, round_id):
            kind = "frame" if isinstance(data, bytes) and is_frame(data) else "jsonl"
            seen.append((kind, threading.current_thread()))
            return real_parse(data, round_id)

        def submit(upload, round_id, *, key=None):
            seen.append(("admit", threading.current_thread()))
            return real_submit(upload, round_id, key=key)

        monkeypatch.setattr(collector, "parse", parse)
        monkeypatch.setattr(collector, "submit", submit)
        frames = [
            frame
            for frame, _n in synthesize_frames(plan, "r1", 120, batch_size=60, rng=2)
        ]
        session = Session(plan)
        values = {"age": np.linspace(1.0, 99.0, 40), "income": np.linspace(5.0, 9e4, 40)}
        feeds = [
            session.to_feed(
                session.privatize(values, rng=np.random.default_rng(seed)),
                "r1",
                format="jsonl",
            ).encode("utf-8")
            for seed in (4, 5)
        ]

        async def upload(body, content_type, headers=None):
            status, _payload, _reader, writer = await http_request(
                service.host, service.port, "POST", "/v1/rounds/r1/reports",
                body=body, content_type=content_type, headers=headers,
            )
            writer.close()
            return status

        uploads = [
            (frames[0], "application/x-repro-frame", {"Idempotency-Key": "f0"}),
            (frames[1], "application/x-repro-frame", None),  # keyed by digest
            (feeds[0], "application/jsonlines", None),  # decoded to text first
            (feeds[1], "application/octet-stream", None),  # not a frame: bytes
        ]
        for body, content_type, headers in uploads:
            assert asyncio.run(upload(body, content_type, headers)) == 202
        loop_thread = service._thread
        # A keyed frame is parsed inside submit; every other upload is
        # parsed first, then admitted.
        assert [kind for kind, _ in seen] == [
            "admit", "frame",
            "frame", "admit",
            "jsonl", "admit",
            "jsonl", "admit",
        ]
        for kind, thread in seen:
            if kind == "jsonl":
                assert thread is not loop_thread
                assert thread.name.startswith("repro-parse")
            else:
                assert thread is loop_thread


class TestEstimateRoute:
    def test_estimate_after_uploads(self, service, plan):
        upload_round(service, plan, n_users=1500)
        status, payload = request(service, "POST", "/v1/rounds/r1/estimate")
        assert status == 200
        assert payload["round"] == "r1"
        assert payload["errors"] == {}
        assert len(payload["estimates"]["age"]) == 32
        assert payload["report"] is not None
        assert sum(payload["n_reports"].values()) == 1500

    def test_estimate_matches_direct_collector(self, service, plan):
        upload_round(service, plan, n_users=800, seed=9)
        _, over_http = request(service, "GET", "/v1/rounds/r1/estimate")
        direct = service.collector.estimate("r1")
        assert over_http["estimates"] == direct["estimates"]

    def test_unknown_round_is_404(self, service):
        status, payload = request(service, "GET", "/v1/rounds/ghost/estimate")
        assert status == 404
        assert "ghost" in payload["error"]

    def test_wrong_method_is_405(self, service):
        status, _ = request(service, "PUT", "/v1/rounds/r1/estimate")
        assert status == 405


class TestObservabilityRoutes:
    def test_healthz(self, service, plan):
        status, payload = request(service, "GET", "/healthz")
        assert status == 200
        assert payload == {"status": "ok", "rounds": []}
        upload_round(service, plan, n_users=400)
        # A 202 means folded: the round is known at once.
        _, payload = request(service, "GET", "/healthz")
        assert payload["rounds"] == ["r1"]

    def test_statz_reflects_ingest(self, service, plan):
        upload_round(service, plan, n_users=1000)
        service.collector.flush()
        status, payload = request(service, "GET", "/statz")
        assert status == 200
        assert payload["n_shards"] == 2
        shards = payload["shards"]
        assert sum(s["reports_ingested"] for s in shards) == 1000
        assert all(s["ingest_errors"] == 0 for s in shards)
        request(service, "POST", "/v1/rounds/r1/estimate")
        _, payload = request(service, "GET", "/statz")
        assert payload["merges"] == 1
        assert payload["merge_ms_last"] >= 0.0

    def test_healthz_post_is_405(self, service):
        status, _ = request(service, "POST", "/healthz", body=b"{}")
        assert status == 405


class TestConnectionBehavior:
    def test_keep_alive_reuses_one_connection(self, service, plan):
        frames = list(synthesize_frames(plan, "r1", 300, batch_size=100, rng=5))

        async def go():
            reader = writer = None
            statuses = []
            for frame, _ in frames:
                status, _payload, reader, writer = await http_request(
                    service.host, service.port, "POST",
                    "/v1/rounds/r1/reports", body=frame,
                    reader=reader, writer=writer,
                )
                statuses.append(status)
            status, _payload, reader, writer = await http_request(
                service.host, service.port, "GET", "/healthz",
                reader=reader, writer=writer,
            )
            statuses.append(status)
            writer.close()
            return statuses

        assert asyncio.run(go()) == [202, 202, 202, 200]

    def test_malformed_request_line_is_400(self, service):
        async def go():
            reader, writer = await asyncio.open_connection(
                service.host, service.port
            )
            writer.write(b"NONSENSE\r\n\r\n")
            await writer.drain()
            line = await reader.readline()
            writer.close()
            return line

        assert b"400" in asyncio.run(go())


class TestBackpressureOverHttp:
    def test_overloaded_service_returns_429_with_retry_after(self, plan):
        """queue_depth JSON-lines uploads wait for a held parse executor;
        the next gets a 429 with Retry-After and leaves nothing behind, so
        its retry under the same key is admitted fresh (202)."""
        depth = 2
        session = Session(plan)
        rng = np.random.default_rng(7)
        feeds = []
        for _ in range(depth + 1):
            reports = session.privatize(
                {
                    "age": rng.uniform(1.0, 99.0, 80),
                    "income": rng.uniform(50.0, 9e4, 80),
                },
                rng=rng,
            )
            feeds.append(session.to_feed(reports, "r1", format="jsonl").encode())
        config = ServiceConfig(plan=plan, n_shards=1, queue_depth=depth)
        with start_local_service(config) as handle:
            service = handle.service

            async def call(method, path, body=b"", key=None):
                response_headers: dict[str, str] = {}
                status, payload, _reader, writer = await http_request(
                    handle.host, handle.port, method, path,
                    body=body, content_type="application/jsonlines",
                    headers={"Idempotency-Key": key} if key else None,
                    response_headers=response_headers,
                )
                writer.close()
                return status, json.loads(payload), response_headers

            def post(index):
                path = "/v1/rounds/r1/reports"
                return call("POST", path, feeds[index], key=f"k{index}")

            async def backlog_full():
                while service._parse_backlog < depth:
                    await asyncio.sleep(0.001)

            async def scenario():
                release = threading.Event()
                held = service._parse_pool.submit(release.wait)
                try:
                    waiting = [asyncio.ensure_future(post(i)) for i in range(depth)]
                    await asyncio.wait_for(backlog_full(), timeout=10.0)
                    refused = await post(depth)
                    _, statz, _ = await call("GET", "/statz")
                finally:
                    release.set()
                held.result(timeout=10.0)
                admitted = await asyncio.wait_for(
                    asyncio.gather(*waiting), timeout=10.0
                )
                retried = await post(depth)
                return refused, statz, admitted, retried

            refused, statz, admitted, retried = asyncio.run(scenario())
            status, payload, headers = refused
            assert status == 429
            assert headers["retry-after"] == "1"
            assert "parse" in payload["error"]
            # The refused upload left nothing behind.
            assert statz["uploads_accepted"] == 0
            assert statz["dedup"]["entries"] == 0
            assert statz["parse_backlog"] == depth
            assert [status for status, _, _ in admitted] == [202] * depth
            assert retried[0] == 202  # admitted fresh, not a replay
            accepted = sum(body["accepted"] for _, body, _ in [*admitted, retried])
            assert accepted == 80 * (depth + 1)
            status, statz = request(handle, "GET", "/statz")
            assert statz["parse_backlog"] == 0
            assert statz["parse_backlog_max"] == depth
            assert statz["uploads_accepted"] == depth + 1
            status, payload = request(handle, "GET", "/v1/rounds/r1/estimate")
            assert status == 200
            assert payload["errors"] == {}
            assert sum(payload["n_reports"].values()) == accepted


class TestBoundedMemoryOverHttp:
    def test_streamed_uploads_never_materialize_the_feed(self, plan):
        """Ingest-tier memory stays bounded while a feed much larger than
        the queue capacity streams through the HTTP front end."""
        import tracemalloc

        config = ServiceConfig(plan=plan, n_shards=2, queue_depth=4)
        with start_local_service(config) as handle:
            total_bytes = 0
            tracemalloc.start()
            tracemalloc.reset_peak()
            for frame, _ in synthesize_frames(
                plan, "r1", 400_000, batch_size=10_000, rng=11
            ):
                total_bytes += len(frame)
                status, _payload = request(
                    handle, "POST", "/v1/rounds/r1/reports", body=frame
                )
                assert status == 202
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            assert total_bytes > 3_000_000
            # A buffering server would hold the whole decoded feed; the
            # streaming path's peak stays under one full copy even counting
            # client-side frame synthesis.
            assert peak < total_bytes
            status, payload = request(handle, "GET", "/v1/rounds/r1/estimate")
            assert status == 200
            assert sum(payload["n_reports"].values()) == 400_000
