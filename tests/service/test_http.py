"""End-to-end HTTP tests over real sockets against a local service."""

import asyncio
import json
import threading

import numpy as np
import pytest

from repro.protocol.frames import FRAME_MAGIC, encode_frame
from repro.service import ServiceConfig, start_local_service
from repro.service.loadgen import http_request, synthesize_frames
from repro.tasks import (
    AnalysisPlan,
    AttributeSpec,
    Distribution,
    Mean,
    Session,
)
from tests.service.test_collector import MISMATCHED_BLOCKS, mixed_plan


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


def jsonl_feed(plan, n_users=60, seed=0) -> bytes:
    """One JSON-lines feed of ``n_users`` reports per attribute."""
    session = Session(plan)
    reports = session.privatize(
        {
            "age": np.linspace(1.0, 99.0, n_users),
            "income": np.linspace(50.0, 9e4, n_users),
        },
        rng=np.random.default_rng(seed),
    )
    return session.to_feed(reports, "r1", format="jsonl").encode("utf-8")


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

    @pytest.mark.parametrize(
        "content_type", ["application/jsonlines", "application/x-repro-frame", ""]
    )
    def test_jsonl_upload_is_415(self, service, plan, content_type):
        """JSON lines are an offline format: the service refuses them whole,
        whatever their Content-Type, and names the conversion."""
        _, before = request(service, "GET", "/statz")
        status, payload = request(
            service, "POST", "/v1/rounds/r1/reports",
            body=jsonl_feed(plan), content_type=content_type,
        )
        assert status == 415
        assert "python -m repro pack --format frame" in payload["error"]
        _, after = request(service, "GET", "/statz")
        assert after == before

    @pytest.mark.parametrize("content_type", ["application/jsonlines", "text/plain"])
    def test_frame_with_other_content_type_is_415(self, service, plan, content_type):
        frame, _ = next(synthesize_frames(plan, "r1", 50, batch_size=50, rng=1))
        _, before = request(service, "GET", "/statz")
        status, payload = request(
            service, "POST", "/v1/rounds/r1/reports",
            body=frame, content_type=content_type,
        )
        assert status == 415
        assert "Content-Type" in payload["error"]
        _, after = request(service, "GET", "/statz")
        assert after == before
        # The same bytes under a frame Content-Type are admitted fresh.
        status, payload = request(
            service, "POST", "/v1/rounds/r1/reports",
            body=frame, content_type="application/octet-stream",
        )
        assert (status, payload["accepted"]) == (202, 50)

    def test_empty_body_is_400(self, service):
        status, payload = request(service, "POST", "/v1/rounds/r1/reports")
        assert status == 400
        assert "empty" in payload["error"]

    def test_garbage_frame_is_400(self, service):
        status, payload = request(
            service, "POST", "/v1/rounds/r1/reports",
            body=FRAME_MAGIC + b"\x00\x01not a frame",
        )
        assert status == 400

    def test_round_mismatch_is_400(self, service, plan):
        frame, _ = next(synthesize_frames(plan, "r1", 50, batch_size=50, rng=1))
        status, payload = request(
            service, "POST", "/v1/rounds/other/reports", body=frame
        )
        assert status == 400
        assert "round" in payload["error"]

    @pytest.mark.parametrize("attr, codec, reports", MISMATCHED_BLOCKS)
    def test_mechanism_mismatch_is_400(self, attr, codec, reports):
        frame = encode_frame("r1", reports, codec, attr=attr)
        with start_local_service(ServiceConfig(plan=mixed_plan())) as handle:
            status, payload = request(
                handle, "POST", "/v1/rounds/r1/reports", body=frame
            )
            assert status == 400
            assert f"{codec!r} payloads" in payload["error"]
            _, statz = request(handle, "GET", "/statz")
            assert statz["uploads_accepted"] == 0

    def test_v1_jsonl_line_is_415(self, service):
        """A v1 Square-Wave line is not a frame either; nothing of the upload
        is accepted."""
        line = '{"round_id":"r1","value":0.25,"version":1,"attr":"age"}'
        status, payload = request(
            service, "POST", "/v1/rounds/r1/reports",
            body=line.encode("utf-8"), content_type="application/jsonlines",
        )
        assert status == 415
        assert "RPF2" in payload["error"]
        _, statz = request(service, "GET", "/statz")
        assert statz["uploads_accepted"] == 0
        assert sum(s["reports_ingested"] for s in statz["shards"]) == 0

    def test_refused_uploads_leave_nothing_behind(self, plan, tmp_path):
        """A 400, a 409 and a 415 keep no accepted upload, report, ledger
        entry or journal byte, so a refused key's real upload lands fresh
        and the estimate counts every acknowledged report once."""
        (first, n_first), (second, n_second) = synthesize_frames(
            plan, "r1", 200, batch_size=100, rng=4
        )
        config = ServiceConfig(plan=plan, n_shards=2, journal_dir=tmp_path / "wal")
        with start_local_service(config) as handle:

            def post(body, key, content_type="application/x-repro-frame"):
                async def go():
                    status, _payload, _reader, writer = await http_request(
                        handle.host, handle.port, "POST", "/v1/rounds/r1/reports",
                        body=body, content_type=content_type,
                        headers={"Idempotency-Key": key},
                    )
                    writer.close()
                    return status

                return asyncio.run(go())

            def kept(statz):
                return (
                    statz["uploads_accepted"],
                    [shard["reports_ingested"] for shard in statz["shards"]],
                    statz["dedup"]["entries"],
                    statz["journal"]["bytes"],
                )

            assert post(first, "k0") == 202
            _, before = request(handle, "GET", "/statz")
            refused = [
                (first[: len(first) // 2], "k1", "application/x-repro-frame", 400),
                (second, "k0", "application/x-repro-frame", 409),
                (second, "k1", "application/jsonlines", 415),
            ]
            for body, key, content_type, expected in refused:
                assert post(body, key, content_type) == expected
            _, after = request(handle, "GET", "/statz")
            assert kept(after) == kept(before)
            assert after["dedup"]["conflicts"] == 1
            assert post(second, "k1") == 202
            status, estimate = request(handle, "GET", "/v1/rounds/r1/estimate")
            assert status == 200
            assert sum(estimate["n_reports"].values()) == n_first + n_second

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
    def test_frames_parse_and_admit_on_the_loop(self, service, plan, monkeypatch):
        """Every frame is parsed, then admitted, on the loop thread. A body
        under a non-frame Content-Type never reaches ``parse``, and
        ``parse`` refuses one without the frame magic, so neither is
        admitted."""
        collector = service.collector
        seen: list[tuple[str, threading.Thread]] = []
        real_parse, real_submit = collector.parse, collector.submit

        def parse(data, round_id):
            seen.append(("parse", threading.current_thread()))
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

        async def upload(body, content_type, headers=None):
            status, _payload, _reader, writer = await http_request(
                service.host, service.port, "POST", "/v1/rounds/r1/reports",
                body=body, content_type=content_type, headers=headers,
            )
            writer.close()
            return status

        uploads = [
            (frames[0], "application/x-repro-frame", {"Idempotency-Key": "f0"}, 202),
            (frames[1], "application/x-repro-frame", None, 202),  # keyed by digest
            (jsonl_feed(plan), "application/jsonlines", None, 415),
            (jsonl_feed(plan, seed=1), "application/octet-stream", None, 415),
        ]
        for body, content_type, headers, expected in uploads:
            assert asyncio.run(upload(body, content_type, headers)) == expected
        assert [kind for kind, _ in seen] == [
            "parse", "admit", "parse", "admit", "parse",
        ]
        assert all(thread is service._thread for _, thread in seen)


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


class TestBoundedMemoryOverHttp:
    def test_streamed_uploads_never_materialize_the_feed(self, plan):
        """Ingest-tier memory stays bounded while a feed much larger than
        the queue capacity streams through the HTTP front end."""
        import tracemalloc

        config = ServiceConfig(plan=plan, n_shards=2)
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
