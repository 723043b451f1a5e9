"""Hardening regressions: slow-loris, oversized headers, idempotent retries.

Real sockets against a local service, same harness shape as
``test_http.py`` — but these clients misbehave on purpose: they stall
mid-request, send absurd headers, replay uploads, and drop connections,
and the service must degrade per-connection (408/431, replay acks)
without stalling the well-behaved peers sharing the listener.
"""

import asyncio
import json
import time

import pytest

from repro.service import ServiceConfig, start_local_service
from repro.service.loadgen import http_request, synthesize_frames
from repro.tasks import AnalysisPlan, AttributeSpec, Distribution, Mean


@pytest.fixture(scope="module")
def plan() -> AnalysisPlan:
    return AnalysisPlan(
        epsilon=2.0,
        attributes=(
            AttributeSpec("age", low=0.0, high=100.0, d=16),
            AttributeSpec("income", low=0.0, high=1e5, d=16),
        ),
        tasks=(Distribution("age"), Mean("income")),
    )


@pytest.fixture()
def strict_service(plan):
    config = ServiceConfig(
        plan=plan,
        n_shards=2,
        read_timeout=0.3,
        max_header_bytes=2048,
    )
    with start_local_service(config) as handle:
        yield handle


def one_frame(plan, round_id="r1", n_users=300, seed=5):
    [(frame, n)] = list(
        synthesize_frames(plan, round_id, n_users, batch_size=n_users, rng=seed)
    )
    return frame, n


async def raw_exchange(host, port, payload: bytes, *, read_timeout=5.0):
    """Send raw bytes, return the status line (or b'' if the peer closed)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(payload)
        await writer.drain()
        return await asyncio.wait_for(reader.readline(), timeout=read_timeout)
    finally:
        writer.close()


class TestSlowLoris:
    def test_stalled_request_gets_408_and_close(self, strict_service):
        async def go():
            reader, writer = await asyncio.open_connection(
                strict_service.host, strict_service.port
            )
            try:
                writer.write(b"POST /v1/rounds/r1/reports HTTP/1.1\r\n")
                await writer.drain()
                # ... and then never finish the headers.
                status = await asyncio.wait_for(reader.readline(), timeout=5.0)
                head = await asyncio.wait_for(
                    reader.readuntil(b"\r\n\r\n"), timeout=5.0
                )
                return status, head
            finally:
                writer.close()

        status, head = asyncio.run(go())
        assert b"408" in status
        assert b"connection: close" in head.lower()

    def test_loris_does_not_stall_healthy_peers(self, strict_service, plan):
        frame, n = one_frame(plan)

        async def go():
            # Park a handful of stalled connections on the listener.
            loris = [
                await asyncio.open_connection(
                    strict_service.host, strict_service.port
                )
                for _ in range(8)
            ]
            for _reader, writer in loris:
                writer.write(b"POST /v1/rounds/r1/reports HTTP/1.1\r\n")
                await writer.drain()
            try:
                started = time.perf_counter()
                status, payload, _reader, writer = await http_request(
                    strict_service.host,
                    strict_service.port,
                    "POST",
                    "/v1/rounds/r1/reports",
                    body=frame,
                )
                elapsed = time.perf_counter() - started
                writer.close()
                return status, json.loads(payload), elapsed
            finally:
                for _reader, writer in loris:
                    writer.close()

        status, payload, elapsed = asyncio.run(go())
        assert status == 202
        assert payload["accepted"] == n
        # The healthy upload must not have waited out the 0.3s loris timeout.
        assert elapsed < 0.3


class TestHeaderGuards:
    def test_oversized_header_block_gets_431(self, strict_service):
        huge = b"X-Filler: " + b"a" * 8192 + b"\r\n"
        head = (
            b"GET /healthz HTTP/1.1\r\n"
            b"Host: t\r\n" + huge + b"Content-Length: 0\r\n\r\n"
        )
        status = asyncio.run(
            raw_exchange(strict_service.host, strict_service.port, head)
        )
        assert b"431" in status

    def test_normal_headers_unaffected(self, strict_service):
        status = asyncio.run(
            raw_exchange(
                strict_service.host,
                strict_service.port,
                b"GET /healthz HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n",
            )
        )
        assert b"200" in status


async def exchange_head(host, port, payload: bytes, *, read_timeout=5.0):
    """Send raw bytes; return (status line, response head) as the peer sent them."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(payload)
        await writer.drain()
        status = await asyncio.wait_for(reader.readline(), timeout=read_timeout)
        head = await asyncio.wait_for(
            reader.readuntil(b"\r\n\r\n"), timeout=read_timeout
        )
        return status, head
    finally:
        writer.close()


class TestContentLength:
    """A malformed length is a 400 that closes the connection, never a
    handler crash that leaves the client without a status line."""

    @pytest.mark.parametrize(
        "value",
        [b"abc", b"1e3", b"-5", b"+5", b" 0x10", b"", b"1 2", b"\xb2"],
        ids=["letters", "exponent", "negative", "plus", "hex", "empty",
             "inner-space", "superscript-two"],
    )
    def test_malformed_content_length_is_400_and_close(
        self, strict_service, value
    ):
        head = (
            b"POST /v1/rounds/r1/reports HTTP/1.1\r\nHost: t\r\n"
            b"Content-Length: " + value + b"\r\n\r\nxyz"
        )
        status, response = asyncio.run(
            exchange_head(strict_service.host, strict_service.port, head)
        )
        assert status.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in response
        # The listener keeps serving other connections.
        assert b"200" in asyncio.run(
            raw_exchange(
                strict_service.host,
                strict_service.port,
                b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n",
            )
        )

    def test_disagreeing_content_lengths_are_400(self, strict_service):
        head = (
            b"POST /v1/rounds/r1/reports HTTP/1.1\r\nHost: t\r\n"
            b"Content-Length: 3\r\nContent-Length: 4\r\n\r\nxyzw"
        )
        status, response = asyncio.run(
            exchange_head(strict_service.host, strict_service.port, head)
        )
        assert status.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in response

    def test_repeated_equal_content_length_is_accepted(self, strict_service):
        head = (
            b"GET /healthz HTTP/1.1\r\nHost: t\r\n"
            b"Content-Length: 0\r\nContent-Length: 0\r\n\r\n"
        )
        status = asyncio.run(
            raw_exchange(strict_service.host, strict_service.port, head)
        )
        assert status.startswith(b"HTTP/1.1 200 ")

    def test_digit_strings_longer_than_int_parsing_allows(self, plan):
        """Past 4300 digits ``int()`` raises; the default 32 KiB head cap
        admits such a header, so the length check must not call it."""
        with start_local_service(ServiceConfig(plan=plan, n_shards=1)) as handle:

            def status_for(value: bytes) -> bytes:
                return asyncio.run(
                    raw_exchange(
                        handle.host,
                        handle.port,
                        b"GET /healthz HTTP/1.1\r\nHost: t\r\n"
                        b"Content-Length: " + value + b"\r\n\r\n",
                    )
                )

            assert status_for(b"9" * 5000).startswith(b"HTTP/1.1 413 ")
            assert status_for(b"0" * 5000).startswith(b"HTTP/1.1 200 ")


class TestIdempotentRetries:
    def test_duplicate_upload_is_replay_acked_not_reingested(
        self, strict_service, plan
    ):
        frame, n = one_frame(plan)

        async def send(key):
            status, payload, _reader, writer = await http_request(
                strict_service.host,
                strict_service.port,
                "POST",
                "/v1/rounds/r1/reports",
                body=frame,
                headers={"Idempotency-Key": key},
            )
            writer.close()
            return status, json.loads(payload)

        status, payload = asyncio.run(send("upload-1"))
        assert status == 202 and payload["accepted"] == n
        for _ in range(3):  # paranoid client retries the same upload
            status, payload = asyncio.run(send("upload-1"))
            assert status == 200  # replay ack
            assert payload["accepted"] == n
            assert payload["replayed"] is True
        strict_service.collector.flush()
        ingested = sum(
            shard.stats()["reports_ingested"]
            for shard in strict_service.collector.shards
        )
        assert ingested == n

    def test_same_key_different_payload_conflicts(self, strict_service, plan):
        frame_a, _ = one_frame(plan, seed=5)
        frame_b, _ = one_frame(plan, seed=6)

        async def send(body):
            status, payload, _reader, writer = await http_request(
                strict_service.host,
                strict_service.port,
                "POST",
                "/v1/rounds/r1/reports",
                body=body,
                headers={"Idempotency-Key": "clash"},
            )
            writer.close()
            return status, json.loads(payload)

        status, _ = asyncio.run(send(frame_a))
        assert status == 202
        status, payload = asyncio.run(send(frame_b))
        assert status == 409
        assert "error" in payload

    def test_unkeyed_duplicates_dedup_by_content_digest(
        self, strict_service, plan
    ):
        frame, n = one_frame(plan, round_id="r2", seed=9)

        async def send():
            status, payload, _reader, writer = await http_request(
                strict_service.host,
                strict_service.port,
                "POST",
                "/v1/rounds/r2/reports",
                body=frame,
            )
            writer.close()
            return status, json.loads(payload)

        first, payload = asyncio.run(send())
        assert first == 202 and payload["accepted"] == n
        second, payload = asyncio.run(send())
        assert second == 200 and payload["replayed"] is True
        strict_service.collector.flush()
        estimates = strict_service.collector.estimate("r2")
        # Each user reports on one sampled attribute; the duplicate must
        # not have doubled anything.
        assert sum(estimates["n_reports"].values()) == n
