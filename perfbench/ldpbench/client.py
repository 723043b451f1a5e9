"""The load generator's own stdlib HTTP/1.1 client.

Deliberately independent of ``repro.service.loadgen``, so a change to the
program's load generator cannot change the load. One :class:`Connection`
is one keep-alive socket; every request is timed from writing the request
to having parsed the response.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Any

#: Backoff after a refused (429) attempt, doubled per retry of the same request.
RETRY_BASE_S = 0.002
RETRY_ATTEMPTS = 8


@dataclass
class Sample:
    """One attempt: what was sent, when, and what came back."""

    kind: str
    corr: str
    start_ns: int
    end_ns: int
    status: int  # 0 when the connection dropped
    body: Any = None

    @property
    def ms(self) -> float:
        return (self.end_ns - self.start_ns) / 1e6


@dataclass
class Tally:
    """Attempts, failed attempts, and the first few reasons."""

    attempts: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(why)


class Connection:
    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def _open(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(self.host, self.port)

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except ConnectionError:
                pass
        self._reader = self._writer = None

    async def request(
        self, kind: str, corr: str, method: str, path: str,
        body: bytes = b"", headers: dict[str, str] | None = None,
    ) -> Sample:
        """One request; a dropped connection yields status 0 and is reopened next time."""
        if self._writer is None:
            await self._open()
        assert self._reader is not None and self._writer is not None
        extra = "".join(f"{k}: {v}\r\n" for k, v in (headers or {}).items())
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: {self.host}:{self.port}\r\n"
            f"Content-Type: application/x-repro-frame\r\nContent-Length: {len(body)}\r\n"
            f"{extra}Connection: keep-alive\r\n\r\n"
        ).encode("ascii")
        start = time.perf_counter_ns()
        try:
            self._writer.write(head + body)
            await self._writer.drain()
            status_line = await self._reader.readline()
            if not status_line:
                raise ConnectionResetError("connection closed before the response")
            status = int(status_line.split(b" ", 2)[1])
            length = 0
            while True:
                line = await self._reader.readline()
                if line in (b"\r\n", b""):
                    break
                name, _, value = line.partition(b":")
                if name.strip().lower() == b"content-length":
                    length = int(value)
            payload = await self._reader.readexactly(length) if length else b""
            parsed = json.loads(payload) if payload else None
        except (ConnectionError, asyncio.IncompleteReadError, OSError):
            await self.close()
            return Sample(kind, corr, start, time.perf_counter_ns(), 0)
        return Sample(kind, corr, start, time.perf_counter_ns(), status, parsed)


async def call(
    conn: Connection, tally: Tally, samples: list[Sample], kind: str, corr: str,
    method: str, path: str, body: bytes = b"", headers: dict[str, str] | None = None,
) -> Sample | None:
    """Send until a 2xx arrives; every 429, drop or other status is one failed attempt.

    Returns the successful sample, or ``None`` once the retry budget is spent
    or a non-retryable status came back.
    """
    for attempt in range(RETRY_ATTEMPTS):
        sample = await conn.request(kind, corr, method, path, body, headers)
        samples.append(sample)
        tally.attempts += 1
        if 200 <= sample.status < 300:
            return sample
        if sample.status == 429:
            tally.fail(f"{kind} {corr}: 429")
        elif sample.status == 0:
            tally.fail(f"{kind} {corr}: connection dropped")
        else:
            tally.fail(f"{kind} {corr}: HTTP {sample.status} {sample.body}")
            return None
        await asyncio.sleep(RETRY_BASE_S * 2**attempt)
    # Retries exhausted: the last attempt counted as failed, and the lost
    # request fails the workload's output check.
    return None
