"""Asyncio HTTP/1.1 front end for the sharded collection service.

A deliberately small server on ``asyncio.start_server`` — the wire
surface is four routes, so a framework would be all dependency and no
leverage:

* ``POST /v1/rounds/{round}/reports`` — upload one RPF2 frame
  (``application/x-repro-frame`` / ``application/octet-stream``).
  ``202`` with the accepted report count, ``200`` when an
  ``Idempotency-Key`` (or identical content) replays an already-accepted
  upload, ``400`` on a malformed or mismatched frame, ``409`` when an
  idempotency key is reused for different bytes, ``413`` past the body
  limit, ``415`` for a body that is not a frame (JSON lines included:
  ``python -m repro pack --format frame`` builds frames); a refused
  upload leaves nothing behind, so its retry is admitted fresh. ``503``
  once a journal write has failed: nothing more is admitted until a
  restart, whose recovery settles the failed upload. Every upload is
  idempotent: the key is the ``Idempotency-Key`` header when given, else
  the body's content digest — so a client that times out and retries can
  never double-ingest.
* ``POST`` (or ``GET``) ``/v1/rounds/{round}/estimate`` — merge and
  solve the round. ``200`` with per-attribute estimates/errors and
  the plan-level report, ``404`` for a round no upload ever touched.
* ``POST /v1/rounds/{round}/advance`` — windowed deployments only: fold
  the completed round into the continuous window
  (:meth:`~repro.service.core.ShardedCollector.advance_window`). ``200``
  with the tick result, ``404`` for an untouched round, ``409`` when the
  round was already advanced, ``400`` when the service is one-shot,
  ``503`` once a journal write has failed (until a restart).
* ``GET /v1/stream/estimate`` — latest windowed estimates plus the
  stream's cumulative privacy audit; ``404`` before the first advance.
* ``GET /healthz`` — liveness.
* ``GET /statz`` — per-shard counters, merge latencies.

Uploads are admitted on the event loop itself: the loop's single thread
serializes admission (ledger lookup, routing, journal append, commit
record, the fold of every block and the checkpoint cut). Admission never
waits on a checkpoint write — the collector's checkpoint writer thread
does every checkpoint fsync — but under ``journal_fsync="always"`` its
per-record fsync runs on the loop. A frame is parsed inline, reading
only its header, and folded there: hashing and folding the body are
what cost. One 8 MB frame (the default body cap, 1M reports) holds the
loop for about 32 ms, about 60 ms with the journal on (measured on a
2-core host). Nothing on the write path waits in a queue, so no upload
is refused for load. The merge/solve of an estimate runs on a separate
solve executor so a long EM run cannot stall ingest. ``repro.devtools``
rule SVC001 lints what may run on the loop.

Hardening: each request's head+body must arrive within
``config.read_timeout`` seconds (``408`` and the connection closes — a
slow-loris client cannot pin a connection slot), request heads larger
than ``config.max_header_bytes`` get ``431``, a ``Content-Length`` that
is not plain ASCII digits (or two that disagree) gets ``400``, and
oversized bodies are rejected with ``413`` before they are read. A
configured :class:`~repro.service.faults.FaultPlan` can drop connections
(``http.drop``) or delay responses (``http.delay``) for chaos testing.
"""

from __future__ import annotations

import asyncio
import json
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Awaitable, Callable

from repro.service.config import ServiceConfig
from repro.service.core import (
    JournalFailedError,
    NotAFrameError,
    ShardedCollector,
)
from repro.service.resilience import IdempotencyConflictError

__all__ = ["ReportService", "ServiceHandle", "serve", "start_local_service"]

_FRAME_TYPES = ("application/x-repro-frame", "application/octet-stream")


class _HttpError(Exception):
    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    413: "Payload Too Large",
    415: "Unsupported Media Type",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


def _response(status: int, payload: dict[str, Any], *, close: bool = False) -> bytes:
    body = json.dumps(payload).encode("utf-8")
    headers = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        "Connection: close" if close else "Connection: keep-alive",
    ]
    return ("\r\n".join(headers) + "\r\n\r\n").encode("ascii") + body


def _content_length(values: set[str], cap: int) -> int:
    """The request's body length from its ``Content-Length`` values.

    ``400`` unless there is at most one distinct value made of ASCII
    digits; ``413`` past ``cap``.
    """
    if len(values) > 1:
        # RFC 9110 §8.6: disagreeing lengths leave the body unframed.
        raise _HttpError(400, "conflicting Content-Length headers")
    raw = next(iter(values), "0")
    if not (raw.isascii() and raw.isdigit()):
        raise _HttpError(400, f"malformed Content-Length {raw[:32]!r}")
    digits = raw.lstrip("0") or "0"
    # Count digits first: int() refuses very long digit strings.
    if len(digits) > len(str(cap)) or int(digits) > cap:
        raise _HttpError(
            413, f"body of {digits[:32]} bytes exceeds the {cap}-byte upload limit"
        )
    return int(digits)


class ReportService:
    """The asyncio server wrapping one :class:`ShardedCollector`."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.collector = ShardedCollector(config)
        # Solves run elsewhere so a slow merge/EM never blocks ingest.
        self._solve_pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-solve"
        )
        self._server: asyncio.AbstractServer | None = None
        self._conn_tasks: set[asyncio.Task[None]] = set()
        self._conn_writers: set[asyncio.StreamWriter] = set()

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> tuple[str, int]:
        """Bind and start serving; returns the bound ``(host, port)``."""
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.config.host,
            self.config.port,
            # The stream limit bounds readuntil(); keep it just above the
            # header cap so an oversized head overruns into a clean 431.
            limit=self.config.max_header_bytes + 4096,
        )
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Close lingering keep-alive connections and wait for their
        # handler tasks, so no transport outlives the event loop.
        for writer in list(self._conn_writers):
            writer.close()
        if self._conn_tasks:
            await asyncio.gather(*list(self._conn_tasks), return_exceptions=True)
        self._solve_pool.shutdown(wait=True)
        self.collector.close()

    # -- request plumbing --------------------------------------------------
    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, dict[str, str], bytes] | None:
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError:
            return None
        except asyncio.LimitOverrunError:
            raise _HttpError(431, "request head too large") from None
        if len(head) > self.config.max_header_bytes:
            raise _HttpError(431, "request head too large")
        lines = head.decode("latin-1").split("\r\n")
        try:
            method, target, _version = lines[0].split(" ", 2)
        except ValueError:
            raise _HttpError(400, f"malformed request line {lines[0]!r}") from None
        headers: dict[str, str] = {}
        lengths: set[str] = set()
        for line in lines[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            name = name.strip().lower()
            headers[name] = value.strip()
            if name == "content-length":
                lengths.add(headers[name])
        length = _content_length(lengths, self.config.max_body_bytes)
        body = await reader.readexactly(length) if length else b""
        return method.upper(), target, headers, body

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        self._conn_writers.add(writer)
        faults = self.config.faults
        try:
            while True:
                try:
                    # One budget for the whole request (head + body): a
                    # slow-loris peer times out here with 408 while other
                    # keep-alive connections proceed on the event loop.
                    request = await asyncio.wait_for(
                        self._read_request(reader),
                        timeout=self.config.read_timeout,
                    )
                except asyncio.TimeoutError:
                    writer.write(
                        _response(
                            408,
                            {
                                "error": "request not received within "
                                f"{self.config.read_timeout}s"
                            },
                            close=True,
                        )
                    )
                    await writer.drain()
                    break
                except _HttpError as exc:
                    writer.write(
                        _response(exc.status, {"error": str(exc)}, close=True)
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                method, target, headers, body = request
                try:
                    status, payload = await self._route(method, target, headers, body)
                except _HttpError as exc:
                    status, payload = exc.status, {"error": str(exc)}
                except Exception as exc:  # never kill the connection loop
                    status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
                if faults is not None:
                    delay = faults.delay_for("http.delay")
                    if delay > 0.0:
                        await asyncio.sleep(delay)
                    if faults.fires("http.drop"):
                        break  # simulate the response lost on the wire
                writer.write(_response(status, payload))
                await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            self._conn_writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    # -- routes ------------------------------------------------------------
    def _round_route(self, target: str) -> tuple[str, str] | None:
        parts = target.split("?", 1)[0].strip("/").split("/")
        if len(parts) == 4 and parts[0] == "v1" and parts[1] == "rounds":
            return parts[2], parts[3]
        return None

    async def _route(
        self, method: str, target: str, headers: dict[str, str], body: bytes
    ) -> tuple[int, dict[str, Any]]:
        path = target.split("?", 1)[0]
        if path == "/healthz":
            if method != "GET":
                raise _HttpError(405, "healthz is GET-only")
            return 200, {"status": "ok", "rounds": self.collector.rounds()}
        if path == "/statz":
            if method != "GET":
                raise _HttpError(405, "statz is GET-only")
            return 200, self.collector.stats()
        if path == "/v1/stream/estimate":
            if method != "GET":
                raise _HttpError(405, "stream estimate is GET-only")
            return await self._handle_stream_estimate()
        matched = self._round_route(target)
        if matched is None:
            raise _HttpError(404, f"no route {path!r}")
        round_id, action = matched
        if action == "reports":
            if method != "POST":
                raise _HttpError(405, "reports accepts POST only")
            return await self._handle_reports(round_id, headers, body)
        if action == "estimate":
            if method not in ("POST", "GET"):
                raise _HttpError(405, "estimate accepts POST or GET")
            return await self._handle_estimate(round_id)
        if action == "advance":
            if method != "POST":
                raise _HttpError(405, "advance accepts POST only")
            return await self._handle_advance(round_id)
        raise _HttpError(404, f"no round action {action!r}")

    async def _handle_reports(
        self, round_id: str, headers: dict[str, str], body: bytes
    ) -> tuple[int, dict[str, Any]]:
        if not body:
            raise _HttpError(400, "upload body is empty")
        content_type = headers.get("content-type", "").split(";")[0].strip()
        # Exactly-once contract: the client's Idempotency-Key when given,
        # the body's content digest otherwise. A replayed upload is acked
        # again (200) with its original count and nothing is re-ingested.
        key = headers.get("idempotency-key", "").strip()
        try:
            if content_type not in ("", *_FRAME_TYPES):
                raise NotAFrameError(
                    f"Content-Type {content_type!r} is not "
                    f"{' or '.join(_FRAME_TYPES)}"
                )
            upload = self.collector.parse(body, round_id)
            receipt = self.collector.submit(upload, round_id, key=key or upload.digest)
        except NotAFrameError as exc:
            raise _HttpError(415, str(exc)) from None
        except IdempotencyConflictError as exc:
            raise _HttpError(409, str(exc)) from None
        except JournalFailedError as exc:
            raise _HttpError(503, str(exc)) from None
        except ValueError as exc:
            raise _HttpError(400, str(exc)) from None
        status = 200 if receipt.replayed else 202
        return status, receipt.to_dict()

    async def _handle_estimate(self, round_id: str) -> tuple[int, dict[str, Any]]:
        loop = asyncio.get_running_loop()
        try:
            result = await loop.run_in_executor(
                self._solve_pool, self.collector.estimate, round_id
            )
        except LookupError as exc:
            raise _HttpError(404, str(exc)) from None
        return 200, result

    async def _handle_advance(self, round_id: str) -> tuple[int, dict[str, Any]]:
        loop = asyncio.get_running_loop()
        try:
            result = await loop.run_in_executor(
                self._solve_pool, self.collector.advance_window, round_id
            )
        except LookupError as exc:
            raise _HttpError(404, str(exc)) from None
        except ValueError as exc:
            raise _HttpError(409, str(exc)) from None
        except JournalFailedError as exc:
            raise _HttpError(503, str(exc)) from None
        except RuntimeError as exc:
            raise _HttpError(400, str(exc)) from None
        return 200, result

    async def _handle_stream_estimate(self) -> tuple[int, dict[str, Any]]:
        loop = asyncio.get_running_loop()
        try:
            result = await loop.run_in_executor(
                self._solve_pool, self.collector.window_estimate
            )
        except LookupError as exc:
            raise _HttpError(404, str(exc)) from None
        except RuntimeError as exc:
            raise _HttpError(400, str(exc)) from None
        return 200, result


async def serve(config: ServiceConfig, *, ready: Callable[[str, int], Any] | None = None) -> None:
    """Run the service until cancelled (the ``repro serve`` entry point)."""
    service = ReportService(config)
    host, port = await service.start()
    if ready is not None:
        ready(host, port)
    try:
        assert service._server is not None
        await service._server.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        await service.stop()


class ServiceHandle:
    """A service running on a background event-loop thread (tests, examples).

    Use :func:`start_local_service`; close with :meth:`close` (or as a
    context manager). ``host``/``port`` are the bound address.
    """

    def __init__(self, config: ServiceConfig) -> None:
        self.service = ReportService(config)
        self._loop = asyncio.new_event_loop()
        self._started = threading.Event()
        self.host: str = ""
        self.port: int = 0
        self._thread = threading.Thread(
            target=self._run, name="repro-service", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=10.0):
            raise RuntimeError("service failed to start within 10s")

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)

        async def boot() -> None:
            self.host, self.port = await self.service.start()
            self._started.set()

        self._loop.run_until_complete(boot())
        self._loop.run_forever()
        self._loop.run_until_complete(self.service.stop())
        self._loop.close()

    @property
    def collector(self) -> ShardedCollector:
        return self.service.collector

    def run(self, coro: Awaitable[Any]) -> Any:
        """Run a coroutine on the service loop from the calling thread."""
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result()

    def close(self) -> None:
        if self._loop.is_running():
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=10.0)

    def __enter__(self) -> "ServiceHandle":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def start_local_service(config: ServiceConfig) -> ServiceHandle:
    """Start a service on a background thread; returns its handle."""
    return ServiceHandle(config)
