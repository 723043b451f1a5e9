"""Load generation: millions of simulated clients against the service.

The harness keeps the client side honest *and* fast: reports are
synthesized in vectorized batches through the same
:class:`~repro.tasks.session.Session` client path real deployments use
(``privatize`` → ``to_feed``), so every upload is a genuine RPF2 frame —
then fanned out by concurrent asyncio uploaders over raw HTTP/1.1
keep-alive connections (stdlib only, same as the server). One "client"
is one user's report inside a batch; a million clients is a few thousand
frames, which is exactly the shape a real aggregator sees.

Latency is recorded per upload (request write → response parsed) and
summarized as p50/p95/p99 alongside sustained reports/sec;
:func:`run_load` returns a :class:`LoadReport`, and
``benchmarks/bench_perf_service.py`` checks the numbers into
``benchmarks/BENCH_service.json``.

Faults are part of the contract: a dropped connection is counted,
backed off through a shared :class:`~repro.service.faults.RetryPolicy`
(capped exponential, deterministic jitter), and the frame is retried —
never dropped. Every upload carries an ``Idempotency-Key``, so a retry
after a dropped connection or lost ack is acked as a replay instead of
double-ingesting: the total accepted report count is deterministic even
when the service delays or drops responses mid-run.

The service imports nothing from here: this module is the client side,
loaded by ``repro loadgen``, the examples, the benchmarks and the tests.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.service.faults import DEFAULT_RETRY_POLICY, RetryPolicy
from repro.tasks.plan import AnalysisPlan
from repro.tasks.planner import PlannedAnalysis, plan_analysis
from repro.tasks.session import Session
from repro.utils.rng import RngLike, as_generator

__all__ = [
    "LoadReport",
    "http_request",
    "percentile",
    "percentiles",
    "run_load",
    "synthesize_frames",
]


def synthesize_frames(
    plan: AnalysisPlan,
    round_id: str,
    n_users: int,
    *,
    batch_size: int = 10_000,
    rng: RngLike = None,
    planned: PlannedAnalysis | None = None,
    data: dict[str, np.ndarray] | None = None,
) -> Iterator[tuple[bytes, int]]:
    """Yield ``(frame_bytes, n_reports)`` uploads for ``n_users`` clients.

    Values are drawn uniformly over each attribute's domain unless
    ``data`` supplies them (one array per attribute, ``n_users`` long).
    Batches are generated lazily so a million-user run never holds more
    than one batch of raw values in memory.
    """
    if n_users < 1:
        raise ValueError(f"n_users must be >= 1, got {n_users}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    gen = as_generator(rng)
    if planned is None:
        planned = plan_analysis(plan)
    session = Session(plan, planned=planned)  # client role: privatize only
    for start in range(0, n_users, batch_size):
        size = min(batch_size, n_users - start)
        batch = {}
        for spec in plan.attributes:
            if data is not None:
                batch[spec.name] = np.asarray(
                    data[spec.name][start : start + size], dtype=np.float64
                )
            else:
                batch[spec.name] = gen.uniform(spec.low, spec.high, size=size)
        reports = session.privatize(batch, rng=gen)
        if not reports:
            continue
        feed = session.to_feed(reports, round_id, format="frame")
        assert isinstance(feed, bytes)
        yield feed, size


def percentiles(samples: Iterable[float], qs: Sequence[float]) -> list[float]:
    """Nearest-rank percentiles (each q in [0, 100]) of a latency sample.

    One ``np.quantile`` pass over a preallocated array — the per-call
    ``sorted()`` the old implementation paid (O(n log n) per percentile,
    three times per report) is gone. NaN-safe: an empty sample yields
    ``nan`` for every requested percentile instead of raising.
    """
    arr = np.fromiter(samples, dtype=np.float64)
    if arr.size == 0:
        return [float("nan")] * len(qs)
    values = np.quantile(
        arr, [q / 100.0 for q in qs], method="nearest"
    )
    return [float(v) for v in values]


def percentile(samples: Iterable[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of a latency sample."""
    return percentiles(samples, (q,))[0]


@dataclass
class LoadReport:
    """Outcome of one load run, JSON-ready via :meth:`to_dict`."""

    n_users: int
    n_uploads: int
    n_reports_accepted: int
    elapsed_seconds: float
    latencies_ms: list[float] = field(repr=False, default_factory=list)
    n_errors: int = 0
    n_replayed: int = 0
    n_conn_drops: int = 0

    @property
    def reports_per_second(self) -> float:
        if self.elapsed_seconds <= 0.0:
            return float("nan")
        return self.n_reports_accepted / self.elapsed_seconds

    def to_dict(self) -> dict:
        return {
            "n_users": self.n_users,
            "n_uploads": self.n_uploads,
            "n_reports_accepted": self.n_reports_accepted,
            "elapsed_seconds": round(self.elapsed_seconds, 4),
            "reports_per_second": round(self.reports_per_second, 1),
            "latency_ms": dict(
                zip(
                    ("p50", "p95", "p99"),
                    (
                        round(v, 3)
                        for v in percentiles(self.latencies_ms, (50, 95, 99))
                    ),
                )
            ),
            "n_errors": self.n_errors,
            "n_replayed": self.n_replayed,
            "n_conn_drops": self.n_conn_drops,
        }


async def http_request(
    host: str,
    port: int,
    method: str,
    path: str,
    *,
    body: bytes = b"",
    content_type: str = "application/x-repro-frame",
    headers: dict[str, str] | None = None,
    reader: asyncio.StreamReader | None = None,
    writer: asyncio.StreamWriter | None = None,
) -> tuple[int, bytes, asyncio.StreamReader, asyncio.StreamWriter]:
    """One HTTP/1.1 request over a (reusable) keep-alive connection.

    Returns ``(status, body, reader, writer)``; pass the reader/writer
    back in to reuse the connection. ``headers`` adds request headers
    (e.g. ``Idempotency-Key``). The stdlib-only counterpart of the
    server's handler — the loadgen's whole client stack.
    """
    if reader is None or writer is None:
        reader, writer = await asyncio.open_connection(host, port)
    extra = ""
    if headers:
        extra = "".join(f"{name}: {value}\r\n" for name, value in headers.items())
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: {host}:{port}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"{extra}"
        "Connection: keep-alive\r\n\r\n"
    )
    writer.write(head.encode("ascii") + body)
    await writer.drain()
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionResetError("connection closed before response")
    status = int(status_line.split(b" ", 2)[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    payload = await reader.readexactly(length) if length else b""
    return status, payload, reader, writer


async def _uploader(
    host: str,
    port: int,
    path: str,
    frames: "asyncio.Queue[tuple[bytes, int, str] | None]",
    report: LoadReport,
    *,
    policy: RetryPolicy = DEFAULT_RETRY_POLICY,
) -> None:
    reader: asyncio.StreamReader | None = None
    writer: asyncio.StreamWriter | None = None
    try:
        while True:
            item = await frames.get()
            if item is None:
                return
            frame, _n, key = item
            for attempt in range(policy.attempts):
                started = time.perf_counter()
                try:
                    status, payload, reader, writer = await http_request(
                        host, port, "POST", path, body=frame,
                        headers={"Idempotency-Key": key},
                        reader=reader, writer=writer,
                    )
                except (ConnectionError, asyncio.IncompleteReadError, OSError):
                    # The connection died mid-request (response lost on
                    # the wire). The idempotency key makes the retry
                    # safe: if the server accepted before the drop, the
                    # retry is acked as a replay, never re-ingested.
                    if writer is not None:
                        writer.close()
                    reader = writer = None
                    report.n_conn_drops += 1
                    await asyncio.sleep(policy.delay(attempt))
                    continue
                report.latencies_ms.append(
                    (time.perf_counter() - started) * 1000.0
                )
                if status in (200, 202):
                    # 200 = replay ack: the original accept's response was
                    # lost, so this client never counted it — count the
                    # (original) accepted total exactly once, here.
                    report.n_uploads += 1
                    report.n_reports_accepted += json.loads(payload)["accepted"]
                    if status == 200:
                        report.n_replayed += 1
                    break
                report.n_errors += 1
                break
            else:
                report.n_errors += 1  # attempt budget exhausted
    finally:
        if writer is not None:
            writer.close()


async def _run_load_async(
    host: str,
    port: int,
    round_id: str,
    frames: Iterable[tuple[bytes, int]],
    *,
    concurrency: int,
    policy: RetryPolicy,
) -> LoadReport:
    report = LoadReport(
        n_users=0, n_uploads=0, n_reports_accepted=0, elapsed_seconds=0.0
    )
    path = f"/v1/rounds/{round_id}/reports"
    queue: asyncio.Queue[tuple[bytes, int, str] | None] = asyncio.Queue(
        maxsize=2 * concurrency
    )
    uploaders = [
        asyncio.ensure_future(
            _uploader(host, port, path, queue, report, policy=policy)
        )
        for _ in range(concurrency)
    ]
    started = time.perf_counter()
    for index, (frame, n) in enumerate(frames):
        report.n_users += n
        # One stable key per upload, carried across every retry of it.
        await queue.put((frame, n, f"load-{round_id}-{index}"))
    for _ in uploaders:
        await queue.put(None)
    await asyncio.gather(*uploaders)
    report.elapsed_seconds = time.perf_counter() - started
    return report


def run_load(
    host: str,
    port: int,
    plan: AnalysisPlan,
    round_id: str,
    n_users: int,
    *,
    batch_size: int = 10_000,
    concurrency: int = 8,
    rng: RngLike = None,
    planned: PlannedAnalysis | None = None,
    retry_policy: RetryPolicy = DEFAULT_RETRY_POLICY,
) -> LoadReport:
    """Synthesize ``n_users`` clients and upload them concurrently.

    Drives :func:`synthesize_frames` through ``concurrency`` keep-alive
    uploader connections against a running service; blocks until every
    frame is accepted and returns the :class:`LoadReport`. Frame
    synthesis is streamed through a bounded queue, so generator and
    uploaders overlap without ever materializing the full feed. Retries
    after a dropped connection follow ``retry_policy`` and carry
    per-upload idempotency keys, so the accepted totals are exactly-once
    whatever the fault pattern.
    """
    if concurrency < 1:
        raise ValueError(f"concurrency must be >= 1, got {concurrency}")
    frames = synthesize_frames(
        plan, round_id, n_users, batch_size=batch_size, rng=rng, planned=planned
    )
    return asyncio.run(
        _run_load_async(
            host, port, round_id, frames,
            concurrency=concurrency, policy=retry_policy,
        )
    )
