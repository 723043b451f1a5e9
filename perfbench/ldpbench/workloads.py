"""The three closed-loop workloads, driven from the load-generator process.

Each workload launches the program in fresh child processes
(:mod:`ldpbench.child`), times set-up from launch to the end of warm-up,
runs a timed phase of a fixed number of ops (sized from ``--seconds`` so
that outputs are deterministic per seed), checks the outputs and returns a
:class:`Run`. Inputs are generated before the first launch, outside every
clock.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ldpbench import inputs
from ldpbench.client import Connection, Sample, Tally, call
from ldpbench.stats import (
    PROBE_REF_NS,
    SETUP_PROBES,
    cores_speed_ns,
    proc_cpu_seconds,
    proc_peak_rss_mb,
    slowdowns,
    w1_unit,
)

#: Nominal op rates on 2 cores, used only to size the fixed op count of a
#: timed phase so that it lasts about ``--seconds``.
ROUNDS_PER_S = 6.0
UPLOADS_PER_S = 1000.0
MONITOR_ROUNDS_PER_S = 1.7
#: Ops per throughput/CPU window (about 1.5 s each). Rates are the median
#: over windows, so a burst of host contention moves them less than a mean would.
INPROC_MARK_EVERY = 10
#: Probes on each side of a probe that set its slowdown (a running median).
PROBE_SPAN = 5
#: ``ingest_http`` pauses both connections after each window of uploads to
#: probe the cores, so its probes are fewer and the running median narrower.
INGEST_MARK_EVERY = 1500
INGEST_PROBE_SPAN = 1
MONITOR_MARK_EVERY = 2
#: Launches per run; ``setup_s`` is the median of their set-up times.
SETUP_LAUNCHES = 5

CANON_ATTRS = ("age", "income")
INGEST_ROUND = "ingest"  # places age and income on different shards of 2
INGEST_WARMUP = 64
INGEST_CONNECTIONS = 2
N_SHARDS = 2


@dataclass
class Context:
    root: Path
    rundir: Path
    seed: int
    seconds: float
    trace: bool
    launches: int = SETUP_LAUNCHES

    children: list["Child"] = field(default_factory=list)
    #: Launch-to-warm times as measured, before host-speed scaling.
    raw_setup_s: list[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.rundir.mkdir(parents=True, exist_ok=True)

    def stop_children(self) -> None:
        """Stop every process this run launched and wait for each (also after a failure)."""
        for child in self.children:
            child.stop()


@dataclass
class Run:
    """Everything one workload run measured."""

    op_ms: list[float]
    setup_s: list[float]
    #: ``(time_ns, cpu_s, reports)`` of the process under test, cumulative,
    #: at the start, at every window boundary and at the end of the timed
    #: phase; ``round_inproc`` counts the time and CPU of its ops alone.
    marks: list[tuple[int, float, int]]
    #: Start and end of the timed phase on the monotonic clock all processes share.
    window: tuple[int, int]
    peak_rss_mb: float
    w1: float
    attempted: int
    failed: int
    failures: list[str] = field(default_factory=list)
    advance_ms: list[float] = field(default_factory=list)
    samples: list[Sample] = field(default_factory=list)
    spans: list[tuple] = field(default_factory=list)
    skew: float = 0.0
    advances: int = 0
    #: Per window between marks, how much slower than the reference the host ran.
    window_slowdown: list[float] = field(default_factory=list)
    #: Op latencies as measured, before host-speed normalisation.
    raw_op_ms: list[float] = field(default_factory=list)

    @property
    def reports(self) -> int:
        return self.marks[-1][2] - self.marks[0][2]

    @property
    def wall_s(self) -> float:
        return (self.marks[-1][0] - self.marks[0][0]) / 1e9

    @property
    def cpu_s(self) -> float:
        return self.marks[-1][1] - self.marks[0][1]

    def window_rates(self) -> tuple[list[float], list[float]]:
        """Per window between marks: reports per second, and CPU microseconds per report."""
        per_s, cpu_us = [], []
        windows = zip(self.marks[:-1], self.marks[1:], self.window_slowdown, strict=True)
        for (t0, c0, r0), (t1, c1, r1), slow in windows:
            if r1 > r0 and t1 > t0:
                per_s.append((r1 - r0) / ((t1 - t0) / 1e9) * slow)
                cpu_us.append((c1 - c0) * 1e6 / (r1 - r0) / slow)
        return per_s, cpu_us


def mark(pid: int, reports: int) -> tuple[int, float, int]:
    return time.perf_counter_ns(), proc_cpu_seconds(pid), reports


class Child:
    """One launch of the process under test."""

    def __init__(self, ctx: Context, name: str, config: dict) -> None:
        self.dir = ctx.rundir / name
        self.dir.mkdir(parents=True)
        config = {**config, "seed": ctx.seed, "trace": ctx.trace}
        if config.get("journal_dir"):
            config["journal_dir"] = str(self.dir / config["journal_dir"])
        (self.dir / "config.json").write_text(json.dumps(config))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(ctx.root / "src"), str(ctx.root / "perfbench")])
        self._stderr = open(self.dir / "stderr.txt", "wb")
        self.launched = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "ldpbench.child", str(self.dir / "config.json")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self._stderr,
            cwd=ctx.root, env=env,
        )
        ctx.children.append(self)

    @property
    def pid(self) -> int:
        return self.proc.pid

    def ready(self) -> list[str]:
        """Wait for ``READY <probe_ns> ...``; keeps the probe, returns the rest."""
        fields = self.expect("READY").split()[1:]
        self.probe_ns = int(fields[0])
        return fields[1:]

    def expect(self, prefix: str, timeout: float = 120.0) -> str:
        """Wait for a stdout line starting with ``prefix``; fail with the child's stderr."""
        assert self.proc.stdout is not None
        deadline = time.monotonic() + timeout
        while True:
            left = deadline - time.monotonic()
            ready = select.select([self.proc.stdout], [], [], max(left, 0.0))[0] if left > 0 else []
            line = self.proc.stdout.readline().decode() if ready else ""
            if line.startswith(prefix):
                return line.strip()
            if not ready or not line:
                self.stop()
                tail = (self.dir / "stderr.txt").read_text(errors="replace")[-2000:]
                raise RuntimeError(f"child never printed {prefix!r}:\n{tail}")

    def send(self, line: str) -> None:
        assert self.proc.stdin is not None
        self.proc.stdin.write(line.encode() + b"\n")
        self.proc.stdin.flush()

    def stop(self, timeout: float = 60.0) -> None:
        if self.proc.stdin is not None and not self.proc.stdin.closed:
            try:
                self.proc.stdin.close()
            except BrokenPipeError:
                pass
        try:
            self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._stderr.close()

    def spans(self) -> list[tuple]:
        path = self.dir / "spans.json"
        return [tuple(s) for s in json.loads(path.read_text())] if path.exists() else []


def _launch_until_warm(ctx: Context, config: dict, warm) -> tuple[Child, list[float], object]:
    """Launch ``ctx.launches`` times; each launch is set up and warmed, all but the last stopped.

    ``warm(child)`` runs the warm-up against a ready child and returns a
    state object for the timed phase; it must be set-up-only safe.
    """
    setups: list[float] = []
    for n in range(ctx.launches):
        child = Child(ctx, f"launch{n}", config)
        state = warm(child)
        elapsed = time.perf_counter() - child.launched
        # Scaled to the reference host speed by the probes the child took at
        # the end of its set-up (the probes' own time excluded).
        probing_s = SETUP_PROBES * child.probe_ns / 1e9
        setups.append((elapsed - probing_s) * PROBE_REF_NS / child.probe_ns)
        ctx.raw_setup_s.append(elapsed)
        if n + 1 < ctx.launches:
            close = getattr(state, "close", None)
            if close is not None:
                close()
            child.stop()
            shutil.rmtree(child.dir)
    return child, setups, state


# -- round_inproc ----------------------------------------------------------------


def round_inproc(ctx: Context) -> Run:
    population = inputs.canonical_population(ctx.seed)
    for key, values in population.items():
        np.save(ctx.rundir / f"{key}.npy", values)
    ops = math.ceil(ctx.seconds * ROUNDS_PER_S)
    child, setups, _ = _launch_until_warm(
        ctx, {"mode": "inproc", "ops": ops, "inputs": str(ctx.rundir)}, Child.ready
    )
    child.send("GO")
    child.stop(timeout=600.0)
    result = json.loads((child.dir / "result.json").read_text())
    failures = result["failures"]
    # The host's cores alternate between fast and slow phases lasting seconds
    # to minutes, and this workload's one thread rides whichever its core is
    # in. A probe run just before each op on the same thread tracks that
    # phase; latencies are scaled to the probe's reference speed.
    slowdown = slowdowns(result["probes_ns"], PROBE_SPAN)
    latency_ns, cpu_ns = result["latencies_ns"], result["cpu_ns"]
    raw_ms = [ns / 1e6 for ns in latency_ns]
    # Windows count the ops' own wall and CPU time only: the probe, the
    # output checks and W1 run between ops, outside both clocks.
    marks = [(0, 0.0, 0)]
    for end in [*range(INPROC_MARK_EVERY, ops, INPROC_MARK_EVERY), ops]:
        marks.append((sum(latency_ns[:end]), sum(cpu_ns[:end]) / 1e9, end * inputs.CANON_USERS))
    return Run(
        op_ms=[ms / slow for ms, slow in zip(raw_ms, slowdown)],
        raw_op_ms=raw_ms,
        window_slowdown=[
            statistics.median(slowdown[i : i + INPROC_MARK_EVERY])
            for i in range(0, len(slowdown), INPROC_MARK_EVERY)
        ],
        setup_s=setups,
        marks=marks,
        window=tuple(result["phase_ns"]),
        peak_rss_mb=result["peak_rss_mb"],
        w1=float(np.mean(result["w1"])),
        attempted=ops,
        failed=len({f.split(":")[0] for f in failures}),
        failures=failures,
        spans=child.spans(),
    )


# -- HTTP workloads ---------------------------------------------------------------


class _Http:
    """The load generator's state against one launched service."""

    def __init__(self, child: Child, connections: int) -> None:
        self.child = child
        self.port = int(child.ready()[0])
        self.loop = asyncio.new_event_loop()
        self.conns = [Connection("127.0.0.1", self.port) for _ in range(connections)]
        self.tally = Tally()
        self.samples: list[Sample] = []  # untimed attempts
        self.failures: list[str] = []  # failed output checks

    def run(self, coro):
        return self.loop.run_until_complete(coro)

    def close(self) -> None:
        for conn in self.conns:
            self.loop.run_until_complete(conn.close())
        self.loop.close()


def ingest_http(ctx: Context) -> Run:
    frames, frame_counts = inputs.ingest_frames(ctx.seed, INGEST_ROUND)
    timed_uploads = math.ceil(ctx.seconds * UPLOADS_PER_S)
    total = INGEST_WARMUP + timed_uploads
    path = f"/v1/rounds/{INGEST_ROUND}/reports"
    cursor = {"next": 0}

    async def upload(http: _Http, conn: Connection, upto: int, sink: list[Sample]) -> None:
        while cursor["next"] < upto:
            k = cursor["next"]
            cursor["next"] += 1
            key = f"k{k}"
            await call(conn, http.tally, sink, "upload", key, "POST", path,
                       frames[k % len(frames)], {"Idempotency-Key": key})

    async def phase(http: _Http, upto: int, sink: list[Sample]) -> None:
        await asyncio.gather(*(upload(http, c, upto, sink) for c in http.conns))

    def warm(child: Child) -> _Http:
        cursor["next"] = 0
        http = _Http(child, INGEST_CONNECTIONS)
        http.run(phase(http, INGEST_WARMUP, http.samples))
        return http

    config = {"mode": "service", "plan": "canonical_plan", "n_shards": N_SHARDS,
              "journal_dir": "journal"}
    child, setups, http = _launch_until_warm(ctx, config, warm)
    # Windows of uploads; the cores are probed between windows, while the
    # service is idle, and once more after the last.
    timed: list[Sample] = []
    windows: list[list[Sample]] = []
    probes = [cores_speed_ns()]
    marks = [mark(child.pid, 0)]
    reports = 0
    for end in [*range(INGEST_WARMUP + INGEST_MARK_EVERY, total, INGEST_MARK_EVERY), total]:
        window: list[Sample] = []
        http.run(phase(http, end, window))
        windows.append([x for x in window if 200 <= x.status < 300])
        reports += sum(x.body["accepted"] for x in windows[-1])
        marks.append(mark(child.pid, reports))
        probes.append(cores_speed_ns())
        timed += window
    slow = slowdowns(probes, INGEST_PROBE_SPAN)
    window_slowdown = [(a + b) / 2 for a, b in zip(slow, slow[1:])]
    est = http.run(call(http.conns[0], http.tally, http.samples, "estimate", INGEST_ROUND,
                        "POST", f"/v1/rounds/{INGEST_ROUND}/estimate"))
    statz = http.run(http.conns[0].request("statz", "", "GET", "/statz")).body
    peak = proc_peak_rss_mb(child.pid)
    http.close()
    child.stop()
    spans = child.spans()

    samples = http.samples + timed
    failures = _check_ingest(samples, total, frames, est, INGEST_ROUND)
    if est is None:
        w1 = math.nan
    else:
        truth = sum(frame_counts[k % len(frames)] for k in range(total))
        w1 = float(np.mean([
            w1_unit(est.body["estimates"][attr], truth[j])
            for j, attr in enumerate(CANON_ATTRS)
        ]))
    return Run(
        op_ms=[x.ms / s for window, s in zip(windows, window_slowdown) for x in window],
        raw_op_ms=[x.ms for window in windows for x in window],
        window_slowdown=window_slowdown,
        setup_s=setups,
        marks=marks,
        window=(marks[0][0], marks[-1][0]),
        peak_rss_mb=peak,
        w1=w1,
        attempted=http.tally.attempts,
        failed=http.tally.failed + len(failures),
        failures=http.tally.errors + failures,
        samples=timed,
        spans=spans,
        skew=_skew(statz),
    )


def _check_ingest(samples: list[Sample], total: int, frames: list[bytes], est, round_id: str) -> list[str]:
    """Every upload acked once with 202, every report accepted, estimates bit-identical."""
    from repro.protocol.server import PlanServer

    failures = []
    acks: dict[str, list[int]] = {}
    for x in samples:
        if x.kind == "upload" and 200 <= x.status < 300:
            acks.setdefault(x.corr, []).append(x.status)
    bad = [k for k in (f"k{i}" for i in range(total)) if acks.get(k) != [202]]
    if bad:
        failures.append(f"{len(bad)} uploads not acked exactly once with 202, e.g. {bad[:3]}")
    accepted = sum(x.body["accepted"] for x in samples if x.kind == "upload" and x.status == 202)
    generated = total * inputs.INGEST_FRAME_USERS
    if accepted != generated:
        failures.append(f"accepted {accepted} reports of {generated} generated")
    if est is None:
        return failures + ["final estimate failed"]
    reference = PlanServer(inputs.canonical_plan(), round_id)
    for k in range(total):
        reference.ingest_feed(frames[k % len(frames)])
    for attr in reference.attributes:
        got = np.asarray(est.body["estimates"][attr], dtype=np.float64)
        want = np.asarray(reference.estimate(attr), dtype=np.float64)
        if got.tobytes() != want.tobytes():
            failures.append(f"{attr}: service estimate differs from in-process PlanServer")
    return failures


def _skew(statz: dict | None) -> float:
    if not statz:
        return 0.0
    counts = [s["reports_ingested"] for s in statz["shards"]]
    mean = sum(counts) / len(counts)
    return max(counts) / mean if mean else 0.0


def monitor_http(ctx: Context) -> Run:
    window = inputs.MONITOR_WINDOW
    timed_rounds = math.ceil(ctx.seconds * MONITOR_ROUNDS_PER_S)
    rounds, truth_counts = inputs.monitor_rounds(ctx.seed, window + timed_rounds)
    per_upload = inputs.MONITOR_USERS // inputs.MONITOR_UPLOADS

    async def one_round(
        http: _Http, r: int, sink: list[Sample], probed: list[tuple[Sample, int]] | None
    ) -> list[str]:
        """Uploads, then (when ``probed`` is given) a poll after each, then an advance.

        In the timed phase the cores are probed before each poll and the
        advance, while the service is idle; ``probed`` pairs each of those
        requests with its probe's index in ``probes``.
        """
        rid = inputs.monitor_round_id(r)
        conn = http.conns[0]
        failures = []

        async def probe_and_call(kind: str, path: str) -> Sample | None:
            if probed is not None:
                probes.append(cores_speed_ns())
            got = await call(conn, http.tally, sink, kind, rid, "POST", path)
            if got is not None and probed is not None:
                probed.append((got, len(probes) - 1))
            return got

        for u, frame in enumerate(rounds[r]):
            key = f"{rid}-{u}"
            await call(conn, http.tally, sink, "upload", key, "POST",
                       f"/v1/rounds/{rid}/reports", frame, {"Idempotency-Key": key})
            if probed is not None:
                got = await probe_and_call("poll", f"/v1/rounds/{rid}/estimate")
                seen = sum(got.body["n_reports"].values()) if got else None
                if seen != (u + 1) * per_upload:
                    failures.append(f"{rid} poll {u}: {seen} reports, want {(u + 1) * per_upload}")
        got = await probe_and_call("advance", f"/v1/rounds/{rid}/advance")
        seen = sum(got.body["n_reports"].values()) if got else None
        if seen != inputs.MONITOR_USERS:
            failures.append(f"{rid} advance: {seen} reports, want {inputs.MONITOR_USERS}")
        return failures

    def warm(child: Child) -> _Http:
        http = _Http(child, 1)
        for r in range(window):
            http.failures += http.run(one_round(http, r, http.samples, None))
        return http

    config = {"mode": "service", "plan": "monitor_plan", "n_shards": N_SHARDS, "window": window}
    child, setups, http = _launch_until_warm(ctx, config, warm)
    timed: list[Sample] = []
    probes: list[int] = []
    probed: list[tuple[Sample, int]] = []
    failures = http.failures
    marks = [mark(child.pid, 0)]
    window_probes = [0]  # probe count at each mark
    for n, r in enumerate(range(window, window + timed_rounds), start=1):
        failures += http.run(one_round(http, r, timed, probed))
        if n % MONITOR_MARK_EVERY == 0 or n == timed_rounds:
            marks.append(mark(child.pid, n * inputs.MONITOR_USERS))
            window_probes.append(len(probes))
    slow = slowdowns(probes, PROBE_SPAN)
    statz = http.run(http.conns[0].request("statz", "", "GET", "/statz")).body
    peak = proc_peak_rss_mb(child.pid)
    http.close()
    child.stop()

    advanced = [x for x in http.samples + timed if x.kind == "advance" and 200 <= x.status < 300]
    failures += _check_windows(advanced, rounds, window)
    polls = [(x, i) for x, i in probed if x.kind == "poll"]
    advances = [(x, i) for x, i in probed if x.kind == "advance"]
    # Every attribute's windowed estimate after every timed advance, against
    # the values of the rounds in its window.
    w1s = []
    for x, _ in advances:
        r = int(x.corr[1:])
        truth = truth_counts[r - window + 1 : r + 1].sum(axis=0)
        for j, attr in enumerate(sorted(x.body["attributes"])):
            w1s.append(w1_unit(x.body["attributes"][attr]["estimate"], truth[j]))
    return Run(
        op_ms=[x.ms / slow[i] for x, i in polls],
        raw_op_ms=[x.ms for x, _ in polls],
        advance_ms=[x.ms / slow[i] for x, i in advances],
        window_slowdown=[
            statistics.median(slow[a:b]) for a, b in zip(window_probes, window_probes[1:])
        ],
        setup_s=setups,
        marks=marks,
        window=(marks[0][0], marks[-1][0]),
        peak_rss_mb=peak,
        w1=float(np.mean(w1s)) if w1s else math.nan,
        attempted=http.tally.attempts,
        failed=http.tally.failed + len(failures),
        failures=http.tally.errors + failures,
        samples=timed,
        spans=child.spans(),
        skew=_skew(statz),
        advances=len(advances),
    )


def _check_windows(advanced: list[Sample], rounds: list[list[bytes]], window: int) -> list[str]:
    """Every window holds the last ``window`` rounds, and the service's estimates show it.

    The service's ticks are replayed in this process: per advanced round, a
    ``PlanServer`` fed that round's frames is pushed into a
    ``StreamingCollector`` with the same window. Each replayed window must
    equal a fresh merge of the last ``window`` rounds and hold their reports,
    and each of the service's windowed estimates must equal the replay's bit
    for bit.
    """
    from repro.protocol.server import PlanServer
    from repro.streaming import StreamingCollector
    from repro.tasks.planner import plan_analysis

    plan = inputs.monitor_plan()
    planned = plan_analysis(plan)
    replay = StreamingCollector.from_plan(planned, window=window)
    last: deque[PlanServer] = deque(maxlen=window)
    failures = []
    for r, got in enumerate(advanced):
        rid = inputs.monitor_round_id(r)
        if got.corr != rid:
            return failures + [f"advance {r} closed round {got.corr}, want {rid}"]
        server = PlanServer(plan, rid, planned=planned)
        for frame in rounds[r]:
            server.ingest_feed(frame)
        last.append(server)
        tick = replay.tick({attr: server.server(attr).estimator for attr in server.attributes})
        held = 0
        for attr, result in tick.attributes.items():
            current = replay.window_state(attr).current
            union = planned.choice_for(attr).make()
            for earlier in last:
                union.merge(earlier.server(attr).estimator)
            if current.to_state() != union.to_state():
                failures.append(f"{rid} {attr}: window is not the merge of the last {len(last)} rounds")
            held += current.n_reports
            have = np.asarray(got.body["attributes"][attr]["estimate"], dtype=np.float64)
            want = np.asarray(result.estimate, dtype=np.float64)
            if have.tobytes() != want.tobytes():
                failures.append(f"{rid} {attr}: windowed estimate differs from the replayed window")
        if held != len(last) * inputs.MONITOR_USERS:
            failures.append(f"{rid}: window holds {held} reports, want {len(last) * inputs.MONITOR_USERS}")
    return failures


WORKLOADS = {
    "round_inproc": round_inproc,
    "ingest_http": ingest_http,
    "monitor_http": monitor_http,
}
