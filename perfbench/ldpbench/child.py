"""The process under test: ``python -m ldpbench.child <config.json>``.

``mode: service`` runs the collection service through
``repro.service.http.serve`` (the ``repro serve`` entry point), prints
``READY <probe_ns> <port>`` once bound, and shuts down when its stdin closes.

``mode: inproc`` runs whole canonical rounds in this process: one untimed
warm-up round, then ``READY <probe_ns>``; on ``GO`` it runs the timed rounds
and writes ``result.json``, on anything else it exits.

``probe_ns`` is the median of host-speed probes taken at the end of set-up,
on the thread that did the set-up.

With ``trace`` set, layer wrappers are installed before the program starts
and the spans are written to ``spans.json`` at exit.
"""

from __future__ import annotations

import asyncio
import json
import sys
import threading
import time
from contextlib import nullcontext
from pathlib import Path


def _start_tracing(config: dict):
    if not config["trace"]:
        return None
    from ldpbench.spans import Tracer, install

    tracer = Tracer()
    install(tracer)
    return tracer


def _write_spans(tracer, rundir: Path) -> None:
    if tracer is not None:
        (rundir / "spans.json").write_text(json.dumps(tracer.spans))


def run_service(config: dict, rundir: Path) -> None:
    tracer = _start_tracing(config)
    from repro.service.config import ServiceConfig
    from repro.service.http import serve

    from ldpbench import inputs
    from ldpbench.stats import SETUP_PROBES, speed_probe_ns

    plan = getattr(inputs, config["plan"])()
    service = ServiceConfig(
        plan=plan,
        n_shards=config["n_shards"],
        window=config.get("window"),
        journal_dir=config.get("journal_dir"),
    )
    probe = speed_probe_ns(SETUP_PROBES)

    async def main() -> None:
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()

        def wait_for_eof() -> None:
            sys.stdin.read()
            loop.call_soon_threadsafe(stop.set)

        threading.Thread(target=wait_for_eof, daemon=True).start()
        server = asyncio.ensure_future(
            serve(service, ready=lambda _host, port: print(f"READY {probe} {port}", flush=True))
        )
        await stop.wait()
        server.cancel()
        await server

    asyncio.run(main())
    _write_spans(tracer, rundir)


def run_inproc(config: dict, rundir: Path) -> None:
    tracer = _start_tracing(config)
    import numpy as np
    from repro.protocol.server import PlanServer
    from repro.tasks import Session
    from repro.tasks.planner import plan_analysis

    from ldpbench import inputs
    from ldpbench.stats import SETUP_PROBES, proc_peak_rss_mb, speed_probe_ns, w1_unit

    plan = inputs.canonical_plan()
    planned = plan_analysis(plan)
    client = Session(plan, planned=planned)
    population = {k: np.load(Path(config["inputs"]) / f"{k}.npy") for k in ("age", "income")}
    n_users = population["age"].size
    seed = config["seed"]
    truth = inputs.canonical_unit_counts(population)

    def one_round(index: int, round_id: str):
        """One op; returns its wall and CPU nanoseconds, the server and its report."""
        rng = np.random.default_rng([seed, 10, index])
        traced = tracer.span("op", corr=round_id) if tracer else nullcontext()
        cpu = time.process_time_ns()
        start = time.perf_counter_ns()
        with traced:
            reports = client.privatize(population, rng=rng)
            feed = client.to_feed(reports, round_id)
            server = PlanServer(plan, round_id, planned=planned)
            server.ingest_feed(feed)
            report = server.report()
        elapsed = time.perf_counter_ns() - start
        return elapsed, time.process_time_ns() - cpu, server, report

    paused = tracer.paused() if tracer else nullcontext()
    with paused:
        one_round(config["ops"], "warmup")  # its own rng stream, after the timed ones
    print(f"READY {speed_probe_ns(SETUP_PROBES)}", flush=True)
    if sys.stdin.readline().strip() != "GO":
        return

    latencies, cpu_ns, probes, w1s, failures = [], [], [], [], []
    started = time.perf_counter_ns()
    for index in range(config["ops"]):
        probes.append(speed_probe_ns())
        elapsed, cpu, server, report = one_round(index, f"r{index}")
        latencies.append(elapsed)
        cpu_ns.append(cpu)
        with tracer.paused() if tracer else nullcontext():
            failures.extend(_check_round(plan, server, report, n_users, index))
            for j, attr in enumerate(("age", "income")):
                w1s.append(w1_unit(server.estimate(attr), truth[j]))
    result = {
        "phase_ns": [started, time.perf_counter_ns()],
        "latencies_ns": latencies,
        # User+sys CPU of this process over each op: the clock /proc/<pid>/stat
        # reads, at nanosecond rather than 10 ms resolution.
        "cpu_ns": cpu_ns,
        "probes_ns": probes,
        "peak_rss_mb": proc_peak_rss_mb(),
        "w1": w1s,
        "failures": failures,
    }
    (rundir / "result.json").write_text(json.dumps(result))
    _write_spans(tracer, rundir)


def _check_round(plan, server, report, n_users: int, index: int) -> list[str]:
    """Every task answered, every estimate a distribution, every user counted."""
    import numpy as np

    failures = []
    answered = {(r.task, r.attribute) for r in report.results if r.value is not None}
    wanted = {(t.task, t.attributes[0]) for t in plan.tasks}
    if answered != wanted:
        failures.append(f"round {index}: tasks answered {sorted(answered)} != {sorted(wanted)}")
    for attr in server.attributes:
        total = float(np.sum(server.estimate(attr)))
        if abs(total - 1.0) > 1e-9:
            failures.append(f"round {index}: {attr} estimate sums to {total!r}")
    counted = sum(server.n_reports.values())
    if counted != n_users:
        failures.append(f"round {index}: {counted} reports for {n_users} users")
    return failures


def main() -> None:
    path = Path(sys.argv[1])
    config = json.loads(path.read_text())
    runner = run_service if config["mode"] == "service" else run_inproc
    runner(config, path.parent)


if __name__ == "__main__":
    main()
