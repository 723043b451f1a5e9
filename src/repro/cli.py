"""Command-line interface for the library.

Subcommands mirror the deployment workflow:

* ``estimate`` — privatize and aggregate in one step, for simulations;
* ``audit`` — numerically verify a mechanism's LDP guarantee;
* ``plan`` — back-of-envelope population sizing for a target accuracy;
* ``analyze`` — run a declarative analysis plan (``repro.tasks``) over a
  CSV of raw per-user values and write typed task results as JSON;
* ``pack`` / ``unpack`` / ``collect`` — the protocol-v2 serving workflow:
  randomize values into an RPF2 frame for *any* registered mechanism,
  inspect frames, and run the mechanism-agnostic collection server over
  one or more shard frames;
* ``serve`` / ``loadgen`` — the deployment tier (``repro.service``): run
  the sharded async HTTP collection service for a plan, and drive a
  running service with synthetic clients while measuring ingest
  latency/throughput.

Examples::

    python -m repro estimate --epsilon 1.0 --d 256 --method sw-ems \
        --input values.txt --output histogram.csv
    python -m repro audit --shape square --epsilon 1.0
    python -m repro plan --epsilon 1.0 --target-std 0.002
    python -m repro analyze --plan plan.json --input survey.csv \
        --output results.json --seed 7
    python -m repro pack --method olh --epsilon 1.0 --d 64 --round-id r1 \
        --input values.txt --output feed.rpf --seed 7
    python -m repro unpack --input feed.rpf
    python -m repro collect --method olh --epsilon 1.0 --d 64 --round-id r1 \
        --input feed.rpf --output frequencies.csv
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from repro import io
from repro.analysis.theory import olh_variance, required_population
from repro.core.waves import ALL_WAVE_SHAPES, make_wave
from repro.privacy.audit import audit_continuous_mechanism

__all__ = ["main"]


def _print_method_table() -> None:
    from repro.api.registry import list_estimators

    specs = list_estimators()
    name_w = max(len(s.name) for s in specs)
    kind_w = max(len(s.kind) for s in specs)
    header = f"{'method':<{name_w}}  {'kind':<{kind_w}}  description"
    print(header)
    print("-" * len(header))
    for spec in specs:
        print(f"{spec.name:<{name_w}}  {spec.kind:<{kind_w}}  {spec.description}")


def _cmd_estimate(args) -> int:
    from repro.api.registry import get_spec, make_estimator

    if args.list_methods:
        _print_method_table()
        return 0
    missing = [
        flag
        for flag, value in (
            ("--epsilon", args.epsilon),
            ("--input", args.input),
            ("--output", args.output),
        )
        if value is None
    ]
    if missing:
        print(
            f"error: {', '.join(missing)} required (or use --list-methods)",
            file=sys.stderr,
        )
        return 2

    spec = get_spec(args.method)
    values = io.read_values(args.input)
    estimator = make_estimator(args.method, args.epsilon, args.d)
    rng = np.random.default_rng(args.seed)

    if spec.kind == "scalar":
        mean = estimator.fit(values, rng=rng)
        with open(args.output, "w") as handle:
            handle.write(f"statistic,value\nmean,{mean:.10g}\n")
        print(f"estimated mean {mean:.6f} with {args.method}; wrote {args.output}")
        return 0

    if spec.kind == "frequency":
        from repro.utils.histograms import bucketize

        histogram = estimator.fit(bucketize(values, args.d), rng=rng)
    else:
        histogram = estimator.fit(values, rng=rng)
    io.write_histogram_csv(histogram, args.output)
    # Leaf-signed and frequency estimates are unbiased but can carry
    # negative mass — say so instead of calling them histograms.
    what = {
        "distribution": f"{args.d}-bucket histogram",
        "leaf-signed": f"{args.d}-bucket signed leaf estimate (may contain negatives)",
        "frequency": f"{args.d}-bucket signed frequency estimate (may contain negatives)",
    }[spec.kind]
    print(f"estimated {what} with {args.method}; wrote {args.output}")
    return 0


def _cmd_audit(args) -> int:
    mechanism = make_wave(args.shape, args.epsilon, b=args.b)
    result = audit_continuous_mechanism(mechanism)
    status = "OK" if result.satisfied else "VIOLATION"
    print(
        f"shape={args.shape} epsilon={args.epsilon}: max probability ratio "
        f"{result.max_ratio:.6f} (effective epsilon {result.effective_epsilon:.6f}) "
        f"-> {status}"
    )
    return 0 if result.satisfied else 1


def _cmd_analyze(args) -> int:
    from repro.tasks import Session, load_plan, plan_analysis

    plan = load_plan(args.plan)
    planned = plan_analysis(plan)
    if args.explain:
        print(planned.describe())
        return 0
    missing = [
        flag
        for flag, value in (("--input", args.input), ("--output", args.output))
        if value is None
    ]
    if missing:
        print(
            f"error: {', '.join(missing)} required (or use --explain)",
            file=sys.stderr,
        )
        return 2
    data = io.read_table(args.input)
    rng = np.random.default_rng(args.seed)
    session = Session.fit_sharded(
        plan, data, shards=args.shards, rng=rng, planned=planned
    )
    report = session.results(
        confidence=args.confidence, n_bootstrap=args.bootstrap, rng=rng
    )
    with open(args.output, "w") as handle:
        handle.write(report.to_json() + "\n")
    audit = session.audit()
    print(planned.describe())
    print(
        f"answered {len(report)} tasks over "
        f"{sum(session.n_reports.values())} reports "
        f"(budget {'OK' if audit.satisfied else 'VIOLATION'}); wrote {args.output}"
    )
    return 0 if audit.satisfied else 1


def _reportable_values(spec, values, d: int):
    """Map unit-domain inputs onto what the mechanism's clients report."""
    if spec.kind == "frequency":
        from repro.utils.histograms import bucketize

        return bucketize(values, d)
    return values


def _cmd_pack(args) -> int:
    from repro.api.registry import get_spec, make_estimator
    from repro.protocol.codecs import codec_for_estimator
    from repro.protocol.frames import encode_frame

    spec = get_spec(args.method)
    values = _reportable_values(spec, io.read_values(args.input), args.d)
    estimator = make_estimator(args.method, args.epsilon, args.d)
    codec = codec_for_estimator(estimator)
    reports = estimator.privatize(values, rng=np.random.default_rng(args.seed))
    Path(args.output).write_bytes(
        encode_frame(args.round_id, reports, codec, attr=args.attr)
    )
    print(
        f"packed {values.size} {args.method} reports ({codec.name} payloads) "
        f"to {args.output}"
    )
    return 0


def _cmd_unpack(args) -> int:
    from repro.protocol.frames import decode_frame_grouped

    round_id, groups = decode_frame_grouped(Path(args.input).read_bytes())
    for group in groups.values():
        print(
            f"round {round_id!r} attr {group.attr!r}: {group.n} reports "
            f"({group.mechanism} payloads)"
        )
    return 0


def _cmd_collect(args) -> int:
    from repro.api.registry import get_spec
    from repro.protocol.server import CollectionServer

    spec = get_spec(args.method)
    server = CollectionServer(
        args.round_id, args.method, args.epsilon, args.d, attr=args.attr
    )
    total = 0
    for path in args.input:
        total += server.ingest_feed(Path(path).read_bytes())
    estimate = server.estimate()
    if spec.kind == "scalar":
        with open(args.output, "w") as handle:
            handle.write(f"statistic,value\nmean,{estimate:.10g}\n")
        what = f"mean {estimate:.6f}"
    else:
        io.write_histogram_csv(np.asarray(estimate), args.output)
        what = f"{np.asarray(estimate).size}-bucket estimate"
    print(
        f"collected {total} reports across {len(args.input)} feed(s); "
        f"{what} with {args.method}; wrote {args.output}"
    )
    return 0


def _cmd_plan(args) -> int:
    n = required_population(args.epsilon, args.target_std, d=args.d)
    print(
        f"target per-frequency std {args.target_std} at epsilon={args.epsilon} "
        f"needs ~{n:,} users (per-user variance {olh_variance(args.epsilon):.3f})"
    )
    return 0


def _service_config(args):
    from repro.service import ServiceConfig

    return ServiceConfig.from_plan_file(
        args.plan,
        n_shards=args.shards,
        window=args.window,
        host=args.host,
        port=args.port,
        journal_dir=getattr(args, "journal_dir", None),
        journal_fsync=getattr(args, "journal_fsync", "checkpoint"),
        checkpoint_every=getattr(args, "checkpoint_every", None)
        or _default_checkpoint_every(),
    )


def _default_checkpoint_every() -> int:
    from repro.service import DEFAULT_CHECKPOINT_EVERY

    return DEFAULT_CHECKPOINT_EVERY


def _cmd_serve(args) -> int:
    import asyncio

    from repro.service import serve

    config = _service_config(args)

    def ready(host: str, port: int) -> None:
        # Flushed so wrappers (CI smoke, examples) see the bound port
        # immediately even when stdout is a pipe.
        mode = ""
        if config.window is not None:
            mode = f", sliding window of {config.window} rounds"
        if config.journal_dir is not None:
            mode += f", journaling to {config.journal_dir}"
        print(
            f"serving plan {args.plan} on http://{host}:{port} "
            f"({config.n_shards} shards{mode}); Ctrl-C to stop",
            flush=True,
        )

    try:
        asyncio.run(serve(config, ready=ready))
    except KeyboardInterrupt:
        print("stopped")
    return 0


def _cmd_recover(args) -> int:
    import json

    from repro.service import ServiceConfig, ShardedCollector

    journal_dir = Path(args.journal_dir)
    if not journal_dir.is_dir():
        raise ValueError(f"journal dir {journal_dir} does not exist")
    n_shards = args.shards
    if n_shards is None:
        n_shards = len(sorted(journal_dir.glob("shard-*.journal")))
        if n_shards == 0:
            raise ValueError(
                f"no shard-*.journal files under {journal_dir}; nothing to recover"
            )
    config = ServiceConfig.from_plan_file(
        args.plan,
        n_shards=n_shards,
        window=args.window,
        journal_dir=journal_dir,
    )
    with ShardedCollector(config) as collector:
        recovery = collector.stats()
        journal = recovery["journal"] or {}
        print(
            f"recovered {journal.get('recovered_records', 0)} journal records "
            f"across {n_shards} shards "
            f"({recovery['uploads_accepted']} uploads committed; "
            f"rounds: {', '.join(recovery['rounds']) or 'none'})",
            flush=True,
        )
        result: dict = {"stats": recovery}
        if args.round_id is not None:
            result["estimate"] = collector.estimate(args.round_id)
            reports = sum(result["estimate"]["n_reports"].values())
            print(f"round {args.round_id}: {reports:,} reports recovered")
        elif config.windowed and recovery["window_ticks"]:
            result["window"] = collector.window_estimate()
            print(
                f"window re-advanced through {recovery['window_ticks']} ticks "
                f"({', '.join(result['window']['rounds'])})"
            )
        if args.output is not None:
            with open(args.output, "w") as handle:
                json.dump(result, handle, indent=2)
                handle.write("\n")
            print(f"wrote {args.output}")
    return 0


def _cmd_stream(args) -> int:
    import json

    import numpy as np

    from repro.api import make_estimator
    from repro.streaming import (
        StreamingCollector,
        drifting_stream,
        shifting_mixture_stream,
    )

    streams = {
        "drift": drifting_stream,
        "mixture": shifting_mixture_stream,
    }
    collector = StreamingCollector(
        {"value": make_estimator(args.method, args.epsilon, args.d)},
        window=args.window,
        drift_every=args.drift_every,
        drift_threshold=args.drift_threshold,
    )
    rows = []
    values_stream = streams[args.stream](
        args.ticks, args.users, rng=np.random.default_rng(args.seed)
    )
    for index, values in enumerate(values_stream):
        round_estimator = collector.make_round(
            "value", values, rng=np.random.default_rng(args.seed + 1 + index)
        )
        result = collector.tick({"value": round_estimator})
        tick = result.attributes["value"]
        rows.append(result.to_dict())
        drift = "" if tick.drift is None else f" drift={tick.drift:.4f}"
        flag = " DRIFTED" if tick.drifted else ""
        print(
            f"tick {result.tick:3d}: iterations={tick.iterations} "
            f"warm={tick.warm}{drift}{flag}"
        )
    audit = collector.audit({"value": args.epsilon}, args.epsilon)
    print(
        f"cumulative epsilon {audit.cumulative_epsilon:.4g} over "
        f"{audit.rounds} rounds (per-round {audit.per_round_epsilon:.4g})"
    )
    if args.output is not None:
        with open(args.output, "w") as handle:
            json.dump({"ticks": rows, "audit": audit.to_dict()}, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.output}")
    return 0


def _cmd_loadgen(args) -> int:
    import json

    from repro.tasks import load_plan

    from repro.service.loadgen import run_load

    plan = load_plan(args.plan)
    report = run_load(
        args.host,
        args.port,
        plan,
        args.round_id,
        args.users,
        batch_size=args.batch,
        concurrency=args.concurrency,
        rng=args.seed,
    )
    summary = report.to_dict()
    print(
        f"uploaded {summary['n_reports_accepted']:,} reports in "
        f"{summary['n_uploads']} frames over {summary['elapsed_seconds']}s "
        f"({summary['reports_per_second']:,.0f} reports/s; "
        f"p50 {summary['latency_ms']['p50']}ms, "
        f"p99 {summary['latency_ms']['p99']}ms)"
    )
    if args.output is not None:
        with open(args.output, "w") as handle:
            json.dump(summary, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.output}")
    return 0 if summary["n_errors"] == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Numerical distribution estimation under local differential privacy",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="privatize + aggregate in one step")
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--d", type=int, default=1024)
    p.add_argument(
        "--method",
        default="sw-ems",
        help="any registered estimator (see --list-methods)",
    )
    p.add_argument("--input", default=None)
    p.add_argument("--output", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument(
        "--list-methods",
        action="store_true",
        help="print the estimator registry table and exit",
    )
    p.set_defaults(fn=_cmd_estimate)

    p = sub.add_parser("audit", help="numerically audit a wave mechanism's LDP")
    p.add_argument("--shape", choices=ALL_WAVE_SHAPES, default="square")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--b", type=float, default=None)
    p.set_defaults(fn=_cmd_audit)

    p = sub.add_parser(
        "analyze", help="run a declarative analysis plan over a CSV of raw values"
    )
    p.add_argument("--plan", required=True, help="plan file (.json or .toml)")
    p.add_argument("--input", default=None, help="CSV with one column per attribute")
    p.add_argument("--output", default=None, help="results JSON")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument(
        "--shards", type=int, default=1,
        help="simulate N shard servers that merge before answering",
    )
    p.add_argument(
        "--confidence", type=float, default=None,
        help="bootstrap CI coverage, e.g. 0.9 (off by default)",
    )
    p.add_argument("--bootstrap", type=int, default=100, help="bootstrap resamples")
    p.add_argument(
        "--explain", action="store_true",
        help="print the planner's mechanism/budget choices and exit",
    )
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser(
        "pack", help="randomize values into a protocol-v2 RPF2 frame"
    )
    p.add_argument("--method", default="sw-ems", help="any registered estimator")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--d", type=int, default=1024)
    p.add_argument("--round-id", required=True)
    p.add_argument("--attr", default="value", help="attribute id to stamp reports with")
    p.add_argument("--input", required=True, help="one value in [0,1] per line")
    p.add_argument("--output", required=True, help="frame file")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=_cmd_pack)

    p = sub.add_parser(
        "unpack", help="inspect a frame: round, attribute, count and codec per block"
    )
    p.add_argument("--input", required=True, help="frame file")
    p.set_defaults(fn=_cmd_unpack)

    p = sub.add_parser(
        "collect", help="aggregate frames with the mechanism-agnostic server"
    )
    p.add_argument("--method", default="sw-ems", help="any registered estimator")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--d", type=int, default=1024)
    p.add_argument("--round-id", required=True)
    p.add_argument("--attr", default="value")
    p.add_argument(
        "--input", required=True, nargs="+",
        help="one or more shard frame files",
    )
    p.add_argument("--output", required=True, help="estimate CSV")
    p.set_defaults(fn=_cmd_collect)

    p = sub.add_parser("plan", help="population sizing for a target accuracy")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--target-std", type=float, required=True)
    p.add_argument("--d", type=int, default=None)
    p.set_defaults(fn=_cmd_plan)

    p = sub.add_parser(
        "serve", help="run the sharded async collection service over HTTP"
    )
    p.add_argument("--plan", required=True, help="plan file (.json or .toml)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8350, help="0 picks a free port")
    p.add_argument("--shards", type=int, default=2, help="shard aggregators")
    p.add_argument(
        "--window", type=int, default=None,
        help="continuous mode: sliding window of the last N advanced rounds",
    )
    p.add_argument(
        "--journal-dir", default=None,
        help="durable ingest journal directory (enables crash recovery)",
    )
    p.add_argument(
        "--journal-fsync", choices=("always", "checkpoint", "never"),
        default="checkpoint", help="when journal appends reach disk",
    )
    p.add_argument(
        "--checkpoint-every", type=int, default=None,
        help="accepted uploads between state checkpoints (default 256)",
    )
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser(
        "recover",
        help="rebuild service state from a crashed deployment's journals",
    )
    p.add_argument("--plan", required=True, help="the crashed service's plan file")
    p.add_argument("--journal-dir", required=True, help="its journal directory")
    p.add_argument(
        "--shards", type=int, default=None,
        help="shard count (default: inferred from shard-*.journal files)",
    )
    p.add_argument(
        "--window", type=int, default=None,
        help="sliding-window length, when the deployment was windowed",
    )
    p.add_argument(
        "--round-id", default=None,
        help="also estimate this round from the recovered state",
    )
    p.add_argument("--output", default=None, help="write recovery JSON here")
    p.set_defaults(fn=_cmd_recover)

    p = sub.add_parser(
        "stream",
        help="simulate continuous collection over a drifting synthetic stream",
    )
    p.add_argument("--method", default="sw-ems", help="registry estimator name")
    p.add_argument("--epsilon", type=float, default=1.0)
    p.add_argument("--d", type=int, default=256, help="histogram granularity")
    p.add_argument("--ticks", type=int, default=20, help="rounds to simulate")
    p.add_argument("--users", type=int, default=20_000, help="users per round")
    p.add_argument(
        "--window", type=int, default=None,
        help="sliding window length (default: cumulative)",
    )
    p.add_argument(
        "--stream", choices=("drift", "mixture"), default="drift",
        help="synthetic stream shape (drifting mode or shifting mixture)",
    )
    p.add_argument("--drift-every", type=int, default=5, help="0 disables checks")
    p.add_argument("--drift-threshold", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", default=None, help="write per-tick JSON here")
    p.set_defaults(fn=_cmd_stream)

    p = sub.add_parser(
        "loadgen", help="drive a running service with synthetic clients"
    )
    p.add_argument("--plan", required=True, help="plan file (must match the server's)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, required=True)
    p.add_argument("--round-id", default="load-1")
    p.add_argument("--users", type=int, default=100_000)
    p.add_argument("--batch", type=int, default=10_000, help="users per frame")
    p.add_argument("--concurrency", type=int, default=8, help="uploader connections")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--output", default=None, help="write the load report JSON here")
    p.set_defaults(fn=_cmd_loadgen)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
