"""Per-layer metrics from one traced run.

Times are self time per op (the mean over the run's timed phase), counts
are per op, and every fraction names its base. The advance path of
``monitor_http`` is counted per advance instead, as its unit says. A layer
that a workload never runs reads 0.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Sequence

from ldpbench.client import Sample
from ldpbench.stats import self_times

#: (metric, unit) in report order; units carry the base of each mean.
PER_LAYER: list[tuple[str, str]] = [
    ("session.privatize_ms", "ms/op"),
    ("session.to_feed_ms", "ms/op"),
    ("session.results_ms", "ms/op"),
    ("frames.decode_ms", "ms/op"),
    ("frames.blocks", "count/op"),
    ("frames.bytes", "B/op"),
    ("server.ingest_ms", "ms/op"),
    ("server.report_ms", "ms/op"),
    ("server.estimate_self_ms", "ms/op"),
    ("server.estimate_calls", "count/op"),
    ("engine.solve_ms", "ms/op"),
    ("engine.solve_calls", "count/op"),
    ("engine.columns", "count/op"),
    ("engine.iterations", "count/op"),
    ("engine.iters_per_column", "count/column"),
    ("engine.us_per_column_iter", "us"),
    ("engine.warm_frac", "frac/columns"),
    ("engine.fused_frac", "frac/columns"),
    ("http.overhead_ms", "ms/upload"),
    ("http.throttled", "count/op"),
    ("http.conn_drops", "count/op"),
    ("service.submit_ms", "ms/op"),
    ("service.submit_wait_ms", "ms/op"),
    ("service.shard_wait_ms", "ms/op"),
    ("service.fold_ms", "ms/op"),
    ("service.flush_ms", "ms/op"),
    ("service.merge_ms", "ms/op"),
    ("service.estimate_ms", "ms/op"),
    ("service.advance_ms", "ms/advance"),
    ("journal.append_ms", "ms/op"),
    ("journal.commit_ms", "ms/op"),
    ("journal.bytes", "B/op"),
    ("journal.checkpoints", "count/op"),
    ("journal.checkpoint_ms", "ms/op"),
    ("sharding.merge_tree_ms", "ms/op"),
    ("sharding.skew", "max/mean"),
    ("streaming.tick_ms", "ms/advance"),
    ("streaming.push_ms", "ms/advance"),
    ("streaming.iterations", "count/advance"),
    ("streaming.fused_groups", "count/advance"),
]

#: Self time of these spans, in ms per op.
_SELF_MS = {
    "session.privatize_ms": ("session.privatize",),
    "session.to_feed_ms": ("session.to_feed",),
    "session.results_ms": ("session.results",),
    "frames.decode_ms": ("frames.decode_any_feed", "frames.iter_frame_blocks", "frames.materialize"),
    "server.ingest_ms": ("server.ingest_feed",),
    "server.report_ms": ("server.report",),
    "server.estimate_self_ms": ("server.estimate", "server.estimate_rounds"),
    "engine.solve_ms": ("engine.solve",),
    "service.submit_ms": ("service.submit",),
    "service.shard_wait_ms": ("service.enqueue", "service.snapshot"),
    "service.flush_ms": ("service.flush",),
    "service.merge_ms": ("service.merge_round",),
    "service.estimate_ms": ("service.estimate",),
    "journal.append_ms": ("journal.append",),
    "journal.commit_ms": ("journal.commit",),
    "journal.checkpoint_ms": ("service.checkpoint",),
    "sharding.merge_tree_ms": ("sharding.merge_tree",),
}
#: Self time per advance.
_SELF_MS_PER_ADVANCE = {
    "service.advance_ms": ("service.advance_window",),
    "streaming.tick_ms": ("streaming.tick",),
    "streaming.push_ms": ("streaming.push",),
}
#: Span counts per op.
_COUNTS = {
    "server.estimate_calls": "server.estimate",
    "engine.solve_calls": "engine.solve",
    "journal.checkpoints": "service.checkpoint",
}
#: The spans that block a ``round_inproc`` op.
BLOCKING = ("session.privatize", "session.to_feed", "server.ingest_feed", "server.report")


def in_window(spans: Sequence[tuple], start_ns: int, end_ns: int) -> list[tuple]:
    return [s for s in spans if start_ns <= s[3] <= end_ns]


def layer_metrics(
    spans: Sequence[tuple],
    window: tuple[int, int],
    samples: Sequence[Sample],
    ops: int,
    advances: int = 0,
    skew: float = 0.0,
) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric from the spans of one traced run.

    ``spans`` are every process's spans, ``window`` the timed phase in the
    shared monotonic clock, ``samples`` the load generator's attempts.
    """
    selfs = self_times(spans)
    timed = in_window(spans, *window)
    self_ns: dict[str, int] = defaultdict(int)
    count: dict[str, int] = defaultdict(int)
    for span in timed:
        self_ns[span[2]] += selfs[span[0]]
        count[span[2]] += 1
    per_op = 1.0 / max(ops, 1)
    per_adv = 1.0 / max(advances, 1)
    out: dict[str, float] = {}
    for metric, names in _SELF_MS.items():
        out[metric] = sum(self_ns[n] for n in names) / 1e6 * per_op
    for metric, names in _SELF_MS_PER_ADVANCE.items():
        out[metric] = sum(self_ns[n] for n in names) / 1e6 * per_adv
    for metric, name in _COUNTS.items():
        out[metric] = count[name] * per_op

    frames = [s for s in timed if s[2] == "frames.iter_frame_blocks" and s[7]]
    out["frames.blocks"] = sum(s[7].get("block", 0) for s in frames) * per_op
    out["frames.bytes"] = sum(s[7].get("bytes", 0) for s in frames) * per_op
    out["journal.bytes"] = sum(
        s[7]["bytes"] for s in timed if s[2] == "journal.append" and s[7]
    ) * per_op

    solves = [s for s in timed if s[2] == "engine.solve" and s[7]]
    columns = sum(s[7]["columns"] for s in solves)
    iters = sum(s[7]["iters"] for s in solves)
    out["engine.columns"] = columns * per_op
    out["engine.iterations"] = iters * per_op
    out["engine.iters_per_column"] = iters / columns if columns else 0.0
    out["engine.us_per_column_iter"] = self_ns["engine.solve"] / 1e3 / iters if iters else 0.0
    out["engine.warm_frac"] = (
        sum(s[7]["columns"] for s in solves if s[7]["warm"]) / columns if columns else 0.0
    )
    out["engine.fused_frac"] = (
        sum(s[7]["columns"] for s in solves if s[7]["columns"] > 1) / columns if columns else 0.0
    )

    # The shard worker's fold, inclusive of the block materialisation inside it.
    out["service.fold_ms"] = sum(s[4] - s[3] for s in timed if s[2] == "service.fold") / 1e6 * per_op

    submit = {s[5]: s for s in timed if s[2] == "service.submit"}
    handler = {s[5]: s for s in spans if s[2] == "http.reports"}
    out["service.submit_wait_ms"] = sum(
        span[3] - handler[key][3] for key, span in submit.items() if key in handler
    ) / 1e6 * per_op
    uploads = [x for x in samples if x.kind == "upload" and 200 <= x.status < 300]
    overheads = [
        x.ms - (submit[x.corr][4] - submit[x.corr][3]) / 1e6 for x in uploads if x.corr in submit
    ]
    out["http.overhead_ms"] = sum(overheads) / len(overheads) if overheads else 0.0
    out["http.throttled"] = sum(1 for x in samples if x.status == 429) * per_op
    out["http.conn_drops"] = sum(1 for x in samples if x.status == 0) * per_op

    out["sharding.skew"] = skew
    ticks = [x.body for x in samples if x.kind == "advance" and 200 <= x.status < 300]
    out["streaming.iterations"] = sum(t["total_iterations"] for t in ticks) * per_adv
    out["streaming.fused_groups"] = sum(t["fused_groups"] for t in ticks) * per_adv
    return {name: out[name] for name, _ in PER_LAYER}


def op_coverage(spans: Sequence[tuple]) -> list[float]:
    """Per ``op`` span, the share of its wall time its blocking child spans cover."""
    children: dict[int, int] = defaultdict(int)
    for span in spans:
        if span[2] in BLOCKING:
            children[span[1]] += span[4] - span[3]
    return [children[s[0]] / (s[4] - s[3]) for s in spans if s[2] == "op"]


def server_share(spans: Sequence[tuple], samples: Sequence[Sample], window: tuple[int, int]) -> dict[str, float]:
    """Per request kind, the share of client latency the server's handler spans cover."""
    handler_of = {"upload": "http.reports", "poll": "http.estimate", "advance": "http.advance"}
    timed = in_window(spans, *window)
    shares = {}
    for kind, name in handler_of.items():
        client_ns = sum(x.end_ns - x.start_ns for x in samples if x.kind == kind and x.status)
        if client_ns:
            server_ns = sum(s[4] - s[3] for s in timed if s[2] == name)
            shares[kind] = server_ns / client_ns
    return shares
