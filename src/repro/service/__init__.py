"""Sharded async collection service over the protocol/tasks stack.

The deployment-shaped top layer: an asyncio HTTP/1.1 ingest front end
(:mod:`repro.service.http`) accepting RPF2 frame uploads, a set of shard
partitions routed by a consistent hash over ``(round, attr)`` into which
each upload is folded as it is admitted (:mod:`repro.service.core`,
:mod:`repro.service.sharding`), a warm-start-aware merge/estimate tier
folding shard snapshots through a binary merge tree, and a load
harness that simulates millions of clients
(:mod:`repro.service.loadgen`). Run it from the CLI with
``python -m repro serve --plan plan.json`` and drive it with
``python -m repro loadgen``.

Fault tolerance rides on the same layers
(:mod:`repro.service.resilience`, :mod:`repro.service.faults`): durable
per-shard write-ahead journals with periodic checkpoints and
bit-identical crash recovery (``repro serve --journal-dir``, ``repro
recover``), idempotent uploads with replay acks, graceful degradation
around dead shards, and a seeded fault-injection harness that makes all
of it testable.
"""

from repro.service.config import (
    DEFAULT_CHECKPOINT_EVERY,
    DEFAULT_DEDUP_CAPACITY,
    DEFAULT_MAX_BODY_BYTES,
    DEFAULT_MAX_HEADER_BYTES,
    DEFAULT_READ_TIMEOUT,
    ServiceConfig,
)
from repro.service.core import (
    ServiceOverloadError,
    ShardAggregator,
    ShardedCollector,
)
from repro.service.faults import (
    DEFAULT_RETRY_POLICY,
    FAULT_SITES,
    Fault,
    FaultPlan,
    InjectedCrash,
    InjectedFault,
    RetryPolicy,
)
from repro.service.http import (
    ReportService,
    ServiceHandle,
    serve,
    start_local_service,
)
from repro.service.loadgen import (
    LoadReport,
    percentile,
    percentiles,
    run_load,
    synthesize_frames,
)
from repro.service.resilience import (
    DedupLedger,
    IdempotencyConflictError,
    IngestReceipt,
    MetaJournal,
    ShardJournal,
    load_checkpoint,
    write_checkpoint,
)
from repro.service.sharding import HashRing, merge_tree, stable_hash

__all__ = [
    "DEFAULT_CHECKPOINT_EVERY",
    "DEFAULT_DEDUP_CAPACITY",
    "DEFAULT_MAX_BODY_BYTES",
    "DEFAULT_MAX_HEADER_BYTES",
    "DEFAULT_READ_TIMEOUT",
    "DEFAULT_RETRY_POLICY",
    "DedupLedger",
    "FAULT_SITES",
    "Fault",
    "FaultPlan",
    "HashRing",
    "IdempotencyConflictError",
    "IngestReceipt",
    "InjectedCrash",
    "InjectedFault",
    "LoadReport",
    "MetaJournal",
    "ReportService",
    "RetryPolicy",
    "ServiceConfig",
    "ServiceHandle",
    "ServiceOverloadError",
    "ShardAggregator",
    "ShardJournal",
    "ShardedCollector",
    "load_checkpoint",
    "merge_tree",
    "percentile",
    "percentiles",
    "run_load",
    "serve",
    "start_local_service",
    "stable_hash",
    "synthesize_frames",
    "write_checkpoint",
]
