"""Sharded async collection service over the protocol/tasks stack.

The deployment-shaped top layer: an asyncio HTTP/1.1 ingest front end
(:mod:`repro.service.http`) accepting RPF2 frame uploads, a set of shard
partitions routed by a consistent hash over ``(round, attr)`` into which
each upload is folded as it is admitted (:mod:`repro.service.core`,
:mod:`repro.service.sharding`), and a warm-start-aware merge/estimate
tier that reads each attribute from its home shard. Run it from the CLI
with ``python -m repro serve --plan plan.json``. The load harness that
simulates millions of clients, :mod:`repro.service.loadgen`, is the
client side: import it directly (``python -m repro loadgen`` does), as
nothing here loads it.

Fault tolerance rides on the same layers
(:mod:`repro.service.resilience`, :mod:`repro.service.faults`): durable
per-shard write-ahead journals with periodic checkpoints and
bit-identical crash recovery (``repro serve --journal-dir``, ``repro
recover``), idempotent uploads with replay acks, and a seeded
fault-injection harness that makes all of it testable.
"""

from repro.service.config import (
    DEFAULT_CHECKPOINT_EVERY,
    DEFAULT_DEDUP_CAPACITY,
    DEFAULT_MAX_BODY_BYTES,
    DEFAULT_MAX_HEADER_BYTES,
    DEFAULT_READ_TIMEOUT,
    ServiceConfig,
)
from repro.service.core import ShardAggregator, ShardedCollector
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
from repro.service.resilience import (
    DedupLedger,
    IdempotencyConflictError,
    IngestReceipt,
    MetaJournal,
    ShardJournal,
    load_checkpoint,
    write_checkpoint,
)
from repro.service.sharding import HashRing, stable_hash

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
    "MetaJournal",
    "ReportService",
    "RetryPolicy",
    "ServiceConfig",
    "ServiceHandle",
    "ShardAggregator",
    "ShardJournal",
    "ShardedCollector",
    "load_checkpoint",
    "serve",
    "start_local_service",
    "stable_hash",
    "write_checkpoint",
]
