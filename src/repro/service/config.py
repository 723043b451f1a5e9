"""Configuration for the sharded collection service.

A :class:`ServiceConfig` binds one :class:`~repro.tasks.plan.AnalysisPlan`
to the deployment knobs of :mod:`repro.service`: how many shard
partitions to run, how large one upload may be, and whether and how the
ingest journal is kept.

The plan is resolved once (:func:`~repro.tasks.planner.plan_analysis`)
and the resulting :class:`~repro.tasks.planner.PlannedAnalysis` is shared
by every shard, so all shards build identically-configured estimators —
the precondition for exact merges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.service.faults import FaultPlan
from repro.service.resilience import FSYNC_POLICIES
from repro.tasks.plan import AnalysisPlan, load_plan
from repro.tasks.planner import PlannedAnalysis, plan_analysis

__all__ = [
    "DEFAULT_CHECKPOINT_EVERY",
    "DEFAULT_DEDUP_CAPACITY",
    "DEFAULT_MAX_BODY_BYTES",
    "DEFAULT_MAX_HEADER_BYTES",
    "DEFAULT_READ_TIMEOUT",
    "ServiceConfig",
]

#: Largest accepted upload body. Bounds per-request ingest memory; clients
#: with more reports send more frames.
DEFAULT_MAX_BODY_BYTES = 8 * 1024 * 1024

#: Largest accepted request head (request line + headers). Oversized heads
#: are rejected with 431 before any body is read.
DEFAULT_MAX_HEADER_BYTES = 32 * 1024

#: Per-request read timeout (seconds). A client that stalls mid-request —
#: slow-loris style — gets a 408 and its connection closed, instead of
#: pinning a keep-alive slot forever.
DEFAULT_READ_TIMEOUT = 30.0

#: Checkpoint cadence: one state checkpoint per this many accepted uploads
#: per journal. Bounds the journal tail that recovery must replay.
DEFAULT_CHECKPOINT_EVERY = 256

#: Bound on the idempotency ledger. Must cover at least the post-checkpoint
#: replay window (``checkpoint_every``) so recovery never forgets a key a
#: client might still retry.
DEFAULT_DEDUP_CAPACITY = 65536


@dataclass(frozen=True)
class ServiceConfig:
    """Deployment shape of one collection service.

    Parameters
    ----------
    plan:
        The analysis plan every round of this service collects for.
    n_shards:
        Number of shard aggregators; ``(round, attr)`` keys are spread
        over them by the consistent ring of :mod:`repro.service.sharding`.
    max_body_bytes:
        Largest accepted upload body, enforced before the body is read.
    window:
        Continuous-collection mode: ``window=W`` keeps a sliding window
        of the last ``W`` advanced rounds per attribute and enables
        :meth:`~repro.service.core.ShardedCollector.advance_window` and
        the ``/v1/rounds/{round}/advance`` + ``/v1/stream/estimate``
        routes; unset, the service is one-shot only.
    host, port:
        Bind address for :func:`repro.service.http.serve`. Port ``0``
        picks a free port (the bound address is reported back).
    journal_dir:
        Directory for the durable ingest journals. ``None`` (default)
        disables journaling entirely — state is memory-only, as before.
        When set, accepted blocks are written to per-shard write-ahead
        logs plus a collector-level commit log *before* they are acked,
        and a restarted service recovers bit-identical state from them.
    journal_fsync:
        Fsync policy for the journals: ``"always"`` (fsync per record,
        on the admitting thread — the HTTP tier's event loop),
        ``"checkpoint"`` (fsync at checkpoints, by the checkpoint writer,
        OS-flush per record — the default), or ``"never"``.
    checkpoint_every:
        Accepted uploads between automatic state checkpoints. Admission
        snapshots each live shard's states at the cut and the collector's
        checkpoint writer thread writes them. Bounds recovery replay
        time; only meaningful with ``journal_dir``.
    dedup_capacity:
        Bound on the idempotency ledger (entries). Must be at least
        ``checkpoint_every`` so the post-checkpoint replay window is
        always covered by remembered keys.
    read_timeout:
        Per-request HTTP read timeout (seconds); stalled clients get
        ``408`` and a closed connection.
    max_header_bytes:
        Largest accepted request head; larger heads get ``431``.
    faults:
        Optional :class:`~repro.service.faults.FaultPlan` injected into
        the journal/shard/HTTP seams. Test and chaos-CI use only; never
        part of config equality.
    """

    plan: AnalysisPlan
    n_shards: int = 2
    max_body_bytes: int = DEFAULT_MAX_BODY_BYTES
    window: int | None = None
    host: str = "127.0.0.1"
    port: int = 0
    journal_dir: str | Path | None = None
    journal_fsync: str = "checkpoint"
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY
    dedup_capacity: int = DEFAULT_DEDUP_CAPACITY
    read_timeout: float = DEFAULT_READ_TIMEOUT
    max_header_bytes: int = DEFAULT_MAX_HEADER_BYTES
    faults: FaultPlan | None = field(default=None, repr=False, compare=False)
    _planned: PlannedAnalysis | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {self.n_shards}")
        if self.max_body_bytes < 1:
            raise ValueError(
                f"max_body_bytes must be >= 1, got {self.max_body_bytes}"
            )
        if self.window is not None:
            object.__setattr__(self, "window", int(self.window))
            if self.window < 1:
                raise ValueError(f"window must be >= 1, got {self.window}")
        if self.journal_dir is not None:
            object.__setattr__(self, "journal_dir", Path(self.journal_dir))
        if self.journal_fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"journal_fsync must be one of {FSYNC_POLICIES}, "
                f"got {self.journal_fsync!r}"
            )
        if self.checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {self.checkpoint_every}"
            )
        if self.dedup_capacity < self.checkpoint_every:
            raise ValueError(
                f"dedup_capacity ({self.dedup_capacity}) must be >= "
                f"checkpoint_every ({self.checkpoint_every}) so the replay "
                "window after recovery stays covered by remembered keys"
            )
        if self.read_timeout <= 0.0:
            raise ValueError(
                f"read_timeout must be > 0, got {self.read_timeout}"
            )
        if self.max_header_bytes < 1024:
            raise ValueError(
                f"max_header_bytes must be >= 1024, got {self.max_header_bytes}"
            )

    @classmethod
    def from_plan_file(cls, path: str | Path, **kwargs) -> "ServiceConfig":
        """Build a config from a plan JSON/TOML file plus keyword knobs."""
        return cls(plan=load_plan(path), **kwargs)

    @property
    def windowed(self) -> bool:
        """Whether continuous-collection (sliding-window) mode is on."""
        return self.window is not None

    @property
    def planned(self) -> PlannedAnalysis:
        """The resolved plan, computed once and shared by every shard."""
        if self._planned is None:
            object.__setattr__(self, "_planned", plan_analysis(self.plan))
        assert self._planned is not None
        return self._planned
