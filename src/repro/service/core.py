"""Shard aggregators and the sharded collector behind the HTTP front end.

The ingest tier is a fixed set of :class:`ShardAggregator` workers. Each
owns the :class:`~repro.protocol.server.CollectionServer` aggregation
states for the ``(round, attr)`` keys the consistent ring
(:mod:`repro.service.sharding`) assigns it, plus one bounded queue of
pending wire blocks and one worker thread that drains it. Memory in this
tier is bounded by construction: a queue slot holds one decoded-columns
block (itself bounded by the upload size limit), aggregation state is
O(state) per key, and nothing ever concatenates a full feed.

:class:`ShardedCollector` is the coordinator. Uploads are validated and
split into per-shard block batches on the submitting thread; a batch is
accepted **all-or-nothing** — if any target shard's queue cannot take its
blocks, :class:`ServiceOverloadError` is raised (HTTP 429) and *no* block
is enqueued, so a retried upload can never double-count. The capacity
check is sound because submissions are serialized (the HTTP tier runs
them on one executor thread) while workers only ever *free* slots.

Fault tolerance is layered on the same serialization point
(:mod:`repro.service.resilience`):

* With ``journal_dir`` configured, every accepted upload's blocks are
  appended to the target shards' write-ahead logs and then sealed with a
  commit record in the collector's meta journal *before* any block is
  enqueued. A restarted collector recovers by loading each shard's last
  checkpoint and re-folding the committed journal tail in append order —
  the fold sequence is identical to the uninterrupted run, so the
  recovered estimates are bit-identical. Uploads that crashed before
  their commit record are rolled back (their journal records are
  skipped), which is what makes a client retry after a lost ack
  exactly-once rather than at-least-once.
* Idempotent ingest: a caller-supplied idempotency key is checked
  against a bounded :class:`~repro.service.resilience.DedupLedger`
  before any work happens — a repeat of an accepted upload returns a
  replay receipt (nothing ingested), a key reused for different bytes
  raises :exc:`~repro.service.resilience.IdempotencyConflictError`.
* Graceful degradation: a shard whose worker thread has died is routed
  around on the ring (``exclude=``), skipped by ``flush()``, and
  reported in ``estimate()``'s coverage metadata instead of failing the
  round; :meth:`ShardedCollector.revive` replays its journal to bring it
  back warm.

``estimate()`` is the merge tier: drain the queues, snapshot every
shard's states under their locks, fold per-attribute snapshots through
the binary :func:`~repro.service.sharding.merge_tree`, and rebind the
result into a persistent per-round server so the incremental posterior
cache survives re-merges — an unchanged round skips its solves, a grown
round warm-starts EM. A round's attributes then solve together through
:func:`~repro.protocol.server.estimate_rounds` with ``on_error="return"``:
attributes on one structured channel fuse into a single batched solve
(bit-identical to solving each alone) across shards, split only where
their home shards solve on different compute backends, and one empty
attribute reports a structured error instead of hiding every other
attribute's result.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any
from uuid import uuid4

import numpy as np

from repro.engine.backend import ComputeBackend, make_backend
from repro.protocol.codecs import codec_for_estimator
from repro.protocol.frames import (
    FrameBlock,
    encode_frame,
    encode_frame_block,
    frame_digest,
    is_frame,
    iter_frame_blocks,
)
from repro.protocol.messages import FeedGroup, decode_feed_grouped
from repro.protocol.server import (
    CollectionServer,
    EstimateFailure,
    estimate_rounds,
)
from repro.service.config import ServiceConfig
from repro.service.resilience import (
    DedupLedger,
    IdempotencyConflictError,
    IngestReceipt,
    MetaJournal,
    ShardJournal,
    load_checkpoint,
    write_checkpoint,
)
from repro.service.sharding import HashRing, merge_tree
from repro.tasks.session import Session

__all__ = ["ServiceOverloadError", "ShardAggregator", "ShardedCollector"]


class ServiceOverloadError(RuntimeError):
    """An upload was rejected whole because a shard queue is full (429)."""


def _jsonify_estimate(value: Any) -> Any:
    """JSON-safe form of one attribute's reconstruction."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_jsonify_estimate(item) for item in value]
    if isinstance(value, np.generic):
        return value.item()
    return value


@dataclass
class _ShardCounters:
    """Mutable ingest counters, updated by the shard's worker thread."""

    blocks: int = 0
    reports: int = 0
    errors: int = 0
    last_error: str | None = None
    ingest_seconds: float = 0.0


class ShardAggregator:
    """One shard: a bounded block queue, a worker thread, and its servers."""

    def __init__(self, shard_id: int, config: ServiceConfig) -> None:
        self.shard_id = int(shard_id)
        self._config = config
        spec = config.backend_spec(self.shard_id)
        self.backend: ComputeBackend | None = (
            None if spec is None else make_backend(spec)
        )
        self._queue: queue.Queue[tuple[str, FrameBlock | FeedGroup] | None] = (
            queue.Queue(maxsize=config.queue_depth)
        )
        self._servers: dict[tuple[str, str], CollectionServer] = {}
        self._servers_lock = threading.Lock()
        self._counters = _ShardCounters()
        self._crashed = False
        self._worker = threading.Thread(
            target=self._drain, name=f"repro-shard-{shard_id}", daemon=True
        )
        self._worker.start()

    @property
    def alive(self) -> bool:
        """Health probe: whether the drain worker is still running.

        A worker only dies on an injected crash (or an interpreter-level
        failure) — ordinary fold errors are counted, not fatal — so a
        dead worker means the shard has genuinely lost its ingest path.
        A dying worker reads as dead before its last block is marked
        done, so a :meth:`flush` that returns never sees it alive.
        """
        return not self._crashed and self._worker.is_alive()

    # -- submission (called from the collector's submit thread) ------------
    def free_slots(self) -> int:
        """Queue slots currently open. Only workers free slots, so a
        capacity observed by the single submitting thread cannot shrink
        before its puts land."""
        return self._queue.maxsize - self._queue.qsize()

    def enqueue(self, block: FrameBlock | FeedGroup, round_id: str) -> None:
        try:
            self._queue.put_nowait((round_id, block))
        except queue.Full:
            # The collector checks capacity first; reaching this means the
            # all-or-nothing contract was violated upstream.
            raise ServiceOverloadError(
                f"shard {self.shard_id} queue overflowed past its capacity check"
            ) from None

    # -- worker ------------------------------------------------------------
    def _server_for(self, round_id: str, attr: str) -> CollectionServer:
        key = (round_id, attr)
        with self._servers_lock:
            server = self._servers.get(key)
            if server is None:
                choice = self._config.planned.choice_for(attr)
                server = CollectionServer.for_estimator(
                    round_id,
                    choice.make(),
                    attr=attr,
                    mechanism=choice.mechanism,
                    incremental=False,
                )
                self._servers[key] = server
        return server

    def _fold(self, round_id: str, block: FrameBlock | FeedGroup) -> None:
        """Fold one block into its server, with full error accounting.

        Shared by the live drain worker and journal replay, so a
        recovered shard reproduces exactly the counter trajectory the
        uninterrupted run would have had.
        """
        started = time.perf_counter()
        try:
            group = block.materialize() if isinstance(block, FrameBlock) else block
            server = self._server_for(round_id, group.attr)
            self._counters.reports += server._ingest_group(group)
            self._counters.blocks += 1
        except Exception as exc:
            # A block that validated at submit time but fails to fold
            # (e.g. out-of-domain reports) is dropped and surfaced via
            # /statz rather than killing the worker.
            self._counters.errors += 1
            self._counters.last_error = f"{type(exc).__name__}: {exc}"
        finally:
            self._counters.ingest_seconds += time.perf_counter() - started

    def _drain(self) -> None:
        faults = self._config.faults
        while True:
            item = self._queue.get()
            if item is None:
                self._queue.task_done()
                return
            round_id, block = item
            try:
                if faults is not None:
                    # InjectedCrash is a BaseException: it punches through
                    # the fold's error accounting and kills this worker,
                    # exactly as a real thread death would.
                    faults.crash("shard.fold")
                self._fold(round_id, block)
            except BaseException:
                self._crashed = True
                raise
            finally:
                self._queue.task_done()

    def ingest_direct(self, round_id: str, block: FrameBlock | FeedGroup) -> None:
        """Fold one block synchronously on the calling thread.

        The recovery replay path: journal records must fold in exact
        journal order, so replay bypasses the queue entirely. Only safe
        while no live traffic targets this shard (collector construction
        and :meth:`ShardedCollector.revive` both guarantee that).
        """
        self._fold(round_id, block)

    # -- merge-tier views --------------------------------------------------
    def flush(self) -> None:
        """Block until every enqueued block has been folded in.

        With a fault plan active the worker can die mid-drain, which
        would deadlock ``Queue.join()`` (queued items never get
        ``task_done``) — so chaos runs poll aliveness instead.
        """
        if self._config.faults is None:
            self._queue.join()
            return
        while self._queue.unfinished_tasks and self._worker.is_alive():
            time.sleep(0.0005)

    def snapshot(self, round_id: str) -> dict[str, dict]:
        """Serialized per-attribute server states for one round."""
        with self._servers_lock:
            servers = [
                server
                for (rid, _), server in self._servers.items()
                if rid == round_id
            ]
        return {server.attr: server.to_state() for server in servers}

    def snapshot_all(self) -> dict[str, dict[str, Any]]:
        """Serialized server states for every round (checkpoint payload)."""
        with self._servers_lock:
            servers = list(self._servers.items())
        result: dict[str, dict[str, Any]] = {}
        for (round_id, attr), server in servers:
            result.setdefault(round_id, {})[attr] = server.to_state()
        return result

    def restore(
        self,
        states: dict[str, dict[str, Any]],
        counters: dict[str, int] | None = None,
    ) -> None:
        """Rebuild servers (and counters) from a checkpoint payload."""
        with self._servers_lock:
            for round_id, attrs in states.items():
                for attr, state in attrs.items():
                    self._servers[(round_id, attr)] = CollectionServer.from_state(
                        state
                    )
        if counters:
            self._counters.blocks = int(counters.get("blocks", 0))
            self._counters.reports = int(counters.get("reports", 0))
            self._counters.errors = int(counters.get("errors", 0))

    def rounds(self) -> set[str]:
        with self._servers_lock:
            return {rid for rid, _ in self._servers}

    def stats(self) -> dict[str, Any]:
        c = self._counters
        return {
            "shard": self.shard_id,
            "alive": self.alive,
            "queue_depth": self._queue.qsize(),
            "queue_capacity": self._queue.maxsize,
            "blocks_ingested": c.blocks,
            "reports_ingested": c.reports,
            "ingest_errors": c.errors,
            "last_error": c.last_error,
            "ingest_seconds": round(c.ingest_seconds, 6),
            "backend": None if self.backend is None else self.backend.name,
        }

    def counters(self) -> dict[str, int]:
        """Durable subset of the ingest counters (checkpoint payload)."""
        c = self._counters
        return {"blocks": c.blocks, "reports": c.reports, "errors": c.errors}

    def close(self) -> None:
        try:
            self._queue.put_nowait(None)
        except queue.Full:
            pass  # a dead worker never drains; join below returns at once
        self._worker.join(timeout=10.0)


class ShardedCollector:
    """Routes uploads across shard aggregators and merges their answers."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.planned = config.planned
        self._attrs = tuple(a.name for a in config.plan.attributes)
        self._expected_codec = {
            name: codec_for_estimator(est)
            for name, est in self.planned.make_estimators().items()
        }
        self.ring = HashRing(config.n_shards)
        self.shards = [
            ShardAggregator(index, config) for index in range(config.n_shards)
        ]
        # Merge tier: per-round persistent servers whose posterior caches
        # survive re-merges (rebind_estimator), giving warm starts.
        self._merged: dict[str, dict[str, CollectionServer]] = {}
        self._merge_lock = threading.Lock()
        self._merge_seconds: list[float] = []
        # Windowed mode: the streaming scheduler and the rounds already
        # advanced into it (a round may be advanced exactly once).
        self._stream: Any = None
        self._advanced: list[str] = []
        self._closed = False
        # Idempotency + durability.
        self._ledger = DedupLedger(config.dedup_capacity)
        self._replays_served = 0
        self._conflicts = 0
        self._uploads_accepted = 0
        self._since_checkpoint = 0
        self._recovered_records = 0
        self._journals: list[ShardJournal] | None = None
        self._meta: MetaJournal | None = None
        if config.journal_dir is not None:
            journal_dir = Path(config.journal_dir)
            self._journals = [
                ShardJournal(
                    journal_dir / f"shard-{index}.journal",
                    fsync=config.journal_fsync,
                    faults=config.faults,
                )
                for index in range(config.n_shards)
            ]
            self._meta = MetaJournal(
                journal_dir / "meta.log",
                fsync=config.journal_fsync,
                faults=config.faults,
            )
            self._recover()

    # -- durability: recovery ----------------------------------------------
    def _checkpoint_path(self, shard_id: int) -> Path:
        assert self.config.journal_dir is not None
        return Path(self.config.journal_dir) / f"shard-{shard_id}.ckpt"

    def _committed_keys(
        self, meta_records: list[dict[str, Any]]
    ) -> set[str]:
        return {
            str(record["key"])
            for record in meta_records
            if record.get("kind") == "commit"
        }

    def _restore_ledger(self, meta_records: list[dict[str, Any]]) -> None:
        """Rebuild the idempotency ledger from commit records.

        Anonymous (keyless) uploads are never looked up, so their commit
        records would only evict real keys from the bounded ledger.
        """
        for record in meta_records:
            if record.get("kind") != "commit":
                continue
            key = str(record["key"])
            if key.startswith("anon:"):
                continue
            self._ledger.record(
                IngestReceipt(
                    round_id=str(record["round"]),
                    key=key,
                    digest=str(record["digest"]),
                    accepted=int(record["accepted"]),
                )
            )

    def _replay_segment(self, shard: ShardAggregator, segment: bytes) -> None:
        """Fold one journaled segment exactly as live ingest would have."""
        for block in iter_frame_blocks(segment):
            shard.ingest_direct(block.round_id, block)
            self._recovered_records += 1

    def _recover(self) -> None:
        """Rebuild state from journals; called once, before any traffic."""
        assert self._journals is not None and self._meta is not None
        for journal in self._journals:
            good = journal.good_offset(0)
            if good < journal.size:
                journal.truncate_to(good)  # crash-torn tail
        meta_records = self._meta.read()
        committed = self._committed_keys(meta_records)
        for journal in self._journals:
            # Roll back the uncommitted tail: records a crashed submit
            # wrote before reaching its commit. Submissions are
            # serialized, so uncommitted records are always a suffix —
            # and they MUST be physically dropped, not just skipped:
            # the client will retry under the same key, and once that
            # retry commits, a skipped orphan would replay as committed
            # on the next recovery and double-fold the upload.
            cut: int | None = None
            prev_end = 0
            for record in journal.replay(0):
                if cut is None and record.key not in committed:
                    cut = prev_end
                prev_end = record.end_offset
            if cut is not None:
                journal.truncate_to(cut)
        self._restore_ledger(meta_records)
        commits = [r for r in meta_records if r.get("kind") == "commit"]
        self._uploads_accepted = len(commits)
        if self.config.windowed:
            self._recover_windowed(meta_records)
        else:
            committed = self._committed_keys(meta_records)
            replayed_any = False
            for shard_id, shard in enumerate(self.shards):
                ckpt = load_checkpoint(self._checkpoint_path(shard_id))
                offset = 0
                if ckpt is not None:
                    shard.restore(ckpt["states"], ckpt.get("counters"))
                    offset = int(ckpt["journal_offset"])
                for record in self._journals[shard_id].replay(offset):
                    if record.key not in committed:
                        continue  # upload rolled back: never committed
                    self._replay_segment(shard, record.segment)
                    replayed_any = True
            if replayed_any:
                self.checkpoint()

    def _recover_windowed(self, meta_records: list[dict[str, Any]]) -> None:
        """Replay the full journal, re-advancing windows at their recorded
        boundaries.

        Windowed state is a *sequence* (each tick warm-starts from the
        last), so checkpoints of shard states alone cannot capture it;
        instead the meta journal's global order — commits interleaved
        with ``advance`` records — is replayed from scratch. Commits fold
        their shard-journal records (each upload's records are contiguous
        per journal because submissions are serialized); advances re-run
        the merge + streaming tick, reproducing the exact tick sequence.
        """
        assert self._journals is not None
        committed = self._committed_keys(meta_records)
        pending: list[list[Any]] = [
            list(journal.replay(0)) for journal in self._journals
        ]
        cursors = [0] * len(self.shards)

        def fold_key(key: str) -> None:
            for shard_id, shard in enumerate(self.shards):
                records = pending[shard_id]
                index = cursors[shard_id]
                while index < len(records):
                    record = records[index]
                    if record.key == key:
                        self._replay_segment(shard, record.segment)
                        index += 1
                    elif record.key not in committed:
                        index += 1  # rolled-back upload: skip its records
                    else:
                        break  # a later committed upload's records
                cursors[shard_id] = index

        for record in meta_records:
            kind = record.get("kind")
            if kind == "commit":
                fold_key(str(record["key"]))
            elif kind == "advance":
                self._advance_locked(str(record["round"]), record_meta=False)

    # -- durability: checkpoints -------------------------------------------
    def checkpoint(self) -> None:
        """Flush, then atomically checkpoint every live shard's state.

        Each checkpoint pairs the shard's serialized servers with the
        journal offset they cover, so the next recovery replays only the
        tail. Dead shards keep their previous checkpoint — their
        in-memory state may trail their journal, and a wrong offset would
        corrupt recovery. Requires ``journal_dir``.
        """
        if self._journals is None:
            raise RuntimeError(
                "checkpointing requires a journal_dir-configured service"
            )
        self.flush()
        for shard_id, shard in enumerate(self.shards):
            if not shard.alive:
                continue
            journal = self._journals[shard_id]
            journal.sync()
            write_checkpoint(
                self._checkpoint_path(shard_id),
                journal_offset=journal.size,
                states=shard.snapshot_all(),
                counters=shard.counters(),
            )
        if self._meta is not None:
            self._meta.sync()
        self._since_checkpoint = 0

    # -- degradation --------------------------------------------------------
    def _dead_shards(self) -> frozenset[int]:
        """Shards whose drain workers have died (health probe)."""
        return frozenset(
            index for index, shard in enumerate(self.shards) if not shard.alive
        )

    def revive(self, shard_id: int) -> dict[str, Any]:
        """Replace a dead shard with a fresh one, warm from its journal.

        With journaling, the replacement replays the dead shard's
        checkpoint + committed journal tail, so everything the shard ever
        acked — including blocks that were still queued when its worker
        died — is recovered. Without journaling the replacement starts
        empty (the in-memory state is gone) and coverage metadata keeps
        reporting the loss. The ring re-includes the shard automatically
        on the next submit.
        """
        if not 0 <= shard_id < len(self.shards):
            raise ValueError(
                f"shard must be in [0, {len(self.shards)}), got {shard_id}"
            )
        old = self.shards[shard_id]
        if old.alive:
            raise ValueError(f"shard {shard_id} is alive; nothing to revive")
        old.close()
        fresh = ShardAggregator(shard_id, self.config)
        replayed = 0
        if self._journals is not None and self._meta is not None:
            committed = self._committed_keys(self._meta.read())
            ckpt = load_checkpoint(self._checkpoint_path(shard_id))
            offset = 0
            if ckpt is not None:
                fresh.restore(ckpt["states"], ckpt.get("counters"))
                offset = int(ckpt["journal_offset"])
            for record in self._journals[shard_id].replay(offset):
                if record.key not in committed:
                    continue
                before = self._recovered_records
                self._replay_segment(fresh, record.segment)
                replayed += self._recovered_records - before
        self.shards[shard_id] = fresh
        return {"shard": shard_id, "replayed_records": replayed}

    # -- validation + routing ----------------------------------------------
    def _check_block(self, attr: str, mechanism: str, round_id: str) -> None:
        if attr not in self._expected_codec:
            raise ValueError(
                f"plan declares no attribute {attr!r}; "
                f"available: {sorted(self._expected_codec)}"
            )
        expected = self._expected_codec[attr].name
        if mechanism != expected:
            raise ValueError(
                f"attribute {attr!r}: feed carries {mechanism!r} payloads, "
                f"plan estimator expects {expected!r}"
            )
        if not round_id:
            raise ValueError("round id must be non-empty")

    def _route(self, round_id: str, attr: str, dead: frozenset[int]) -> int:
        try:
            return self.ring.shard_for(round_id, attr, exclude=dead)
        except ValueError:
            raise ServiceOverloadError(
                "every shard worker is dead; the service has no ingest "
                "capacity until a shard is revived"
            ) from None

    def submit(
        self, data: bytes | str, round_id: str, *, key: str | None = None
    ) -> IngestReceipt:
        """Validate, journal, and enqueue one upload; returns its receipt.

        All-or-nothing: raises ``ValueError`` (bad feed) or
        :class:`ServiceOverloadError` (a full shard queue) with no block
        enqueued and nothing journaled as committed.

        ``key`` is the upload's idempotency key. When supplied, a repeat
        of an already-accepted upload returns a ``replayed=True`` receipt
        without touching any state, and reusing the key for different
        bytes raises :exc:`IdempotencyConflictError`. Without a key the
        upload is anonymous: deduplication is skipped (two identical
        anonymous uploads count twice, as they always did) but the
        journal still tags its records with a unique key so crash
        recovery can tell committed uploads from rolled-back ones.
        """
        if self._closed:
            raise RuntimeError("collector is closed")
        raw: bytes | str = (
            bytes(data)
            if isinstance(data, (bytes, bytearray, memoryview))
            else data
        )
        digest = frame_digest(raw)
        if key is not None:
            try:
                replay = self._ledger.lookup(key, digest)
            except IdempotencyConflictError:
                self._conflicts += 1
                raise
            if replay is not None:
                self._replays_served += 1
                return replay
        journal_key = key if key is not None else f"anon:{uuid4().hex}"
        batches: list[tuple[int, FrameBlock | FeedGroup]] = []
        total = 0
        dead = self._dead_shards()
        if isinstance(raw, bytes) and is_frame(raw):
            for block in iter_frame_blocks(raw, expected_round=round_id):
                self._check_block(block.attr, block.mechanism, block.round_id)
                batches.append((self._route(round_id, block.attr, dead), block))
                total += block.n
        else:
            if isinstance(raw, bytes):
                raw = raw.decode("utf-8")
            _, groups = decode_feed_grouped(raw, expected_round=round_id)
            for attr, group in groups.items():
                self._check_block(attr, group.mechanism, round_id)
                batches.append((self._route(round_id, attr, dead), group))
                total += group.n
        if not batches:
            raise ValueError("feed carries no report blocks")
        demand: dict[int, int] = {}
        for shard_id, _ in batches:
            demand[shard_id] = demand.get(shard_id, 0) + 1
        for shard_id, needed in demand.items():
            if needed > self.config.queue_depth:
                # No amount of retrying can make this feed fit: reject it
                # as malformed-for-this-deployment, not as backpressure.
                raise ValueError(
                    f"feed routes {needed} blocks to shard {shard_id} but "
                    f"queue_depth is {self.config.queue_depth}; split the "
                    f"upload or raise --queue-depth"
                )
            if self.shards[shard_id].free_slots() < needed:
                raise ServiceOverloadError(
                    f"shard {shard_id} ingest queue is full "
                    f"({needed} blocks pending, "
                    f"{self.shards[shard_id].free_slots()} slots free); retry"
                )
        receipt = IngestReceipt(
            round_id=round_id, key=journal_key, digest=digest, accepted=total
        )
        if self._journals is not None and self._meta is not None:
            # Journal first, commit second, enqueue third: a crash at any
            # boundary leaves the upload either fully rolled back (the
            # client retries, exactly-once) or fully durable (the retry
            # gets a replay ack). The commit record is the pivot.
            for shard_id, block in batches:
                segment = (
                    encode_frame_block(block)
                    if isinstance(block, FrameBlock)
                    else encode_frame(
                        round_id,
                        block.reports,
                        self._expected_codec[block.attr],
                        block.attr,
                    )
                )
                self._journals[shard_id].append(journal_key, segment)
            self._meta.commit(receipt)
        for shard_id, block in batches:
            self.shards[shard_id].enqueue(block, round_id)
        if key is not None:
            self._ledger.record(receipt)
        self._uploads_accepted += 1
        if self._journals is not None:
            self._since_checkpoint += 1
            if self._since_checkpoint >= self.config.checkpoint_every:
                self.checkpoint()
        return receipt

    def submit_feed(self, data: bytes | str, round_id: str) -> int:
        """Anonymous-submission compatibility wrapper; see :meth:`submit`."""
        return self.submit(data, round_id).accepted

    def flush(self) -> None:
        """Drain every live shard queue (all accepted blocks folded in).

        Dead shards are skipped — their queues can never drain — so a
        degraded service still merges and estimates; the gap shows up in
        ``estimate()``'s coverage metadata, not as a hang.
        """
        for shard in self.shards:
            if shard.alive:
                shard.flush()

    # -- merge + estimate tier ---------------------------------------------
    def _merge_round(self, round_id: str) -> dict[str, CollectionServer]:
        """Snapshot shards and fold this round's state, attr by attr."""
        snapshots = [shard.snapshot(round_id) for shard in self.shards]
        if not any(snapshots):
            raise LookupError(f"no reports ever accepted for round {round_id!r}")
        merged = self._merged.setdefault(round_id, {})
        for attr in self._attrs:
            states = [snap[attr] for snap in snapshots if attr in snap]
            if states:
                folded = merge_tree(
                    [CollectionServer.from_state(state) for state in states]
                )
                estimator = folded.estimator
            else:
                # Declared but never reported: a fresh estimator makes the
                # solve fail with the round's EmptyAggregateError.
                estimator = self.planned.choice_for(attr).make()
            server = merged.get(attr)
            if server is None:
                merged[attr] = CollectionServer.for_estimator(
                    round_id,
                    estimator,
                    attr=attr,
                    mechanism=self.planned.choice_for(attr).mechanism,
                    incremental=self.config.incremental,
                )
            else:
                server.rebind_estimator(estimator)
        return merged

    def _solve(self, merged: dict[str, CollectionServer], round_id: str) -> dict[str, Any]:
        """Solve the round, fusing across shards that share a backend.

        Each attribute solves on its home shard's backend; attributes whose
        homes share one (every attribute, by default) go through a single
        :func:`estimate_rounds` call, so same-channel attributes fuse no
        matter which shard they live on.
        """
        by_backend: dict[int, tuple[ComputeBackend | None, dict[str, CollectionServer]]] = {}
        for attr, server in merged.items():
            backend = self.shards[self.ring.shard_for(round_id, attr)].backend
            by_backend.setdefault(id(backend), (backend, {}))[1][attr] = server
        results: dict[str, Any] = {}
        for backend, servers in by_backend.values():
            results.update(
                estimate_rounds(servers, on_error="return", backend=backend)
            )
        return {attr: results[attr] for attr in merged}

    def estimate(self, round_id: str) -> dict[str, Any]:
        """Drain, merge, and solve one round; returns a JSON-safe summary.

        The result maps ``"estimates"`` per attribute (``None`` where that
        attribute's solve failed, with the failure under ``"errors"``) and
        carries the full plan-level ``"report"`` when every attribute
        solved. ``"coverage"`` reports what each attribute's estimate is
        actually built on — reports seen, home shard, and whether that
        home is alive — so a degraded round returns a usable answer with
        its caveats attached instead of failing. Raises ``LookupError``
        for a round no upload ever touched.
        """
        self.flush()
        dead = sorted(self._dead_shards())
        with self._merge_lock:
            started = time.perf_counter()
            merged = self._merge_round(round_id)
            self._merge_seconds.append(time.perf_counter() - started)
            solved = self._solve(merged, round_id)
            estimates = {
                attr: value
                for attr, value in solved.items()
                if not isinstance(value, EstimateFailure)
            }
            errors = {
                attr: value.to_dict()
                for attr, value in solved.items()
                if isinstance(value, EstimateFailure)
            }
            report = None
            if not errors:
                session = Session.from_estimators(
                    self.config.plan,
                    {attr: merged[attr].estimator for attr in self._attrs},
                    planned=self.planned,
                )
                report = session.results(precomputed=estimates).to_dict()
            coverage = {}
            for attr in self._attrs:
                home = self.ring.shard_for(round_id, attr)
                coverage[attr] = {
                    "n_reports_seen": merged[attr].n_reports,
                    "home_shard": home,
                    "home_alive": home not in dead,
                }
            return {
                "round": round_id,
                "n_reports": {
                    attr: merged[attr].n_reports for attr in self._attrs
                },
                "estimates": {
                    attr: _jsonify_estimate(estimates.get(attr))
                    for attr in self._attrs
                },
                "errors": errors,
                "coverage": coverage,
                "shards_dead": dead,
                "degraded": bool(dead),
                "report": report,
            }

    # -- windowed (continuous) collection ------------------------------------
    def _ensure_stream(self) -> Any:
        if self._stream is None:
            from repro.streaming import StreamingCollector

            self._stream = StreamingCollector(
                self.planned.make_estimators(),
                window=self.config.window,
                decay=self.config.decay,
            )
        return self._stream

    def advance_window(self, round_id: str) -> dict[str, Any]:
        """Fold one completed round into the continuous window and re-solve.

        Drains the shard queues, merges ``round_id`` exactly as
        :meth:`estimate` would, then pushes the merged per-attribute
        aggregates into the streaming scheduler
        (:class:`repro.streaming.StreamingCollector`): the sliding window
        advances in O(d) per attribute, EM warm-starts from the previous
        tick's posterior, and attributes sharing a structured channel
        solve as one fused batch. Each round may be advanced exactly once —
        advancing it again raises ``ValueError`` (reports that arrive
        after the advance would otherwise be double-counted); a round no
        upload ever touched raises ``LookupError``. With journaling, the
        advance is recorded in the meta journal together with the shard
        journals' offsets, so a restarted windowed service replays its
        tick sequence at the exact same boundaries.
        """
        if not self.config.windowed:
            raise RuntimeError(
                "collector is not in windowed mode; construct the "
                "ServiceConfig with window= or decay="
            )
        self.flush()
        with self._merge_lock:
            return self._advance_locked(round_id, record_meta=True)

    def _advance_locked(
        self, round_id: str, *, record_meta: bool
    ) -> dict[str, Any]:
        if round_id in self._advanced:
            raise ValueError(
                f"round {round_id!r} was already advanced into the window"
            )
        merged = self._merge_round(round_id)
        stream = self._ensure_stream()
        started = time.perf_counter()
        result = stream.tick(
            {attr: merged[attr].estimator for attr in self._attrs}
        )
        tick_seconds = time.perf_counter() - started
        self._advanced.append(round_id)
        if record_meta and self._meta is not None and self._journals is not None:
            self._meta.advance(
                round_id, [journal.size for journal in self._journals]
            )
        payload = result.to_dict()
        for tick in payload["attributes"].values():
            tick["estimate"] = _jsonify_estimate(tick["estimate"])
        return {
            "round": round_id,
            "tick_s": round(tick_seconds, 6),
            "n_reports": {
                attr: merged[attr].n_reports for attr in self._attrs
            },
            **payload,
        }

    def window_estimate(self) -> dict[str, Any]:
        """Latest windowed estimates plus the per-window privacy audit.

        Raises ``LookupError`` until at least one round has been advanced.
        """
        if not self.config.windowed:
            raise RuntimeError(
                "collector is not in windowed mode; construct the "
                "ServiceConfig with window= or decay="
            )
        with self._merge_lock:
            if self._stream is None or not self._advanced:
                raise LookupError("no rounds advanced into the window yet")
            stream = self._stream
            audit = self.planned.stream_audit(stream.effective_rounds)
            return {
                "mode": "window" if self.config.window is not None else "decay",
                "window": self.config.window,
                "decay": self.config.decay,
                "ticks": stream.n_ticks,
                "rounds": list(self._advanced),
                "effective_rounds": stream.effective_rounds,
                "estimates": {
                    attr: _jsonify_estimate(value)
                    for attr, value in stream.estimates().items()
                },
                "audit": audit.to_dict(),
            }

    # -- observability -----------------------------------------------------
    def rounds(self) -> list[str]:
        seen: set[str] = set()
        for shard in self.shards:
            seen |= shard.rounds()
        return sorted(seen)

    def stats(self) -> dict[str, Any]:
        merge_ms = sorted(s * 1000.0 for s in self._merge_seconds)
        journal_info = None
        if self._journals is not None:
            journal_info = {
                "dir": str(self.config.journal_dir),
                "fsync": self.config.journal_fsync,
                "bytes": [journal.size for journal in self._journals],
                "checkpoint_every": self.config.checkpoint_every,
                "since_checkpoint": self._since_checkpoint,
                "recovered_records": self._recovered_records,
            }
        return {
            "n_shards": len(self.shards),
            "windowed": self.config.windowed,
            "window_ticks": 0 if self._stream is None else self._stream.n_ticks,
            "rounds": self.rounds(),
            "shards": [shard.stats() for shard in self.shards],
            "shards_dead": sorted(self._dead_shards()),
            "uploads_accepted": self._uploads_accepted,
            "dedup": {
                "entries": len(self._ledger),
                "capacity": self._ledger.capacity,
                "replays_served": self._replays_served,
                "conflicts": self._conflicts,
            },
            "journal": journal_info,
            "merges": len(merge_ms),
            "merge_ms_max": round(merge_ms[-1], 3) if merge_ms else None,
            "merge_ms_last": (
                round(self._merge_seconds[-1] * 1000.0, 3) if merge_ms else None
            ),
        }

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            for shard in self.shards:
                shard.close()
            if self._journals is not None:
                for journal in self._journals:
                    journal.close()
            if self._meta is not None:
                self._meta.close()

    def __enter__(self) -> "ShardedCollector":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
