"""Shard partitions and the sharded collector behind the HTTP front end.

The ingest tier is a fixed set of :class:`ShardAggregator` partitions.
Each owns the :class:`~repro.protocol.server.CollectionServer`
aggregation states for the ``(round, attr)`` keys the consistent ring
(:mod:`repro.service.sharding`) assigns it; with ``journal_dir`` it also
has one write-ahead journal. Every key lives wholly on its ring home
shard. A shard runs no thread of its own: each block is folded into its
server on the admitting thread as soon as its upload is accepted, so a
real fault takes every shard down at once, and journal recovery answers
it. Memory in this tier is bounded by construction: an upload is folded
block by block (one decoded-columns block at a time, bounded by the
upload size limit), aggregation state is O(state) per key, and nothing
ever concatenates a full feed.

:class:`ShardedCollector` is the coordinator. Every upload is one RPF2
frame, handled in two steps: :meth:`~ShardedCollector.parse` is
stateless — it computes the content digest, reads the frame header,
checks every block against the plan and counts reports — so it may run
on any thread; :meth:`~ShardedCollector.submit` admits it, on one
serialized admitting thread (the HTTP tier's event loop). Admission
splits the upload into per-shard blocks, journals and commits them, then
folds each one. It is **all-or-nothing**: an upload that is not a frame
or fails validation raises before any block is journaled or folded, so
a retried upload can never double-count.

Fault tolerance is layered on the same serialization point
(:mod:`repro.service.resilience`):

* With ``journal_dir`` configured, every accepted upload's blocks are
  appended to the target shards' write-ahead logs and then sealed with a
  commit record in the collector's meta journal *before* any block is
  folded. Every ``checkpoint_every`` uploads, admission cuts a
  checkpoint: right after the upload's folds it snapshots each shard's
  states and counters, pairs them with the shard's journal end offset
  and hands them to the collector's one :class:`CheckpointWriter`
  thread. The writer fsyncs and writes the snapshots in cut order, so
  admission never waits on an fsync or a file write. A restarted
  collector recovers by loading each shard's newest verifying checkpoint
  and re-folding the committed journal tail in append order — the fold
  sequence is identical to the uninterrupted run, so the recovered
  estimates are bit-identical. Uploads that crashed before their commit
  record are rolled back (their journal records are skipped), which is
  what makes a client retry after a lost ack exactly-once rather than
  at-least-once. A journal write that raises stops admission and window
  advances (:class:`JournalFailedError`, HTTP 503) until a restart, so a
  same-key retry is never journaled beside the failed attempt's records.
  A journal directory is bound to the shard count that wrote it: the
  collector refuses to start over one holding other shard journals.
* Idempotent ingest: a caller-supplied idempotency key is checked
  against a bounded :class:`~repro.service.resilience.DedupLedger`
  first thing in admission — a repeat of an accepted upload returns a
  replay receipt (nothing ingested), a key reused for different bytes
  raises :exc:`~repro.service.resilience.IdempotencyConflictError`.

``estimate()`` is the merge tier: copy each attribute's state for the
round from its home shard, under that server's lock, into one estimator
per attribute. A round's estimators then solve together through
:func:`~repro.protocol.server.solve_cached`, against the collector's one
:class:`~repro.protocol.server.PosteriorCache` with an entry per
``(round, attr)``: an unchanged round skips its solves, a grown round
warm-starts EM, attributes on one structured channel fuse into a single
batched solve (bit-identical to solving each alone) whichever shards they
live on, and one empty attribute reports a structured error instead of
hiding every other attribute's result.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable
from uuid import uuid4

import numpy as np

from repro.api.base import Estimator
from repro.protocol.codecs import codec_for_estimator
from repro.protocol.frames import (
    FrameBlock,
    encode_frame_block,
    frame_digest,
    is_frame,
    iter_frame_blocks,
)
from repro.protocol.server import (
    CollectionServer,
    EstimateFailure,
    PosteriorCache,
    solve_cached,
    state_digest,
)
from repro.service.config import ServiceConfig
from repro.service.faults import InjectedFault
from repro.service.resilience import (
    DedupLedger,
    IdempotencyConflictError,
    IngestReceipt,
    MetaJournal,
    ShardJournal,
    load_checkpoint,
    write_checkpoint,
)
from repro.service.sharding import HashRing
from repro.tasks.session import Session

__all__ = [
    "CHECKPOINT_BACKLOG",
    "CheckpointWriter",
    "JournalFailedError",
    "NotAFrameError",
    "ParsedUpload",
    "ShardAggregator",
    "ShardedCollector",
]


#: Unwritten checkpoint snapshots the writer holds per shard; a newer cut
#: past it replaces the newest of them, so a slow disk bounds the backlog.
CHECKPOINT_BACKLOG = 64


class JournalFailedError(RuntimeError):
    """A journal write raised; no upload or advance is admitted until a
    restart (HTTP 503).

    The failed write may have left records in the journals, even a commit
    or an advance line. A same-key retry journaled beside them would make
    recovery fold the upload twice, and an advance recorded after them
    would replay over reports the live window never saw. So the collector
    refuses every upload and advance until a restart's recovery has
    settled the failed write: dropped if its line is missing, replayed if
    it landed.
    """


class NotAFrameError(ValueError):
    """An upload that is not an RPF2 frame (HTTP 415).

    Frames are the one wire format; ``python -m repro pack`` builds them.
    """

    def __init__(self, reason: str = "upload is not an RPF2 frame") -> None:
        super().__init__(
            f"{reason}; the service takes RPF2 frames only "
            "(build them with `python -m repro pack`)"
        )


@dataclass(frozen=True)
class ParsedUpload:
    """One validated upload, ready for admission.

    What :meth:`ShardedCollector.parse` returns. Producing it touches no
    collector state, so it may run on any thread.
    """

    round_id: str
    digest: str
    blocks: tuple[FrameBlock, ...]
    reports: int


def _jsonify_estimate(value: Any) -> Any:
    """JSON-safe form of one attribute's reconstruction."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    return value


@dataclass
class _ShardCounters:
    """Mutable shard counters, each with one writing thread: the admitting
    thread for the ingest fields and ``checkpoints_handed``, the
    checkpoint writer for the other checkpoint fields."""

    blocks: int = 0
    reports: int = 0
    errors: int = 0
    last_error: str | None = None
    ingest_seconds: float = 0.0
    checkpoints_handed: int = 0
    checkpoints_done: int = 0
    checkpoint_errors: int = 0
    last_checkpoint_error: str | None = None
    checkpoint_seconds_last: float | None = None
    checkpoint_seconds_max: float = 0.0


@dataclass
class _Snapshot:
    """One shard's states at a checkpoint cut, waiting for the writer."""

    shard: ShardAggregator
    journal_offset: int
    states: dict[str, dict[str, Any]]
    counters: dict[str, int]
    #: Hand-off number of the oldest cut this snapshot answers for.
    seq: int = 0
    #: Cuts it answers for: its own and every older one it replaced.
    cuts: int = 1


class ShardAggregator:
    """One shard: a partition of the servers.

    It runs no thread. Admission and journal replay both fold each block
    through :meth:`_fold`, on the calling thread.
    """

    def __init__(self, shard_id: int, config: ServiceConfig) -> None:
        self.shard_id = int(shard_id)
        self._config = config
        self._checkpoint_path = (
            None
            if config.journal_dir is None
            else Path(config.journal_dir) / f"shard-{self.shard_id}.ckpt"
        )
        self._checkpoint_generation = 0
        self._servers: dict[tuple[str, str], CollectionServer] = {}
        self._servers_lock = threading.Lock()
        self._counters = _ShardCounters()

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
                )
                self._servers[key] = server
        return server

    def _fold(self, round_id: str, block: FrameBlock) -> None:
        """Fold one block into its server, with full error accounting.

        Admission and journal replay both fold here, so a recovered shard
        reproduces exactly the counter trajectory the uninterrupted run
        would have had. Replay must fold in exact journal order, so it
        runs only while no live traffic targets the shard (collector
        construction).
        """
        started = time.perf_counter()
        try:
            server = self._server_for(round_id, block.attr)
            self._counters.reports += server._ingest_group(block.materialize())
            self._counters.blocks += 1
        except Exception as exc:
            # A block that validated at submit time but fails to fold
            # (e.g. out-of-domain reports) is dropped and surfaced via
            # /statz rather than failing the upload.
            self._counters.errors += 1
            self._counters.last_error = f"{type(exc).__name__}: {exc}"
        finally:
            self._counters.ingest_seconds += time.perf_counter() - started

    def _hand_checkpoint(self, journal_offset: int, writer: CheckpointWriter) -> None:
        """Snapshot this shard at ``journal_offset`` and hand it to ``writer``.

        Called on the admitting thread right after the last fold before
        that offset, so the snapshot is exactly the fold of the journal
        records before it. Takes no disk step: ``writer`` puts it on disk.
        """
        self._counters.checkpoints_handed += 1
        writer.hand(
            _Snapshot(self, journal_offset, self.snapshot_all(), self.counters())
        )

    def _write_checkpoint(
        self, snapshot: _Snapshot, syncs: tuple[Callable[[], None], ...]
    ) -> None:
        """Put one snapshot on disk; runs on the checkpoint writer.

        Runs ``syncs`` (the journal and meta-log fsyncs), then writes the
        next generation's slot. A failed write is counted and leaves the
        previous checkpoint in place (the next generation reuses the same
        slot). An injected crash is a process death: it propagates and
        ends the writer.
        """
        assert self._checkpoint_path is not None
        counters = self._counters
        generation = self._checkpoint_generation + 1
        started = time.perf_counter()
        try:
            for sync in syncs:
                sync()
            write_checkpoint(
                self._checkpoint_path,
                generation=generation,
                journal_offset=snapshot.journal_offset,
                states=snapshot.states,
                counters=snapshot.counters,
                faults=self._config.faults,
            )
        except Exception as exc:
            counters.checkpoint_errors += 1
            counters.last_checkpoint_error = f"{type(exc).__name__}: {exc}"
        else:
            self._checkpoint_generation = generation
        elapsed = time.perf_counter() - started
        counters.checkpoint_seconds_last = elapsed
        counters.checkpoint_seconds_max = max(counters.checkpoint_seconds_max, elapsed)
        counters.checkpoints_done += snapshot.cuts

    # -- merge-tier views --------------------------------------------------
    def snapshot(self, round_id: str, attr: str) -> dict[str, Any] | None:
        """Serialized state of one ``(round, attr)`` server, copied under
        its lock; ``None`` when this shard holds no such server."""
        with self._servers_lock:
            server = self._servers.get((round_id, attr))
        return None if server is None else server.to_state()

    def snapshot_all(self) -> dict[str, dict[str, Any]]:
        """Serialized server states for every round (checkpoint payload)."""
        with self._servers_lock:
            servers = list(self._servers.items())
        result: dict[str, dict[str, Any]] = {}
        for (round_id, attr), server in servers:
            result.setdefault(round_id, {})[attr] = server.to_state()
        return result

    def restore_checkpoint(self) -> int:
        """Rebuild servers and counters from this shard's newest verifying
        checkpoint; returns the journal offset it covers (0 when none)."""
        assert self._checkpoint_path is not None
        ckpt = load_checkpoint(self._checkpoint_path)
        if ckpt is None:
            return 0
        with self._servers_lock:
            for round_id, attrs in ckpt["states"].items():
                for attr, state in attrs.items():
                    self._servers[(round_id, attr)] = CollectionServer.from_state(
                        state
                    )
        counters = ckpt.get("counters") or {}
        self._counters.blocks = int(counters.get("blocks", 0))
        self._counters.reports = int(counters.get("reports", 0))
        self._counters.errors = int(counters.get("errors", 0))
        self._checkpoint_generation = int(ckpt["generation"])
        return int(ckpt["journal_offset"])

    def rounds(self) -> set[str]:
        with self._servers_lock:
            return {rid for rid, _ in self._servers}

    def stats(self) -> dict[str, Any]:
        c = self._counters
        # Read the writer's counter first: it never passes the admitting
        # thread's, so the difference cannot go negative between the reads.
        checkpoints_done = c.checkpoints_done
        return {
            "shard": self.shard_id,
            "blocks_ingested": c.blocks,
            "reports_ingested": c.reports,
            "ingest_errors": c.errors,
            "last_error": c.last_error,
            "ingest_seconds": round(c.ingest_seconds, 6),
            "checkpoint_generation": self._checkpoint_generation,
            "checkpoints_pending": c.checkpoints_handed - checkpoints_done,
            "checkpoint_ms_last": (
                None
                if c.checkpoint_seconds_last is None
                else round(c.checkpoint_seconds_last * 1000.0, 3)
            ),
            "checkpoint_ms_max": (
                None
                if c.checkpoint_seconds_last is None
                else round(c.checkpoint_seconds_max * 1000.0, 3)
            ),
            "checkpoint_errors": c.checkpoint_errors,
            "last_checkpoint_error": c.last_checkpoint_error,
        }

    def counters(self) -> dict[str, int]:
        """Durable subset of the ingest counters (checkpoint payload)."""
        c = self._counters
        return {"blocks": c.blocks, "reports": c.reports, "errors": c.errors}


class CheckpointWriter:
    """The one thread that puts the shards' checkpoint snapshots on disk.

    At each cut, admission calls :meth:`hand` with a snapshot of each
    shard and goes straight on; :meth:`hand` never touches the disk. The
    writer takes the snapshots in hand-off order, which is cut order for
    every shard.
    For each it fsyncs that shard's journal and the meta log, as
    ``journal_fsync`` says, then writes the shard's next checkpoint slot.
    Those fsyncs cover every record and commit before the cut, so a
    checkpoint never lands ahead of the journal it points into.

    The writer holds at most :data:`CHECKPOINT_BACKLOG` unwritten
    snapshots per shard.
    Past that, a newer cut replaces the shard's newest unwritten snapshot,
    so a disk that stays slower than the cuts bounds the writer's backlog
    instead of growing it.

    An injected crash in a write ends the thread, as a killed process
    would end it: nothing more is written until the collector restarts.
    """

    def __init__(self, journals: list[ShardJournal], meta: MetaJournal) -> None:
        self._journals = journals
        self._meta = meta
        self._cond = threading.Condition()
        self._queue: deque[_Snapshot] = deque()
        self._writing: _Snapshot | None = None
        self._handed = 0
        self._closing = False
        self._stopped = False
        self._thread = threading.Thread(
            target=self._run, name="repro-checkpoint-writer", daemon=True
        )
        self._thread.start()

    def hand(self, snapshot: _Snapshot) -> None:
        """Take one shard's snapshot; called on the admitting thread."""
        with self._cond:
            self._handed += 1
            queued = [item for item in self._queue if item.shard is snapshot.shard]
            if len(queued) >= CHECKPOINT_BACKLOG:
                newest = queued[-1]
                newest.journal_offset = snapshot.journal_offset
                newest.states = snapshot.states
                newest.counters = snapshot.counters
                newest.cuts += snapshot.cuts
                return
            snapshot.seq = self._handed
            self._queue.append(snapshot)
            self._cond.notify_all()

    def _oldest_seq(self) -> float:
        """Hand-off number of the oldest snapshot not yet written."""
        if self._writing is not None:
            return self._writing.seq
        return self._queue[0].seq if self._queue else math.inf

    def wait(self) -> None:
        """Block until every snapshot handed before this call is written,
        or the writer has stopped."""
        with self._cond:
            mark = self._handed
            self._cond.wait_for(
                lambda: self._stopped or self._oldest_seq() > mark
            )

    def _run(self) -> None:
        try:
            while True:
                with self._cond:
                    self._cond.wait_for(lambda: self._queue or self._closing)
                    if not self._queue:
                        return
                    snapshot = self._writing = self._queue.popleft()
                shard = snapshot.shard
                shard._write_checkpoint(
                    snapshot, (self._journals[shard.shard_id].sync, self._meta.sync)
                )
                with self._cond:
                    self._writing = None
                    self._cond.notify_all()
        except InjectedFault:
            return  # a simulated process death: the writer ends here
        finally:
            with self._cond:
                self._stopped = True
                self._cond.notify_all()

    def close(self) -> None:
        """Write every snapshot handed so far, then stop the thread."""
        with self._cond:
            self._closing = True
            self._cond.notify_all()
        self._thread.join()


def _check_journal_shards(journal_dir: Path, n_shards: int) -> None:
    """Refuse a journal directory written with another shard count.

    Every ``(round, attr)`` is journaled on its ring home shard, and the
    ring is a function of the shard count: a restart with fewer shards
    would never open the others' journals, and one with more would look
    for a key on a shard that never held it.
    """
    found = sorted(path.name for path in journal_dir.glob("shard-*.journal"))
    expected = sorted(f"shard-{index}.journal" for index in range(n_shards))
    if found and found != expected:
        raise ValueError(
            f"journal dir {journal_dir} holds {len(found)} shard journal(s) "
            f"({', '.join(found)}) but n_shards is {n_shards}; a journal "
            "directory keeps the shard count that wrote it, so restart with "
            "that count or start in a fresh directory"
        )


class ShardedCollector:
    """Routes uploads to their home shards and merges their answers."""

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
        # Merge tier: the last estimate per (round, attr), under _merge_lock.
        self._posteriors = PosteriorCache()
        self._merge_lock = threading.Lock()
        self._merges = 0
        self._merge_s_max = 0.0
        self._merge_s_last = 0.0
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
        self._journal_error: str | None = None
        self._journals: list[ShardJournal] | None = None
        self._meta: MetaJournal | None = None
        self._writer: CheckpointWriter | None = None
        if config.journal_dir is not None:
            journal_dir = Path(config.journal_dir)
            _check_journal_shards(journal_dir, config.n_shards)
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
            self._writer = CheckpointWriter(self._journals, self._meta)
            self._recover()

    # -- durability: recovery ----------------------------------------------
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
            shard._fold(block.round_id, block)
            self._recovered_records += 1

    def _recover(self) -> None:
        """Rebuild state from journals; called once, before any traffic."""
        assert self._journals is not None and self._meta is not None
        for log in (*self._journals, self._meta):
            good = log.good_offset()
            if good < log.size:
                log.truncate_to(good)  # crash-torn tail
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
                offset = shard.restore_checkpoint()
                for record in self._journals[shard_id].replay(offset):
                    if record.key not in committed:
                        continue  # upload rolled back: never committed
                    self._replay_segment(shard, record.segment)
                    replayed_any = True
            if replayed_any:
                self.checkpoint()
                self.flush()

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
        """Cut a checkpoint of every shard at its journal's end.

        Only the cut happens here: every admitted block is already folded,
        so each shard's states are exactly the fold of its journal records
        up to the journal's current end offset. Each is snapshotted with
        that offset and handed to the :class:`CheckpointWriter`. The
        writer fsyncs the shard's journal and the meta log (per
        ``journal_fsync``), then writes the states with the offset they
        cover, so the next recovery replays only the tail. A caller that
        needs the files on disk calls :meth:`flush` afterwards. Like
        :meth:`submit`, call it from the admitting thread. Requires
        ``journal_dir``.
        """
        if self._journals is None or self._writer is None:
            raise RuntimeError(
                "checkpointing requires a journal_dir-configured service"
            )
        for shard_id, shard in enumerate(self.shards):
            shard._hand_checkpoint(self._journals[shard_id].size, self._writer)
        self._since_checkpoint = 0

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

    def parse(self, data: bytes, round_id: str) -> ParsedUpload:
        """Decode and validate one frame without touching collector state.

        Computes the upload's content digest, checks every block against
        the plan and counts its reports. The frame is read header-first:
        its blocks stay zero-copy views until admission folds them.
        Raises :exc:`NotAFrameError` for a body without the frame magic,
        before reading anything past it, and
        ``ValueError`` for a malformed or mismatched frame.
        """
        if not is_frame(data):
            raise NotAFrameError()
        raw = bytes(data)
        blocks = []
        for block in iter_frame_blocks(raw, expected_round=round_id):
            self._check_block(block.attr, block.mechanism, block.round_id)
            blocks.append(block)
        return ParsedUpload(
            round_id=round_id,
            digest=frame_digest(raw),
            blocks=tuple(blocks),
            reports=sum(block.n for block in blocks),
        )

    def submit(
        self,
        data: bytes | ParsedUpload,
        round_id: str,
        *,
        key: str | None = None,
    ) -> IngestReceipt:
        """Admit one upload: journal it, fold it, return its receipt.

        ``data`` is the raw upload or what :meth:`parse` made of it.
        Admission is stateful and must be serialized — one admitting
        thread at a time (the HTTP tier admits on its event loop). It
        checks the idempotency ledger, routes each block to its home
        shard, journals and commits the upload, folds its blocks, records
        its key, and every ``checkpoint_every`` uploads cuts a checkpoint.

        All-or-nothing: raises ``ValueError`` (bad feed) with no block
        folded and nothing journaled as committed. A journal write that
        raises (a full or failing disk) raises
        :class:`JournalFailedError`, for that upload and every later one
        and for every advance, until the collector is restarted.

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
        if self._journal_error is not None:
            raise JournalFailedError(self._journal_error)
        upload = data if isinstance(data, ParsedUpload) else self.parse(data, round_id)
        if upload.round_id != round_id:
            raise ValueError(
                f"upload parsed for round {upload.round_id!r} "
                f"submitted to round {round_id!r}"
            )
        if key is not None:
            try:
                replay = self._ledger.lookup(key, upload.digest)
            except IdempotencyConflictError:
                self._conflicts += 1
                raise
            if replay is not None:
                self._replays_served += 1
                return replay
        batches = [
            (self.ring.shard_for(round_id, block.attr), block)
            for block in upload.blocks
        ]
        receipt = IngestReceipt(
            round_id=round_id,
            key=key if key is not None else f"anon:{uuid4().hex}",
            digest=upload.digest,
            accepted=upload.reports,
        )
        if self._journals is not None and self._meta is not None:
            # Journal first, commit second, fold third: a crash at any
            # boundary leaves the upload either fully rolled back (the
            # client retries, exactly-once) or fully durable (the retry
            # gets a replay ack). The commit record is the pivot. A write
            # that raises (not a crash: an InjectedFault is no Exception)
            # may leave this upload's records, even its commit, behind;
            # only a restart's recovery can tell which, so admission stops.
            try:
                for shard_id, block in batches:
                    self._journals[shard_id].append(
                        receipt.key, encode_frame_block(block)
                    )
                self._meta.commit(receipt)
            except Exception as exc:
                raise self._journal_failed(exc) from exc
        for shard_id, block in batches:
            self.shards[shard_id]._fold(round_id, block)
        if key is not None:
            self._ledger.record(receipt)
        self._uploads_accepted += 1
        if self._journals is not None:
            self._since_checkpoint += 1
            if self._since_checkpoint >= self.config.checkpoint_every:
                self.checkpoint()
        return receipt

    def _journal_failed(self, exc: Exception) -> JournalFailedError:
        """Stop admission after a journal write raised (see
        :class:`JournalFailedError`); returns the error to raise."""
        self._journal_error = (
            f"journal write failed ({type(exc).__name__}: {exc}); "
            "no upload or advance is admitted until the service is restarted"
        )
        return JournalFailedError(self._journal_error)

    def flush(self) -> None:
        """Wait until every checkpoint cut so far is on disk.

        Every block accepted so far is already folded: admission folds
        before it returns. So this waits for the checkpoint writer only,
        and returns at once if the writer has stopped.
        """
        if self._writer is not None:
            self._writer.wait()

    # -- merge + estimate tier ---------------------------------------------
    def _merge_round(self, round_id: str) -> dict[str, Estimator]:
        """Copy this round's state, attr by attr, from each home shard."""
        states = {
            attr: self.shards[self.ring.shard_for(round_id, attr)].snapshot(
                round_id, attr
            )
            for attr in self._attrs
        }
        if all(state is None for state in states.values()):
            raise LookupError(f"no reports ever accepted for round {round_id!r}")
        merged: dict[str, Estimator] = {}
        for attr, state in states.items():
            if state is None:
                # Declared but never reported: a fresh estimator makes the
                # solve fail with the round's EmptyAggregateError.
                merged[attr] = self.planned.choice_for(attr).make()
            else:
                merged[attr] = CollectionServer.from_state(state).estimator
        return merged

    def estimate(self, round_id: str) -> dict[str, Any]:
        """Merge and solve one round; returns a JSON-safe summary.

        The result maps ``"estimates"`` per attribute (``None`` where that
        attribute's solve failed, with the failure under ``"errors"``) and
        carries the full plan-level ``"report"`` when every attribute
        solved. Raises ``LookupError`` for a round no upload ever touched. Every upload acknowledged
        before the call is in the answer; pending checkpoint writes are not
        waited for.
        """
        with self._merge_lock:
            started = time.perf_counter()
            merged = self._merge_round(round_id)
            elapsed = time.perf_counter() - started
            self._merges += 1
            self._merge_s_last = elapsed
            self._merge_s_max = max(self._merge_s_max, elapsed)
            solves = solve_cached(
                [
                    (
                        self._posteriors,
                        (round_id, attr),
                        estimator,
                        state_digest(estimator._state()),
                    )
                    for attr, estimator in merged.items()
                ]
            )
            estimates = {
                attr: solved.estimate
                for attr, solved in zip(merged, solves, strict=True)
                if solved.error is None
            }
            errors = {
                attr: EstimateFailure(key=attr, error=solved.error).to_dict()
                for attr, solved in zip(merged, solves, strict=True)
                if solved.error is not None
            }
            report = None
            if not errors:
                session = Session.from_estimators(
                    self.config.plan, merged, planned=self.planned
                )
                report = session.results(precomputed=estimates).to_dict()
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
                "report": report,
            }

    # -- windowed (continuous) collection ------------------------------------
    def _ensure_stream(self) -> Any:
        if self._stream is None:
            from repro.streaming import StreamingCollector

            self._stream = StreamingCollector(
                self.planned.make_estimators(),
                window=self.config.window,
            )
        return self._stream

    def advance_window(self, round_id: str) -> dict[str, Any]:
        """Fold one completed round into the continuous window and re-solve.

        Merges ``round_id`` exactly as :meth:`estimate` would, then pushes the merged per-attribute
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
        tick sequence at the exact same boundaries. Once a journal write
        has raised, here or in :meth:`submit`, every advance raises
        :class:`JournalFailedError` until the collector is restarted.
        """
        if not self.config.windowed:
            raise RuntimeError(
                "collector is not in windowed mode; construct the "
                "ServiceConfig with window="
            )
        with self._merge_lock:
            if self._journal_error is not None:
                raise JournalFailedError(self._journal_error)
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
        result = stream.tick(merged)
        tick_seconds = time.perf_counter() - started
        self._advanced.append(round_id)
        if record_meta and self._meta is not None and self._journals is not None:
            # The live window has ticked; if its record is lost, only a
            # restart can tell, so nothing more is admitted or advanced.
            try:
                self._meta.advance(
                    round_id, [journal.size for journal in self._journals]
                )
            except Exception as exc:
                raise self._journal_failed(exc) from exc
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
        """Latest windowed estimates plus the stream's privacy audit.

        The audit charges every round collected
        (:attr:`~repro.streaming.StreamingCollector.n_rounds`; each advance
        pushes every attribute, so that is ``ticks``), not only the
        ``window`` rounds the estimate aggregates. Raises ``LookupError``
        until at least one round has been advanced.
        """
        if not self.config.windowed:
            raise RuntimeError(
                "collector is not in windowed mode; construct the "
                "ServiceConfig with window="
            )
        with self._merge_lock:
            if self._stream is None or not self._advanced:
                raise LookupError("no rounds advanced into the window yet")
            stream = self._stream
            audit = self.planned.stream_audit(stream.n_rounds)
            return {
                "window": self.config.window,
                "ticks": stream.n_ticks,
                "rounds": list(self._advanced),
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
            "uploads_accepted": self._uploads_accepted,
            "dedup": {
                "entries": len(self._ledger),
                "capacity": self._ledger.capacity,
                "replays_served": self._replays_served,
                "conflicts": self._conflicts,
            },
            "journal": journal_info,
            "merges": self._merges,
            "merge_ms_max": (
                round(self._merge_s_max * 1000.0, 3) if self._merges else None
            ),
            "merge_ms_last": (
                round(self._merge_s_last * 1000.0, 3) if self._merges else None
            ),
        }

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            if self._writer is not None:
                self._writer.close()
            if self._journals is not None:
                for journal in self._journals:
                    journal.close()
            if self._meta is not None:
                self._meta.close()

    def __enter__(self) -> "ShardedCollector":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
