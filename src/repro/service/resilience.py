"""Durable ingest journals, checkpoints, and idempotent-upload machinery.

Everything the fault-tolerant collector leans on lives here, as plain
file-format + ledger primitives with no service state of their own:

* :class:`ShardJournal` — a per-shard append-only write-ahead log of
  accepted wire blocks. Each record is a length-prefixed envelope
  (``u32 length | 16-byte BLAKE2b digest | u16 key length | key |
  RPF2 segment``) whose payload is a standalone single-block frame
  (:func:`repro.protocol.frames.encode_frame_block`), so replay decodes
  through the exact same codec path live ingest uses. A torn tail —
  short record, short header, digest mismatch — terminates replay at the
  last good offset instead of corrupting state; the fsync policy
  (``"always"``/``"checkpoint"``/``"never"``) trades durability window
  for append latency.

* :class:`MetaJournal` — the collector-level commit log. An upload is
  *accepted* only once its ``commit`` record (idempotency key, content
  digest, accepted count, round) lands here, strictly after its blocks
  hit the shard journals. Recovery treats shard-journal records whose
  key never committed as a rolled-back upload and skips them — which is
  what makes a crash *between* journal append and commit safe: the
  client saw no ack, retries with the same key, and the retry is
  ingested exactly once. ``advance`` records capture windowed-mode round
  advances together with the per-shard journal offsets at advance time,
  so streaming recovery can replay ticks at their original boundaries.

* :class:`DedupLedger` — the bounded in-memory idempotency ledger
  consulted inside the all-or-nothing capacity check. A repeated key
  with the same content digest is a **replay** (acked again with the
  original count, nothing ingested); the same key over different bytes
  is a **conflict** (:exc:`IdempotencyConflictError`, HTTP 409).

* :func:`write_checkpoint` / :func:`load_checkpoint` — per-shard state
  snapshots (the estimators' ``to_state()`` payloads plus the journal
  offset they cover), so recovery replays only the journal tail. Each
  shard alternates between two slot files, ``shard-N.ckpt.0`` and
  ``shard-N.ckpt.1``, overwritten in place under a header carrying the
  generation, the payload length and a BLAKE2b digest; loading picks the
  newest slot that verifies. No checkpoint step truncates, renames or
  deletes a file, so none frees disk blocks.

The bit-identity argument, in one place: per shard, live fold order is
admission order (one serialized admitting thread appends, one worker
drains a FIFO), journal append order *is* admission order, and recovery
folds checkpoint-state + committed tail records in journal order —
identical sequences of identical block folds produce bit-identical
estimator states, and identical states solve to bit-identical estimates.
A checkpoint is a cut in that sequence: the worker snapshots its states
when it reaches the cut's task in its FIFO, having folded exactly the
journal records before the cut's offset, and the collector's checkpoint
writer puts that snapshot on disk.
"""

from __future__ import annotations

import json
import os
import struct
from collections import OrderedDict
from dataclasses import dataclass
from hashlib import blake2b
from pathlib import Path
from typing import Any, Iterator

from repro.service.faults import FaultPlan, InjectedCrash

__all__ = [
    "DedupLedger",
    "FSYNC_POLICIES",
    "IdempotencyConflictError",
    "IngestReceipt",
    "JournalRecord",
    "MetaJournal",
    "ShardJournal",
    "load_checkpoint",
    "write_checkpoint",
]

#: When journal appends reach the disk platter. ``"always"`` fsyncs every
#: record (zero-loss, slowest); ``"checkpoint"`` fsyncs at checkpoints and
#: flushes the OS buffer per record (loses at most the post-checkpoint
#: window on *power* failure, nothing on process crash); ``"never"`` leaves
#: it to the OS entirely.
FSYNC_POLICIES = ("always", "checkpoint", "never")

_RECORD_HEAD = struct.Struct("<I16s")
_KEY_LEN = struct.Struct("<H")

#: Ceiling on one journal record's envelope; mirrors the upload body limit
#: plus headroom. Anything larger is a corrupt length field.
_MAX_RECORD_BYTES = 64 * 1024 * 1024


class IdempotencyConflictError(RuntimeError):
    """The same idempotency key was reused for different content (409)."""


@dataclass(frozen=True)
class IngestReceipt:
    """What one upload resolved to: accepted fresh, or acked as a replay."""

    round_id: str
    key: str
    digest: str
    accepted: int
    replayed: bool = False

    def to_dict(self) -> dict[str, Any]:
        return {
            "round": self.round_id,
            "key": self.key,
            "accepted": self.accepted,
            "replayed": self.replayed,
        }


@dataclass(frozen=True)
class JournalRecord:
    """One replayed shard-journal record."""

    key: str
    segment: bytes
    end_offset: int


def _digest(payload: bytes) -> bytes:
    return blake2b(payload, digest_size=16).digest()


class _AppendLog:
    """An append-only file under an fsync policy: what both journals share."""

    def __init__(
        self,
        path: str | Path,
        *,
        fsync: str = "checkpoint",
        faults: FaultPlan | None = None,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"fsync must be one of {FSYNC_POLICIES}, got {fsync!r}"
            )
        self.path = Path(path)
        self.fsync = fsync
        self.faults = faults
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._file = open(self.path, "ab")
        self._closed = False

    @property
    def size(self) -> int:
        """Current end offset (bytes)."""
        self._file.flush()
        return self.path.stat().st_size

    def sync(self) -> None:
        """Flush and fsync the log (the ``"checkpoint"`` policy hook)."""
        if not self._closed:
            self._file.flush()
            if self.fsync != "never":
                os.fsync(self._file.fileno())

    def truncate_to(self, offset: int) -> None:
        """Drop a crash-torn tail so new appends start at a record boundary."""
        self._file.flush()
        self._file.truncate(offset)
        self._file.seek(offset)
        if self.fsync != "never":
            os.fsync(self._file.fileno())

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._file.flush()
            self._file.close()


class ShardJournal(_AppendLog):
    """Append-only write-ahead log of one shard's accepted wire blocks."""

    def append(self, key: str, segment: bytes) -> int:
        """Append one record; returns the journal offset after it.

        The record is ``head | envelope`` where the head carries the
        envelope length and its BLAKE2b-128 digest. Fault sites fire
        around (and inside, for torn writes) the physical write.
        """
        if self._closed:
            raise RuntimeError("journal is closed")
        key_raw = key.encode("utf-8")
        envelope = _KEY_LEN.pack(len(key_raw)) + key_raw + segment
        record = _RECORD_HEAD.pack(len(envelope), _digest(envelope)) + envelope
        if self.faults is not None:
            self.faults.crash("journal.append.before")
            keep = self.faults.truncation("journal.truncate", len(record))
            if keep is not None:
                self._file.write(record[:keep])
                self._file.flush()
                raise InjectedCrash("journal.truncate", keep)
        self._file.write(record)
        self._file.flush()
        if self.fsync == "always":
            os.fsync(self._file.fileno())
        if self.faults is not None:
            self.faults.crash("journal.append.after")
        return self._file.tell()

    def replay(self, start_offset: int = 0) -> Iterator[JournalRecord]:
        """Yield records from ``start_offset``; stop cleanly at a torn tail.

        A record that cannot be read whole — short head, short envelope,
        digest mismatch, or an absurd length field — is a crash-torn tail
        by construction (the file is append-only), so iteration ends at
        the last intact record rather than raising.
        """
        self._file.flush()
        with open(self.path, "rb") as handle:
            handle.seek(start_offset)
            offset = start_offset
            while True:
                head = handle.read(_RECORD_HEAD.size)
                if len(head) < _RECORD_HEAD.size:
                    return
                length, digest = _RECORD_HEAD.unpack(head)
                if length < _KEY_LEN.size or length > _MAX_RECORD_BYTES:
                    return
                envelope = handle.read(length)
                if len(envelope) < length or _digest(envelope) != digest:
                    return
                (key_len,) = _KEY_LEN.unpack_from(envelope)
                if _KEY_LEN.size + key_len > length:
                    return
                key = envelope[_KEY_LEN.size : _KEY_LEN.size + key_len].decode(
                    "utf-8"
                )
                segment = envelope[_KEY_LEN.size + key_len :]
                offset += _RECORD_HEAD.size + length
                yield JournalRecord(key=key, segment=segment, end_offset=offset)

    def good_offset(self, start_offset: int = 0) -> int:
        """Offset just past the last intact record (torn tail excluded)."""
        offset = start_offset
        for record in self.replay(start_offset):
            offset = record.end_offset
        return offset


class MetaJournal(_AppendLog):
    """Collector-level commit log: upload commits and window advances.

    JSON-lines with a per-line BLAKE2b digest prefix (``<hex> <json>``),
    so a torn final line is detected, and truncated at recovery, exactly
    like a torn shard-journal record. Compaction (:meth:`rewrite`) is
    atomic.
    """

    @staticmethod
    def _line(record: dict[str, Any]) -> bytes:
        body = json.dumps(record, separators=(",", ":"), sort_keys=True)
        raw = body.encode("utf-8")
        return _digest(raw).hex().encode("ascii") + b" " + raw + b"\n"

    def append(self, record: dict[str, Any]) -> None:
        if self._closed:
            raise RuntimeError("meta journal is closed")
        self._file.write(self._line(record))
        self._file.flush()
        if self.fsync == "always":
            os.fsync(self._file.fileno())

    def commit(self, receipt: IngestReceipt) -> None:
        """Record one upload as durably accepted (fault sites around it)."""
        if self.faults is not None:
            self.faults.crash("meta.commit.before")
        self.append(
            {
                "kind": "commit",
                "key": receipt.key,
                "digest": receipt.digest,
                "round": receipt.round_id,
                "accepted": receipt.accepted,
            }
        )
        if self.faults is not None:
            self.faults.crash("meta.commit.after")

    def advance(self, round_id: str, offsets: list[int]) -> None:
        """Record one windowed-round advance at its journal boundaries."""
        self.append({"kind": "advance", "round": round_id, "offsets": offsets})

    def _scan(self) -> tuple[list[dict[str, Any]], int]:
        """Intact records in append order, and the offset just past them."""
        self._file.flush()
        records: list[dict[str, Any]] = []
        good = 0
        with open(self.path, "rb") as handle:
            for line in handle:
                if not line.endswith(b"\n"):
                    break  # torn tail
                prefix, _, raw = line.rstrip(b"\n").partition(b" ")
                if _digest(raw).hex().encode("ascii") != prefix:
                    break  # corruption implies everything after is suspect
                records.append(json.loads(raw.decode("utf-8")))
                good += len(line)
        return records, good

    def read(self) -> list[dict[str, Any]]:
        """All intact records in append order (torn/corrupt lines dropped)."""
        return self._scan()[0]

    def good_offset(self) -> int:
        """Offset just past the last intact line (torn tail excluded).

        Recovery truncates the log here before anything appends: a line
        appended after a torn one would be glued onto it, and :meth:`read`
        stops at the glued line, losing every later record.
        """
        return self._scan()[1]

    def rewrite(self, records: list[dict[str, Any]]) -> None:
        """Atomically replace the log (checkpoint-time compaction)."""
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        with open(tmp, "wb") as handle:
            for record in records:
                handle.write(self._line(record))
            handle.flush()
            if self.fsync != "never":
                os.fsync(handle.fileno())
        os.replace(tmp, self.path)
        self._file.close()
        self._file = open(self.path, "ab")


class DedupLedger:
    """Bounded idempotency ledger: key -> (content digest, receipt).

    LRU-bounded at ``capacity`` entries; a key older than the ledger's
    horizon is treated as new, so the exactly-once guarantee extends to
    the most recent ``capacity`` uploads — the config layer enforces
    ``capacity >= checkpoint_every`` so the replay window after recovery
    is always covered.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._entries: OrderedDict[str, IngestReceipt] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: str, digest: str) -> IngestReceipt | None:
        """The replay receipt for ``key``, or ``None`` when unseen.

        Raises :exc:`IdempotencyConflictError` when the key is known but
        the content digest differs — a client bug worth failing loudly.
        """
        entry = self._entries.get(key)
        if entry is None:
            return None
        if entry.digest != digest:
            raise IdempotencyConflictError(
                f"idempotency key {key!r} was first used for digest "
                f"{entry.digest!r} but this upload carries {digest!r}; "
                "keys must be unique per payload"
            )
        self._entries.move_to_end(key)
        return IngestReceipt(
            round_id=entry.round_id,
            key=entry.key,
            digest=entry.digest,
            accepted=entry.accepted,
            replayed=True,
        )

    def record(self, receipt: IngestReceipt) -> None:
        self._entries[receipt.key] = IngestReceipt(
            round_id=receipt.round_id,
            key=receipt.key,
            digest=receipt.digest,
            accepted=receipt.accepted,
            replayed=False,
        )
        self._entries.move_to_end(receipt.key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def receipts(self) -> list[IngestReceipt]:
        """Current entries, oldest first (checkpoint compaction order)."""
        return list(self._entries.values())


# ----------------------------------------------------------------------
# checkpoints
# ----------------------------------------------------------------------

#: Version 2 dropped the compute-backend field from estimator params; a
#: version-1 slot carries it and would not rebuild, so it reads as absent.
_CHECKPOINT_VERSION = 2

#: Slot header: magic | BLAKE2b-128 digest | generation | payload length.
#: The digest covers generation, length and payload, so a write torn
#: anywhere — header included — leaves a slot that fails verification.
_SLOT_HEAD = struct.Struct("<4s16sQQ")
_SLOT_MAGIC = b"RCK2"


def _slot_path(path: Path, generation: int) -> Path:
    return path.with_name(f"{path.name}.{generation % 2}")


def _slot_digest(generation: int, payload: bytes) -> bytes:
    digest = blake2b(digest_size=16)
    digest.update(struct.pack("<QQ", generation, len(payload)))
    digest.update(payload)
    return digest.digest()


def write_checkpoint(
    path: str | Path,
    *,
    journal_offset: int,
    states: dict[str, dict[str, Any]],
    counters: dict[str, int] | None = None,
    generation: int = 1,
    faults: FaultPlan | None = None,
) -> Path:
    """Write generation ``generation`` of one shard's checkpoint.

    ``states`` maps ``round_id -> {attr: CollectionServer.to_state()}``;
    ``journal_offset`` is the shard-journal offset the states cover —
    recovery loads the states and replays strictly after it; ``counters``
    carries the shard's ingest counters at that point so observability
    survives restarts too.

    A checkpoint alternates between two slot files, ``<path>.0`` and
    ``<path>.1``; generation ``g`` overwrites slot ``g % 2`` in place and
    is fsynced. Nothing is truncated, renamed or deleted, so no write
    frees disk blocks (freeing an inode can stall for tens of
    milliseconds on a filesystem mounted with ``discard``). A crash
    mid-write tears only the older slot, and :func:`load_checkpoint`
    falls back to the newer one. Returns the slot path written.
    """
    slot = _slot_path(Path(path), generation)
    payload = json.dumps(
        {
            "version": _CHECKPOINT_VERSION,
            "journal_offset": int(journal_offset),
            "states": states,
            "counters": dict(counters or {}),
        },
        separators=(",", ":"),
    ).encode("utf-8")
    record = (
        _SLOT_HEAD.pack(
            _SLOT_MAGIC,
            _slot_digest(generation, payload),
            generation,
            len(payload),
        )
        + payload
    )
    keep = None
    if faults is not None:
        keep = faults.truncation("checkpoint.truncate", len(record))
    fd = os.open(slot, os.O_WRONLY | os.O_CREAT, 0o644)
    try:
        view = memoryview(record)[: len(record) if keep is None else keep]
        written = 0
        while written < len(view):
            written += os.pwrite(fd, view[written:], written)
        if keep is not None:
            raise InjectedCrash("checkpoint.truncate", keep)
        os.fsync(fd)
    finally:
        os.close(fd)
    return slot


def _read_slot(slot: Path) -> dict[str, Any] | None:
    """One slot's payload (with its ``generation``), or ``None``."""
    try:
        with open(slot, "rb") as handle:
            head = handle.read(_SLOT_HEAD.size)
            if len(head) < _SLOT_HEAD.size:
                return None
            magic, digest, generation, length = _SLOT_HEAD.unpack(head)
            if magic != _SLOT_MAGIC or length > os.fstat(handle.fileno()).st_size:
                return None
            payload = handle.read(length)
    except OSError:  # missing or unreadable: as good as absent
        return None
    if len(payload) < length or _slot_digest(generation, payload) != digest:
        return None
    try:
        state = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        return None
    if (
        not isinstance(state, dict)
        or state.get("version") != _CHECKPOINT_VERSION
        or not isinstance(state.get("journal_offset"), int)
        or not isinstance(state.get("states"), dict)
    ):
        return None
    state["generation"] = generation
    return state


def load_checkpoint(path: str | Path) -> dict[str, Any] | None:
    """The newest slot of ``path`` that verifies; ``None`` when neither does.

    The payload carries its slot's ``generation``. A slot that does not
    verify (torn, corrupt, wrong version) is treated as absent, and with
    both slots absent recovery falls back to a full journal replay,
    trading time for correctness rather than trusting bad state. A
    legacy single-file ``<path>`` is never read.
    """
    path = Path(path)
    loaded = [_read_slot(_slot_path(path, slot)) for slot in (0, 1)]
    valid = [ckpt for ckpt in loaded if ckpt is not None]
    return max(valid, key=lambda ckpt: ckpt["generation"], default=None)
