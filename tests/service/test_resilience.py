"""Durable journals, checkpoints, idempotent ingest, and crash recovery.

The headline property: for seeded fault plans crashing the service at
*any* journal/commit boundary, a recovered collector's estimates are
**bit-identical** (JSON-equal) to a fault-free run's, and client retries
through idempotency keys are exactly-once — duplicates and lost acks
change nothing.
"""

import asyncio
import json
import sys
import threading
import time

import pytest

from repro.protocol.frames import iter_frame_blocks
from repro.protocol.server import CollectionServer
from repro.service import (
    DedupLedger,
    Fault,
    FaultPlan,
    IdempotencyConflictError,
    IngestReceipt,
    InjectedCrash,
    InjectedFault,
    MetaJournal,
    ServiceConfig,
    ShardAggregator,
    ShardJournal,
    ShardedCollector,
    load_checkpoint,
    start_local_service,
    write_checkpoint,
)
from repro.service import core, resilience
from repro.service.loadgen import http_request, synthesize_frames
from repro.tasks import AnalysisPlan, AttributeSpec, Distribution, Mean


CRASH_SITES = (
    "journal.append.before",
    "journal.append.after",
    "journal.truncate",
    "meta.commit.before",
    "meta.commit.after",
)


def make_plan() -> AnalysisPlan:
    return AnalysisPlan(
        epsilon=2.0,
        attributes=(
            AttributeSpec("age", low=0.0, high=100.0, d=16),
            AttributeSpec("income", low=0.0, high=1e5, d=16),
        ),
        tasks=(Distribution("age"), Mean("income")),
    )


def keyed_uploads(plan, round_id="r1", n_users=1500, seed=7, batch=300):
    """``(key, frame)`` uploads — one stable idempotency key per frame."""
    frames = synthesize_frames(
        plan, round_id, n_users, batch_size=batch, rng=seed
    )
    return [
        (f"up-{round_id}-{index}", frame)
        for index, (frame, _n) in enumerate(frames)
    ]


def estimates_of(collector, round_id="r1") -> str:
    collector.flush()
    return json.dumps(collector.estimate(round_id)["estimates"], sort_keys=True)


def config_for(tmp_path, *, faults=None, n_shards=3, **kwargs) -> ServiceConfig:
    return ServiceConfig(
        plan=make_plan(),
        n_shards=n_shards,
        journal_dir=tmp_path / "wal",
        faults=faults,
        **kwargs,
    )


def fault_free_baseline(tmp_path, uploads, round_id="r1") -> str:
    with ShardedCollector(config_for(tmp_path / "baseline")) as collector:
        for key, frame in uploads:
            collector.submit(frame, round_id, key=key)
        return estimates_of(collector, round_id)


# ----------------------------------------------------------------------
# journal primitives
# ----------------------------------------------------------------------


class TestShardJournal:
    def test_append_replay_roundtrip(self, tmp_path):
        journal = ShardJournal(tmp_path / "s.journal")
        records = [(f"k{i}", bytes([i]) * (10 + i)) for i in range(5)]
        for key, segment in records:
            journal.append(key, segment)
        got = [(r.key, bytes(r.segment)) for r in journal.replay()]
        assert got == records
        assert journal.good_offset() == journal.size
        journal.close()

    def test_torn_tail_is_detected_and_truncated(self, tmp_path):
        journal = ShardJournal(tmp_path / "s.journal")
        journal.append("good", b"A" * 32)
        good = journal.size
        journal.append("torn", b"B" * 32)
        journal.close()
        # Tear the second record: keep only part of it on disk.
        raw = (tmp_path / "s.journal").read_bytes()
        (tmp_path / "s.journal").write_bytes(raw[: good + 11])
        journal = ShardJournal(tmp_path / "s.journal")
        assert [r.key for r in journal.replay()] == ["good"]
        assert journal.good_offset() == good
        journal.truncate_to(good)
        assert journal.size == good
        journal.close()

    def test_corrupt_record_stops_replay(self, tmp_path):
        journal = ShardJournal(tmp_path / "s.journal")
        journal.append("one", b"A" * 32)
        good = journal.size
        journal.append("two", b"B" * 32)
        journal.close()
        raw = bytearray((tmp_path / "s.journal").read_bytes())
        raw[-5] ^= 0xFF  # flip a byte inside the second record's payload
        (tmp_path / "s.journal").write_bytes(bytes(raw))
        journal = ShardJournal(tmp_path / "s.journal")
        assert [r.key for r in journal.replay()] == ["one"]
        assert journal.good_offset() == good
        journal.close()

    def test_replay_from_offset(self, tmp_path):
        journal = ShardJournal(tmp_path / "s.journal")
        offset = journal.append("one", b"A" * 8)
        journal.append("two", b"B" * 8)
        assert [r.key for r in journal.replay(offset)] == ["two"]
        journal.close()

    def test_closed_journal_rejects_appends(self, tmp_path):
        journal = ShardJournal(tmp_path / "s.journal")
        journal.close()
        with pytest.raises(RuntimeError, match="closed"):
            journal.append("k", b"x")

    def test_bad_fsync_policy_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="fsync"):
            ShardJournal(tmp_path / "s.journal", fsync="sometimes")


class TestMetaJournal:
    def test_commit_advance_roundtrip(self, tmp_path):
        meta = MetaJournal(tmp_path / "meta.log")
        receipt = IngestReceipt("r1", "up-1", "abcd", 300)
        meta.commit(receipt)
        meta.advance("r1", [10, 20, 30])
        records = meta.read()
        assert [r["kind"] for r in records] == ["commit", "advance"]
        assert records[0]["key"] == "up-1"
        assert records[0]["accepted"] == 300
        assert records[1]["offsets"] == [10, 20, 30]
        meta.close()

    def test_torn_line_stops_read(self, tmp_path):
        meta = MetaJournal(tmp_path / "meta.log")
        meta.commit(IngestReceipt("r1", "up-1", "abcd", 10))
        meta.close()
        with open(tmp_path / "meta.log", "ab") as f:
            f.write(b"deadbeef {not json")  # no digest match, no newline
        meta = MetaJournal(tmp_path / "meta.log")
        assert [r["key"] for r in meta.read()] == ["up-1"]
        meta.close()

    def test_rewrite_replaces_contents(self, tmp_path):
        meta = MetaJournal(tmp_path / "meta.log")
        meta.commit(IngestReceipt("r1", "a", "d1", 1))
        meta.commit(IngestReceipt("r1", "b", "d2", 2))
        records = meta.read()
        meta.rewrite(records[-1:])
        assert [r["key"] for r in meta.read()] == ["b"]
        meta.close()


class TestDedupLedger:
    def test_lookup_miss_then_replay_hit(self):
        ledger = DedupLedger(capacity=4)
        assert ledger.lookup("k", "d") is None
        ledger.record(IngestReceipt("r1", "k", "d", 42))
        replay = ledger.lookup("k", "d")
        assert replay is not None
        assert replay.replayed is True
        assert replay.accepted == 42

    def test_key_reuse_with_different_digest_conflicts(self):
        ledger = DedupLedger(capacity=4)
        ledger.record(IngestReceipt("r1", "k", "d1", 42))
        with pytest.raises(IdempotencyConflictError):
            ledger.lookup("k", "d2")

    def test_lru_eviction_is_bounded(self):
        ledger = DedupLedger(capacity=2)
        for i in range(5):
            ledger.record(IngestReceipt("r1", f"k{i}", f"d{i}", i))
        assert len(ledger) == 2
        assert ledger.lookup("k0", "d0") is None  # evicted
        assert ledger.lookup("k4", "d4") is not None


class TestCheckpointFiles:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "shard-0.ckpt"
        write_checkpoint(
            path,
            journal_offset=128,
            states={"r1": {"age": {"n": 10}}},
            counters={"blocks": 3, "reports": 10, "errors": 0},
        )
        ckpt = load_checkpoint(path)
        assert ckpt is not None
        assert ckpt["journal_offset"] == 128
        assert ckpt["states"] == {"r1": {"age": {"n": 10}}}
        assert ckpt["counters"]["reports"] == 10

    def test_missing_or_corrupt_means_full_replay(self, tmp_path):
        path = tmp_path / "shard-0.ckpt"
        assert load_checkpoint(path) is None
        slot = write_checkpoint(path, journal_offset=0, states={})
        raw = bytearray(slot.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        slot.write_bytes(bytes(raw))
        assert load_checkpoint(path) is None


SLOT_STATES = {"r1": {"age": {"n": 10, "counts": list(range(16))}}}


class TestCheckpointSlots:
    """Two alternating slots: a torn write never costs the previous one."""

    def test_generations_alternate_between_two_slots(self, tmp_path):
        path = tmp_path / "shard-0.ckpt"
        slots = [
            write_checkpoint(path, generation=g, journal_offset=g, states={})
            for g in (1, 2, 3)
        ]
        assert [slot.name for slot in slots] == [
            "shard-0.ckpt.1", "shard-0.ckpt.0", "shard-0.ckpt.1",
        ]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "shard-0.ckpt.0", "shard-0.ckpt.1",
        ]
        ckpt = load_checkpoint(path)
        assert ckpt["generation"] == 3 and ckpt["journal_offset"] == 3

    @pytest.mark.parametrize("idle", [False, True])
    def test_write_torn_at_any_byte_loads_previous_generation(
        self, tmp_path, idle
    ):
        """A write torn after any byte loads generation 2, unless the bytes
        that landed already make up the whole generation 3. ``idle``:
        generation 3 carries the payload of the generation 1 it
        overwrites, as an idle shard's would."""
        path = tmp_path / "shard-0.ckpt"
        write_checkpoint(path, generation=1, journal_offset=10, states=SLOT_STATES)
        write_checkpoint(path, generation=2, journal_offset=20, states={})
        older = (tmp_path / "shard-0.ckpt.1").read_bytes()  # generation 1
        newer = {"journal_offset": 10, "states": SLOT_STATES}
        if not idle:
            newer = {"journal_offset": 30, "states": {"r1": {"income": {"n": 3}}}}
        record = write_checkpoint(
            tmp_path / "probe.ckpt", generation=3, **newer
        ).read_bytes()
        landed_at = []
        for keep in range(len(record) + 1):
            (tmp_path / "shard-0.ckpt.1").write_bytes(older)
            faults = FaultPlan([Fault("checkpoint.truncate", at=1, keep_bytes=keep)])
            with pytest.raises(InjectedCrash):
                write_checkpoint(path, generation=3, faults=faults, **newer)
            landed = (record[:keep] + older[keep:])[: len(record)] == record
            if landed:
                landed_at.append(keep)
            ckpt = load_checkpoint(path)
            assert ckpt is not None
            assert (ckpt["generation"], ckpt["journal_offset"]) == (
                (3, newer["journal_offset"]) if landed else (2, 20)
            ), keep
        # Only an idle write lands before its last byte: the tail it skips
        # already holds the same bytes.
        assert (landed_at[0] < len(record)) == idle

    def test_both_slots_torn_means_no_checkpoint(self, tmp_path):
        path = tmp_path / "shard-0.ckpt"
        for generation in (1, 2):
            slot = write_checkpoint(
                path, generation=generation, journal_offset=0, states={}
            )
            raw = bytearray(slot.read_bytes())
            raw[len(raw) // 2] ^= 0xFF
            slot.write_bytes(bytes(raw))
        assert load_checkpoint(path) is None

    def test_legacy_single_file_checkpoint_is_ignored(self, tmp_path):
        (tmp_path / "shard-0.ckpt").write_bytes(b"legacy checkpoint bytes")
        assert load_checkpoint(tmp_path / "shard-0.ckpt") is None


# ----------------------------------------------------------------------
# restart + recovery
# ----------------------------------------------------------------------


class TestRestartBitIdentity:
    def test_plain_restart_is_bit_identical(self, tmp_path):
        uploads = keyed_uploads(make_plan())
        config = config_for(tmp_path)
        with ShardedCollector(config) as collector:
            for key, frame in uploads:
                collector.submit(frame, "r1", key=key)
            before = estimates_of(collector)
        with ShardedCollector(config) as recovered:
            stats = recovered.stats()
            assert stats["uploads_accepted"] == len(uploads)
            assert stats["journal"]["recovered_records"] >= len(uploads)
            assert estimates_of(recovered) == before

    def test_replay_acks_survive_restart(self, tmp_path):
        uploads = keyed_uploads(make_plan())
        config = config_for(tmp_path)
        with ShardedCollector(config) as collector:
            receipts = [
                collector.submit(frame, "r1", key=key)
                for key, frame in uploads
            ]
            assert all(not r.replayed for r in receipts)
            before = estimates_of(collector)
        with ShardedCollector(config) as recovered:
            for key, frame in uploads:  # the client retries everything
                receipt = recovered.submit(frame, "r1", key=key)
                assert receipt.replayed is True
            assert recovered.stats()["uploads_accepted"] == len(uploads)
            assert estimates_of(recovered) == before

    def test_checkpoint_bounds_the_replay_tail(self, tmp_path):
        uploads = keyed_uploads(make_plan())
        config = config_for(tmp_path, checkpoint_every=2, dedup_capacity=64)
        with ShardedCollector(config) as collector:
            for key, frame in uploads:
                collector.submit(frame, "r1", key=key)
            before = estimates_of(collector)
        with ShardedCollector(config) as recovered:
            # Most of the journal is absorbed by checkpoints: only the
            # post-checkpoint tail replays.
            tail = recovered.stats()["journal"]["recovered_records"]
            assert tail < len(uploads)
            assert estimates_of(recovered) == before

    def test_duplicates_change_nothing(self, tmp_path):
        """Identical results with and without client retries."""
        uploads = keyed_uploads(make_plan())
        baseline = fault_free_baseline(tmp_path, uploads)
        with ShardedCollector(config_for(tmp_path / "dup")) as collector:
            for key, frame in uploads:
                first = collector.submit(frame, "r1", key=key)
                again = collector.submit(frame, "r1", key=key)
                assert first.replayed is False
                assert again.replayed is True
                assert again.accepted == first.accepted
            assert collector.stats()["uploads_accepted"] == len(uploads)
            assert collector.stats()["dedup"]["replays_served"] == len(uploads)
            assert estimates_of(collector) == baseline

    def test_restart_with_another_shard_count_is_refused(self, tmp_path):
        """A journal directory keeps the shard count that wrote it. Fewer
        shards would never open the other journals; more would move a
        key's home off the shard whose journal holds it."""
        uploads = keyed_uploads(make_plan())
        for written, restarted in ((2, 1), (1, 4)):
            config = config_for(tmp_path / f"{written}to{restarted}", n_shards=written)
            with ShardedCollector(config) as collector:
                for key, frame in uploads:
                    collector.submit(frame, "r1", key=key)
                before = estimates_of(collector)
            journals = sorted(config.journal_dir.glob("shard-*.journal"))
            assert len(journals) == written
            other = config_for(tmp_path / f"{written}to{restarted}", n_shards=restarted)
            with pytest.raises(
                ValueError, match=rf"holds {written} shard.*n_shards is {restarted}"
            ):
                ShardedCollector(other)
            # Refused before any file is opened: the writing count recovers.
            assert sorted(config.journal_dir.glob("shard-*.journal")) == journals
            with ShardedCollector(config) as recovered:
                assert estimates_of(recovered) == before


class TestJournalDirShardCount:
    """A journal directory is bound to the shard count that wrote it."""

    @pytest.mark.parametrize(
        ("present", "n_shards"),
        [((0, 1, 2), 2), ((0,), 3), ((0, 2), 3), ((1, 2), 2)],
        ids=["fewer", "more", "gap", "renumbered"],
    )
    def test_another_journal_set_is_refused_before_any_file_is_made(
        self, tmp_path, present, n_shards
    ):
        journal_dir = tmp_path / "wal"
        journal_dir.mkdir()
        for index in present:
            (journal_dir / f"shard-{index}.journal").touch()
        listing = sorted(journal_dir.iterdir())
        with pytest.raises(
            ValueError, match=rf"holds {len(present)} shard.*n_shards is {n_shards}"
        ):
            ShardedCollector(config_for(tmp_path, n_shards=n_shards))
        assert sorted(journal_dir.iterdir()) == listing

    def test_directory_without_shard_journals_takes_any_count(self, tmp_path):
        journal_dir = tmp_path / "wal"
        journal_dir.mkdir()
        (journal_dir / "notes.txt").write_text("not a journal")
        config = config_for(tmp_path, n_shards=4)
        with ShardedCollector(config) as collector:
            for key, frame in keyed_uploads(make_plan()):
                collector.submit(frame, "r1", key=key)
            before = estimates_of(collector)
        assert sorted(path.name for path in journal_dir.glob("shard-*.journal")) == [
            f"shard-{index}.journal" for index in range(4)
        ]
        with ShardedCollector(config) as recovered:
            assert estimates_of(recovered) == before


class TestCrashRecoveryProperty:
    """Crash at every journal/commit boundary; recovery is bit-identical."""

    @pytest.mark.parametrize("site", CRASH_SITES)
    @pytest.mark.parametrize("at", [1, 3])
    def test_single_crash_at_boundary(self, tmp_path, site, at):
        uploads = keyed_uploads(make_plan())
        baseline = fault_free_baseline(tmp_path, uploads)
        config = config_for(
            tmp_path / "crash", faults=FaultPlan([Fault(site, at=at)])
        )
        collector = ShardedCollector(config)
        crashes = replays = 0
        try:
            for key, frame in uploads:
                while True:
                    try:
                        receipt = collector.submit(frame, "r1", key=key)
                    except InjectedFault:
                        # Simulated process death: abandon the collector
                        # and restart from checkpoint + journal.
                        crashes += 1
                        collector.close()
                        collector = ShardedCollector(config)
                        continue
                    replays += receipt.replayed
                    break
            assert crashes == 1
            assert estimates_of(collector) == baseline
            assert collector.stats()["uploads_accepted"] == len(uploads)
            if site == "meta.commit.after":
                # Committed before the crash: the retry is a replay ack.
                assert replays == 1
            else:
                # Rolled back: the retry re-ingests, nothing is doubled.
                assert replays == 0
        finally:
            collector.close()

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_seeded_random_crash_storm(self, tmp_path, seed):
        uploads = keyed_uploads(make_plan())
        baseline = fault_free_baseline(tmp_path, uploads)
        faults = FaultPlan(
            [Fault(site, prob=0.12, times=None) for site in CRASH_SITES],
            seed=seed,
        )
        config = config_for(tmp_path / "storm", faults=faults)
        collector = ShardedCollector(config)
        crashes = 0
        try:
            for key, frame in uploads:
                for _ in range(200):
                    try:
                        collector.submit(frame, "r1", key=key)
                        break
                    except InjectedFault:
                        crashes += 1
                        collector.close()
                        collector = ShardedCollector(config)
                else:  # pragma: no cover - fault storm never let one through
                    pytest.fail("upload never survived the fault storm")
            assert crashes > 0  # the storm actually stormed
            assert estimates_of(collector) == baseline
            assert collector.stats()["uploads_accepted"] == len(uploads)
        finally:
            collector.close()


def reports_in(collector) -> int:
    """Reports the shards have folded, read without solving anything."""
    return sum(shard["reports_ingested"] for shard in collector.stats()["shards"])


async def post_upload(handle, key, frame):
    status, payload, _reader, writer = await http_request(
        handle.host, handle.port, "POST", "/v1/rounds/r1/reports",
        body=frame, headers={"Idempotency-Key": key},
    )
    writer.close()
    return status, json.loads(payload)


async def post_advance(handle, round_id):
    status, payload, _reader, writer = await http_request(
        handle.host, handle.port, "POST", f"/v1/rounds/{round_id}/advance"
    )
    writer.close()
    return status, json.loads(payload)


class TestJournalFailures:
    """A torn commit line or a journal write that raises loses no
    acknowledged upload and counts none twice, across restarts."""

    @pytest.mark.parametrize("torn", ["half", "newline"])
    def test_restart_truncates_a_torn_commit_line(self, tmp_path, torn):
        """A death halfway through the next commit line (its digest fails),
        or just before its newline (its digest holds, the line is open)."""
        uploads = keyed_uploads(make_plan())
        baseline = fault_free_baseline(tmp_path, uploads)
        config = config_for(tmp_path / "torn", n_shards=2)
        with ShardedCollector(config) as collector:
            for key, frame in uploads[:2]:
                collector.submit(frame, "r1", key=key)
        line = MetaJournal._line({"kind": "commit", "key": uploads[2][0]})
        keep = len(line) // 2 if torn == "half" else len(line) - 1
        with open(config.journal_dir / "meta.log", "ab") as handle:
            handle.write(line[:keep])
        with ShardedCollector(config) as restarted:
            assert reports_in(restarted) == 600
            for key, frame in uploads[2:]:
                restarted.submit(frame, "r1", key=key)
            assert reports_in(restarted) == 1500
            assert estimates_of(restarted) == baseline
        with ShardedCollector(config) as again:
            assert again.stats()["uploads_accepted"] == len(uploads)
            assert reports_in(again) == 1500
            assert estimates_of(again) == baseline

    @pytest.mark.parametrize("landed", [False, True])
    def test_raising_journal_write_stops_admission_until_restart(
        self, tmp_path, monkeypatch, landed
    ):
        """The commit of upload 2 raises ENOSPC once, before or after its
        line reaches the log; the same-key retry must count once."""
        uploads = keyed_uploads(make_plan())
        baseline = fault_free_baseline(tmp_path, uploads)
        config = config_for(tmp_path / "enospc", n_shards=2)
        collector = ShardedCollector(config)
        real_commit = collector._meta.commit
        failures = [OSError(28, "No space left on device")]

        def commit(receipt):
            if receipt.key == uploads[1][0] and failures:
                if landed:
                    real_commit(receipt)
                raise failures.pop()
            real_commit(receipt)

        monkeypatch.setattr(collector._meta, "commit", commit)
        try:
            collector.submit(uploads[0][1], "r1", key=uploads[0][0])
            with pytest.raises(core.JournalFailedError, match="No space left"):
                collector.submit(uploads[1][1], "r1", key=uploads[1][0])
            # The same-key retry is refused, and so is every other upload.
            for key, frame in uploads[1:]:
                with pytest.raises(core.JournalFailedError, match="restarted"):
                    collector.submit(frame, "r1", key=key)
            assert reports_in(collector) == 300
        finally:
            collector.close()
        with ShardedCollector(config) as restarted:
            assert restarted.stats()["uploads_accepted"] == 1 + landed
            assert reports_in(restarted) == 300 * (1 + landed)
            replayed = [
                restarted.submit(frame, "r1", key=key).replayed
                for key, frame in uploads[1:]
            ]
            assert replayed == [landed, False, False, False]
            assert reports_in(restarted) == 1500
            assert estimates_of(restarted) == baseline
        with ShardedCollector(config) as again:
            assert again.stats()["uploads_accepted"] == len(uploads)
            assert reports_in(again) == 1500
            assert estimates_of(again) == baseline

    @pytest.mark.parametrize("failing", [0, 1])
    def test_raising_shard_append_is_rolled_back_at_restart(
        self, tmp_path, monkeypatch, failing
    ):
        """Upload 2's first or second block append raises EIO. Blocks
        journaled before it were never committed: the restart drops them,
        and the same-key retry lands once."""
        uploads = keyed_uploads(make_plan())
        baseline = fault_free_baseline(tmp_path, uploads)
        config = config_for(tmp_path / "eio", n_shards=2)
        collector = ShardedCollector(config)
        appended = []

        def failing_append(real):
            def append(key, segment):
                if key == uploads[1][0]:
                    appended.append(key)
                    if len(appended) == failing + 1:
                        raise OSError(5, "Input/output error")
                return real(key, segment)

            return append

        for journal in collector._journals:
            monkeypatch.setattr(journal, "append", failing_append(journal.append))
        try:
            collector.submit(uploads[0][1], "r1", key=uploads[0][0])
            with pytest.raises(core.JournalFailedError, match="Input/output"):
                collector.submit(uploads[1][1], "r1", key=uploads[1][0])
            with pytest.raises(core.JournalFailedError, match="restarted"):
                collector.submit(uploads[1][1], "r1", key=uploads[1][0])
            orphans = [
                record.key
                for journal in collector._journals
                for record in journal.replay(0)
                if record.key == uploads[1][0]
            ]
            assert len(orphans) == failing
        finally:
            collector.close()
        with ShardedCollector(config) as restarted:
            assert restarted.stats()["uploads_accepted"] == 1
            assert reports_in(restarted) == 300
            for journal in restarted._journals:
                assert {record.key for record in journal.replay(0)} <= {uploads[0][0]}
            for key, frame in uploads[1:]:
                assert not restarted.submit(frame, "r1", key=key).replayed
            assert estimates_of(restarted) == baseline
        with ShardedCollector(config) as again:
            assert again.stats()["uploads_accepted"] == len(uploads)
            assert reports_in(again) == 1500
            assert estimates_of(again) == baseline

    @pytest.mark.parametrize(
        "stage",
        [
            pytest.param(("_meta", "commit"), id="commit"),
            pytest.param(("_journals", "append"), id="append"),
        ],
    )
    def test_raising_journal_write_is_503(self, tmp_path, monkeypatch, stage):
        uploads = keyed_uploads(make_plan())
        logs, method = stage
        with start_local_service(config_for(tmp_path, n_shards=2)) as handle:

            def fail(*args):
                raise OSError(5, "Input/output error")

            found = getattr(handle.collector, logs)
            for log in found if isinstance(found, list) else [found]:
                monkeypatch.setattr(log, method, fail)
            for key, frame in (uploads[0], uploads[0], uploads[1]):
                status, payload = asyncio.run(post_upload(handle, key, frame))
                assert status == 503, payload
                assert "Input/output error" in payload["error"]
                assert "restarted" in payload["error"]
            assert handle.collector.stats()["uploads_accepted"] == 0


class TestWindowedJournalFailures:
    """A journal write that raises in windowed mode stops advances too, so
    the restarted window equals the live one and no round is lost."""

    ROUNDS = ("r1", "r2", "r3")

    def uploads(self):
        plan = make_plan()
        return {
            round_id: keyed_uploads(plan, round_id=round_id, n_users=600, seed=4)
            for round_id in self.ROUNDS
        }

    def window_of(self, collector) -> str:
        return json.dumps(collector.window_estimate(), sort_keys=True)

    def baseline(self, tmp_path, uploads) -> str:
        config = config_for(tmp_path / "baseline", n_shards=2, window=2)
        with ShardedCollector(config) as collector:
            for round_id in self.ROUNDS:
                for key, frame in uploads[round_id]:
                    collector.submit(frame, round_id, key=key)
                collector.advance_window(round_id)
            return self.window_of(collector)

    @pytest.mark.parametrize("landed", [False, True])
    def test_raising_commit_refuses_advances_until_restart(
        self, tmp_path, monkeypatch, landed
    ):
        """r2's second upload fails to commit, before or after its line
        lands. An advance recorded after a landed line would replay over
        an upload the live window never folded, so it is refused."""
        uploads = self.uploads()
        baseline = self.baseline(tmp_path, uploads)
        config = config_for(tmp_path / "enospc", n_shards=2, window=2)
        failing = uploads["r2"][1][0]
        collector = ShardedCollector(config)
        real_commit = collector._meta.commit
        failures = [OSError(28, "No space left on device")]

        def commit(receipt):
            if receipt.key == failing and failures:
                if landed:
                    real_commit(receipt)
                raise failures.pop()
            real_commit(receipt)

        monkeypatch.setattr(collector._meta, "commit", commit)
        try:
            for key, frame in uploads["r1"]:
                collector.submit(frame, "r1", key=key)
            collector.advance_window("r1")
            collector.submit(uploads["r2"][0][1], "r2", key=uploads["r2"][0][0])
            with pytest.raises(core.JournalFailedError, match="No space left"):
                collector.submit(uploads["r2"][1][1], "r2", key=failing)
            with pytest.raises(core.JournalFailedError, match="restarted"):
                collector.advance_window("r2")
            live = self.window_of(collector)
        finally:
            collector.close()
        with ShardedCollector(config) as restarted:
            assert self.window_of(restarted) == live
            replayed = [
                restarted.submit(frame, "r2", key=key).replayed
                for key, frame in uploads["r2"]
            ]
            assert replayed == [True, landed]
            restarted.advance_window("r2")
            for key, frame in uploads["r3"]:
                restarted.submit(frame, "r3", key=key)
            restarted.advance_window("r3")
            assert self.window_of(restarted) == baseline
        with ShardedCollector(config) as again:
            assert self.window_of(again) == baseline

    @pytest.mark.parametrize("landed", [False, True])
    def test_raising_advance_record_refuses_later_rounds_until_restart(
        self, tmp_path, monkeypatch, landed
    ):
        """r2's advance record fails to write, before or after it lands.
        Nothing more is admitted or advanced; after the restart r2 is
        advanced once, and r3 after it, as in a fault-free run."""
        uploads = self.uploads()
        baseline = self.baseline(tmp_path, uploads)
        config = config_for(tmp_path / "eio", n_shards=2, window=2)
        collector = ShardedCollector(config)
        real_advance = collector._meta.advance

        def advance(round_id, offsets):
            if round_id == "r2":
                if landed:
                    real_advance(round_id, offsets)
                raise OSError(5, "Input/output error")
            real_advance(round_id, offsets)

        monkeypatch.setattr(collector._meta, "advance", advance)
        try:
            for round_id in ("r1", "r2"):
                for key, frame in uploads[round_id]:
                    collector.submit(frame, round_id, key=key)
            collector.advance_window("r1")
            with pytest.raises(core.JournalFailedError, match="Input/output"):
                collector.advance_window("r2")
            key, frame = uploads["r3"][0]
            with pytest.raises(core.JournalFailedError, match="restarted"):
                collector.submit(frame, "r3", key=key)
            with pytest.raises(core.JournalFailedError, match="restarted"):
                collector.advance_window("r3")
        finally:
            collector.close()
        with ShardedCollector(config) as restarted:
            advanced = ["r1", "r2"] if landed else ["r1"]
            assert restarted.window_estimate()["rounds"] == advanced
            if landed:
                with pytest.raises(ValueError, match="already advanced"):
                    restarted.advance_window("r2")
            else:
                restarted.advance_window("r2")
            for key, frame in uploads["r3"]:
                restarted.submit(frame, "r3", key=key)
            restarted.advance_window("r3")
            assert self.window_of(restarted) == baseline
        with ShardedCollector(config) as again:
            assert self.window_of(again) == baseline

    def test_refused_advance_is_503(self, tmp_path, monkeypatch):
        uploads = self.uploads()
        config = config_for(tmp_path, n_shards=2, window=2)
        with start_local_service(config) as handle:

            def fail(*args):
                raise OSError(5, "Input/output error")

            monkeypatch.setattr(handle.collector._meta, "commit", fail)
            key, frame = uploads["r1"][0]
            assert asyncio.run(post_upload(handle, key, frame))[0] == 503
            status, payload = asyncio.run(post_advance(handle, "r1"))
            assert status == 503, payload
            assert "restarted" in payload["error"]


def replay_prefix(config, shard_id, journal_offset) -> dict:
    """A fresh replay of one shard's journal from 0 up to ``journal_offset``."""
    shard = ShardAggregator(shard_id, config)
    journal = ShardJournal(config.journal_dir / f"shard-{shard_id}.journal")
    try:
        for record in journal.replay(0):
            if record.end_offset > journal_offset:
                break
            for block in iter_frame_blocks(record.segment):
                shard._fold(block.round_id, block)
        return json.loads(json.dumps(shard.snapshot_all()))
    finally:
        journal.close()


def restart_healthy(config) -> ShardedCollector:
    """Restart until no fault fired while writing the recovery checkpoint."""
    while True:
        fired = len(config.faults.fired)
        collector = ShardedCollector(config)
        if len(config.faults.fired) == fired:
            return collector
        collector.close()


def tear(slot) -> None:
    """Overwrite the middle of a checkpoint slot in place."""
    with open(slot, "r+b") as handle:
        handle.seek(slot.stat().st_size // 2)
        handle.write(b"\x00" * 8)


class TestCheckpointCuts:
    """A checkpoint is a cut at a journal offset, written by the writer."""

    def test_every_checkpoint_equals_a_replay_of_its_journal_prefix(
        self, tmp_path, monkeypatch
    ):
        written = []
        real_write = core.write_checkpoint

        def recording_write(path, **kwargs):
            # Runs on the checkpoint writer, while admission keeps going.
            written.append(
                (
                    int(path.name.split("-")[1].split(".")[0]),
                    kwargs["journal_offset"],
                    json.loads(json.dumps(kwargs["states"])),
                )
            )
            return real_write(path, **kwargs)

        monkeypatch.setattr(core, "write_checkpoint", recording_write)
        uploads = [
            upload
            for round_id in ("r1", "r2")
            for upload in keyed_uploads(
                make_plan(), round_id=round_id, n_users=1800, batch=150
            )
        ]
        config = config_for(tmp_path, checkpoint_every=1, dedup_capacity=64)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ShardedCollector(config) as collector:
                for key, frame in uploads:
                    collector.submit(frame, key.split("-")[1], key=key)
                before = {rid: estimates_of(collector, rid) for rid in ("r1", "r2")}
        finally:
            sys.setswitchinterval(interval)
        assert len(written) == len(uploads) * config.n_shards
        assert any(offset > 0 for _, offset, _ in written)
        for shard_id, offset, states in written:
            assert states == replay_prefix(config, shard_id, offset)
        with ShardedCollector(config) as recovered:
            replayed = recovered.stats()["journal"]["recovered_records"]
            assert replayed < config.checkpoint_every * config.n_shards
            after = {rid: estimates_of(recovered, rid) for rid in ("r1", "r2")}
        assert after == before

    @pytest.mark.parametrize("torn", [0, 1, 2])
    def test_restart_over_torn_slots_is_bit_identical(self, tmp_path, torn):
        """Tear the newest ``torn`` slots of every shard, then restart."""
        uploads = keyed_uploads(make_plan())
        config = config_for(tmp_path, checkpoint_every=2)
        with ShardedCollector(config) as collector:
            for key, frame in uploads:
                collector.submit(frame, "r1", key=key)
            before = estimates_of(collector)
        prefixes = [
            config.journal_dir / f"shard-{shard_id}.ckpt"
            for shard_id in range(config.n_shards)
        ]
        for prefix in prefixes:
            newest = load_checkpoint(prefix)["generation"]
            assert newest == 2  # cuts after uploads 2 and 4
            for generation in (newest, newest - 1)[:torn]:
                tear(prefix.with_name(f"{prefix.name}.{generation % 2}"))
            ckpt = load_checkpoint(prefix)
            assert (ckpt["generation"] if ckpt else None) == {0: 2, 1: 1, 2: None}[torn]
        with ShardedCollector(config) as recovered:
            replayed = recovered.stats()["journal"]["recovered_records"]
            # Two blocks an upload: the tail after the newest intact cut.
            assert replayed == 2 * (1, 3, 5)[torn]
            assert estimates_of(recovered) == before
            assert recovered.stats()["uploads_accepted"] == len(uploads)
            # Recovery's own cut continues the generations: it is the one
            # that loads next, at the journal's end.
            for shard_id, prefix in enumerate(prefixes):
                ckpt = load_checkpoint(prefix)
                journal = config.journal_dir / f"shard-{shard_id}.journal"
                assert ckpt["generation"] == (3, 2, 1)[torn]
                assert ckpt["journal_offset"] == journal.stat().st_size

    def test_version_1_slots_are_skipped_on_restart(self, tmp_path, monkeypatch):
        """Version-1 slots carried a ``backend`` estimator param that no
        estimator takes now; recovery treats them as absent and replays."""
        uploads = keyed_uploads(make_plan())
        baseline = fault_free_baseline(tmp_path, uploads)
        config = config_for(tmp_path / "v1", checkpoint_every=2)
        with ShardedCollector(config) as collector:
            for key, frame in uploads:
                collector.submit(frame, "r1", key=key)
        forged = []
        for shard_id in range(config.n_shards):
            prefix = config.journal_dir / f"shard-{shard_id}.ckpt"
            for generation in (1, 2):
                slot = resilience._read_slot(
                    prefix.with_name(f"{prefix.name}.{generation % 2}")
                )
                assert slot["generation"] == generation
                for attrs in slot["states"].values():
                    for state in attrs.values():
                        params = state["estimator"]["params"]
                        if "postprocess" in params:  # EMConfig fields
                            params["backend"] = None
                            forged.append(state)
                with monkeypatch.context() as patch:
                    patch.setattr(resilience, "_CHECKPOINT_VERSION", 1)
                    write_checkpoint(
                        prefix,
                        generation=generation,
                        journal_offset=slot["journal_offset"],
                        states=slot["states"],
                        counters=slot["counters"],
                    )
            assert load_checkpoint(prefix) is None
        assert forged
        with pytest.raises(TypeError, match="backend"):
            CollectionServer.from_state(forged[0])
        with ShardedCollector(config) as recovered:
            stats = recovered.stats()
            # Two blocks an upload, every one replayed from the journal.
            assert stats["journal"]["recovered_records"] == 2 * len(uploads)
            assert stats["uploads_accepted"] == len(uploads)
            assert estimates_of(recovered) == baseline

    def test_slots_with_the_incremental_key_still_restore(self, tmp_path):
        """Older version-2 slots carry ``"incremental": false`` in every
        shard server payload; recovery loads them and replays only the tail."""
        uploads = keyed_uploads(make_plan())
        baseline = fault_free_baseline(tmp_path, uploads)
        config = config_for(tmp_path / "old", checkpoint_every=2)
        with ShardedCollector(config) as collector:
            for key, frame in uploads:
                collector.submit(frame, "r1", key=key)
        for shard_id in range(config.n_shards):
            prefix = config.journal_dir / f"shard-{shard_id}.ckpt"
            for generation in (1, 2):
                slot = resilience._read_slot(
                    prefix.with_name(f"{prefix.name}.{generation % 2}")
                )
                for attrs in slot["states"].values():
                    for state in attrs.values():
                        state["incremental"] = False
                write_checkpoint(
                    prefix,
                    generation=generation,
                    journal_offset=slot["journal_offset"],
                    states=slot["states"],
                    counters=slot["counters"],
                )
            states = load_checkpoint(prefix)["states"]
            assert all(
                state["incremental"] is False
                for attrs in states.values()
                for state in attrs.values()
            )
        with ShardedCollector(config) as recovered:
            # Two blocks an upload: only the fifth upload follows the last cut.
            assert recovered.stats()["journal"]["recovered_records"] == 2
            assert estimates_of(recovered) == baseline

    def test_torn_checkpoint_write_recovers_from_the_other_slot(self, tmp_path):
        uploads = keyed_uploads(make_plan(), n_users=3000)
        baseline = fault_free_baseline(tmp_path, uploads)
        # Two shards, each holding one attribute of r1. Hit 5 is the third
        # cut's write of shard 0: it overwrites the slot holding that
        # shard's first generation.
        faults = FaultPlan([Fault("checkpoint.truncate", at=5)])
        config = config_for(
            tmp_path / "torn", faults=faults, n_shards=2, checkpoint_every=2
        )
        collector = ShardedCollector(config)
        torn = []
        try:
            for key, frame in uploads:
                collector.submit(frame, "r1", key=key)
                collector.flush()  # the crash mid-write ends the writer
                if faults.fired and not torn:
                    writer = collector._writer._thread
                    writer.join(timeout=10.0)
                    assert not writer.is_alive()
                    torn.append(
                        load_checkpoint(config.journal_dir / "shard-0.ckpt")["generation"]
                    )
                    collector.close()  # the process died: restart it
                    collector = ShardedCollector(config)
                    assert collector.stats()["journal"]["recovered_records"] > 0
            assert faults.fired == (("checkpoint.truncate", 5),)
            assert torn == [2]
            assert estimates_of(collector) == baseline
            assert collector.stats()["uploads_accepted"] == len(uploads)
            for key, frame in uploads:  # exactly-once: every retry is a replay
                assert collector.submit(frame, "r1", key=key).replayed
            assert estimates_of(collector) == baseline
        finally:
            collector.close()

    @pytest.mark.parametrize("seed", [1, 2])
    def test_seeded_storm_with_torn_checkpoints(self, tmp_path, seed):
        uploads = keyed_uploads(make_plan())
        baseline = fault_free_baseline(tmp_path, uploads)
        sites = (*CRASH_SITES, "checkpoint.truncate")
        faults = FaultPlan(
            [Fault(site, prob=0.12, times=None) for site in sites], seed=seed
        )
        config = config_for(tmp_path / "storm", faults=faults, checkpoint_every=1)
        collector = restart_healthy(config)
        try:
            for key, frame in uploads:
                for _ in range(200):
                    fired = len(faults.fired)
                    try:
                        collector.submit(frame, "r1", key=key)
                    except InjectedFault:
                        pass
                    else:
                        collector.flush()
                        if len(faults.fired) == fired:
                            break
                    collector.close()
                    collector = restart_healthy(config)
                else:  # pragma: no cover - fault storm never let one through
                    pytest.fail("upload never survived the fault storm")
            assert any(site == "checkpoint.truncate" for site, _ in faults.fired)
            assert estimates_of(collector) == baseline
            assert collector.stats()["uploads_accepted"] == len(uploads)
        finally:
            collector.close()

    def test_failed_checkpoint_write_is_counted_not_fatal(self, tmp_path):
        uploads = keyed_uploads(make_plan())
        config = config_for(tmp_path, n_shards=1, checkpoint_every=1)
        with ShardedCollector(config) as collector:
            collector.submit(uploads[0][1], "r1", key=uploads[0][0])
            collector.flush()
            prefix = config.journal_dir / "shard-0.ckpt"
            assert load_checkpoint(prefix)["generation"] == 1
            # Generation 2's slot cannot be opened for writing.
            prefix.with_name(f"{prefix.name}.0").mkdir()
            collector.submit(uploads[1][1], "r1", key=uploads[1][0])
            collector.flush()
            shard = collector.stats()["shards"][0]
            assert shard["checkpoint_errors"] == 1
            assert "IsADirectoryError" in shard["last_checkpoint_error"]
            assert shard["checkpoint_generation"] == 1
            assert load_checkpoint(prefix)["journal_offset"] > 0
            for key, frame in uploads[2:]:
                collector.submit(frame, "r1", key=key)
            before = estimates_of(collector)
        with ShardedCollector(config) as recovered:
            assert estimates_of(recovered) == before


    def test_injected_crash_ends_the_writer_and_admission_goes_on(
        self, tmp_path, monkeypatch
    ):
        """A crash mid-write kills the writer thread alone, as a killed
        process would end it: the thread returns without an unhandled
        exception, flush() stops waiting for it, uploads are still
        admitted and folded, and a restart recovers them all."""
        unhandled = []
        monkeypatch.setattr(threading, "excepthook", unhandled.append)
        uploads = keyed_uploads(make_plan())
        faults = FaultPlan([Fault("checkpoint.truncate", at=1)])
        config = config_for(tmp_path, faults=faults, n_shards=1, checkpoint_every=1)
        with ShardedCollector(config) as collector:
            key, frame = uploads[0]
            collector.submit(frame, "r1", key=key)
            collector.flush()
            writer = collector._writer._thread
            writer.join(timeout=10.0)
            assert not writer.is_alive()
            assert faults.fired == (("checkpoint.truncate", 1),)
            for key, frame in uploads[1:]:
                collector.submit(frame, "r1", key=key)
            collector.flush()  # returns at once: nothing will write the cuts
            stats = collector.stats()
            assert stats["uploads_accepted"] == len(uploads)
            assert stats["shards"][0]["checkpoints_pending"] == len(uploads)
            assert stats["shards"][0]["checkpoint_generation"] == 0
            before = estimates_of(collector)
        assert unhandled == []
        with ShardedCollector(config) as recovered:
            assert estimates_of(recovered) == before
            assert recovered.stats()["uploads_accepted"] == len(uploads)


def hold_journal_fsync(monkeypatch, collector):
    """Park the next fsync of shard 0's journal until ``release`` is set."""
    entered, release = threading.Event(), threading.Event()
    journal = collector._journals[0]
    real_sync = journal.sync

    def held_sync():
        entered.set()
        assert release.wait(timeout=10.0)
        real_sync()

    monkeypatch.setattr(journal, "sync", held_sync)
    return entered, release


class TestCheckpointWriter:
    """A slow checkpoint fsync stalls neither admission nor the folds."""

    @pytest.fixture(autouse=True)
    def writer_backlog(self, monkeypatch):
        monkeypatch.setattr(core, "CHECKPOINT_BACKLOG", 2)

    def config(self, tmp_path) -> ServiceConfig:
        # One attribute on one shard: every upload is one block.
        plan = AnalysisPlan(
            epsilon=2.0,
            attributes=(AttributeSpec("age", low=0.0, high=100.0, d=16),),
            tasks=(Distribution("age"),),
        )
        return ServiceConfig(
            plan=plan,
            n_shards=1,
            checkpoint_every=1,
            journal_dir=tmp_path / "wal",
        )

    def test_uploads_fold_while_a_journal_fsync_is_held(
        self, tmp_path, monkeypatch
    ):
        config = self.config(tmp_path)
        uploads = keyed_uploads(config.plan, n_users=1200, batch=100)
        with ShardedCollector(config) as collector:
            entered, release = hold_journal_fsync(monkeypatch, collector)
            shard = collector.shards[0]
            try:
                collector.submit(uploads[0][1], "r1", key=uploads[0][0])
                assert entered.wait(timeout=10.0)
                held_at = time.perf_counter()
                for key, frame in uploads[1:8]:
                    collector.submit(frame, "r1", key=key)
                stats = shard.stats()
                assert stats["blocks_ingested"] == 8
                # The stall shows in the backlog first: eight cuts handed,
                # none on disk yet.
                assert stats["checkpoints_pending"] == 8
                assert stats["checkpoint_ms_max"] is None
                time.sleep(0.02)
                held_ms = (time.perf_counter() - held_at) * 1000.0
            finally:
                release.set()
            collector.flush()
            stats = shard.stats()
            assert stats["checkpoints_pending"] == 0
            assert stats["checkpoint_ms_max"] >= held_ms - 0.001
            # Cut 1 was held; cuts 2 and 3 filled the writer's two places,
            # and each later cut replaced cut 3's snapshot unwritten.
            ckpt = load_checkpoint(config.journal_dir / "shard-0.ckpt")
            assert ckpt["generation"] == stats["checkpoint_generation"] == 3
            journal = config.journal_dir / "shard-0.journal"
            assert ckpt["journal_offset"] == journal.stat().st_size
            assert ckpt["states"] == replay_prefix(config, 0, ckpt["journal_offset"])
            for key, frame in uploads[8:]:
                collector.submit(frame, "r1", key=key)
                collector.flush()
            before = estimates_of(collector)
        with ShardedCollector(config) as recovered:
            assert recovered.stats()["journal"]["recovered_records"] == 0
            assert estimates_of(recovered) == before
            assert recovered.stats()["uploads_accepted"] == len(uploads)

    def test_keyed_http_uploads_accepted_while_a_journal_fsync_is_held(
        self, tmp_path, monkeypatch
    ):
        config = self.config(tmp_path)
        uploads = keyed_uploads(config.plan, n_users=800, batch=100)

        async def post(handle, key, frame):
            status, payload, _reader, writer = await http_request(
                handle.host, handle.port, "POST", "/v1/rounds/r1/reports",
                body=frame, headers={"Idempotency-Key": key},
            )
            writer.close()
            return status, json.loads(payload)

        with start_local_service(config) as handle:
            collector = handle.service.collector
            entered, release = hold_journal_fsync(monkeypatch, collector)
            shard = collector.shards[0]
            try:
                for index, (key, frame) in enumerate(uploads):
                    status, payload = asyncio.run(post(handle, key, frame))
                    assert status == 202, payload
                    if index == 0:
                        assert entered.wait(timeout=10.0)
                assert shard.stats()["checkpoints_pending"] == len(uploads)
            finally:
                release.set()
            collector.flush()
            assert shard.stats()["reports_ingested"] == 800
            assert shard.stats()["checkpoint_errors"] == 0


    def test_estimate_returns_while_a_journal_fsync_is_held(
        self, tmp_path, monkeypatch
    ):
        """A poll waits for no checkpoint write: every acked upload is
        already folded, so estimate() answers while the fsync is held."""
        config = self.config(tmp_path)
        uploads = keyed_uploads(config.plan, n_users=400, batch=100)
        with ShardedCollector(config) as collector:
            entered, release = hold_journal_fsync(monkeypatch, collector)
            try:
                for key, frame in uploads:
                    collector.submit(frame, "r1", key=key)
                assert entered.wait(timeout=10.0)
                result = {}
                poll = threading.Thread(
                    target=lambda: result.update(collector.estimate("r1"))
                )
                poll.start()
                poll.join(timeout=5.0)
                assert not poll.is_alive(), "estimate() waited on the fsync"
                assert not release.is_set()
                assert result["n_reports"] == {"age": 400}
                assert collector.stats()["shards"][0]["checkpoints_pending"] > 0
            finally:
                release.set()
            collector.flush()
            assert collector.stats()["shards"][0]["checkpoints_pending"] == 0

    def test_snapshots_replaced_under_thread_churn(self, tmp_path, monkeypatch):
        """Four shards, a one-snapshot writer backlog and a 1 µs switch
        interval: every written checkpoint equals a replay of its journal
        prefix, and every cut is written or replaced by a newer one."""
        monkeypatch.setattr(core, "CHECKPOINT_BACKLOG", 1)
        written = []
        entered, release = threading.Event(), threading.Event()
        real_write = core.write_checkpoint

        def recording_write(path, **kwargs):
            entered.set()
            assert release.wait(timeout=10.0)
            written.append(
                (
                    int(path.name.split("-")[1].split(".")[0]),
                    kwargs["journal_offset"],
                    json.loads(json.dumps(kwargs["states"])),
                )
            )
            return real_write(path, **kwargs)

        monkeypatch.setattr(core, "write_checkpoint", recording_write)
        uploads = keyed_uploads(make_plan(), n_users=3000, batch=100)
        config = config_for(
            tmp_path, n_shards=4, checkpoint_every=1, dedup_capacity=64,
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ShardedCollector(config) as collector:
                for index, (key, frame) in enumerate(uploads):
                    if index == len(uploads) // 2:
                        # The first write held while half the uploads
                        # were cut: each shard's backlog stayed at one.
                        assert entered.wait(timeout=10.0)
                        queued = [item.shard for item in collector._writer._queue]
                        assert len(queued) == len(set(queued)) == config.n_shards
                        release.set()
                    collector.submit(frame, "r1", key=key)
                before = estimates_of(collector)
                shards = collector.stats()["shards"]
        finally:
            release.set()
            sys.setswitchinterval(interval)
        cuts = len(uploads) * config.n_shards
        assert len(written) == sum(s["checkpoint_generation"] for s in shards)
        assert len(written) < cuts
        assert all(s["checkpoints_pending"] == 0 for s in shards)
        for shard_id, offset, states in written:
            assert states == replay_prefix(config, shard_id, offset)
        newest = {shard_id: offset for shard_id, offset, _ in written}
        for shard_id in range(config.n_shards):
            journal = config.journal_dir / f"shard-{shard_id}.journal"
            assert newest[shard_id] == journal.stat().st_size
        with ShardedCollector(config) as recovered:
            assert recovered.stats()["journal"]["recovered_records"] == 0
            assert estimates_of(recovered) == before


class TestWindowedRecovery:
    def test_windowed_restart_replays_ticks_bit_identically(self, tmp_path):
        plan = make_plan()
        config = config_for(tmp_path, window=2)
        with ShardedCollector(config) as collector:
            for round_id in ("r1", "r2", "r3"):
                for key, frame in keyed_uploads(
                    plan, round_id=round_id, n_users=600, seed=4
                ):
                    collector.submit(frame, round_id, key=key)
                collector.advance_window(round_id)
            before = json.dumps(collector.window_estimate(), sort_keys=True)
        with ShardedCollector(config) as recovered:
            after = json.dumps(recovered.window_estimate(), sort_keys=True)
            assert after == before
            # The advance-once guard survives recovery too.
            with pytest.raises(ValueError, match="already advanced"):
                recovered.advance_window("r3")
