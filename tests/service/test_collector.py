"""ShardedCollector: routing, backpressure, merge/estimate, observability."""

import asyncio
import json
import threading
from types import SimpleNamespace

import numpy as np
import pytest

import repro.engine.solver as solver_module
from repro.protocol import CollectionServer
from repro.protocol.frames import FrameBlock, encode_frame
from repro.service import ReportService, ServiceConfig, ShardedCollector
from repro.service import core
from repro.service.loadgen import synthesize_frames
from repro.tasks import (
    AnalysisPlan,
    AttributeSpec,
    Distribution,
    Mean,
    Quantiles,
    Session,
)
from tests.protocol.test_frame_fuzz import collector_fingerprint


def make_plan() -> AnalysisPlan:
    return AnalysisPlan(
        epsilon=2.0,
        attributes=(
            AttributeSpec("age", low=0.0, high=100.0, d=32),
            AttributeSpec("income", low=0.0, high=1e5, d=32),
        ),
        tasks=(
            Distribution("age"),
            Mean("income"),
            Quantiles("income", quantiles=(0.5,)),
        ),
    )


def feed_frames(plan, n_users=4000, round_id="r1", seed=7, batch=1000):
    return list(
        synthesize_frames(plan, round_id, n_users, batch_size=batch, rng=seed)
    )


def mixed_plan() -> AnalysisPlan:
    """A float attribute beside a category one (the discrete SW variant)."""
    return AnalysisPlan(
        epsilon=2.0,
        attributes=(
            AttributeSpec("age", low=0.0, high=100.0, d=16),
            AttributeSpec("grade", low=0.0, high=16.0, d=16, kind="discrete"),
        ),
        tasks=(Distribution("age"), Distribution("grade")),
    )


#: ``(attr, codec, reports)``: each block carries the other attribute's
#: payload codec, so only the mechanism comparison can refuse it.
MISMATCHED_BLOCKS = [
    ("age", "category", np.arange(40) % 16),
    ("grade", "float", np.linspace(0.0, 1.0, 40)),
]


class TestSubmitAndRoute:
    def test_accepts_frames_and_counts_reports(self):
        plan = make_plan()
        with ShardedCollector(ServiceConfig(plan=plan)) as collector:
            total = 0
            for frame, n in feed_frames(plan):
                assert collector.submit(frame, "r1").accepted == n
                total += n
            collector.flush()
            assert total == 4000
            ingested = sum(
                shard.stats()["reports_ingested"] for shard in collector.shards
            )
            assert ingested == total

    @pytest.mark.parametrize("encode", [str, str.encode], ids=["text", "bytes"])
    def test_jsonl_feed_refused(self, tmp_path, encode):
        plan = make_plan()
        feed = encode(
            '{"round_id":"r1","mech":"float","payload":0.25,"version":2,"attr":"age"}\n'
            '{"round_id":"r1","mech":"float","payload":0.5,"version":2,"attr":"income"}\n'
        )
        config = ServiceConfig(plan=plan, journal_dir=tmp_path / "wal")
        with ShardedCollector(config) as collector:
            before = collector_fingerprint(collector)
            with pytest.raises(core.NotAFrameError, match="not an RPF2 frame"):
                collector.submit(feed, "r1")
            collector.flush()
            assert collector_fingerprint(collector) == before

    def test_round_mismatch_rejected(self):
        plan = make_plan()
        frame, _ = feed_frames(plan, n_users=100, batch=100)[0]
        with ShardedCollector(ServiceConfig(plan=plan)) as collector:
            with pytest.raises(ValueError, match="round"):
                collector.submit(frame, "other-round")

    def test_undeclared_attribute_rejected(self):
        plan = make_plan()
        other = AnalysisPlan(
            epsilon=2.0,
            attributes=(AttributeSpec("height", low=0.0, high=2.5, d=32),),
            tasks=(Distribution("height"),),
        )
        frame, _ = feed_frames(other, n_users=100, batch=100)[0]
        with ShardedCollector(ServiceConfig(plan=plan)) as collector:
            with pytest.raises(ValueError, match="height"):
                collector.submit(frame, "r1")

    def test_empty_feed_rejected(self):
        plan = make_plan()
        with ShardedCollector(ServiceConfig(plan=plan)) as collector:
            with pytest.raises(ValueError):
                collector.submit(b"", "r1")

    @pytest.mark.parametrize("attr, codec, reports", MISMATCHED_BLOCKS)
    def test_mechanism_mismatch_rejected_before_any_state(
        self, tmp_path, attr, codec, reports
    ):
        frame = encode_frame("r1", reports, codec, attr=attr)
        config = ServiceConfig(plan=mixed_plan(), journal_dir=tmp_path / "wal")
        with ShardedCollector(config) as collector:
            expected = collector._expected_codec[attr].name
            assert expected != codec
            before = collector_fingerprint(collector)
            with pytest.raises(ValueError) as refused:
                collector.submit(frame, "r1")
            assert f"{codec!r}" in str(refused.value)
            assert f"{expected!r}" in str(refused.value)
            collector.flush()
            assert collector_fingerprint(collector) == before


class TestBackpressure:
    def test_checkpoint_tasks_take_no_block_slot(self, tmp_path, monkeypatch):
        """A writer backlog of 1 bounds the unwritten snapshots, not ingest:
        uploads are admitted and folded while a write is held."""
        plan = AnalysisPlan(
            epsilon=2.0,
            attributes=(AttributeSpec("age", low=0.0, high=100.0, d=32),),
            tasks=(Distribution("age"),),
        )
        frames = feed_frames(plan, n_users=1200, batch=40)
        entered, release = threading.Event(), threading.Event()
        real_write = core.write_checkpoint

        def gated_write(path, **kwargs):
            entered.set()
            assert release.wait(timeout=10.0)
            return real_write(path, **kwargs)

        monkeypatch.setattr(core, "write_checkpoint", gated_write)
        monkeypatch.setattr(core, "CHECKPOINT_BACKLOG", 1)
        config = ServiceConfig(
            plan=plan, n_shards=1, checkpoint_every=1, journal_dir=tmp_path / "wal"
        )
        with ShardedCollector(config) as collector:
            shard = collector.shards[0]
            try:
                collector.submit(frames[0][0], "r1", key="k0")
                # Admission folded block 0 and handed checkpoint 1 to the
                # writer, which now sits in its write.
                assert entered.wait(timeout=10.0)
                # Each upload is admitted and folded while the write is held.
                for index in (1, 2, 3):
                    collector.submit(frames[index][0], "r1", key=f"k{index}")
                assert shard.stats()["blocks_ingested"] == 4
            finally:
                release.set()
            collector.flush()
            for index, (frame, _n) in enumerate(frames[4:], start=4):
                collector.submit(frame, "r1", key=f"k{index}")
                collector.flush()
            stats = collector.stats()["shards"][0]
            assert stats["reports_ingested"] == 1200
            # The writer holds 1 unwritten snapshot per shard:
            # cuts 3 and 4 each replaced the one before, unwritten.
            assert stats["checkpoint_generation"] == len(frames) - 2

    def test_ingest_error_is_counted_not_fatal(self):
        plan = make_plan()
        with ShardedCollector(ServiceConfig(plan=plan, n_shards=1)) as collector:
            codec = collector._expected_codec["age"]
            bad = FrameBlock(
                round_id="r1",
                attr="age",
                codec=codec,
                columns=codec.to_columns(np.array([1e9])),  # outside any wave support
                n=1,
            )
            collector.shards[0]._fold("r1", bad)
            collector.flush()
            stats = collector.shards[0].stats()
            assert stats["ingest_errors"] == 1
            assert stats["last_error"] is not None
            # The shard survived: a good feed still lands.
            frame, n = feed_frames(plan, n_users=100, batch=100)[0]
            collector.submit(frame, "r1")
            collector.flush()
            assert collector.shards[0].stats()["reports_ingested"] == n


class TestEstimate:
    def test_unknown_round_raises_lookup(self):
        plan = make_plan()
        with ShardedCollector(ServiceConfig(plan=plan)) as collector:
            with pytest.raises(LookupError, match="ever accepted"):
                collector.estimate("ghost")

    def test_full_round_produces_report(self):
        plan = make_plan()
        with ShardedCollector(ServiceConfig(plan=plan)) as collector:
            for frame, _ in feed_frames(plan):
                collector.submit(frame, "r1")
            result = collector.estimate("r1")
            assert result["errors"] == {}
            assert set(result["estimates"]) == {"age", "income"}
            assert result["report"] is not None
            tasks = {r["task"] for r in result["report"]["results"]}
            assert tasks == {"distribution", "mean", "quantiles"}
            assert sum(result["n_reports"].values()) == 4000

    def test_result_carries_exactly_the_documented_fields(self):
        plan = make_plan()
        with ShardedCollector(ServiceConfig(plan=plan, n_shards=3)) as collector:
            for frame, _ in feed_frames(plan, n_users=1000, batch=500):
                collector.submit(frame, "r1")
            result = collector.estimate("r1")
        assert sorted(result) == ["errors", "estimates", "n_reports", "report", "round"]
        assert result["round"] == "r1"

    def test_missing_attribute_reports_structured_error(self):
        """One silent attribute must not hide the other's estimate."""
        plan = make_plan()
        with ShardedCollector(ServiceConfig(plan=plan)) as collector:
            # Only 'age' blocks: build single-attr frames by hand.
            session = Session(plan)
            reports = session.privatize(
                {
                    "age": np.linspace(1.0, 99.0, 200),
                    "income": np.linspace(1.0, 9e4, 200),
                },
                rng=np.random.default_rng(1),
            )
            feed = session.to_feed({"age": reports["age"]}, "r1")
            collector.submit(feed, "r1")
            result = collector.estimate("r1")
            assert result["estimates"]["age"] is not None
            assert result["estimates"]["income"] is None
            assert result["errors"]["income"]["type"] == "EmptyAggregateError"
            assert result["errors"]["income"]["key"] == "income"
            assert "no reports" in result["errors"]["income"]["message"]
            assert result["report"] is None

    def test_second_estimate_without_new_data_is_cached(self, monkeypatch):
        """A repeat poll solves nothing; one more upload costs one fused
        solve, warm-started from the cached posteriors."""
        solves: list[tuple[int, bool]] = []
        original = solver_module.batched_expectation_maximization

        def recording(matrix, counts, **kwargs):
            result = original(matrix, counts, **kwargs)
            solves.append((result.estimates.shape[1], kwargs.get("x0") is not None))
            return result

        monkeypatch.setattr(solver_module, "batched_expectation_maximization", recording)
        plan = make_plan()
        frames = feed_frames(plan)
        with ShardedCollector(ServiceConfig(plan=plan)) as collector:
            for frame, _ in frames[:-1]:
                collector.submit(frame, "r1")
            first = collector.estimate("r1")
            assert solves == [(2, False)]
            solves.clear()
            second = collector.estimate("r1")
            assert solves == []
            for attr in ("age", "income"):
                assert (
                    np.asarray(second["estimates"][attr]).tobytes()
                    == np.asarray(first["estimates"][attr]).tobytes()
                )
            collector.submit(frames[-1][0], "r1")
            third = collector.estimate("r1")
            assert solves == [(2, True)]
            assert third["n_reports"] != first["n_reports"]

    def test_estimate_then_more_data_changes_answer(self):
        plan = make_plan()
        with ShardedCollector(ServiceConfig(plan=plan)) as collector:
            frames = feed_frames(plan, n_users=2000, batch=500)
            for frame, _ in frames[:2]:
                collector.submit(frame, "r1")
            first = collector.estimate("r1")
            for frame, _ in frames[2:]:
                collector.submit(frame, "r1")
            second = collector.estimate("r1")
            assert sum(second["n_reports"].values()) == 2000
            assert second["n_reports"] != first["n_reports"]

    def test_rounds_are_independent(self):
        plan = make_plan()
        with ShardedCollector(ServiceConfig(plan=plan)) as collector:
            for frame, _ in feed_frames(plan, round_id="a", seed=1):
                collector.submit(frame, "a")
            for frame, _ in feed_frames(plan, n_users=1000, round_id="b", seed=2):
                collector.submit(frame, "b")
            a = collector.estimate("a")
            b = collector.estimate("b")
            assert sum(a["n_reports"].values()) == 4000
            assert sum(b["n_reports"].values()) == 1000
            assert collector.rounds() == ["a", "b"]


class TestShardedEquivalence:
    @pytest.mark.parametrize("n_shards", [2, 4])
    def test_sharded_result_bit_identical_to_single_shard(self, n_shards):
        """The acceptance contract: sharding is invisible in the answer."""
        plan = make_plan()
        frames = feed_frames(plan, n_users=3000, batch=500, seed=13)
        with (
            ShardedCollector(ServiceConfig(plan=plan, n_shards=1)) as single,
            ShardedCollector(ServiceConfig(plan=plan, n_shards=n_shards)) as multi,
        ):
            for frame, _ in frames:
                single.submit(frame, "r1")
                multi.submit(frame, "r1")
            a = single.estimate("r1")
            b = multi.estimate("r1")
            assert a["n_reports"] == b["n_reports"]
            for attr in ("age", "income"):
                assert a["estimates"][attr] == b["estimates"][attr]
            assert a["report"] == b["report"]


class TestHomeShards:
    """Every ``(round, attr)`` lives wholly on its ring home shard."""

    ROUNDS = ("r1", "r2", "r3", "r4")

    def fill(self, collector, plan):
        for seed, round_id in enumerate(self.ROUNDS):
            for frame, _ in feed_frames(
                plan, n_users=400, round_id=round_id, seed=seed, batch=200
            ):
                collector.submit(frame, round_id)

    @pytest.mark.parametrize("n_shards", [1, 2, 3, 4])
    def test_every_key_lives_only_on_its_home_shard(self, n_shards):
        plan = make_plan()
        config = ServiceConfig(plan=plan, n_shards=n_shards)
        with ShardedCollector(config) as collector:
            self.fill(collector, plan)
            homed = [0] * n_shards
            for round_id in self.ROUNDS:
                answer = collector.estimate(round_id)["n_reports"]
                assert sum(answer.values()) == 400
                for attr in ("age", "income"):
                    home = collector.ring.shard_for(round_id, attr)
                    states = [shard.snapshot(round_id, attr) for shard in collector.shards]
                    assert [i for i, state in enumerate(states) if state] == [home]
                    n = CollectionServer.from_state(states[home]).n_reports
                    assert n == answer[attr]
                    homed[home] += n
            shards = collector.stats()["shards"]
            assert [s["reports_ingested"] for s in shards] == homed

    def test_a_poll_reads_one_server_per_attribute(self, monkeypatch):
        plan = make_plan()
        reads = []
        real_snapshot = core.ShardAggregator.snapshot

        def spy(shard, round_id, attr):
            reads.append((shard.shard_id, round_id, attr))
            return real_snapshot(shard, round_id, attr)

        monkeypatch.setattr(core.ShardAggregator, "snapshot", spy)
        with ShardedCollector(ServiceConfig(plan=plan, n_shards=4)) as collector:
            self.fill(collector, plan)
            for round_id in self.ROUNDS:
                reads.clear()
                collector.estimate(round_id)
                assert sorted(reads) == sorted(
                    (collector.ring.shard_for(round_id, attr), round_id, attr)
                    for attr in ("age", "income")
                )

    def test_snapshot_is_detached_from_the_live_server(self):
        """The merge tier solves a copy: neither later folds nor changes
        to the copy reach the other side."""
        plan = make_plan()
        frames = feed_frames(plan, n_users=800, batch=400)
        with ShardedCollector(ServiceConfig(plan=plan, n_shards=2)) as collector:
            collector.submit(frames[0][0], "r1")
            home = collector.shards[collector.ring.shard_for("r1", "age")]
            state = home.snapshot("r1", "age")
            frozen = json.dumps(state, sort_keys=True)
            copy = CollectionServer.from_state(state)
            copy.merge(CollectionServer.from_state(home.snapshot("r1", "age")))
            assert copy.n_reports == 2 * CollectionServer.from_state(state).n_reports
            assert json.dumps(home.snapshot("r1", "age"), sort_keys=True) == frozen
            collector.submit(frames[1][0], "r1")
            assert json.dumps(state, sort_keys=True) == frozen
            live = CollectionServer.from_state(home.snapshot("r1", "age"))
            assert live.n_reports > CollectionServer.from_state(state).n_reports


class TestStats:
    def test_stats_shape(self):
        plan = make_plan()
        with ShardedCollector(ServiceConfig(plan=plan)) as collector:
            for frame, _ in feed_frames(plan, n_users=1000, batch=250):
                collector.submit(frame, "r1")
            collector.estimate("r1")
            stats = collector.stats()
            assert stats["n_shards"] == 2
            assert stats["rounds"] == ["r1"]
            assert stats["merges"] == 1
            assert stats["merge_ms_last"] is not None
            per_shard = stats["shards"]
            assert [s["shard"] for s in per_shard] == [0, 1]
            assert sum(s["reports_ingested"] for s in per_shard) == 1000

    def test_merge_stats_stay_constant_size(self, monkeypatch):
        """/statz merge fields keep the values a full duration log would
        give, from O(1) stored state."""
        plan = make_plan()
        with ShardedCollector(ServiceConfig(plan=plan)) as collector:
            for frame, _ in feed_frames(plan, n_users=400, batch=200):
                collector.submit(frame, "r1")
            # Every fold ran inside submit, so the only clock reads left in
            # repro.service.core are each merge's start and end.
            rng = np.random.default_rng(3)
            readings = []
            for start in np.cumsum(rng.uniform(0.001, 0.1, 1000)):
                readings += [start, start + rng.uniform(1e-5, 5e-2)]
            clock = iter(readings)
            monkeypatch.setattr(
                core, "time", SimpleNamespace(perf_counter=lambda: next(clock))
            )
            for _ in range(1000):
                collector.estimate("r1")
            stats = collector.stats()
        durations = [
            end - start for start, end in zip(readings[::2], readings[1::2], strict=True)
        ]
        logged_ms = sorted(s * 1000.0 for s in durations)
        assert stats["merges"] == 1000
        assert stats["merge_ms_max"] == round(logged_ms[-1], 3)
        assert stats["merge_ms_last"] == round(durations[-1] * 1000.0, 3)
        assert not [
            name
            for name, value in vars(collector).items()
            if isinstance(value, (list, dict, set, tuple)) and len(value) >= 1000
        ]

    def test_closed_collector_rejects_submissions(self):
        plan = make_plan()
        collector = ShardedCollector(ServiceConfig(plan=plan))
        collector.close()
        frame, _ = feed_frames(plan, n_users=100, batch=100)[0]
        with pytest.raises(RuntimeError, match="closed"):
            collector.submit(frame, "r1")


class TestBoundedMemoryMillionReports:
    def test_million_reports_bounded_ingest_memory_and_equivalence(self):
        """Acceptance: >=1M reports stream through a sharded collector with
        ingest-tier memory bounded far below the total feed volume, and the
        merged answer is bit-identical to a single-shard ingest."""
        import tracemalloc

        plan = make_plan()
        n_users, batch = 1_000_000, 50_000
        with (
            ShardedCollector(ServiceConfig(plan=plan, n_shards=1)) as single,
            ShardedCollector(ServiceConfig(plan=plan, n_shards=4)) as multi,
        ):
            total_feed_bytes = 0
            tracemalloc.start()
            tracemalloc.reset_peak()
            for frame, _ in synthesize_frames(
                plan, "r1", n_users, batch_size=batch, rng=42
            ):
                total_feed_bytes += len(frame)
                for collector in (single, multi):
                    collector.submit(frame, "r1")
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            assert total_feed_bytes > 4_000_000
            # The whole feed never materializes: a buffering ingest would
            # hold one full decoded copy per collector (>= 2x the feed
            # volume) before solving; the streaming path's peak across BOTH
            # collectors stays below a single copy.
            assert peak < total_feed_bytes
            a = single.estimate("r1")
            b = multi.estimate("r1")
            assert sum(a["n_reports"].values()) == n_users
            assert a["n_reports"] == b["n_reports"]
            assert a["estimates"] == b["estimates"]


class TestConcurrentSubmitters:
    def test_serialized_submissions_from_many_threads(self):
        """submit is used single-threaded by the HTTP tier, but a lock
        -free caller race must still never corrupt counts once the test
        serializes externally."""
        plan = make_plan()
        frames = feed_frames(plan, n_users=2000, batch=100, seed=9)
        lock = threading.Lock()
        errors: list[Exception] = []
        with ShardedCollector(ServiceConfig(plan=plan)) as collector:
            def upload(chunk):
                try:
                    for frame, _ in chunk:
                        with lock:
                            collector.submit(frame, "r1")
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            threads = [
                threading.Thread(target=upload, args=(frames[i::4],))
                for i in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            collector.flush()
            assert errors == []
            assert sum(collector.estimate("r1")["n_reports"].values()) == 2000


class TestThreadInventory:
    """Shards run no threads: every fold runs on the admitting thread."""

    @staticmethod
    def started_since(before):
        return sorted(
            t.name for t in set(threading.enumerate()) - before if t.is_alive()
        )

    def test_collector_without_journal_starts_no_thread(self):
        plan = make_plan()
        before = set(threading.enumerate())
        with ShardedCollector(ServiceConfig(plan=plan, n_shards=4)) as collector:
            for frame, _ in feed_frames(plan, n_users=1000, batch=250):
                collector.submit(frame, "r1")
            collector.estimate("r1")
            assert self.started_since(before) == []

    def test_journaled_collector_starts_only_the_checkpoint_writer(self, tmp_path):
        plan = make_plan()
        before = set(threading.enumerate())
        config = ServiceConfig(
            plan=plan, n_shards=4, checkpoint_every=1, journal_dir=tmp_path / "wal"
        )
        with ShardedCollector(config) as collector:
            for index, (frame, _) in enumerate(feed_frames(plan, batch=500)):
                collector.submit(frame, "r1", key=f"k{index}")
            collector.estimate("r1")
            assert self.started_since(before) == ["repro-checkpoint-writer"]
        assert self.started_since(before) == []

    def test_report_service_adds_only_its_solve_thread(self, tmp_path):
        plan = make_plan()
        before = set(threading.enumerate())
        config = ServiceConfig(plan=plan, n_shards=4, journal_dir=tmp_path / "wal")

        async def scenario():
            service = ReportService(config)
            try:
                headers = {"content-type": "application/x-repro-frame"}
                status, _ = await service._handle_reports(
                    "r1", headers, feed_frames(plan, n_users=100, batch=100)[0][0]
                )
                assert status == 202
                status, _ = await service._handle_estimate("r1")
                assert status == 200
                return self.started_since(before)
            finally:
                await service.stop()

        assert asyncio.run(scenario()) == [
            "repro-checkpoint-writer",
            "repro-solve_0",
        ]
        assert self.started_since(before) == []
