"""Fault-injection harness, retry policy, and graceful degradation."""

import asyncio
import json

import numpy as np
import pytest

from repro.service import (
    Fault,
    FaultPlan,
    InjectedCrash,
    InjectedFault,
    RetryPolicy,
    ServiceConfig,
    ServiceOverloadError,
    ShardedCollector,
    start_local_service,
)
from repro.service.loadgen import http_request, synthesize_frames
from repro.service.sharding import HashRing
from repro.tasks import AnalysisPlan, AttributeSpec, Distribution, Mean


def make_plan() -> AnalysisPlan:
    return AnalysisPlan(
        epsilon=2.0,
        attributes=(
            AttributeSpec("age", low=0.0, high=100.0, d=16),
            AttributeSpec("income", low=0.0, high=1e5, d=16),
        ),
        tasks=(Distribution("age"), Mean("income")),
    )


def feed_frames(plan, n_users=1200, round_id="r1", seed=7, batch=300):
    return list(
        synthesize_frames(plan, round_id, n_users, batch_size=batch, rng=seed)
    )


class TestFaultValidation:
    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            Fault("journal.append.sideways", at=1)

    def test_exactly_one_trigger_required(self):
        with pytest.raises(ValueError, match="exactly one"):
            Fault("shard.fold")
        with pytest.raises(ValueError, match="exactly one"):
            Fault("shard.fold", at=1, every=2)

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            Fault("shard.fold", at=0)
        with pytest.raises(ValueError):
            Fault("shard.fold", prob=1.5)
        with pytest.raises(ValueError):
            Fault("shard.fold", at=1, times=0)
        with pytest.raises(ValueError):
            Fault("http.delay", at=1, delay=-0.1)

    def test_plan_rejects_non_faults(self):
        with pytest.raises(TypeError):
            FaultPlan(["shard.fold"])


class TestFaultPlanDeterminism:
    def test_at_fires_exactly_once_on_the_nth_hit(self):
        plan = FaultPlan([Fault("shard.fold", at=3)])
        fired = [plan.fires("shard.fold") for _ in range(6)]
        assert fired == [False, False, True, False, False, False]
        assert plan.fired == (("shard.fold", 3),)
        assert plan.hits() == {"shard.fold": 6}

    def test_every_with_times_budget(self):
        plan = FaultPlan([Fault("http.drop", every=2, times=2)])
        fired = [plan.fires("http.drop") for _ in range(8)]
        assert fired == [False, True, False, True, False, False, False, False]

    def test_prob_is_a_pure_function_of_seed_site_hit(self):
        def run(seed):
            plan = FaultPlan([Fault("shard.fold", prob=0.3, times=None)], seed=seed)
            return [plan.fires("shard.fold") for _ in range(64)]

        assert run(42) == run(42)
        assert run(42) != run(43)  # astronomically unlikely to collide
        assert any(run(42))
        assert not all(run(42))

    def test_sites_count_independently(self):
        plan = FaultPlan([Fault("shard.fold", at=1)])
        assert not plan.fires("journal.append.before")
        assert plan.fires("shard.fold")
        assert plan.hits() == {"journal.append.before": 1, "shard.fold": 1}

    def test_crash_raises_injected_crash(self):
        plan = FaultPlan([Fault("shard.fold", at=1)])
        with pytest.raises(InjectedCrash) as info:
            plan.crash("shard.fold")
        assert info.value.site == "shard.fold"
        assert info.value.hit == 1

    def test_injected_crash_punches_through_except_exception(self):
        caught = None
        try:
            try:
                raise InjectedCrash("shard.fold", 1)
            except Exception:  # the service's error accounting
                caught = "exception"
        except InjectedFault:
            caught = "fault"
        assert caught == "fault"

    def test_delay_and_truncation_helpers(self):
        plan = FaultPlan(
            [
                Fault("http.delay", at=1, delay=0.25),
                Fault("journal.truncate", at=1, keep_bytes=10),
                Fault("journal.truncate", at=2),
            ]
        )
        assert plan.delay_for("http.delay") == 0.25
        assert plan.delay_for("http.delay") == 0.0
        assert plan.truncation("journal.truncate", 100) == 10
        assert plan.truncation("journal.truncate", 100) == 50  # default: half
        assert plan.truncation("journal.truncate", 100) is None


class TestRetryPolicy:
    def test_schedule_is_deterministic_and_capped(self):
        policy = RetryPolicy(attempts=10, base_delay=0.01, max_delay=0.5, seed=1)
        schedule = policy.schedule()
        assert schedule == policy.schedule()
        assert len(schedule) == 9
        assert all(0.0 < d <= 0.5 for d in schedule)
        # Exponential growth up to the cap (jitter only shrinks).
        assert schedule[-1] > schedule[0]

    def test_jitter_shrinks_never_grows(self):
        policy = RetryPolicy(attempts=5, base_delay=0.1, max_delay=10.0, jitter=0.5)
        for attempt in range(4):
            raw = 0.1 * 2.0**attempt
            assert 0.5 * raw <= policy.delay(attempt) <= raw

    def test_retry_after_wins_only_when_longer(self):
        policy = RetryPolicy(base_delay=0.01, jitter=0.0)
        assert policy.delay(0, retry_after=5.0) == 5.0
        assert policy.delay(0, retry_after=0.001) == pytest.approx(0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=1.0, max_delay=0.5)
        with pytest.raises(ValueError):
            RetryPolicy().delay(-1)


class TestRingExclusion:
    def test_excluded_owner_routed_around(self):
        ring = HashRing(4)
        owner = ring.shard_for("r1", "age")
        rerouted = ring.shard_for("r1", "age", exclude=frozenset({owner}))
        assert rerouted != owner
        # Unrelated keys keep their owners: exclusion is surgical.
        other = ring.shard_for("r1", "income")
        if other != owner:
            assert (
                ring.shard_for("r1", "income", exclude=frozenset({owner}))
                == other
            )

    def test_all_excluded_raises(self):
        ring = HashRing(2)
        with pytest.raises(ValueError, match="excluded"):
            ring.shard_for("r1", "age", exclude=frozenset({0, 1}))


class TestGracefulDegradation:
    def config(self, tmp_path, faults=None, n_shards=3):
        return ServiceConfig(
            plan=make_plan(),
            n_shards=n_shards,
            journal_dir=tmp_path / "wal",
            faults=faults,
        )

    def test_dead_shard_is_routed_around_and_coverage_reported(self, tmp_path):
        faults = FaultPlan([Fault("shard.fold", at=1)])
        with ShardedCollector(self.config(tmp_path, faults)) as collector:
            frames = feed_frames(make_plan())
            collector.submit(frames[0][0], "r1")
            collector.flush()  # the first fold killed one shard
            dead = [i for i, s in enumerate(collector.shards) if not s.alive]
            assert len(dead) == 1
            # Ingest keeps working: traffic routes around the corpse.
            for frame, _n in frames[1:]:
                collector.submit(frame, "r1")
            collector.flush()
            assert collector.stats()["shards_dead"] == [dead[0]]
            estimates = collector.estimate("r1")
            assert estimates["degraded"] is True
            assert estimates["shards_dead"] == [dead[0]]
            for cov in estimates["coverage"].values():
                assert cov["n_reports_seen"] >= 0
                assert isinstance(cov["home_alive"], bool)

    def test_revive_replays_journal_and_clears_degradation(self, tmp_path):
        faults = FaultPlan([Fault("shard.fold", at=1)])
        with ShardedCollector(self.config(tmp_path, faults)) as collector:
            frames = feed_frames(make_plan())
            total = 0
            for frame, n in frames:
                collector.submit(frame, "r1")
                total += n
            collector.flush()
            dead = [i for i, s in enumerate(collector.shards) if not s.alive]
            assert len(dead) == 1
            outcome = collector.revive(dead[0])
            assert outcome["shard"] == dead[0]
            assert outcome["replayed_records"] >= 1
            collector.flush()
            estimates = collector.estimate("r1")
            assert estimates["degraded"] is False
            assert estimates["shards_dead"] == []
            # Every accepted report is visible again, including the block
            # whose fold crashed the shard.
            seen = sum(
                cov["n_reports_seen"]
                for cov in estimates["coverage"].values()
            )
            assert seen == total

    def test_revive_rejects_live_shard(self, tmp_path):
        with ShardedCollector(self.config(tmp_path)) as collector:
            with pytest.raises(ValueError, match="alive"):
                collector.revive(0)
            with pytest.raises(ValueError, match="shard"):
                collector.revive(99)

    def test_all_shards_dead_is_overload(self, tmp_path):
        faults = FaultPlan([Fault("shard.fold", every=1, times=None)])
        with ShardedCollector(
            self.config(tmp_path, faults, n_shards=2)
        ) as collector:
            frames = feed_frames(make_plan(), n_users=2400, batch=200)
            with pytest.raises(ServiceOverloadError):
                for frame, _n in frames:
                    collector.submit(frame, "r1")
                    collector.flush()

    def test_refused_upload_leaves_nothing_and_its_retry_lands_once(self, tmp_path):
        """With every shard dead, an upload gets 429 + Retry-After and
        leaves no accepted upload, ledger entry or journal byte behind;
        after revive, its same-key retry is admitted fresh (202) and the
        estimate counts every acknowledged report once."""
        plan = make_plan()
        faults = FaultPlan([Fault("shard.fold", every=1, times=2)])
        config = self.config(tmp_path, faults, n_shards=2)
        uploads = feed_frames(plan, n_users=2400, batch=200)
        with start_local_service(config) as handle:

            def call(method, path, body=b"", key=None):
                async def go():
                    response_headers: dict[str, str] = {}
                    status, payload, _reader, writer = await http_request(
                        handle.host, handle.port, method, path, body=body,
                        headers={"Idempotency-Key": key} if key else None,
                        response_headers=response_headers,
                    )
                    writer.close()
                    return status, json.loads(payload), response_headers

                return asyncio.run(go())

            acked = 0
            for index, (frame, _n) in enumerate(uploads):
                _, before, _ = call("GET", "/statz")
                status, payload, headers = call(
                    "POST", "/v1/rounds/r1/reports", frame, key=f"k{index}"
                )
                if status == 429:
                    break
                assert status == 202, payload
                acked += payload["accepted"]
            else:  # pragma: no cover - the two crashes never killed both shards
                pytest.fail("no upload was refused")
            assert headers["retry-after"] == "1"
            assert "every shard is dead" in payload["error"]
            _, after, _ = call("GET", "/statz")
            assert before["shards_dead"] == after["shards_dead"] == [0, 1]
            assert after["uploads_accepted"] == before["uploads_accepted"] == index
            assert after["dedup"] == before["dedup"]
            assert after["journal"]["bytes"] == before["journal"]["bytes"]
            for shard in (0, 1):
                handle.collector.revive(shard)
            status, payload, _ = call(
                "POST", "/v1/rounds/r1/reports", frame, key=f"k{index}"
            )
            assert status == 202
            assert payload["replayed"] is False
            acked += payload["accepted"]
            status, estimate, _ = call("GET", "/v1/rounds/r1/estimate")
            assert status == 200
            assert estimate["degraded"] is False
            assert sum(estimate["n_reports"].values()) == acked

    def test_fault_free_plan_changes_nothing(self, tmp_path):
        """A wired-but-silent FaultPlan must not perturb results."""
        frames = feed_frames(make_plan())
        with ShardedCollector(self.config(tmp_path / "a")) as collector:
            for frame, _n in frames:
                collector.submit(frame, "r1")
            collector.flush()
            baseline = collector.estimate("r1")
        quiet = FaultPlan([Fault("shard.fold", prob=0.0, times=None)])
        with ShardedCollector(self.config(tmp_path / "b", quiet)) as collector:
            for frame, _n in frames:
                collector.submit(frame, "r1")
            collector.flush()
            injected = collector.estimate("r1")
        assert baseline["estimates"] == injected["estimates"]

    def test_fold_crash_over_http_keeps_the_loop_serving(self, tmp_path):
        """An injected crash in a fold, which runs on the event loop, kills
        its shard and nothing else: the upload is still acked, the shard
        reads dead at once, later uploads route around it, and revive()
        brings back every acked report."""
        plan = make_plan()
        faults = FaultPlan([Fault("shard.fold", at=1)])
        config = self.config(tmp_path, faults, n_shards=2)
        uploads = feed_frames(plan)
        with start_local_service(config) as handle:

            def call(method, path, body=b"", key=None):
                async def go():
                    status, payload, _reader, writer = await http_request(
                        handle.host, handle.port, method, path, body=body,
                        headers={"Idempotency-Key": key} if key else None,
                    )
                    writer.close()
                    return status, json.loads(payload)

                return asyncio.run(go())

            acked = 0
            for index, (frame, _n) in enumerate(uploads):
                status, payload = call(
                    "POST", "/v1/rounds/r1/reports", frame, key=f"k{index}"
                )
                assert status == 202, payload
                acked += payload["accepted"]
                if index == 0:
                    assert faults.fired == (("shard.fold", 1),)
                    _, statz = call("GET", "/statz")
                    assert len(statz["shards_dead"]) == 1
                    dead = statz["shards_dead"][0]
            assert call("GET", "/healthz") == (200, {"status": "ok", "rounds": ["r1"]})
            _, statz = call("GET", "/statz")
            assert statz["shards_dead"] == [dead]
            assert statz["uploads_accepted"] == len(uploads)
            # Every upload after the crash was folded on the live shard.
            alive = statz["shards"][1 - dead]
            assert alive["blocks_ingested"] >= 2 * (len(uploads) - 1)
            assert handle.collector.revive(dead)["replayed_records"] >= 1
            status, estimate = call("GET", "/v1/rounds/r1/estimate")
            assert status == 200
            assert estimate["shards_dead"] == []
            seen = sum(cov["n_reports_seen"] for cov in estimate["coverage"].values())
            assert seen == acked
