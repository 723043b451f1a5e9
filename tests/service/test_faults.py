"""Fault-injection harness, retry policy, and the service's fault seams."""

import asyncio
import json

import pytest

from repro.service import (
    FAULT_SITES,
    Fault,
    FaultPlan,
    InjectedCrash,
    InjectedFault,
    RetryPolicy,
    ServiceConfig,
    ShardedCollector,
    start_local_service,
)
from repro.service.loadgen import http_request, synthesize_frames
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
            Fault("meta.commit.after")
        with pytest.raises(ValueError, match="exactly one"):
            Fault("meta.commit.after", at=1, every=2)

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            Fault("meta.commit.after", at=0)
        with pytest.raises(ValueError):
            Fault("meta.commit.after", prob=1.5)
        with pytest.raises(ValueError):
            Fault("meta.commit.after", at=1, times=0)
        with pytest.raises(ValueError):
            Fault("http.delay", at=1, delay=-0.1)

    def test_plan_rejects_non_faults(self):
        with pytest.raises(TypeError):
            FaultPlan(["meta.commit.after"])


class TestFaultPlanDeterminism:
    def test_at_fires_exactly_once_on_the_nth_hit(self):
        plan = FaultPlan([Fault("meta.commit.after", at=3)])
        fired = [plan.fires("meta.commit.after") for _ in range(6)]
        assert fired == [False, False, True, False, False, False]
        assert plan.fired == (("meta.commit.after", 3),)
        assert plan.hits() == {"meta.commit.after": 6}

    def test_every_with_times_budget(self):
        plan = FaultPlan([Fault("http.drop", every=2, times=2)])
        fired = [plan.fires("http.drop") for _ in range(8)]
        assert fired == [False, True, False, True, False, False, False, False]

    def test_prob_is_a_pure_function_of_seed_site_hit(self):
        def run(seed):
            plan = FaultPlan([Fault("meta.commit.after", prob=0.3, times=None)], seed=seed)
            return [plan.fires("meta.commit.after") for _ in range(64)]

        assert run(42) == run(42)
        assert run(42) != run(43)  # astronomically unlikely to collide
        assert any(run(42))
        assert not all(run(42))

    def test_sites_count_independently(self):
        plan = FaultPlan([Fault("meta.commit.after", at=1)])
        assert not plan.fires("journal.append.before")
        assert plan.fires("meta.commit.after")
        assert plan.hits() == {"journal.append.before": 1, "meta.commit.after": 1}

    def test_crash_raises_injected_crash(self):
        plan = FaultPlan([Fault("meta.commit.after", at=1)])
        with pytest.raises(InjectedCrash) as info:
            plan.crash("meta.commit.after")
        assert info.value.site == "meta.commit.after"
        assert info.value.hit == 1

    def test_injected_crash_punches_through_except_exception(self):
        caught = None
        try:
            try:
                raise InjectedCrash("meta.commit.after", 1)
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

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=1.0, max_delay=0.5)
        with pytest.raises(ValueError):
            RetryPolicy().delay(-1)


class TestSeams:
    def config(self, tmp_path, faults=None, **kwargs):
        return ServiceConfig(
            plan=make_plan(),
            n_shards=3,
            journal_dir=tmp_path / "wal",
            faults=faults,
            **kwargs,
        )

    def test_fault_free_plan_changes_nothing(self, tmp_path):
        """A wired-but-silent FaultPlan must not perturb results."""
        frames = feed_frames(make_plan())
        with ShardedCollector(self.config(tmp_path / "a")) as collector:
            for frame, _n in frames:
                collector.submit(frame, "r1")
            collector.flush()
            baseline = collector.estimate("r1")
        quiet = FaultPlan([Fault("meta.commit.after", prob=0.0, times=None)])
        with ShardedCollector(self.config(tmp_path / "b", quiet)) as collector:
            for frame, _n in frames:
                collector.submit(frame, "r1")
            collector.flush()
            injected = collector.estimate("r1")
        assert quiet.hits()["meta.commit.after"] == len(frames)
        assert baseline["estimates"] == injected["estimates"]

    def test_every_fault_site_has_a_seam(self, tmp_path):
        """One keyed upload over HTTP, with a checkpoint cut after it, hits
        every site in FAULT_SITES: none names a seam the service lacks."""
        faults = FaultPlan()
        (frame, _n), *_ = feed_frames(make_plan(), n_users=300)
        config = self.config(tmp_path, faults, checkpoint_every=1)
        with start_local_service(config) as handle:

            async def upload():
                status, payload, _reader, writer = await http_request(
                    handle.host, handle.port, "POST", "/v1/rounds/r1/reports",
                    body=frame, headers={"Idempotency-Key": "k0"},
                )
                writer.close()
                return status, json.loads(payload)

            status, payload = asyncio.run(upload())
            assert status == 202, payload
            handle.collector.flush()
        assert sorted(faults.hits()) == sorted(FAULT_SITES)
        assert faults.fired == ()
