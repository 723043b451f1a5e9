"""Tests for PlanServer: serving a whole analysis plan off one mixed feed."""

import numpy as np
import pytest

from repro.api.errors import EmptyAggregateError
from repro.protocol import PlanServer
from repro.tasks import (
    AnalysisPlan,
    AttributeSpec,
    Distribution,
    Mean,
    Quantiles,
    Session,
)


@pytest.fixture(scope="module")
def plan():
    return AnalysisPlan(
        epsilon=2.0,
        attributes=(
            AttributeSpec(name="income", low=0.0, high=100_000.0),
            AttributeSpec(name="age", low=18.0, high=90.0),
        ),
        tasks=(
            Distribution(attribute="income"),
            Quantiles(attribute="income", quantiles=(0.5,)),
            Mean(attribute="age"),
        ),
    )


@pytest.fixture(scope="module")
def population():
    gen = np.random.default_rng(11)
    n = 30_000
    return {
        "income": gen.gamma(3.0, 9_000.0, n).clip(0, 100_000),
        "age": gen.normal(45.0, 12.0, n).clip(18, 90),
    }


@pytest.fixture(scope="module")
def feeds(plan, population):
    """One frame and one JSONL feed of the same privatized round."""
    gen = np.random.default_rng(3)
    session = Session(plan)
    reports = session.privatize(population, rng=gen)
    return (
        session.to_feed(reports, "round-1", format="frame"),
        session.to_feed(reports, "round-1", format="jsonl"),
    )


class TestIngestAndReport:
    @pytest.mark.parametrize("which", [0, 1], ids=["frame", "jsonl"])
    def test_mixed_feed_serves_every_task(self, plan, population, feeds, which):
        server = PlanServer(plan, "round-1")
        count = server.ingest_feed(feeds[which])
        assert count == population["income"].size
        assert sum(server.n_reports.values()) == count
        report = server.report()
        assert set(report.keys()) == {
            "distribution:income", "quantiles:income", "mean:age"
        }
        mean_age = report["mean:age"].value
        assert mean_age == pytest.approx(population["age"].mean(), abs=2.0)

    def test_both_wires_agree(self, plan, feeds):
        from_frame = PlanServer(plan, "round-1")
        from_lines = PlanServer(plan, "round-1")
        from_frame.ingest_feed(feeds[0])
        from_lines.ingest_feed(feeds[1])
        np.testing.assert_allclose(
            from_frame.estimate("income"), from_lines.estimate("income")
        )

    def test_round_scoping(self, plan, feeds):
        server = PlanServer(plan, "another-round")
        with pytest.raises(ValueError, match="round"):
            server.ingest_feed(feeds[0])

    def test_unknown_attribute_rejected(self, plan, rng):
        from repro.protocol import encode_frame

        server = PlanServer(plan, "round-1")
        foreign = encode_frame("round-1", rng.random(5), "float", attr="height")
        with pytest.raises(ValueError, match="undeclared"):
            server.ingest_feed(foreign)

    def test_empty_report_names_round_and_attribute(self, plan):
        server = PlanServer(plan, "round-9")
        with pytest.raises(EmptyAggregateError, match=r"'round-9'.*'income'"):
            server.report()
        with pytest.raises(EmptyAggregateError, match=r"'round-9'.*'income'"):
            server.estimate("income")

    def test_unknown_attr_estimate_rejected(self, plan):
        server = PlanServer(plan, "r")
        with pytest.raises(ValueError, match="declares no attribute"):
            server.estimate("height")

    def test_per_attribute_estimates_are_incremental(self, plan, feeds):
        server = PlanServer(plan, "round-1")
        server.ingest_feed(feeds[0])
        first = server.estimate("income")
        estimator = server.server("income").estimator
        iterations = estimator.result_.iterations
        second = server.estimate("income")
        np.testing.assert_array_equal(first, second)
        assert estimator.result_.iterations == iterations


class TestShardedPlanServing:
    def test_shard_merge_equals_single_server(self, plan, population):
        gen = np.random.default_rng(21)
        session = Session(plan)
        arrays = {k: np.asarray(v) for k, v in population.items()}
        halves = [
            {k: v[: v.size // 2] for k, v in arrays.items()},
            {k: v[v.size // 2 :] for k, v in arrays.items()},
        ]
        feeds = [
            Session(plan).to_feed(session.privatize(half, rng=gen), "r")
            for half in halves
        ]
        shard_a, shard_b = PlanServer(plan, "r"), PlanServer(plan, "r")
        shard_a.ingest_feed(feeds[0])
        shard_b.ingest_feed(feeds[1])
        union = PlanServer(plan, "r")
        for feed in feeds:
            union.ingest_feed(feed)
        merged = shard_a.merge(shard_b)
        np.testing.assert_allclose(
            merged.estimate("income"), union.estimate("income")
        )

    def test_merge_checks_round_and_type(self, plan):
        server = PlanServer(plan, "r")
        with pytest.raises(ValueError, match="round"):
            server.merge(PlanServer(plan, "other"))
        with pytest.raises(TypeError):
            server.merge(object())

    def test_merge_into_itself_rejected(self, plan, feeds):
        """The plan server's session refuses the self-merge that would
        double every attribute's counts; nothing changes."""
        server = PlanServer(plan, "round-1")
        server.ingest_feed(feeds[0])
        before = server.n_reports
        with pytest.raises(ValueError, match="itself"):
            server.merge(server)
        assert server.n_reports == before

    def test_state_roundtrip(self, plan, feeds):
        server = PlanServer(plan, "round-1")
        server.ingest_feed(feeds[0])
        rebuilt = PlanServer.from_state(server.to_state())
        assert rebuilt.round_id == "round-1"
        assert rebuilt.n_reports == server.n_reports
        np.testing.assert_allclose(
            rebuilt.estimate("income"), server.estimate("income")
        )

    def test_repr_names_mechanisms(self, plan):
        assert "income" in repr(PlanServer(plan, "r"))
