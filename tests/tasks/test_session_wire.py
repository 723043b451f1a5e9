"""Session wire round-trips: to_feed/ingest_feed over frames and JSON lines.

The protocol-v2 path must serve *every* planned mechanism, including the
hierarchical families whose reports are structured rows, not floats.
"""

import numpy as np
import pytest

from repro.tasks import (
    AnalysisPlan,
    AttributeSpec,
    Distribution,
    Mean,
    RangeQueries,
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
        tasks=(Distribution(attribute="income"), Mean(attribute="age")),
    )


@pytest.fixture(scope="module")
def population():
    gen = np.random.default_rng(7)
    n = 20_000
    return {
        "income": gen.gamma(3.0, 9_000.0, n).clip(0, 100_000),
        "age": gen.normal(45.0, 12.0, n).clip(18, 90),
    }


class TestFeedRoundTrip:
    @pytest.mark.parametrize("wire", ["frame", "jsonl"])
    def test_feed_equals_direct_ingest(self, plan, population, wire):
        gen = np.random.default_rng(1)
        sender = Session(plan)
        reports = sender.privatize(population, rng=gen)

        direct = Session(plan)
        direct.ingest(reports)

        receiver = Session(plan)
        feed = sender.to_feed(reports, "r1", format=wire)
        total = sum(np.asarray(batch).shape[0] for batch in reports.values())
        assert receiver.ingest_feed(feed, "r1") == total
        for attr in receiver.attributes:
            np.testing.assert_allclose(
                np.asarray(receiver._estimate(attr), dtype=np.float64),
                np.asarray(direct._estimate(attr), dtype=np.float64),
            )

    def test_round_scoping(self, plan, population):
        gen = np.random.default_rng(2)
        session = Session(plan)
        feed = session.to_feed(session.privatize(population, rng=gen), "r1")
        with pytest.raises(ValueError, match="round"):
            Session(plan).ingest_feed(feed, "other-round")

    def test_bad_format_rejected(self, plan, population):
        session = Session(plan)
        reports = session.privatize(population, rng=np.random.default_rng(3))
        with pytest.raises(ValueError, match="format"):
            session.to_feed(reports, "r", format="csv")

    def test_undeclared_attribute_rejected(self, plan):
        from repro.protocol import encode_frame

        session = Session(plan)
        foreign = encode_frame("r", np.array([0.5]), "float", attr="height")
        with pytest.raises(ValueError, match="undeclared"):
            session.ingest_feed(foreign, "r")

    def test_codec_mismatch_rejected(self, plan):
        from repro.protocol import encode_frame

        session = Session(plan)
        wrong = encode_frame("r", np.array([3], dtype=np.int64), "category", attr="age")
        with pytest.raises(ValueError, match="payloads"):
            session.ingest_feed(wrong, "r")

    def test_non_frame_bytes_rejected(self, plan):
        with pytest.raises(ValueError, match="magic"):
            Session(plan).ingest_feed(b"junk", "r")

    def test_rejected_feed_ingests_nothing(self, plan):
        """All-or-nothing: a feed with one bad block must not leave the
        good blocks' reports in the aggregators (a retry would double-count)."""
        from repro.protocol import encode_frame_blocks

        session = Session(plan)
        mixed = encode_frame_blocks("r", [
            ("income", "float", np.array([0.1, 0.2, 0.3])),   # valid
            ("age", "category", np.array([1], dtype=np.int64)),  # wrong codec
        ])
        with pytest.raises(ValueError, match="payloads"):
            session.ingest_feed(mixed, "r")
        assert session.n_reports == {"income": 0, "age": 0}

    def test_ingest_error_rolls_back_earlier_blocks(self, plan):
        """Even a domain error surfacing inside ingest leaves no state.

        The first block (age, scalar mechanism) ingests fine; the second
        block's reports sit outside the SW output domain and blow up inside
        ``ingest`` — the rollback must clear the first block again.
        """
        from repro.protocol import encode_frame_blocks

        session = Session(plan)
        mixed = encode_frame_blocks("r", [
            ("age", "float", np.array([0.1, 0.2, 0.3])),
            ("income", "float", np.array([99.0, -99.0, 42.0])),
        ])
        with pytest.raises(ValueError, match="domain"):
            session.ingest_feed(mixed, "r")
        assert session.n_reports == {"income": 0, "age": 0}


class TestHierarchicalOverTheWire:
    def test_range_only_plan_round_trips(self):
        """Range-only plans resolve to hh-admm, whose TreeReports the v2
        feed carries as level-tagged rows."""
        plan = AnalysisPlan(
            epsilon=1.0,
            attributes=(AttributeSpec(name="latency", low=0.0, high=1.0),),
            tasks=(
                RangeQueries(attribute="latency", windows=((0.1, 0.4),)),
            ),
        )
        gen = np.random.default_rng(5)
        sender = Session(plan)
        data = {"latency": gen.beta(2.0, 5.0, 8_192)}
        reports = sender.privatize(data, rng=gen)

        receiver = Session(plan)
        count = receiver.ingest_feed(sender.to_feed(reports, "r"), "r")
        assert count == 8_192
        report = receiver.results()
        (mass,) = report["range_queries:latency"].value
        assert np.isfinite(mass)
