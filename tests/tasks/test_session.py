"""Session tests: end-to-end execution, shard merge, state/wire round-trips,
typed results, and the enriched empty-aggregate path."""

import numpy as np
import pytest

from repro import EmptyAggregateError
from repro.tasks import (
    AnalysisPlan,
    AttributeSpec,
    Distribution,
    Marginals,
    Mean,
    Quantiles,
    RangeQueries,
    Session,
    TaskResult,
    Variance,
)
from repro.tasks.results import AnalysisReport


@pytest.fixture(scope="module")
def survey_plan() -> AnalysisPlan:
    """The acceptance scenario: mean + quantiles + range queries, 2 attrs."""
    return AnalysisPlan(
        epsilon=1.0,
        attributes=(
            AttributeSpec("income", low=0.0, high=100_000.0, d=128),
            AttributeSpec("age", low=18.0, high=90.0, d=64),
        ),
        tasks=(
            Mean("income"),
            Quantiles("income", quantiles=(0.25, 0.5, 0.75)),
            RangeQueries("age", windows=((18.0, 30.0), (60.0, 90.0))),
            Mean("age"),
        ),
    )


@pytest.fixture(scope="module")
def survey_data() -> dict:
    rng = np.random.default_rng(99)
    n = 60_000
    return {
        "income": rng.gamma(4.0, 9_000.0, n).clip(0.0, 100_000.0),
        "age": rng.normal(45.0, 14.0, n).clip(18.0, 90.0),
    }


@pytest.fixture(scope="module")
def merged_report(survey_plan, survey_data) -> AnalysisReport:
    """Privatize -> ingest across 3 merged shards -> typed results."""
    rng = np.random.default_rng(7)
    n = next(iter(survey_data.values())).size
    bounds = np.linspace(0, n, 4).astype(int)
    shards = []
    for lo, hi in zip(bounds[:-1], bounds[1:], strict=True):
        shard = Session(survey_plan)
        shard.partial_fit(
            {k: v[lo:hi] for k, v in survey_data.items()}, rng=rng
        )
        shards.append(shard)
    merged = shards[0].merge(shards[1]).merge(shards[2])
    return merged.results()


class TestEndToEnd:
    def test_all_tasks_answered(self, merged_report):
        assert sorted(merged_report.keys()) == [
            "mean:age",
            "mean:income",
            "quantiles:income",
            "range_queries:age",
        ]

    def test_results_are_typed(self, merged_report):
        result = merged_report["mean:income"]
        assert isinstance(result, TaskResult)
        assert result.mechanism == "sw-ems"
        assert result.epsilon_spent == 1.0
        assert result.n_reports > 0

    def test_mean_in_real_units(self, merged_report, survey_data):
        truth = survey_data["income"].mean()
        assert abs(merged_report["mean:income"].value - truth) < 2_500.0

    def test_quantiles_in_real_units(self, merged_report, survey_data):
        truth = np.quantile(survey_data["income"], [0.25, 0.5, 0.75])
        estimate = np.asarray(merged_report["quantiles:income"].value)
        assert np.abs(estimate - truth).max() < 4_000.0

    def test_range_masses_close_to_truth(self, merged_report, survey_data):
        ages = survey_data["age"]
        truth = [
            ((ages >= lo) & (ages <= hi)).mean()
            for lo, hi in merged_report["range_queries:age"].detail["windows"]
        ]
        estimate = np.asarray(merged_report["range_queries:age"].value)
        assert np.abs(estimate - np.asarray(truth)).max() < 0.05

    def test_scalar_mean_attr_uses_population_budget(self, survey_plan):
        # age has mean + range tasks -> sw-ems; both attrs get full epsilon
        session = Session(survey_plan)
        assert session.per_user_epsilon == survey_plan.epsilon

    def test_budget_verified_by_privacy_audit(self, survey_plan, merged_report):
        audit = Session(survey_plan).audit()
        assert audit.satisfied
        assert merged_report.per_user_epsilon == audit.per_user_epsilon
        assert merged_report.epsilon_budget == survey_plan.epsilon

    def test_merge_equals_single_session(self, survey_plan, survey_data):
        """Merging shard sessions is exact: same counts -> same answers."""
        half = 30_000
        data_a = {k: v[:half] for k, v in survey_data.items()}
        data_b = {k: v[half:] for k, v in survey_data.items()}
        one = Session(survey_plan)
        one.ingest(one.privatize(data_a, rng=np.random.default_rng(1)))
        one.ingest(one.privatize(data_b, rng=np.random.default_rng(2)))
        sharded_a = Session(survey_plan)
        sharded_a.ingest(sharded_a.privatize(data_a, rng=np.random.default_rng(1)))
        sharded_b = Session(survey_plan)
        sharded_b.ingest(sharded_b.privatize(data_b, rng=np.random.default_rng(2)))
        sharded_a.merge(sharded_b)
        assert one.n_reports == sharded_a.n_reports
        np.testing.assert_allclose(
            one.results()["mean:income"].value,
            sharded_a.results()["mean:income"].value,
        )


class TestLifecycleValidation:
    def test_missing_attribute_rejected(self, survey_plan):
        with pytest.raises(ValueError, match="missing attributes"):
            Session(survey_plan).privatize({"income": np.array([1.0])})

    def test_undeclared_attribute_rejected(self, survey_plan):
        data = {
            "income": np.array([1.0]),
            "age": np.array([20.0]),
            "ssn": np.array([1.0]),
        }
        with pytest.raises(ValueError, match="undeclared"):
            Session(survey_plan).privatize(data)

    def test_ragged_user_axis_rejected(self, survey_plan):
        data = {"income": np.array([1.0, 2.0]), "age": np.array([20.0])}
        with pytest.raises(ValueError, match="one row per user"):
            Session(survey_plan).privatize(data)

    def test_merge_different_plans_rejected(self, survey_plan):
        other = AnalysisPlan(
            epsilon=2.0,
            attributes=survey_plan.attributes,
            tasks=survey_plan.tasks,
        )
        with pytest.raises(ValueError, match="different plans"):
            Session(survey_plan).merge(Session(other))

    def test_bad_confidence_rejected(self, survey_plan):
        with pytest.raises(ValueError, match="confidence"):
            Session(survey_plan).results(confidence=1.5)


class TestEmptyAggregatePath:
    def test_error_names_attribute_and_tasks(self, survey_plan):
        with pytest.raises(
            EmptyAggregateError, match=r"'income' \(tasks: mean, quantiles\)"
        ):
            Session(survey_plan).results()

    def test_error_is_catchable_as_runtime_error(self, survey_plan):
        with pytest.raises(RuntimeError):
            Session(survey_plan).results()

    def test_partially_filled_session_names_empty_attribute(self, survey_plan):
        session = Session(survey_plan)
        # Feed only income reports through the wire path; age stays empty.
        est = session.estimators["income"]
        reports = est.privatize(np.random.default_rng(0).random(500))
        session.ingest({"income": reports})
        with pytest.raises(EmptyAggregateError, match="'age'"):
            session.results()


class TestStateAndWire:
    def test_state_roundtrip_preserves_results(self, survey_plan, survey_data):
        rng = np.random.default_rng(11)
        session = Session(survey_plan)
        session.partial_fit(
            {k: v[:20_000] for k, v in survey_data.items()}, rng=rng
        )
        rebuilt = Session.from_state(session.to_state())
        assert rebuilt.n_reports == session.n_reports
        np.testing.assert_allclose(
            rebuilt.results()["mean:income"].value,
            session.results()["mean:income"].value,
        )

    def test_state_attribute_mismatch_rejected(self, survey_plan):
        state = Session(survey_plan).to_state()
        del state["estimators"]["age"]
        with pytest.raises(ValueError, match="covers attributes"):
            Session.from_state(state)

    def test_wire_roundtrip(self, survey_plan, survey_data):
        rng = np.random.default_rng(13)
        tx = Session(survey_plan)
        reports = tx.privatize(
            {k: v[:5_000] for k, v in survey_data.items()}, rng=rng
        )
        payload = tx.to_feed(reports, "round-9")
        rx = Session(survey_plan)
        assert rx.ingest_feed(payload, "round-9") == 5_000
        assert sum(rx.n_reports.values()) == 5_000

    def test_wire_rejects_unknown_attribute(self, survey_plan):
        from repro.protocol import encode_frame

        payload = encode_frame("r", np.array([0.1]), "float", attr="ssn")
        with pytest.raises(ValueError, match="undeclared"):
            Session(survey_plan).ingest_feed(payload, "r")

    def test_encode_rejects_undeclared_attribute(self, survey_plan):
        """A typo'd name fails at the sender, not on the receiving shard."""
        with pytest.raises(ValueError, match="undeclared"):
            Session(survey_plan).to_feed({"incmoe": np.array([0.1])}, "r")

    def test_merge_into_itself_rejected(self, survey_plan, survey_data):
        """A self-merge would double every count; it fails and changes nothing."""
        session = Session(survey_plan).partial_fit(
            {k: v[:1_000] for k, v in survey_data.items()}, rng=3
        )
        before = session.n_reports
        with pytest.raises(ValueError, match="itself"):
            session.merge(session)
        assert session.n_reports == before

    def test_fit_sharded_matches_manual_merge(self, survey_plan, survey_data):
        data = {k: v[:12_000] for k, v in survey_data.items()}
        merged = Session.fit_sharded(survey_plan, data, shards=3, rng=21)
        assert sum(merged.n_reports.values()) == 12_000
        np.testing.assert_allclose(
            sum(merged.results()["quantiles:income"].value),
            sum(
                Session.fit_sharded(survey_plan, data, shards=3, rng=21)
                .results()["quantiles:income"]
                .value
            ),
        )

    def test_fit_sharded_validates_inputs(self, survey_plan):
        with pytest.raises(ValueError, match="shards"):
            Session.fit_sharded(survey_plan, {"income": [1.0]}, shards=0)
        with pytest.raises(ValueError, match="non-empty"):
            Session.fit_sharded(survey_plan, {})
        with pytest.raises(ValueError, match="at least one user"):
            Session.fit_sharded(survey_plan, {"income": [], "age": []}, shards=2)

    def test_wire_ingest_rejects_structured_estimator_attribute(self):
        """A float feed for an hh-admm attribute fails loudly, not with an
        AttributeError deep inside the tree aggregator."""
        from repro.protocol import encode_frame

        plan = AnalysisPlan(
            epsilon=1.0,
            attributes=(AttributeSpec("x", d=16),),
            tasks=(RangeQueries("x", windows=((0.1, 0.4),)),),
        )
        payload = encode_frame("r", np.array([0.2, 0.3]), "float", attr="x")
        with pytest.raises(ValueError, match="payloads"):
            Session(plan).ingest_feed(payload, "r")


class TestResultFeatures:
    def test_confidence_intervals_bracket_value(self, survey_plan, survey_data):
        rng = np.random.default_rng(17)
        session = Session(survey_plan)
        session.partial_fit(
            {k: v[:20_000] for k, v in survey_data.items()}, rng=rng
        )
        report = session.results(confidence=0.8, n_bootstrap=20, rng=rng)
        result = report["mean:income"]
        assert result.ci is not None
        lo, hi = result.ci
        assert lo <= result.value <= hi
        assert result.confidence == 0.8

    def test_report_json_roundtrip(self, merged_report):
        rebuilt = AnalysisReport.from_json(merged_report.to_json())
        assert rebuilt.keys() == merged_report.keys()
        assert rebuilt["mean:income"].value == pytest.approx(
            merged_report["mean:income"].value
        )
        assert rebuilt.per_user_epsilon == merged_report.per_user_epsilon

    def test_unknown_result_key_raises(self, merged_report):
        with pytest.raises(KeyError, match="no result"):
            merged_report["variance:income"]

    def test_distribution_and_marginals_tasks(self):
        rng = np.random.default_rng(23)
        plan = AnalysisPlan(
            epsilon=1.0,
            attributes=(
                AttributeSpec("a", d=32),
                AttributeSpec("b", d=32),
            ),
            tasks=(
                Distribution("a"),
                Variance("a"),
                Marginals(names=("a", "b")),
            ),
        )
        session = Session(plan)
        session.partial_fit(
            {"a": rng.beta(2, 5, 20_000), "b": rng.random(20_000)}, rng=rng
        )
        report = session.results()
        hist = np.asarray(report["distribution:a"].value)
        assert hist.shape == (32,)
        assert hist.sum() == pytest.approx(1.0)
        assert len(report["distribution:a"].detail["edges"]) == 33
        marginals = report["marginals:a+b"]
        assert set(marginals.value) == {"a", "b"}
        assert np.asarray(marginals.value["b"]).sum() == pytest.approx(1.0)
        assert report["variance:a"].value == pytest.approx(
            rng.beta(2, 5, 200_000).var(), abs=0.02
        )

    def test_marginals_epsilon_spent_sums_under_budget_split(self):
        """Sequential composition: the marginals answer consumed the sum of
        the attribute allocations, not the max."""
        rng = np.random.default_rng(31)
        plan = AnalysisPlan(
            epsilon=1.0,
            split="budget",
            attributes=(AttributeSpec("a", d=32), AttributeSpec("b", d=32)),
            tasks=(Marginals(names=("a", "b")),),
        )
        session = Session(plan)
        session.partial_fit(
            {"a": rng.random(5_000), "b": rng.random(5_000)}, rng=rng
        )
        result = session.results()["marginals:a+b"]
        assert result.epsilon_spent == pytest.approx(1.0)  # 0.5 + 0.5

    def test_marginals_epsilon_spent_max_under_population_split(self):
        rng = np.random.default_rng(37)
        plan = AnalysisPlan(
            epsilon=1.0,
            attributes=(AttributeSpec("a", d=32), AttributeSpec("b", d=32)),
            tasks=(Marginals(names=("a", "b")),),
        )
        session = Session(plan)
        session.partial_fit(
            {"a": rng.random(5_000), "b": rng.random(5_000)}, rng=rng
        )
        result = session.results()["marginals:a+b"]
        assert result.epsilon_spent == pytest.approx(1.0)  # max(1.0, 1.0)

    def test_scalar_attribute_path(self):
        """A mean-only attribute runs the SR/PM scalar estimator."""
        rng = np.random.default_rng(29)
        plan = AnalysisPlan(
            epsilon=2.0,
            attributes=(AttributeSpec("x", low=0.0, high=10.0),),
            tasks=(Mean("x"),),
        )
        session = Session(plan)
        values = rng.uniform(2.0, 8.0, 40_000)
        session.partial_fit({"x": values}, rng=rng)
        report = session.results(confidence=0.9)
        result = report["mean:x"]
        assert result.mechanism == "pm"
        assert result.ci is None  # scalar mechanisms carry no bootstrap model
        assert abs(result.value - values.mean()) < 0.25
