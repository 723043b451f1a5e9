"""Population splitting: each user reports one attribute, at the whole budget.

The plan path is the one way to collect several attributes: a
:class:`~repro.tasks.Marginals` task resolves to ``sw-ems`` for each
attribute, and :meth:`~repro.tasks.Session.privatize` assigns every user
one of them. The reports travel over both wires and are served by
:class:`~repro.protocol.PlanServer` and the sharded service.
"""

import json

import numpy as np
import pytest

import repro.engine.solver as solver_module
from repro.api import EmptyAggregateError
from repro.core.pipeline import SWEstimator
from repro.metrics.distances import wasserstein_distance
from repro.protocol import CollectionServer, PlanServer
from repro.protocol.frames import decode_frame_grouped
from repro.service import ServiceConfig, ShardedCollector
from repro.service.loadgen import synthesize_frames
from repro.tasks import (
    AnalysisPlan,
    AttributeSpec,
    Distribution,
    Marginals,
    Session,
    plan_analysis,
)
from repro.tasks.session import split_population
from tests.conftest import true_histogram


def marginals_plan(k: int, *, epsilon: float = 2.0, d: int = 64) -> AnalysisPlan:
    names = tuple(f"a{i}" for i in range(k))
    return AnalysisPlan(
        epsilon=epsilon,
        attributes=tuple(AttributeSpec(name, d=d) for name in names),
        tasks=(Marginals(names=names),),
    )


@pytest.fixture(scope="module")
def two_attribute_data():
    gen = np.random.default_rng(11)
    n = 60_000
    # Attribute 0: left-skewed; attribute 1: bimodal.
    a0 = gen.beta(2, 5, n)
    a1 = np.clip(
        np.where(gen.random(n) < 0.5, gen.normal(0.3, 0.05, n), gen.normal(0.8, 0.05, n)),
        0,
        1,
    )
    return {"a0": a0, "a1": a1}


def test_split_population_helper(rng):
    assignment = split_population(10_000, 4, rng)
    assert assignment.shape == (10_000,)
    assert set(np.unique(assignment)) <= {0, 1, 2, 3}
    for slot in range(4):
        assert (assignment == slot).mean() == pytest.approx(0.25, abs=0.03)
    with pytest.raises(ValueError, match="n must be"):
        split_population(0, 2, rng)
    with pytest.raises(ValueError, match="k must be"):
        split_population(10, 0, rng)


def test_marginals_plan_resolves_to_sw_ems_per_attribute():
    session = Session(marginals_plan(3))
    assert session.planned.composition == "parallel"
    assert [choice.mechanism for choice in session.planned.choices] == ["sw-ems"] * 3


def test_each_user_reports_one_attribute_in_equal_shares(two_attribute_data, rng):
    session = Session(marginals_plan(2))
    reports = session.privatize(two_attribute_data, rng=rng)
    counts = {name: batch.size for name, batch in reports.items()}
    assert sum(counts.values()) == two_attribute_data["a0"].size
    for count in counts.values():
        assert count / two_attribute_data["a0"].size == pytest.approx(0.5, abs=0.02)


def test_recovers_both_marginals(two_attribute_data):
    # eps=2 keeps the SW blur narrower than the bimodal attribute's
    # sharp modes; at eps=1 the smoothing bias dominates its W1.
    session = Session(marginals_plan(2))
    session.partial_fit(two_attribute_data, rng=np.random.default_rng(0))
    marginals = session.results()["marginals:a0+a1"].value
    for name, values in two_attribute_data.items():
        truth = true_histogram(values, 64)
        assert wasserstein_distance(truth, np.asarray(marginals[name])) < 0.03
        assert session.estimators[name].result_ is not None  # per-attribute diagnostics


def test_more_attributes_worse_marginals(two_attribute_data):
    """Splitting the population k ways costs accuracy per marginal.

    Measured in the noise-dominated regime (eps=2, 24k users, k=8 gives
    3k users per attribute) and averaged over seeds; at low epsilon the
    EMS bias floor hides the population-size effect.
    """
    a0 = two_attribute_data["a0"][:24_000]
    truth = true_histogram(a0, 64)
    err_k = {}
    for k in (1, 8):
        plan = AnalysisPlan(
            epsilon=2.0,
            attributes=tuple(AttributeSpec(f"a{i}", d=64) for i in range(k)),
            tasks=tuple(Distribution(f"a{i}") for i in range(k)),
        )
        errors = []
        for seed in (1, 2, 3):
            session = Session(plan)
            session.partial_fit(
                {f"a{i}": a0 for i in range(k)}, rng=np.random.default_rng(seed)
            )
            estimate = session.results()["distribution:a0"].value
            errors.append(wasserstein_distance(truth, np.asarray(estimate)))
        err_k[k] = np.mean(errors)
    assert err_k[1] < err_k[8]


def test_one_sw_ems_estimator_per_attribute_at_the_whole_budget():
    session = Session(marginals_plan(3, epsilon=1.5, d=32))
    assert sorted(session.estimators) == ["a0", "a1", "a2"]
    for estimator in session.estimators.values():
        assert isinstance(estimator, SWEstimator)
        assert (estimator.epsilon, estimator.d) == (1.5, 32)
        assert estimator.postprocess == "ems"
    assert session.per_user_epsilon == pytest.approx(1.5)


def test_rejects_wrong_shape(rng):
    """One value per user and attribute: a matrix or an empty column is
    refused (ragged columns: ``test_session.py``)."""
    session = Session(marginals_plan(2))
    for bad in (rng.random((10, 2)), np.empty(0)):
        with pytest.raises(ValueError, match="non-empty 1-d"):
            session.privatize({"a0": bad, "a1": rng.random(10)}, rng=rng)


def test_rejects_out_of_range(rng):
    session = Session(marginals_plan(2))
    with pytest.raises(ValueError, match="inside"):
        session.privatize({"a0": np.full(5, 1.5), "a1": np.full(5, 1.5)}, rng=rng)


@pytest.mark.parametrize("bad", [7.0, -0.5, np.nan, np.inf])
@pytest.mark.parametrize("column", ["a0", "a1"])
def test_one_bad_value_refuses_the_batch_at_every_split(bad, column):
    """Whichever attribute the split assigns its user, one bad value in
    one column refuses the batch and ingests nothing."""
    session = Session(marginals_plan(2))
    data = {name: np.linspace(0.0, 1.0, 10) for name in ("a0", "a1")}
    data[column][3] = bad
    for seed in range(8):
        with pytest.raises(ValueError, match=f"{column!r}.*finite and inside"):
            session.partial_fit(data, rng=seed)
    assert session.n_reports == {"a0": 0, "a1": 0}


def test_reports_in_sw_domain(two_attribute_data, rng):
    session = Session(marginals_plan(2))
    reports = session.privatize(two_attribute_data, rng=rng)
    for name, batch in reports.items():
        b = session.estimators[name].mechanism.b
        assert batch.min() >= -b - 1e-12
        assert batch.max() <= 1 + b + 1e-12


def test_unequal_weights_split_users_in_proportion(two_attribute_data, rng):
    plan = AnalysisPlan(
        epsilon=2.0,
        attributes=(AttributeSpec("a0", d=64, weight=3.0), AttributeSpec("a1", d=64)),
        tasks=(Marginals(names=("a0", "a1")),),
    )
    reports = Session(plan).privatize(two_attribute_data, rng=rng)
    n = two_attribute_data["a0"].size
    assert reports["a0"].size / n == pytest.approx(0.75, abs=0.02)
    assert reports["a0"].size + reports["a1"].size == n


def test_budget_split_reports_every_attribute_at_a_share(two_attribute_data, rng):
    plan = AnalysisPlan(
        epsilon=2.0,
        split="budget",
        attributes=(AttributeSpec("a0", d=64), AttributeSpec("a1", d=64)),
        tasks=(Marginals(names=("a0", "a1")),),
    )
    session = Session(plan)
    reports = session.privatize(two_attribute_data, rng=rng)
    for name, batch in reports.items():
        assert batch.size == two_attribute_data[name].size
        assert session.estimators[name].epsilon == pytest.approx(1.0)


def test_marginals_are_distinct(two_attribute_data):
    session = Session(marginals_plan(2, epsilon=1.0))
    session.partial_fit(two_attribute_data, rng=np.random.default_rng(0))
    marginals = session.results()["marginals:a0+a1"].value
    # Attribute a1 is bimodal; attribute a0 is not.
    assert wasserstein_distance(np.asarray(marginals["a0"]), np.asarray(marginals["a1"])) > 0.05


def test_empty_attribute_raises_naming_it(rng):
    """An attribute with no reports fails its solve; it is never filled in
    with a uniform histogram."""
    session = Session(marginals_plan(2, d=16))
    session.ingest({"a0": session.estimators["a0"].privatize(rng.random(100), rng=rng)})
    with pytest.raises(EmptyAggregateError, match=r"'a1' \(tasks: marginals\)"):
        session.results()


def test_state_round_trip_and_merge_equal_one_session(two_attribute_data):
    halves = [
        {name: values[start : start + 10_000] for name, values in two_attribute_data.items()}
        for start in (0, 10_000)
    ]
    shards = [Session(marginals_plan(2)) for _ in halves]
    combined = Session(marginals_plan(2))
    for seed, (shard, half) in enumerate(zip(shards, halves, strict=True)):
        reports = shard.privatize(half, rng=np.random.default_rng(seed))
        shard.ingest(reports)
        combined.ingest(reports)
    restored = Session.from_state(json.loads(json.dumps(shards[1].to_state())))
    merged = shards[0].merge(restored)
    assert merged.n_reports == combined.n_reports
    for name in merged.attributes:
        assert merged._estimate(name).tobytes() == combined._estimate(name).tobytes()


@pytest.mark.parametrize("wire", ["frame", "jsonl"])
def test_feed_equals_direct_ingest(two_attribute_data, wire):
    sender = Session(marginals_plan(2))
    reports = sender.privatize(two_attribute_data, rng=np.random.default_rng(4))
    direct = Session(marginals_plan(2))
    direct.ingest(reports)
    receiver = Session(marginals_plan(2))
    feed = sender.to_feed(reports, "r1", format=wire)
    assert receiver.ingest_feed(feed, "r1") == two_attribute_data["a0"].size
    for name in receiver.attributes:
        assert receiver._estimate(name).tobytes() == direct._estimate(name).tobytes()


def test_plan_server_report_is_one_fused_solve_with_solo_bits(monkeypatch):
    """The attributes share one Square Wave channel, so the report solves
    them as one batch, each column the bits of that attribute alone."""
    widths = []
    original = solver_module.batched_expectation_maximization

    def counting(matrix, counts, **kwargs):
        result = original(matrix, counts, **kwargs)
        widths.append(result.estimates.shape[1])
        return result

    monkeypatch.setattr(solver_module, "batched_expectation_maximization", counting)
    plan = marginals_plan(3, d=32)
    planned = plan_analysis(plan)
    server = PlanServer(plan, "r1", planned=planned)
    solo = {
        name: CollectionServer.for_estimator(
            "r1", planned.choice_for(name).make(), attr=name
        )
        for name in ("a0", "a1", "a2")
    }
    for frame, _n in synthesize_frames(plan, "r1", 6000, batch_size=2000, rng=5):
        server.ingest_feed(frame)
        for name, group in decode_frame_grouped(frame)[1].items():
            solo[name].ingest_reports(group.reports)
    widths.clear()
    marginals = server.report()["marginals:a0+a1+a2"].value
    assert widths == [3]
    for name, alone in solo.items():
        assert np.asarray(marginals[name]).tobytes() == alone.estimate().tobytes()


@pytest.mark.parametrize("n_shards", [1, 2])
def test_sharded_service_report_equals_the_plan_server(n_shards):
    plan = marginals_plan(2, d=32)
    frames = [frame for frame, _n in synthesize_frames(plan, "r1", 4000, batch_size=1000, rng=9)]
    server = PlanServer(plan, "r1")
    with ShardedCollector(ServiceConfig(plan=plan, n_shards=n_shards)) as collector:
        for frame in frames:
            server.ingest_feed(frame)
            collector.submit(frame, "r1")
        served = collector.estimate("r1")["report"]
    assert json.dumps(served, sort_keys=True) == json.dumps(
        server.report().to_dict(), sort_keys=True
    )


def test_marginals_only_attributes_run_no_bootstrap(two_attribute_data, monkeypatch):
    """Confidence bands are drawn only for tasks that read them; a
    marginals answer carries none."""

    def no_bootstrap(*args, **kwargs):
        raise AssertionError("bootstrap ran for a marginals-only attribute")

    session = Session(marginals_plan(2))
    session.partial_fit(two_attribute_data, rng=np.random.default_rng(2))
    monkeypatch.setattr(session, "_bands", no_bootstrap)
    result = session.results(confidence=0.9)["marginals:a0+a1"]
    assert result.ci is None
    assert set(result.value) == {"a0", "a1"}
