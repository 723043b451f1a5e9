"""StreamingCollector: warm starts, fusion, fingerprint skips, drift."""

import numpy as np
import pytest

from repro.api import make_estimator
from repro.streaming import StreamingCollector
from repro.streaming.scheduler import iter_ticks
from repro.streaming.telemetry import drifting_stream
from repro.tasks import AnalysisPlan, AttributeSpec, Distribution, plan_analysis
from repro.utils.rng import as_generator


def _collector(n_attrs=1, **kwargs):
    templates = {
        f"a{i}": make_estimator("sw-ems", 1.0, 64) for i in range(n_attrs)
    }
    return StreamingCollector(templates, **kwargs)


def _rounds(collector, seed, n=500):
    gen = as_generator(seed)
    return {
        name: collector.make_round(name, gen.random(n), rng=gen)
        for name in collector.attributes
    }


class TestTickBasics:
    def test_first_tick_is_cold_then_warm(self):
        collector = _collector(window=4)
        first = collector.tick(_rounds(collector, seed=0))
        assert not first.attributes["a0"].warm
        second = collector.tick(_rounds(collector, seed=1))
        assert second.attributes["a0"].warm
        assert second.tick == 2

    def test_warm_ticks_take_fewer_iterations(self):
        """The headline amortization: warm EM beats cold EM on a slow stream."""
        warm = _collector(window=8)
        cold = _collector(window=8, warm_start=False)
        warm_total = cold_total = 0
        for seed in range(1, 6):
            warm_total += warm.tick(_rounds(warm, seed)).total_iterations
            cold_total += cold.tick(_rounds(cold, seed)).total_iterations
        assert warm_total < cold_total

    def test_estimate_is_a_distribution(self):
        collector = _collector(window=4)
        result = collector.tick(_rounds(collector, seed=0))
        estimate = result.attributes["a0"].estimate
        assert estimate.shape == (64,)
        assert estimate.sum() == pytest.approx(1.0)
        assert collector.estimates()["a0"] is not estimate  # copies, no aliasing

    def test_unknown_attribute_rejected(self):
        collector = _collector()
        with pytest.raises(KeyError, match="unknown attributes"):
            collector.tick({"nope": make_estimator("sw-ems", 1.0, 64)})

    def test_unchanged_window_is_skipped(self):
        collector = _collector(n_attrs=2, window=4)
        gen = as_generator(0)
        collector.tick(_rounds(collector, seed=0))
        # advance only a0; a1's window (and fingerprint) is unchanged
        partial = {"a0": collector.make_round("a0", gen.random(500), rng=gen)}
        result = collector.tick(partial)
        assert not result.attributes["a0"].skipped
        assert result.attributes["a1"].skipped
        assert result.skipped == 1 and result.solved == 1

    def test_empty_window_is_skipped_not_raised(self):
        collector = _collector()
        result = collector.tick({})
        assert result.attributes["a0"].empty
        assert result.attributes["a0"].estimate is None

    def test_to_dict_is_json_ready(self):
        import json

        collector = _collector(window=2)
        result = collector.tick(_rounds(collector, seed=0))
        assert json.dumps(result.to_dict())


class TestFusion:
    def test_same_config_attributes_fuse(self):
        collector = _collector(n_attrs=3, window=4)
        result = collector.tick(_rounds(collector, seed=0))
        assert result.fused_groups == 1
        assert all(t.fused for t in result.attributes.values())

    def test_fused_matches_solo_solve(self):
        """Fusion is a dispatch optimization, not a different estimator."""
        fused = _collector(n_attrs=2, window=4)
        solo = _collector(n_attrs=1, window=4)
        gen_a = as_generator(7)
        gen_b = as_generator(7)
        values = gen_a.random(800)
        rounds_fused = {
            "a0": fused.make_round("a0", values, rng=as_generator(1)),
            "a1": fused.make_round("a1", values, rng=as_generator(2)),
        }
        rounds_solo = {
            "a0": solo.make_round("a0", values, rng=as_generator(1)),
        }
        del gen_b
        fused_result = fused.tick(rounds_fused)
        solo_result = solo.tick(rounds_solo)
        assert fused_result.attributes["a0"].fused
        assert not solo_result.attributes["a0"].fused
        assert (
            fused_result.attributes["a0"].estimate.tobytes()
            == solo_result.attributes["a0"].estimate.tobytes()
        )

    def test_cold_column_beside_a_warm_one_matches_a_cold_solo_solve(self):
        """d=100: a uniform 1/d column does not sum to exactly 1, so a cold
        column must start from the exact prior, not a renormalized one."""
        templates = {
            name: make_estimator("sw-ems", 1.0, 100) for name in ("warm", "cold")
        }
        fused = StreamingCollector(templates, window=4)
        solo_warm = StreamingCollector({"warm": templates["warm"]}, window=4)
        solo_cold = StreamingCollector({"cold": templates["cold"]}, window=4)
        gen = as_generator(11)
        first = gen.beta(2.0, 5.0, 3000)
        fused.tick({"warm": fused.make_round("warm", first, rng=as_generator(1))})
        solo_warm.tick(
            {"warm": solo_warm.make_round("warm", first, rng=as_generator(1))}
        )
        second, third = gen.beta(2.0, 5.0, 3000), gen.beta(5.0, 2.0, 3000)
        result = fused.tick(
            {
                "warm": fused.make_round("warm", second, rng=as_generator(2)),
                "cold": fused.make_round("cold", third, rng=as_generator(3)),
            }
        )
        assert result.fused_groups == 1
        assert result.attributes["warm"].warm and not result.attributes["cold"].warm
        alone_warm = solo_warm.tick(
            {"warm": solo_warm.make_round("warm", second, rng=as_generator(2))}
        )
        alone_cold = solo_cold.tick(
            {"cold": solo_cold.make_round("cold", third, rng=as_generator(3))}
        )
        for name, alone in (("warm", alone_warm), ("cold", alone_cold)):
            assert (
                result.attributes[name].estimate.tobytes()
                == alone.attributes[name].estimate.tobytes()
            )
            assert result.attributes[name].iterations == alone.attributes[name].iterations

    def test_mixed_families_do_not_fuse(self):
        templates = {
            "wave": make_estimator("sw-ems", 1.0, 64),
            "oracle": make_estimator("grr", 1.0, 64),
        }
        collector = StreamingCollector(templates, window=4)
        gen = as_generator(0)
        rounds = {
            "wave": collector.make_round("wave", gen.random(400), rng=gen),
            "oracle": collector.make_round(
                "oracle", gen.integers(0, 64, size=400), rng=gen
            ),
        }
        result = collector.tick(rounds)
        assert result.fused_groups == 0
        assert not result.attributes["oracle"].fused


class TestDrift:
    def test_drift_checks_fire_on_cadence(self):
        collector = _collector(window=4, drift_every=2, drift_threshold=0.5)
        for seed in range(1, 5):
            collector.tick(_rounds(collector, seed))
        checked_ticks = {c.tick for c in collector.drift.checks}
        assert checked_ticks == {2, 4}

    def test_drift_invalidation_adopts_fresh_posterior(self):
        """A tiny threshold forces every checked tick to re-anchor cold."""
        collector = _collector(window=1, drift_every=1, drift_threshold=1e-12)
        stream = drifting_stream(4, 800, rng=0)
        drifted = []
        for values in stream:
            rounds = {"a0": collector.make_round("a0", values, rng=as_generator(1))}
            result = collector.tick(rounds)
            drifted.append(result.attributes["a0"].drifted)
        assert not drifted[0]  # first tick is cold: nothing to cross-check
        assert any(drifted[1:])

    def test_drift_disabled_by_default(self):
        collector = _collector(window=2)
        for seed in range(3):
            collector.tick(_rounds(collector, seed))
        assert collector.drift.checks == []


class TestModesAndAudit:
    def test_window_and_decay_are_exclusive(self):
        with pytest.raises(ValueError, match="mutually exclusive"):
            _collector(window=2, decay=0.5)

    def test_empty_templates_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            StreamingCollector({})

    def test_effective_rounds_per_mode(self):
        assert _collector(window=7).effective_rounds == 7
        assert _collector(decay=0.9).effective_rounds == 10
        cumulative = _collector()
        assert cumulative.effective_rounds == 1
        cumulative.tick(_rounds(cumulative, seed=0))
        cumulative.tick(_rounds(cumulative, seed=1))
        assert cumulative.effective_rounds == 2

    def test_audit_reports_window_spend(self):
        collector = _collector(window=3)
        audit = collector.audit({"a0": 1.0}, 3.0)
        assert audit.rounds == 3
        assert audit.per_window_epsilon == pytest.approx(3.0)
        assert audit.satisfied
        assert not collector.audit({"a0": 1.0}, 2.0).satisfied

    def test_from_plan(self):
        plan = AnalysisPlan(
            attributes=[
                AttributeSpec(name="income", low=0.0, high=1.0),
                AttributeSpec(name="age", low=0.0, high=1.0),
            ],
            tasks=[Distribution(attribute="income"), Distribution(attribute="age")],
            epsilon=2.0,
        )
        collector = StreamingCollector.from_plan(plan, window=4)
        assert set(collector.attributes) == {"income", "age"}
        planned = plan_analysis(plan)
        collector2 = StreamingCollector.from_plan(planned, window=4)
        assert set(collector2.attributes) == {"income", "age"}


class TestIterTicks:
    def test_summary_counts(self):
        collector = _collector(n_attrs=2, window=4, drift_every=2, drift_threshold=0.5)
        results = [collector.tick(_rounds(collector, seed)) for seed in range(1, 4)]
        summary = iter_ticks(results)
        assert summary["n_ticks"] == 3
        assert summary["solved"] == 6
        assert summary["total_iterations"] > 0
        assert summary["fused_groups"] == 3
