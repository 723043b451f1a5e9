"""StreamingCollector: warm starts, fusion, fingerprint skips, drift."""

import pickle

import numpy as np
import pytest

from repro.api import make_estimator
from repro.api.base import Estimator
from repro.streaming import StreamingCollector
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
        warm_total = cold_total = 0
        for seed in range(1, 6):
            warm_total += warm.tick(_rounds(warm, seed)).total_iterations
            # The estimator's own estimate() solves the same window cold.
            cold = Estimator.from_state(warm.window_state("a0").current.to_state())
            cold.estimate()
            cold_total += cold.result_.iterations
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

    @pytest.mark.parametrize("name", ["pm", "sw-ems"])
    def test_unchanged_window_is_a_hit_for_every_estimate_type(self, name):
        """Scalar and array estimates share one caching rule: an unchanged
        window is skipped and answers what it answered before, and a hit
        hands out a copy the caller may mutate."""
        collector = StreamingCollector(
            {"a0": make_estimator(name, 1.0, 64)}, window=4
        )
        gen = as_generator(3)
        values = gen.random(500)
        first = collector.tick({"a0": collector.make_round("a0", values, rng=gen)})
        assert not first.attributes["a0"].skipped
        expected = pickle.dumps(first.attributes["a0"].estimate)
        second = collector.tick({})
        assert second.attributes["a0"].skipped
        assert second.solved == 0
        hit = second.attributes["a0"].estimate
        assert pickle.dumps(hit) == expected
        if not isinstance(hit, float):
            hit[:] = -1.0
        third = collector.tick({})
        assert third.attributes["a0"].skipped
        assert pickle.dumps(third.attributes["a0"].estimate) == expected

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
    def test_empty_templates_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            StreamingCollector({})

    @pytest.mark.parametrize("window", [None, 2])
    def test_audit_charges_every_tick(self, window):
        """The spend grows with the ticks, past the window length."""
        collector = _collector(window=window)
        assert collector.audit({"a0": 1.0}, 3.0).rounds == 1
        for seed in range(4):
            collector.tick(_rounds(collector, seed))
        audit = collector.audit({"a0": 1.0}, 4.0)
        assert audit.rounds == 4
        assert audit.cumulative_epsilon == pytest.approx(4.0)
        assert audit.satisfied
        assert not collector.audit({"a0": 1.0}, 3.0).satisfied

    @pytest.mark.parametrize("window", [None, 2])
    def test_idle_tick_is_not_charged(self, window):
        """Three ticks that each push a round, then one that pushes none."""
        collector = _collector(window=window)
        for seed in range(3):
            collector.tick(_rounds(collector, seed))
        collector.tick({})
        audit = collector.audit({"a0": 1.0}, 4.0)
        assert audit.rounds == 3
        assert audit.cumulative_epsilon == pytest.approx(3.0)
        assert (collector.n_ticks, collector.n_rounds) == (4, 3)

    def test_tick_pushing_some_attributes_is_charged_whole(self):
        """a0 gets rounds at ticks 1 and 2, a1 at ticks 1 and 3: a user who
        reports every round reported in all three, so three are charged."""
        collector = _collector(n_attrs=2, window=4)
        collector.tick(_rounds(collector, 0))
        for seed, name in ((1, "a0"), (2, "a1")):
            collector.tick({name: _rounds(collector, seed)[name]})
        assert (collector.n_ticks, collector.n_rounds) == (3, 3)
        audit = collector.audit({"a0": 0.5, "a1": 0.5}, 2.0)
        assert audit.rounds == 3
        assert audit.cumulative_epsilon == pytest.approx(3.0)
        assert not audit.satisfied

    def test_disjoint_ticks_are_charged_under_parallel_composition(self):
        """Under a population split a user may report a0 in round 1 and a1
        in round 2: two rounds at the per-round epsilon each, although no
        window holds more than one."""
        collector = _collector(n_attrs=2)
        for seed, name in ((0, "a0"), (1, "a1")):
            collector.tick({name: _rounds(collector, seed)[name]})
        assert [collector.window_state(n).n_rounds for n in ("a0", "a1")] == [1, 1]
        audit = collector.audit({"a0": 1.0, "a1": 1.0}, 1.5, composition="parallel")
        assert audit.rounds == 2
        assert audit.cumulative_epsilon == pytest.approx(2.0)
        assert not audit.satisfied

    def test_evicted_round_still_moves_the_estimate_and_is_charged(self):
        """Two streams differ only in round 1; the window evicts it at tick 11.

        The final estimate still differs (each tick's EM starts from the
        previous tick's posterior), so the audit must charge all 30 rounds,
        not the 10 the window holds.
        """
        gen = as_generator(11)
        rounds = [gen.beta(2, 5, 2000) for _ in range(30)]
        changed = [gen.beta(5, 2, 2000), *rounds[1:]]
        finals, audits = [], []
        for values_by_round in (rounds, changed):
            collector = _collector(window=10)
            for index, values in enumerate(values_by_round):
                collector.tick(
                    {"a0": collector.make_round("a0", values, rng=index)}
                )
            finals.append(collector.estimates()["a0"])
            audits.append(collector.audit({"a0": 1.0}, 8.0))
        assert not np.array_equal(finals[0], finals[1])
        assert [audit.rounds for audit in audits] == [30, 30]
        assert audits[0].cumulative_epsilon == pytest.approx(30.0)

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

