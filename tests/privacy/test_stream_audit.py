"""Multi-round budget accounting: sequential composition across rounds."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.privacy import StreamAuditResult, audit_budget, audit_stream_budget

_allocations = st.dictionaries(
    st.text(min_size=1, max_size=8),
    st.floats(min_value=1e-3, max_value=8.0, allow_nan=False),
    min_size=1,
    max_size=5,
)


class TestStreamAuditBasics:
    def test_every_round_multiplies_spend(self):
        result = audit_stream_budget({"a": 0.5, "b": 0.5}, 4.0, rounds=3)
        assert result.per_round_epsilon == pytest.approx(1.0)
        assert result.cumulative_epsilon == pytest.approx(3.0)
        assert result.satisfied
        assert result.slack == pytest.approx(1.0)

    def test_once_participation_is_parallel_across_rounds(self):
        result = audit_stream_budget(
            {"a": 1.0}, 1.0, rounds=100, participation="once"
        )
        assert result.cumulative_epsilon == pytest.approx(1.0)
        assert result.satisfied

    def test_over_budget_stream_flagged(self):
        result = audit_stream_budget({"a": 1.0}, 2.0, rounds=3)
        assert not result.satisfied
        assert result.slack == pytest.approx(-1.0)

    def test_rounds_validation(self):
        with pytest.raises(ValueError, match="rounds"):
            audit_stream_budget({"a": 1.0}, 1.0, rounds=0)

    def test_participation_validation(self):
        with pytest.raises(ValueError, match="participation"):
            audit_stream_budget({"a": 1.0}, 1.0, rounds=1, participation="maybe")

    def test_composition_delegates_to_one_shot_audit(self):
        with pytest.raises(ValueError, match="composition"):
            audit_stream_budget({"a": 1.0}, 1.0, rounds=1, composition="serial")

    def test_to_dict_is_json_ready(self):
        result = audit_stream_budget({"a": 0.5}, 1.0, rounds=2)
        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["rounds"] == 2
        assert payload["per_attribute"] == {"a": 0.5}
        assert payload["satisfied"] is True


class TestStreamAuditProperties:
    @settings(max_examples=100, deadline=None)
    @given(
        allocation=_allocations,
        budget=st.floats(min_value=1e-2, max_value=100.0, allow_nan=False),
        rounds=st.integers(min_value=1, max_value=64),
        composition=st.sampled_from(["sequential", "parallel"]),
    )
    def test_cumulative_spend_is_rounds_times_per_round(
        self, allocation, budget, rounds, composition
    ):
        result = audit_stream_budget(
            allocation, budget, rounds=rounds, composition=composition
        )
        assert isinstance(result, StreamAuditResult)
        one_shot = audit_budget(allocation, budget, composition=composition)
        assert result.per_round_epsilon == pytest.approx(one_shot.per_user_epsilon)
        assert result.cumulative_epsilon == pytest.approx(
            rounds * result.per_round_epsilon
        )

    @settings(max_examples=100, deadline=None)
    @given(
        allocation=_allocations,
        budget=st.floats(min_value=1e-2, max_value=100.0, allow_nan=False),
        rounds=st.integers(min_value=1, max_value=64),
    )
    def test_once_participation_never_exceeds_every_round(
        self, allocation, budget, rounds
    ):
        once = audit_stream_budget(
            allocation, budget, rounds=rounds, participation="once"
        )
        every = audit_stream_budget(allocation, budget, rounds=rounds)
        assert once.cumulative_epsilon <= every.cumulative_epsilon
        assert once.cumulative_epsilon == pytest.approx(once.per_round_epsilon)
        if every.satisfied:
            assert once.satisfied

    @settings(max_examples=100, deadline=None)
    @given(
        allocation=_allocations,
        rounds=st.integers(min_value=1, max_value=64),
    )
    def test_rounds_one_matches_one_shot_audit(self, allocation, rounds):
        """A one-round stream audit and the plan audit agree on satisfied."""
        budget = 2.0
        stream = audit_stream_budget(allocation, budget, rounds=1)
        one_shot = audit_budget(allocation, budget)
        assert stream.satisfied == one_shot.satisfied
        assert stream.cumulative_epsilon == pytest.approx(
            one_shot.per_user_epsilon
        )

    @settings(max_examples=60, deadline=None)
    @given(
        allocation=_allocations,
        budget=st.floats(min_value=1e-2, max_value=100.0, allow_nan=False),
        rounds=st.integers(min_value=1, max_value=32),
    )
    def test_spend_is_monotone_in_rounds(self, allocation, budget, rounds):
        shorter = audit_stream_budget(allocation, budget, rounds=rounds)
        longer = audit_stream_budget(allocation, budget, rounds=rounds + 1)
        assert longer.cumulative_epsilon > shorter.cumulative_epsilon
        if longer.satisfied:
            assert shorter.satisfied
