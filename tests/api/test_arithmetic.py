"""Sanctioned state arithmetic: subtraction in payload and estimator space."""

import pytest

from repro.api import (
    get_spec,
    list_estimators,
    make_estimator,
    subtract_payload,
    subtract_state,
    supports_state_arithmetic,
)
from repro.utils.rng import as_generator

#: Every registered family, by name.
FAMILIES = [spec.name for spec in list_estimators()]

#: Families whose states are integer-valued bucket counts; every other
#: family keeps debiased float weights.
COUNT_STATES = {"sw-em", "sw-ems", "sw-discrete-em", "sw-discrete-ems"}


def _fitted(name, seed, n=400):
    est = make_estimator(name, 1.0, 64)
    gen = as_generator(seed)
    kind = get_spec(name).kind
    if kind == "frequency":
        values = gen.integers(0, 64, size=n)
    else:
        values = gen.random(n)
    est.partial_fit(values, rng=gen)
    return est


def _assert_close(after, before):
    """Float leaves approximately equal; every other leaf exactly equal."""
    if isinstance(before, float):
        assert after == pytest.approx(before)
    elif isinstance(before, list):
        assert len(after) == len(before)
        for x, y in zip(after, before):
            _assert_close(x, y)
    elif isinstance(before, dict):
        assert after.keys() == before.keys()
        for key in before:
            _assert_close(after[key], before[key])
    else:
        assert after == before


class TestPayloadArithmetic:
    def test_nested_lists_recurse(self):
        a = {"levels": [[2.0, 2.0], [4.0]]}
        b = {"levels": [[1.0, 0.5], [1.0]]}
        assert subtract_payload(a, b) == {"levels": [[1.0, 1.5], [3.0]]}

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            subtract_payload({"c": [1.0, 2.0]}, {"c": [1.0]})

    def test_key_mismatch_rejected(self):
        with pytest.raises(ValueError, match="keys"):
            subtract_payload({"a": 1.0}, {"b": 1.0})

    def test_string_leaves_must_match(self):
        a = {"codec": "v2", "n": 4}
        assert subtract_payload(a, {"codec": "v2", "n": 1})["codec"] == "v2"
        with pytest.raises(ValueError, match="non-numeric"):
            subtract_payload(a, {"codec": "v1", "n": 1})

    def test_bool_leaves_are_structure_not_counts(self):
        a = {"flag": True, "n": 4}
        assert subtract_payload(a, {"flag": True, "n": 1}) == {"flag": True, "n": 3}
        with pytest.raises(ValueError, match="non-numeric"):
            subtract_payload(a, {"flag": False, "n": 1})


class TestSubtractState:
    @pytest.mark.parametrize("name", FAMILIES)
    def test_subtract_state_inverts_merge(self, name):
        """``merge`` then ``subtract_state`` gives back the state merged into.

        Bucketized counts are integer-valued float64, exact below 2^53, so
        count states come back bit-identical; debiased float weights come
        back close, with their integer report counts exact.
        """
        base = _fitted(name, seed=0)
        other = _fitted(name, seed=1)
        before = base._state()
        base.merge(other)
        assert base._state() != before
        subtract_state(base, other)
        if name in COUNT_STATES:
            assert base._state() == before
        else:
            _assert_close(base._state(), before)

    def test_incompatible_types_rejected(self):
        with pytest.raises(TypeError, match="cannot combine"):
            subtract_state(_fitted("sw-ems", 0), _fitted("grr", 0))

    def test_incompatible_params_rejected(self):
        a = make_estimator("sw-ems", 1.0, 64)
        b = make_estimator("sw-ems", 2.0, 64)
        with pytest.raises(ValueError, match="parameters"):
            subtract_state(a, b)

    def test_opt_out_estimator_rejected(self):
        est = _fitted("sw-ems", 0)
        est.state_arithmetic = False
        with pytest.raises(TypeError, match="state_arithmetic"):
            subtract_state(est, _fitted("sw-ems", 1))
        assert not supports_state_arithmetic(est)


class TestCapabilityFlag:
    @pytest.mark.parametrize("name", FAMILIES)
    def test_every_builtin_family_declares_arithmetic(self, name):
        """Window states check the class attribute on their template."""
        assert make_estimator(name, 1.0, 64).state_arithmetic is True

    def test_instances_report_capability(self):
        assert supports_state_arithmetic(make_estimator("sw-ems", 1.0, 64))
        assert not supports_state_arithmetic(object())
