"""Window states: O(d) maintenance vs re-ingesting, exactness, validation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import make_estimator
from repro.streaming import CumulativeState, SlidingWindowState
from repro.streaming.window import clone_template
from repro.utils.rng import as_generator


def _template(d=64):
    return make_estimator("sw-ems", 1.0, d)


def _round(template, seed, n=300):
    gen = as_generator(seed)
    est = clone_template(template)
    est.partial_fit(gen.random(n), rng=gen)
    return est


class TestCloneTemplate:
    def test_clone_is_fresh_and_parametrically_equal(self):
        template = _round(_template(), seed=0)
        clone = clone_template(template)
        assert type(clone) is type(template)
        assert clone._params() == template._params()
        assert clone.n_reports == 0
        assert template.n_reports == 300


class TestSlidingWindow:
    def test_advance_is_bit_identical_to_reingest(self):
        template = _template()
        win = SlidingWindowState(template, window=4)
        for seed in range(10):
            win.push(_round(template, seed))
            rebuilt = win.rebuild()
            assert (win.current._counts == rebuilt._counts).all()
            assert win.current.n_reports == rebuilt.n_reports

    @settings(max_examples=20, deadline=None)
    @given(
        window=st.integers(min_value=1, max_value=6),
        n_rounds=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_bit_identity_property(self, window, n_rounds, seed):
        """Exactness holds for every (window, stream length) combination."""
        template = _template(d=16)
        win = SlidingWindowState(template, window=window)
        for i in range(n_rounds):
            win.push(_round(template, seed + i, n=50))
        rebuilt = win.rebuild()
        assert (win.current._counts == rebuilt._counts).all()
        assert win.n_in_window == min(window, n_rounds)

    def test_eviction_caps_window(self):
        template = _template()
        win = SlidingWindowState(template, window=2)
        rounds = [_round(template, seed) for seed in range(3)]
        for est in rounds:
            win.push(est)
        assert win.n_in_window == 2
        assert win.n_rounds == 3
        expected = rounds[1]._counts + rounds[2]._counts
        assert (win.current._counts == expected).all()

    def test_window_validation(self):
        with pytest.raises(ValueError, match="window"):
            SlidingWindowState(_template(), window=0)

    def test_incompatible_round_rejected(self):
        template = _template()
        win = SlidingWindowState(template, window=2)
        with pytest.raises(TypeError, match="window is over"):
            win.push(make_estimator("grr", 1.0, 64))
        other = make_estimator("sw-ems", 2.0, 64)
        with pytest.raises(ValueError, match="template"):
            win.push(other)

    def test_fingerprint_tracks_content(self):
        template = _template()
        a = SlidingWindowState(template, window=2)
        b = SlidingWindowState(template, window=2)
        r = _round(template, seed=0)
        a.push(r)
        b.push(r)
        assert a.fingerprint() == b.fingerprint()
        b.push(_round(template, seed=1))
        assert a.fingerprint() != b.fingerprint()

    def test_memory_is_payloads_not_reports(self):
        """The ring holds W state dicts regardless of per-round volume."""
        template = _template()
        win = SlidingWindowState(template, window=3)
        for seed in range(6):
            win.push(_round(template, seed, n=2000))
        assert len(win._ring) == 3
        assert all(isinstance(p, dict) for p in win._ring)


class TestCumulativeState:
    def test_push_accumulates_everything(self):
        template = _template()
        state = CumulativeState(template)
        rounds = [_round(template, seed) for seed in range(3)]
        for est in rounds:
            state.push(est)
        total = sum(r._counts for r in rounds)
        assert (state.current._counts == total).all()
        assert state.n_rounds == 3


class TestArithmeticGate:
    def test_opt_out_template_rejected(self):
        template = _template()
        template.state_arithmetic = False
        for make in (
            lambda: SlidingWindowState(template, window=2),
            lambda: CumulativeState(template),
        ):
            with pytest.raises(TypeError, match="state_arithmetic"):
                make()
