"""Unit tests for the process-wide transition-matrix cache."""

import numpy as np
import pytest

from repro.core.pipeline import DiscreteSWEstimator, SWEstimator
from repro.core.square_wave import DiscreteSquareWave, SquareWave
from repro.engine.cache import (
    cached_matrix,
    cached_object,
    cached_transition_matrix,
    clear_caches,
    matrix_cache_info,
    mechanism_cache_key,
)


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_caches()
    yield
    clear_caches()


class TestCachedTransitionMatrix:
    def test_matches_direct_build(self):
        sw = SquareWave(1.0)
        np.testing.assert_array_equal(
            cached_transition_matrix(sw, 32, 32), sw.transition_matrix(32, 32)
        )

    def test_identical_params_share_one_array(self):
        a = cached_transition_matrix(SquareWave(1.0), 64, 64)
        b = cached_transition_matrix(SquareWave(1.0), 64, 64)
        assert a is b

    def test_different_params_get_different_entries(self):
        a = cached_transition_matrix(SquareWave(1.0), 32, 32)
        b = cached_transition_matrix(SquareWave(2.0), 32, 32)
        c = cached_transition_matrix(SquareWave(1.0), 32, 16)
        assert a is not b and a is not c

    def test_discrete_mechanism_keyed_on_params_only(self):
        a = cached_transition_matrix(DiscreteSquareWave(1.0, 32))
        b = cached_transition_matrix(DiscreteSquareWave(1.0, 32))
        assert a is b
        np.testing.assert_array_equal(a, DiscreteSquareWave(1.0, 32).transition_matrix())

    def test_cached_matrix_is_read_only(self):
        matrix = cached_transition_matrix(SquareWave(1.0), 16, 16)
        assert not matrix.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            matrix[0, 0] = 0.5

    def test_hit_miss_accounting(self):
        sw = SquareWave(1.5)
        cached_transition_matrix(sw, 16, 16)
        cached_transition_matrix(sw, 16, 16)
        info = matrix_cache_info()
        assert info.misses == 1
        assert info.hits == 1
        assert info.entries == 1
        assert info.nbytes == 16 * 16 * 8

    def test_clear_caches_resets(self):
        cached_transition_matrix(SquareWave(1.0), 16, 16)
        clear_caches()
        info = matrix_cache_info()
        assert (info.hits, info.misses, info.entries, info.nbytes) == (0, 0, 0, 0)

    def test_lru_eviction_bounds_memory(self):
        from repro.engine.cache import set_matrix_cache_limit

        # Budget fits two 16x16 float64 matrices (2 KiB each), not three.
        set_matrix_cache_limit(2 * 16 * 16 * 8)
        try:
            a = cached_transition_matrix(SquareWave(1.0), 16, 16)
            cached_transition_matrix(SquareWave(2.0), 16, 16)
            cached_transition_matrix(SquareWave(1.0), 16, 16)  # refresh a
            cached_transition_matrix(SquareWave(3.0), 16, 16)  # evicts eps=2
            info = matrix_cache_info()
            assert info.entries == 2
            assert info.nbytes <= 2 * 16 * 16 * 8
            # eps=1 was most recently used, so it survived and still hits.
            assert cached_transition_matrix(SquareWave(1.0), 16, 16) is a
            # eps=2 was evicted: fetching it again is a rebuild (miss).
            before = matrix_cache_info().misses
            cached_transition_matrix(SquareWave(2.0), 16, 16)
            assert matrix_cache_info().misses == before + 1
        finally:
            set_matrix_cache_limit(1 << 30)

    def test_single_oversized_entry_still_cached(self):
        from repro.engine.cache import set_matrix_cache_limit

        set_matrix_cache_limit(1)  # nothing fits, but the newest must stay
        try:
            a = cached_transition_matrix(SquareWave(1.0), 16, 16)
            assert cached_transition_matrix(SquareWave(1.0), 16, 16) is a
            assert matrix_cache_info().entries == 1
        finally:
            set_matrix_cache_limit(1 << 30)


class TestCachedMatrixValidation:
    def test_rejects_non_stochastic_columns(self):
        with pytest.raises(ValueError, match="columns must sum to 1"):
            cached_matrix(("bad",), lambda: np.eye(3) * 2.0)

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError, match="2-d"):
            cached_matrix(("bad-1d",), lambda: np.ones(3))

    def test_validation_can_be_disabled(self):
        out = cached_matrix(
            ("weights",), lambda: np.eye(2) * 2.0, column_stochastic=False
        )
        assert not out.flags.writeable


class TestMechanismCacheKey:
    def test_key_is_hashable_and_param_sensitive(self):
        k1 = mechanism_cache_key(SquareWave(1.0, b=0.2))
        k2 = mechanism_cache_key(SquareWave(1.0, b=0.3))
        assert hash(k1) != hash(k2) or k1 != k2
        assert k1 == mechanism_cache_key(SquareWave(1.0, b=0.2))


class TestEstimatorsUseSharedCache:
    def test_sw_estimators_share_matrix(self):
        a = SWEstimator(1.0, d=32)
        b = SWEstimator(1.0, d=32)
        assert a.transition_matrix is b.transition_matrix
        assert not a.transition_matrix.flags.writeable

    def test_discrete_sw_estimator_matrix_cached(self):
        a = DiscreteSWEstimator(1.0, d=32)
        b = DiscreteSWEstimator(1.0, d=32)
        assert a.transition_matrix is b.transition_matrix

    def test_estimates_identical_before_and_after_caching(self, rng):
        # Same seed twice: the second run hits the cache, results must match.
        values = np.random.default_rng(5).beta(2, 5, 4000)
        first = SWEstimator(1.0, d=32).fit(values, rng=np.random.default_rng(9))
        second = SWEstimator(1.0, d=32).fit(values, rng=np.random.default_rng(9))
        np.testing.assert_array_equal(first, second)


class TestCachedObject:
    def test_builds_once(self):
        calls = []

        def build():
            calls.append(1)
            return object()

        a = cached_object(("thing", 1), build)
        b = cached_object(("thing", 1), build)
        assert a is b
        assert len(calls) == 1

    def test_admm_projector_shared_across_estimators(self):
        from repro.hierarchy.admm import HHADMM

        a = HHADMM(1.0, d=16, branching=4)
        b = HHADMM(1.0, d=16, branching=4)
        assert a._projector is b._projector
