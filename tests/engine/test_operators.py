"""Structured channel operators: exactness, solver equivalence, plumbing.

The load-bearing guarantees:

* operator ``matvec``/``rmatvec``/``to_dense`` match the dense transition
  matrix to float rounding for *random* ``(epsilon, b, d, d_out, B)``
  (hypothesis-driven);
* full EM/EMS solves through an operator reproduce the dense path's
  per-column iteration counts and estimates (including ``x0`` warm starts
  and smoothing);
* the dense fallback — raw ndarray or :class:`DenseChannel` — is
  bitwise-identical to the historical solver output;
* estimators request operators, and their estimates match a dense solve
  of the same counts (``config.run(est.transition_matrix, ...)``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.config import EMConfig
from repro.core.pipeline import DiscreteSWEstimator, SWEstimator
from repro.core.smoothing import binomial_kernel
from repro.core.square_wave import DiscreteSquareWave, SquareWave
from repro.engine.cache import cached_channel_operator, clear_caches
from repro.engine.operators import (
    ChannelOperator,
    DenseChannel,
    UniformPlusBandedChannel,
    UniformPlusToeplitzChannel,
)
from repro.engine.solver import batched_expectation_maximization
from repro.freq_oracle.grr import GRR
from repro.utils.histograms import bucketize
from tests.engine.reference_solver import _banded_product

# Matvec outputs are compared on probability-scale inputs, where the
# operator and the dense matmul agree to accumulated float rounding.
ATOL = 1e-12


def _random_probs(rng, d, batch):
    x = rng.random((d, batch)) + 1e-3
    return x / x.sum(axis=0)


# -- exactness against the dense matrix ---------------------------------------


class TestContinuousOperator:
    @given(
        epsilon=st.floats(0.05, 5.0),
        b=st.one_of(st.none(), st.floats(0.01, 0.5)),
        d=st.integers(2, 180),
        d_out=st.integers(2, 260),
        batch=st.integers(1, 4),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=60)
    def test_matches_dense(self, epsilon, b, d, d_out, batch, seed):
        sw = SquareWave(epsilon, b=b)
        dense = np.asarray(sw.transition_matrix(d, d_out))
        op = UniformPlusToeplitzChannel(sw.p, sw.q, sw.b, d, d_out)
        assert op.shape == dense.shape
        rng = np.random.default_rng(seed)
        x = _random_probs(rng, d, batch)
        y = _random_probs(rng, d_out, batch)
        np.testing.assert_allclose(op.matvec(x), dense @ x, atol=ATOL)
        np.testing.assert_allclose(op.rmatvec(y), dense.T @ y, atol=ATOL)
        np.testing.assert_allclose(op.to_dense(), dense, atol=ATOL)
        np.testing.assert_allclose(op.column_sums(), 1.0, atol=1e-9)

    @given(
        epsilon=st.floats(0.05, 5.0),
        b=st.one_of(st.none(), st.floats(0.01, 0.5)),
        d=st.integers(1, 180),
        d_out=st.integers(1, 260),
        batch=st.integers(1, 6),
        seed=st.integers(0, 2**31),
    )
    def test_one_gather_keeps_each_ramp_sum_separate(
        self, epsilon, b, d, d_out, batch, seed
    ):
        # One gather fetches both ramps, yet the bytes are those of a
        # gather and sum per ramp, added band, then rise, then fall.
        sw = SquareWave(epsilon, b=b)
        op = UniformPlusToeplitzChannel(sw.p, sw.q, sw.b, d, d_out)
        rng = np.random.default_rng(seed)
        cases = (
            (op.matvec_rows, rng.random((batch, d)), op._ramps,
             op._band_lo, op._band_hi),
            (op.rmatvec_rows, rng.random((batch, d_out)), op._col_ramps,
             op._col_band_lo, op._col_band_hi),
        )
        for product, v, ramps, lo, hi in cases:
            want = _banded_product(v, lo, hi, op._plateau, op._baseline)
            for ramp in (slice(None, ramps.split), slice(ramps.split, None)):
                gathered = np.take(v, ramps._idx[ramp], axis=1)
                gathered *= ramps.values[ramp]
                want += gathered.sum(axis=1)
            assert product(v).tobytes() == want.tobytes()

    def test_one_dimensional_vectors(self):
        sw = SquareWave(1.0)
        dense = np.asarray(sw.transition_matrix(40, 56))
        op = UniformPlusToeplitzChannel(sw.p, sw.q, sw.b, 40, 56)
        x = np.linspace(0.1, 1.0, 40)
        y = np.linspace(0.1, 1.0, 56)
        assert op.matvec(x).shape == (56,)
        assert op.rmatvec(y).shape == (40,)
        np.testing.assert_allclose(op.matvec(x), dense @ x, atol=ATOL)
        np.testing.assert_allclose(op.rmatvec(y), dense.T @ y, atol=ATOL)

    def test_coarse_output_grid_falls_back_to_dense(self):
        # d_out tiny relative to the wave: ramp windows cover most of the
        # domain, so the mechanism hook declines and the cache serves a
        # DenseChannel instead.
        sw = SquareWave(1.0)
        assert sw.channel_operator(512, 2) is None
        clear_caches()
        op = cached_channel_operator(sw, 512, 2)
        assert isinstance(op, DenseChannel)

    def test_window_width_is_small(self):
        sw = SquareWave(1.0)
        op = UniformPlusToeplitzChannel(sw.p, sw.q, sw.b, 1024, 1024)
        assert op.window_width <= 8


class TestDiscreteOperator:
    @given(
        epsilon=st.floats(0.05, 5.0),
        d=st.integers(2, 300),
        b=st.one_of(st.none(), st.integers(0, 40)),
        batch=st.integers(1, 4),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=60)
    def test_matches_dense(self, epsilon, d, b, batch, seed):
        mech = DiscreteSquareWave(epsilon, d, b=b)
        dense = np.asarray(mech.transition_matrix())
        op = mech.channel_operator()
        assert isinstance(op, UniformPlusBandedChannel)
        assert op.shape == dense.shape
        rng = np.random.default_rng(seed)
        x = _random_probs(rng, d, batch)
        y = _random_probs(rng, mech.d_out, batch)
        np.testing.assert_allclose(op.matvec(x), dense @ x, atol=ATOL)
        np.testing.assert_allclose(op.rmatvec(y), dense.T @ y, atol=ATOL)
        np.testing.assert_array_equal(op.to_dense(), dense)

    def test_validation(self):
        with pytest.raises(ValueError, match="nondecreasing"):
            UniformPlusBandedChannel(
                4, [2, 0], [3, 1], inside=0.5, outside=0.1
            )
        with pytest.raises(ValueError, match="lo <= hi"):
            UniformPlusBandedChannel(4, [2], [1], inside=0.5, outside=0.1)


def grr_chunk_channel(epsilon: float, d: int, bins: int) -> UniformPlusBandedChannel:
    """GRR over ``bins`` equal chunks of ``d`` fine buckets (CFO binning, §4.1).

    Row ``c`` is ``p`` on chunk ``c``, the buckets ``[c·d/bins,
    (c+1)·d/bins)``, and ``q`` elsewhere: chunk-aligned bands, beside
    discrete SW's sliding ones.
    """
    grr = GRR(epsilon, bins)
    lo = np.arange(bins, dtype=np.int64) * (d // bins)
    return UniformPlusBandedChannel(
        d, lo, lo + d // bins, inside=grr.p, outside=grr.q
    )


def grr_chunk_matrix(epsilon: float, d: int, bins: int) -> np.ndarray:
    """The dense ``(bins, d)`` matrix of :func:`grr_chunk_channel`."""
    grr = GRR(epsilon, bins)
    noise = np.full((bins, bins), grr.q)
    np.fill_diagonal(noise, grr.p)
    return np.repeat(noise, d // bins, axis=1)


class TestCFOOperator:
    def test_matches_dense_matrix(self):
        op = grr_chunk_channel(1.0, 64, 8)
        assert op.structured
        np.testing.assert_allclose(
            op.to_dense(), grr_chunk_matrix(1.0, 64, 8), atol=0
        )
        np.testing.assert_allclose(op.column_sums(), 1.0, atol=1e-12)

    @given(
        epsilon=st.floats(0.05, 5.0),
        bins=st.integers(2, 40),
        width=st.integers(1, 8),
        batch=st.integers(1, 4),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=60)
    def test_products_match_dense(self, epsilon, bins, width, batch, seed):
        """Chunks one bucket wide up to eight wide, at any chunk count."""
        d = bins * width
        op = grr_chunk_channel(epsilon, d, bins)
        dense = grr_chunk_matrix(epsilon, d, bins)
        rng = np.random.default_rng(seed)
        x = _random_probs(rng, d, batch)
        y = _random_probs(rng, bins, batch)
        np.testing.assert_allclose(op.matvec(x), dense @ x, atol=ATOL)
        np.testing.assert_allclose(op.rmatvec(y), dense.T @ y, atol=ATOL)
        np.testing.assert_allclose(op.column_sums(), 1.0, atol=1e-12)


# -- solver equivalence: operator path vs dense path --------------------------


def _sw_problem(epsilon, d, d_out, batch, seed, n=4000):
    sw = SquareWave(epsilon)
    dense = np.asarray(sw.transition_matrix(d, d_out))
    op = UniformPlusToeplitzChannel(sw.p, sw.q, sw.b, d, d_out)
    rng = np.random.default_rng(seed)
    counts = np.stack(
        [
            rng.multinomial(n, dense @ rng.dirichlet(np.ones(d))).astype(float)
            for _ in range(batch)
        ],
        axis=1,
    )
    return dense, op, counts


class TestSolverEquivalence:
    @given(
        epsilon=st.floats(0.2, 3.0),
        d=st.integers(4, 48),
        batch=st.integers(1, 5),
        smoothing=st.booleans(),
        warm=st.booleans(),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=25)
    def test_em_runs_match_dense_path(
        self, epsilon, d, batch, smoothing, warm, seed
    ):
        dense, op, counts = _sw_problem(epsilon, d, d + 7, batch, seed)
        kernel = binomial_kernel(2) if smoothing else None
        x0 = None
        if warm:
            x0 = np.random.default_rng(seed + 1).dirichlet(
                np.ones(d), size=batch
            ).T
        kwargs = dict(
            tol=1e-3, max_iter=800, smoothing_kernel=kernel, x0=x0
        )
        ref = batched_expectation_maximization(dense, counts, **kwargs)
        got = batched_expectation_maximization(op, counts, **kwargs)
        np.testing.assert_array_equal(got.iterations, ref.iterations)
        np.testing.assert_array_equal(got.converged, ref.converged)
        np.testing.assert_allclose(got.estimates, ref.estimates, atol=1e-9)
        np.testing.assert_allclose(
            got.log_likelihood, ref.log_likelihood, rtol=1e-12, atol=1e-7
        )
        for hist_got, hist_ref in zip(got.histories, ref.histories, strict=True):
            assert hist_got.shape == hist_ref.shape
            np.testing.assert_allclose(hist_got, hist_ref, rtol=1e-12, atol=1e-7)

    def test_dense_channel_is_bitwise_identical_to_raw_matrix(self):
        dense, _, counts = _sw_problem(1.0, 32, 32, 6, seed=7)
        for kernel in (None, binomial_kernel(2)):
            ref = batched_expectation_maximization(
                dense, counts, tol=1e-4, smoothing_kernel=kernel
            )
            got = batched_expectation_maximization(
                DenseChannel(dense), counts, tol=1e-4, smoothing_kernel=kernel
            )
            np.testing.assert_array_equal(got.estimates, ref.estimates)
            np.testing.assert_array_equal(got.iterations, ref.iterations)
            np.testing.assert_array_equal(
                got.log_likelihood, ref.log_likelihood
            )
            for hist_got, hist_ref in zip(got.histories, ref.histories, strict=True):
                np.testing.assert_array_equal(hist_got, hist_ref)

    def test_operator_column_validation(self):
        op = UniformPlusBandedChannel(
            3, [0, 1, 2], [1, 2, 3], inside=0.9, outside=0.3
        )
        with pytest.raises(ValueError, match="columns must sum to 1"):
            batched_expectation_maximization(op, np.ones((3, 1)))
        result = batched_expectation_maximization(
            op, np.ones((3, 1)), validate_matrix=False
        )
        assert result.batch_size == 1

    def test_history_buffer_growth_preserves_trajectories(self):
        # A long run (150 iterations): the histories assembled at the end
        # must keep every entry.
        dense, op, counts = _sw_problem(0.3, 24, 24, 2, seed=3, n=100_000)
        kwargs = dict(tol=-1.0, max_iter=150)
        ref = batched_expectation_maximization(dense, counts, **kwargs)
        got = batched_expectation_maximization(op, counts, **kwargs)
        assert all(len(h) == 150 for h in got.histories)
        for hist_got, hist_ref in zip(got.histories, ref.histories, strict=True):
            np.testing.assert_allclose(hist_got, hist_ref, rtol=1e-12, atol=1e-7)


# -- estimator plumbing -------------------------------------------------------


def _dense_solve(estimator, config, counts):
    """The same counts solved on the estimator's dense transition matrix."""
    return config.run(estimator.transition_matrix, counts, estimator.epsilon)


class TestEstimatorPlumbing:
    def test_default_mode_is_structured(self):
        """Every EM-backed estimator solves on a structured operator."""
        for est in (SWEstimator(1.0, d=64), DiscreteSWEstimator(1.0, d=32)):
            assert isinstance(est.channel, ChannelOperator)
            assert est.channel.structured

    def test_wave_estimator_requests_operator(self):
        est = SWEstimator(1.0, d=64)
        assert isinstance(est.channel, UniformPlusToeplitzChannel)

    def test_discrete_estimator_requests_operator(self):
        est = DiscreteSWEstimator(1.0, d=32)
        assert isinstance(est.channel, UniformPlusBandedChannel)

    def test_operator_is_shared_through_cache(self):
        clear_caches()
        first = SWEstimator(1.0, d=48).channel
        second = SWEstimator(1.0, d=48).channel
        assert first is second

    @pytest.mark.parametrize("postprocess", ["em", "ems"])
    def test_wave_estimate_matches_dense_mode(self, postprocess):
        values = np.random.default_rng(0).beta(4, 2, 8000)
        est = SWEstimator(1.0, d=64, postprocess=postprocess)
        est.partial_fit(values, rng=np.random.default_rng(1))
        structured = est.estimate()
        dense = _dense_solve(est, est.config, est._counts)
        assert dense.iterations == est.result_.iterations
        np.testing.assert_allclose(structured, dense.estimate, atol=1e-9)

    def test_discrete_estimate_matches_dense_mode(self):
        values = np.random.default_rng(2).random(6000)
        est = DiscreteSWEstimator(1.0, d=48)
        est.partial_fit(values, rng=np.random.default_rng(3))
        structured = est.estimate()
        dense = _dense_solve(est, est.config, est._counts)
        np.testing.assert_allclose(structured, dense.estimate, atol=1e-9)

    def test_chunk_channel_solve_matches_dense_mode(self):
        values = np.random.default_rng(4).beta(2, 5, 6000)
        grr = GRR(1.0, 16)
        reports = grr.privatize(bucketize(values, 16), rng=np.random.default_rng(5))
        counts = np.bincount(reports, minlength=16).astype(np.float64)
        config = EMConfig()
        structured = config.run(grr_chunk_channel(1.0, 64, 16), counts, 1.0)
        dense = config.run(grr_chunk_matrix(1.0, 64, 16), counts, 1.0)
        np.testing.assert_allclose(structured.estimate, dense.estimate, atol=1e-9)

    def test_warm_start_through_operator(self):
        # The CollectionServer x0 path: a warm start near the posterior
        # must converge in fewer iterations on the structured channel too.
        values = np.random.default_rng(8).beta(5, 2, 20_000)
        est = SWEstimator(1.0, d=64)
        est.partial_fit(values, rng=np.random.default_rng(9))
        posterior = est.estimate()
        cold_iters = est.result_.iterations
        est.partial_fit(values[:500], rng=np.random.default_rng(10))
        mixed = 0.999999 * posterior + 1e-6 / posterior.size
        est.estimate(x0=mixed)
        assert est.result_.iterations < cold_iters

    def test_operator_protocol_shape_views(self):
        op = SWEstimator(1.0, d=16, d_out=24).channel
        assert isinstance(op, ChannelOperator)
        assert (op.d_out, op.d) == (24, 16)
