"""Equivalence tests: batched EM/EMS vs the sequential single-problem API."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.api.config import EMConfig
from repro.binning.cfo_binning import CFOBinning
from repro.core.em import expectation_maximization
from repro.core.smoothing import binomial_kernel
from repro.core.square_wave import DiscreteSquareWave, SquareWave
from repro.engine.operators import UniformPlusToeplitzChannel
from repro.engine.solver import batched_expectation_maximization


def _problem_batch(d=24, batch=9, n=3000, seed=0):
    """B multinomial count vectors drawn against one SW channel matrix."""
    rng = np.random.default_rng(seed)
    matrix = SquareWave(1.0).transition_matrix(d, d)
    counts = np.stack(
        [
            rng.multinomial(n, matrix @ rng.dirichlet(np.ones(d))).astype(float)
            for _ in range(batch)
        ],
        axis=1,
    )
    return matrix, counts


def _assert_matches_sequential(matrix, counts, **kwargs):
    batch_result = batched_expectation_maximization(matrix, counts, **kwargs)
    for j in range(counts.shape[1]):
        seq = expectation_maximization(matrix, counts[:, j], **kwargs)
        col = batch_result.column(j)
        assert col.iterations == seq.iterations, f"column {j} iteration count"
        assert col.converged == seq.converged, f"column {j} convergence flag"
        np.testing.assert_allclose(col.estimate, seq.estimate, rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            col.history, seq.history, rtol=1e-12, atol=1e-9
        )
        assert col.log_likelihood == pytest.approx(seq.log_likelihood)
    return batch_result


class TestBatchedMatchesSequential:
    def test_plain_em(self):
        matrix, counts = _problem_batch(seed=1)
        _assert_matches_sequential(matrix, counts, tol=1e-4, max_iter=500)

    def test_ems(self):
        matrix, counts = _problem_batch(seed=2)
        result = _assert_matches_sequential(
            matrix,
            counts,
            tol=1e-3,
            max_iter=500,
            smoothing_kernel=binomial_kernel(2),
        )
        # EMS output must still be a distribution per column.
        np.testing.assert_allclose(result.estimates.sum(axis=0), 1.0)
        assert (result.estimates >= 0).all()

    def test_wide_smoothing_kernel(self):
        matrix, counts = _problem_batch(seed=3)
        _assert_matches_sequential(
            matrix,
            counts,
            tol=1e-3,
            max_iter=300,
            smoothing_kernel=binomial_kernel(4),
        )

    def test_columns_converge_independently(self):
        # A near-uniform column converges quickly; a spiky one slowly. The
        # mask must keep iterating the slow column after the fast one stops.
        d = 16
        matrix = SquareWave(0.5).transition_matrix(d, d)
        easy = matrix @ np.full(d, 1.0 / d) * 10_000
        spike = np.zeros(d)
        spike[3] = 1.0
        hard = matrix @ spike * 10_000
        counts = np.stack([easy, hard], axis=1)
        result = batched_expectation_maximization(
            matrix, counts, tol=1e-4, max_iter=20_000
        )
        assert result.converged.all()
        assert result.iterations[0] < result.iterations[1]
        assert len(result.histories[0]) == result.iterations[0]
        assert len(result.histories[1]) == result.iterations[1]

    def test_max_iter_cap_flags_unconverged_columns(self):
        matrix, counts = _problem_batch(batch=3, seed=4)
        result = batched_expectation_maximization(
            matrix, counts, tol=-np.inf, max_iter=7
        )
        assert (~result.converged).all()
        assert (result.iterations == 7).all()

    def test_single_column_equals_sequential_api(self):
        matrix, counts = _problem_batch(batch=1, seed=5)
        seq = expectation_maximization(matrix, counts[:, 0], tol=1e-4)
        col = batched_expectation_maximization(matrix, counts, tol=1e-4).column(0)
        np.testing.assert_array_equal(col.estimate, seq.estimate)
        assert col.iterations == seq.iterations

    def test_iteration_over_batch(self):
        matrix, counts = _problem_batch(batch=4, seed=6)
        result = batched_expectation_maximization(matrix, counts, tol=1e-3)
        assert len(list(result)) == 4


class TestBatchedValidation:
    def test_rejects_1d_counts(self):
        with pytest.raises(ValueError, match="counts must have shape"):
            batched_expectation_maximization(np.eye(4), np.ones(4))

    def test_rejects_zero_column(self):
        counts = np.ones((3, 2))
        counts[:, 1] = 0.0
        with pytest.raises(ValueError, match="at least one report"):
            batched_expectation_maximization(np.eye(3), counts)

    def test_rejects_negative_counts(self):
        counts = np.ones((3, 2))
        counts[0, 0] = -1.0
        with pytest.raises(ValueError, match="non-negative"):
            batched_expectation_maximization(np.eye(3), counts)

    def test_rejects_empty_batch(self):
        with pytest.raises(ValueError, match="at least one problem column"):
            batched_expectation_maximization(np.eye(3), np.ones((3, 0)))

    def test_rejects_bad_matrix_unless_prevalidated(self):
        counts = np.ones((3, 2))
        with pytest.raises(ValueError, match="columns must sum to 1"):
            batched_expectation_maximization(np.eye(3) * 2.0, counts)
        # validate_matrix=False trusts the caller (the engine cache path).
        result = batched_expectation_maximization(
            np.eye(3), counts, validate_matrix=False
        )
        assert result.batch_size == 2

    def test_rejects_bad_x0(self):
        counts = np.ones((3, 2))
        with pytest.raises(ValueError, match="x0"):
            batched_expectation_maximization(
                np.eye(3), counts, x0=np.array([1.0, -1.0, 1.0])
            )

    def test_per_column_x0(self):
        matrix, counts = _problem_batch(batch=2, seed=7)
        d = matrix.shape[1]
        x0 = np.random.default_rng(0).dirichlet(np.ones(d), size=2).T
        result = batched_expectation_maximization(
            matrix, counts, tol=1e-4, x0=x0
        )
        for j in range(2):
            seq = expectation_maximization(
                matrix, counts[:, j], tol=1e-4, x0=x0[:, j]
            )
            assert result.column(j).iterations == seq.iterations
            np.testing.assert_allclose(
                result.column(j).estimate, seq.estimate, atol=1e-12
            )


class TestEMConfigRunMany:
    def test_run_many_matches_run(self):
        matrix, counts = _problem_batch(batch=5, seed=8)
        config = EMConfig(postprocess="ems")
        batch = config.run_many(matrix, counts, epsilon=1.0)
        for j in range(5):
            single = config.run(matrix, counts[:, j], epsilon=1.0)
            assert batch.column(j).iterations == single.iterations
            np.testing.assert_allclose(
                batch.column(j).estimate, single.estimate, atol=1e-12
            )

    def test_marginals_batched_path_matches_per_attribute(self):
        from repro.multidim.marginals import MultiAttributeSW

        values = np.random.default_rng(3).random((6000, 3))
        est = MultiAttributeSW(1.0, n_attributes=3, d=16)
        est.partial_fit(values, rng=np.random.default_rng(4))
        marginals = est.estimate()
        assert len(marginals) == 3
        for attribute, marginal in zip(est.estimators, marginals, strict=True):
            # Re-solve the attribute alone through the sequential API.
            solo = attribute.config.run(
                attribute.transition_matrix,
                attribute._counts,
                attribute.epsilon,
                validated=True,
            )
            np.testing.assert_allclose(marginal, solo.estimate, atol=1e-12)
            assert attribute.result_.iterations == solo.iterations


def _structured_channel(kind, d):
    """A structured operator of each channel kind, over about ``d`` inputs."""
    if kind == "sw-toeplitz":
        sw = SquareWave(1.0)
        return UniformPlusToeplitzChannel(sw.p, sw.q, sw.b, d, d)
    if kind == "dsw-banded":
        return DiscreteSquareWave(1.0, d).channel_operator()
    bins = 4
    return CFOBinning(1.0, bins * max(1, d // bins), bins=bins, em={}).channel


class TestFusedColumnsBitIdentical:
    """On a structured channel, column ``j`` of a batch IS the solo solve.

    Problem-major sums run in the same order whatever ``B`` is, so every
    column's bytes — estimate, iteration count, likelihood history — match
    the same problem solved alone, warm or cold, converged early or late.
    """

    @given(
        kind=st.sampled_from(["sw-toeplitz", "dsw-banded", "cfo-grr"]),
        d=st.integers(5, 300),
        warm=st.lists(st.booleans(), min_size=1, max_size=6),
        smoothing=st.booleans(),
        seed=st.integers(0, 2**31),
    )
    def test_every_column_is_byte_equal_to_its_solo_solve(
        self, kind, d, warm, smoothing, seed
    ):
        channel = _structured_channel(kind, d)
        assert channel.structured
        dense = channel.to_dense()
        rng = np.random.default_rng(seed)
        counts = np.stack(
            [
                rng.multinomial(
                    int(rng.integers(50, 20_000)),
                    dense @ rng.dirichlet(np.full(channel.d, 0.5)),
                ).astype(float)
                for _ in warm
            ],
            axis=1,
        )
        starts = [rng.dirichlet(np.ones(channel.d)) if w else None for w in warm]
        x0 = None
        if any(warm):
            # An all-ones column normalizes to exactly the cold prior.
            x0 = np.stack(
                [np.ones(channel.d) if s is None else s for s in starts], axis=1
            )
        kwargs = dict(
            tol=1e-4,
            max_iter=300,
            smoothing_kernel=binomial_kernel(2) if smoothing else None,
        )
        fused = batched_expectation_maximization(channel, counts, x0=x0, **kwargs)
        for j, start in enumerate(starts):
            solo = batched_expectation_maximization(
                channel, counts[:, j : j + 1], x0=start, **kwargs
            )
            assert fused.estimates[:, j].tobytes() == solo.estimates[:, 0].tobytes()
            assert fused.iterations[j] == solo.iterations[0]
            assert fused.histories[j].tobytes() == solo.histories[0].tobytes()
