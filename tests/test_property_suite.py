"""Cross-cutting property-based tests on library invariants.

Complements the per-module property tests with invariants that span
subsystems: wire-format round-trips, reconstruction on rectangular grids,
binary-tree decompositions, and post-processor relationships.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.em import expectation_maximization
from repro.core.square_wave import SquareWave
from repro.hierarchy.tree import TreeLayout, range_decomposition
from repro.metrics.distances import ks_distance, wasserstein_distance
from repro.postprocess import norm_cut, norm_full, norm_mul, norm_sub
from repro.protocol.messages import ReportEnvelope


class TestProtocolProperties:
    @given(
        st.text(
            alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\n\r"),
            min_size=1,
            max_size=40,
        ),
        st.floats(-2.0, 2.0, allow_nan=False),
    )
    def test_report_json_roundtrip(self, round_id, value):
        report = ReportEnvelope(round_id, "float", value)
        assert ReportEnvelope.from_json(report.to_json()) == report


class TestEMRectangularGrids:
    @pytest.mark.parametrize("d,d_out", [(16, 32), (32, 16), (8, 64)])
    def test_reconstruction_on_mismatched_grids(self, d, d_out, rng):
        """EM handles d_out != d (the paper's d~ knob) and still returns a
        valid d-bucket distribution close to the truth."""
        sw = SquareWave(2.0)
        matrix = sw.transition_matrix(d, d_out)
        truth = rng.dirichlet(np.ones(d) * 8)
        counts = rng.multinomial(300_000, matrix @ truth).astype(float)
        result = expectation_maximization(matrix, counts, tol=1e-8, max_iter=5000)
        assert result.estimate.shape == (d,)
        assert wasserstein_distance(truth, result.estimate) < 0.05

    @given(st.integers(2, 6), st.integers(2, 6))
    @settings(max_examples=10)
    def test_matrix_shapes_consistent(self, log_d, log_dout):
        sw = SquareWave(1.0)
        d, d_out = 2**log_d, 2**log_dout
        m = sw.transition_matrix(d, d_out)
        assert m.shape == (d_out, d)
        np.testing.assert_allclose(m.sum(axis=0), 1.0, atol=1e-9)


class TestBinaryTreeProperties:
    @given(st.integers(0, 255), st.integers(0, 255))
    @settings(max_examples=30)
    def test_binary_decomposition_partitions(self, a, b):
        lo, hi = min(a, b), max(a, b)
        tree = TreeLayout(256, 2)
        covered: list[int] = []
        for level, index in range_decomposition(tree, lo, hi):
            span = tree.leaf_span(level, index)
            covered.extend(range(*span))
        assert covered == list(range(lo, hi))

    @given(st.integers(1, 255))
    @settings(max_examples=30)
    def test_prefix_decomposition_is_compact(self, hi):
        """A prefix range [0, hi) needs at most one node per level in a
        binary tree."""
        tree = TreeLayout(256, 2)
        nodes = range_decomposition(tree, 0, hi)
        assert len(nodes) <= tree.height


class TestPostprocessorRelationships:
    vectors = hnp.arrays(
        np.float64,
        st.integers(2, 40),
        elements=st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False),
    )

    @given(vectors)
    def test_all_variants_agree_on_valid_distributions(self, v):
        """Every post-processor is the identity on an already-valid
        distribution (up to float noise)."""
        total = np.abs(v).sum()
        if total == 0:
            return
        x = np.abs(v) / total
        for fn in (norm_sub, norm_mul, norm_full):
            np.testing.assert_allclose(fn(x), x, atol=1e-9)
        # norm_cut trims the marginal kept entry; allow bucket-level slack.
        np.testing.assert_allclose(norm_cut(x).sum(), 1.0, atol=1e-9)

    @given(vectors)
    def test_norm_sub_never_farther_than_norm_mul_in_l2(self, v):
        """Norm-Sub's additive correction is an L2 projection onto its
        support; multiplicative rescaling can only be as close or farther
        from the raw estimates."""
        sub = norm_sub(v)
        mul = norm_mul(v)
        # Compare distances on the positive support where both act.
        d_sub = np.linalg.norm(sub - v)
        d_mul = np.linalg.norm(mul - v)
        assert d_sub <= d_mul + 1e-6


class TestMetricScaleInvariance:
    @given(st.integers(1, 5))
    @settings(max_examples=10)
    def test_w1_refinement_stability(self, factor):
        """Refining both histograms by splitting each bucket uniformly
        changes W1 only by the CDF-quadrature correction, O(1/d) — the
        metric is domain-scaled, not bucket-count-scaled."""
        gen = np.random.default_rng(0)
        a = gen.dirichlet(np.ones(16))
        b = gen.dirichlet(np.ones(16))
        coarse = wasserstein_distance(a, b)
        fine_a = np.repeat(a / factor, factor)
        fine_b = np.repeat(b / factor, factor)
        fine = wasserstein_distance(fine_a, fine_b)
        assert fine == pytest.approx(coarse, rel=0.05)

    @given(st.integers(1, 5))
    @settings(max_examples=10)
    def test_ks_refinement_stability(self, factor):
        gen = np.random.default_rng(1)
        a = gen.dirichlet(np.ones(16))
        b = gen.dirichlet(np.ones(16))
        coarse = ks_distance(a, b)
        fine = ks_distance(np.repeat(a / factor, factor), np.repeat(b / factor, factor))
        assert fine == pytest.approx(coarse, abs=1e-9)
