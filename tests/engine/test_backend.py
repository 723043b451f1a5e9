"""Determinism of chunked kernels: how the work is cut never changes the result."""

import numpy as np
import pytest

from repro.freq_oracle.olh import OLH


class TestDeterminism:
    def test_olh_chunk_size_does_not_change_counts(self):
        rng = np.random.default_rng(12)
        oracle = OLH(epsilon=1.0, d=16)
        reports = oracle.privatize(rng.integers(0, 16, size=3_000), rng=rng)
        reference = oracle.support_counts(reports, chunk_size=1024)
        for chunk in (1, 7, 100, 10_000):
            assert np.array_equal(
                oracle.support_counts(reports, chunk_size=chunk), reference
            )
        with pytest.raises(ValueError, match="chunk_size"):
            oracle.support_counts(reports, chunk_size=0)
