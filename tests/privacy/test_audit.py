"""Unit tests for the numerical LDP auditor."""

import math

import numpy as np
import pytest

from repro.core.square_wave import SquareWave
from repro.freq_oracle import HRR, OLH
from repro.freq_oracle.hashing import evaluate_hash
from repro.privacy.audit import AuditResult, audit_continuous_mechanism, audit_matrix


class TestAuditMatrix:
    def test_grr_matrix_passes(self):
        eps = 1.0
        p = math.exp(eps) / (math.exp(eps) + 3)
        q = 1 / (math.exp(eps) + 3)
        m = np.full((4, 4), q)
        np.fill_diagonal(m, p)
        result = audit_matrix(m, eps)
        assert result.satisfied
        assert result.effective_epsilon == pytest.approx(eps)

    def test_violation_detected(self):
        """A mechanism that is only (eps+delta)-LDP must fail the eps audit."""
        eps = 1.0
        ratio = math.exp(1.2)
        m = np.array([[ratio, 1.0], [1.0, ratio]])
        m /= m.sum(axis=0)
        assert not audit_matrix(m, eps).satisfied

    def test_zero_entries_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            audit_matrix(np.array([[1.0, 0.0], [0.0, 1.0]]), 1.0)

    def test_uniform_matrix_is_zero_dp(self):
        m = np.full((4, 4), 0.25)
        result = audit_matrix(m, 0.001)
        assert result.satisfied
        assert result.max_ratio == pytest.approx(1.0)


def olh_channel(oracle: OLH) -> np.ndarray:
    """OLH's g-ary GRR over the hashed value."""
    m = np.full((oracle.g, oracle.g), (1.0 - oracle.p) / (oracle.g - 1))
    np.fill_diagonal(m, oracle.p)
    return m


def hrr_channel(oracle: HRR) -> np.ndarray:
    """HRR's keep/flip channel over the true Hadamard bit."""
    return np.array([[oracle.p, 1.0 - oracle.p], [1.0 - oracle.p, oracle.p]])


class TestHashedAndHadamardOracles:
    """OLH and HRR perturb at exactly their declared epsilon."""

    @pytest.mark.parametrize("eps", [0.05, 1.0, 5.0])
    @pytest.mark.parametrize(
        "oracle, channel", [(OLH, olh_channel), (HRR, hrr_channel)], ids=["olh", "hrr"]
    )
    def test_channel_ratio_is_e_eps(self, oracle, channel, eps):
        result = audit_matrix(channel(oracle(eps, 64)), eps)
        assert result.satisfied
        assert result.max_ratio == pytest.approx(math.exp(eps), rel=0, abs=1e-9)

    def within_five_sigma(self, kept: np.ndarray, p: float) -> None:
        n = kept.size
        assert abs(kept.sum() - n * p) <= 5.0 * math.sqrt(n * p * (1.0 - p))

    def test_olh_keeps_the_true_hash_at_rate_p(self):
        eps, n = 1.0, 200_000
        oracle = OLH(eps, 64)
        values = np.random.default_rng(3).integers(0, 64, n)
        reports = oracle.privatize(values, rng=np.random.default_rng(4))
        kept = reports.y == evaluate_hash(reports.a, reports.b, values, oracle.g)
        self.within_five_sigma(kept, math.exp(eps) / (math.exp(eps) + oracle.g - 1))

    def test_hrr_keeps_the_true_bit_at_rate_p(self):
        eps, n = 1.0, 200_000
        oracle = HRR(eps, 64)
        values = np.random.default_rng(3).integers(0, 64, n)
        reports = oracle.privatize(values, rng=np.random.default_rng(4))
        kept = reports.bit == oracle._hadamard_bits(reports.row, values)
        self.within_five_sigma(kept, math.exp(eps) / (math.exp(eps) + 1.0))


class TestAuditContinuous:
    def test_sw_exact_ratio(self):
        result = audit_continuous_mechanism(SquareWave(1.0))
        assert result.max_ratio == pytest.approx(math.e, rel=1e-9)
        assert result.satisfied

    def test_broken_mechanism_detected(self):
        """Scaling the near-band density breaks LDP and the audit sees it."""

        class Broken(SquareWave):
            def pdf(self, v, v_tilde):
                base = super().pdf(v, v_tilde)
                return np.where(base == self.p, base * 1.5, base)

        assert not audit_continuous_mechanism(Broken(1.0)).satisfied

    def test_zero_density_rejected(self):
        class ZeroTail(SquareWave):
            def pdf(self, v, v_tilde):
                base = super().pdf(v, v_tilde)
                return np.where(base == self.q, 0.0, base)

        with pytest.raises(ValueError, match="zero-density"):
            audit_continuous_mechanism(ZeroTail(1.0))

    def test_result_fields(self):
        result = audit_continuous_mechanism(SquareWave(2.0))
        assert isinstance(result, AuditResult)
        assert result.epsilon == 2.0
        assert result.effective_epsilon == pytest.approx(2.0, abs=1e-6)
