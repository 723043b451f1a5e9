"""Optimized Local Hashing (paper Section 2.1, following Wang et al. [34]).

Each user hashes their value into a small domain of size ``g = e^eps + 1``
(rounded), then runs GRR on the hashed value. Aggregation counts, for every
candidate value, how many users' reports "support" it (their hash of the
candidate equals their reported hash output) and debiases. The resulting
variance ``4 e^eps / (e^eps - 1)^2`` per user is independent of ``d``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.freq_oracle.base import FrequencyOracle
from repro.freq_oracle.hashing import evaluate_hash, sample_hash_params
from repro.utils.rng import as_generator

__all__ = ["OLH", "OLHReports"]

#: Users per chunk during aggregation. Keeps the n-by-d support matrix at
#: ~chunk*d int64 entries regardless of n. 1024 keeps the two work buffers
#: cache-resident and measured fastest in the chunk sweep of
#: ``benchmarks/bench_perf_solver.py`` (see BENCH_solver.json).
_AGGREGATE_CHUNK = 1024


@dataclass(frozen=True)
class OLHReports:
    """Collected OLH reports: per-user hash coefficients and perturbed hash."""

    a: np.ndarray
    b: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        if not (self.a.shape == self.b.shape == self.y.shape) or self.a.ndim != 1:
            raise ValueError("a, b, y must be equal-length 1-d arrays")

    @property
    def n(self) -> int:
        return int(self.a.size)


class OLH(FrequencyOracle):
    """Optimized Local Hashing frequency oracle.

    Parameters
    ----------
    epsilon, d:
        Privacy budget and value-domain size.
    g:
        Hash range; defaults to the variance-optimal ``round(e^eps) + 1``.
    """

    name = "olh"
    wire_codec = "olh"

    def __init__(self, epsilon: float, d: int, g: int | None = None) -> None:
        super().__init__(epsilon, d)
        e_eps = math.exp(self.epsilon)
        if g is None:
            g = int(round(e_eps)) + 1
        if g < 2:
            raise ValueError(f"g must be >= 2, got {g}")
        self.g = g
        self.p = e_eps / (e_eps + g - 1)

    def privatize(self, values: np.ndarray, rng=None) -> OLHReports:
        """Hash each value into ``{0..g-1}`` then apply GRR over that range."""
        vals = self._check_values(values)
        gen = as_generator(rng)
        n = vals.size
        a, b = sample_hash_params(n, rng=gen)
        hashed = evaluate_hash(a, b, vals, self.g)
        keep = gen.random(n) < self.p
        shift = gen.integers(1, self.g, size=n)
        y = np.where(keep, hashed, (hashed + shift) % self.g)
        return OLHReports(a=a, b=b, y=y.astype(np.int64))

    def support_counts(
        self, reports: OLHReports, *, chunk_size: int | None = None
    ) -> np.ndarray:
        """``C(v) = |{j : H_j(v) = y_j}|`` for every value ``v``.

        The in-place form of :func:`~repro.freq_oracle.hashing.evaluate_hash`
        and the support comparison run chunk by chunk in two preallocated
        ``(chunk, d)`` buffers reused across chunks. ``chunk_size`` bounds
        memory at ``chunk_size * d`` hash evaluations and defaults to the
        module's ``_AGGREGATE_CHUNK`` (tuned by the chunk sweep in
        ``benchmarks/bench_perf_solver.py``); the counts do not depend on it.
        """
        if chunk_size is None:
            chunk_size = _AGGREGATE_CHUNK
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        a, b, y, d = reports.a, reports.b, reports.y, self.d
        counts = np.zeros(d, dtype=np.int64)
        n = int(a.size)
        if n == 0:
            return counts
        domain = np.arange(d, dtype=np.int64)[None, :]
        chunk = max(1, min(int(chunk_size), n))
        work = np.empty((chunk, d), dtype=np.int64)
        match = np.empty((chunk, d), dtype=bool)
        for start in range(0, n, chunk):
            stop = min(start + chunk, n)
            rows = stop - start
            hashes = evaluate_hash(
                a[start:stop, None],
                b[start:stop, None],
                domain,
                self.g,
                out=work[:rows],
            )
            np.equal(hashes, y[start:stop, None], out=match[:rows])
            counts += match[:rows].sum(axis=0)
        return counts

    def aggregate_batch(self, reports: OLHReports) -> np.ndarray:
        """Unbiased frequencies ``((C(v)/n) - 1/g) / (p - 1/g)``."""
        n = reports.n
        if n == 0:
            raise ValueError("no reports to aggregate")
        counts = self.support_counts(reports).astype(np.float64)
        return (counts / n - 1.0 / self.g) / (self.p - 1.0 / self.g)

    @property
    def estimate_variance(self) -> float:
        """Approximate per-user variance ``4 e^eps / (e^eps - 1)^2`` [34]."""
        e_eps = math.exp(self.epsilon)
        return 4.0 * e_eps / (e_eps - 1) ** 2

    def _params(self) -> dict:
        return {"epsilon": self.epsilon, "d": self.d, "g": self.g}
