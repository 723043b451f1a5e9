"""CFO with binning (paper Section 4.1).

The unit domain is split into ``c`` equal chunks; each user reports their
chunk through the lower-variance CFO (GRR/OLH), the chunk frequencies are
Norm-Sub'ed into a distribution, and the mass of each chunk is spread
uniformly over the fine-grained histogram buckets it covers.

Choosing ``c`` trades noise (more chunks -> more noise) against binning bias
(fewer chunks -> coarser shape); the optimum is data- and epsilon-dependent,
which is exactly the weakness the paper's SW+EMS removes. The paper reports
``c in {16, 32, 64}``.

``CFOBinning`` implements the :class:`repro.api.Estimator` lifecycle. Its
post-processing is the paper's Norm-Sub, whose sufficient statistic is the
user-weighted chunk-frequency estimate (exact under ``merge``).
"""

from __future__ import annotations

import numpy as np

from repro.api.base import Estimator
from repro.api.errors import EmptyAggregateError
from repro.freq_oracle.adaptive import choose_oracle
from repro.freq_oracle.grr import GRR
from repro.freq_oracle.olh import OLH
from repro.postprocess.norm_sub import norm_sub
from repro.utils.histograms import bucketize
from repro.utils.validation import check_domain_size, check_epsilon

__all__ = ["CFOBinning", "spread_uniformly"]

_ORACLE_CHOICES = ("adaptive", "grr", "olh")


def spread_uniformly(chunk_distribution: np.ndarray, d: int) -> np.ndarray:
    """Expand a ``c``-chunk distribution onto ``d`` fine buckets.

    Requires ``d`` to be a multiple of ``c``; each chunk's mass is divided
    evenly among the ``d / c`` fine buckets it covers (the uniform-within-bin
    assumption of Section 4.1).
    """
    chunks = np.asarray(chunk_distribution, dtype=np.float64)
    if chunks.ndim != 1 or chunks.size == 0:
        raise ValueError("chunk_distribution must be a non-empty 1-d array")
    c = chunks.size
    d = check_domain_size(d)
    if d % c != 0:
        raise ValueError(f"d={d} must be a multiple of the chunk count c={c}")
    per = d // c
    return np.repeat(chunks / per, per)


class CFOBinning(Estimator):
    """Binning + categorical frequency oracle distribution estimator.

    Parameters
    ----------
    epsilon:
        Privacy budget.
    d:
        Fine output granularity (must be a multiple of ``bins``).
    bins:
        Number of reporting chunks ``c``.
    oracle:
        ``"adaptive"`` (default: lower-variance GRR/OLH pick), ``"grr"``, or
        ``"olh"``.
    """

    kind = "distribution"

    def __init__(
        self,
        epsilon: float,
        d: int = 1024,
        bins: int = 32,
        *,
        oracle: str = "adaptive",
    ) -> None:
        self.epsilon = check_epsilon(epsilon)
        self.d = check_domain_size(d)
        self.bins = check_domain_size(bins, name="bins")
        if self.d % self.bins != 0:
            raise ValueError(f"d={d} must be a multiple of bins={bins}")
        if oracle not in _ORACLE_CHOICES:
            raise ValueError(
                f"oracle must be one of {_ORACLE_CHOICES}, got {oracle!r}"
            )
        self.oracle_choice = oracle
        if oracle == "grr":
            self.oracle = GRR(self.epsilon, self.bins)
        elif oracle == "olh":
            self.oracle = OLH(self.epsilon, self.bins)
        else:
            self.oracle = choose_oracle(self.epsilon, self.bins)
        self.reset()

    @property
    def name(self) -> str:
        return f"cfo-binning-{self.bins}"

    @property
    def wire_codec(self) -> str:
        """Reports travel as GRR category ints or OLH triples, per oracle."""
        return "category" if isinstance(self.oracle, GRR) else "olh"

    @property
    def n_reports(self) -> int:
        """Reports ingested into the current aggregation state."""
        return self._n

    # -- lifecycle ---------------------------------------------------------
    def privatize(self, values: np.ndarray, rng=None):
        """Client-side: bucketize unit values into chunks, then CFO-randomize."""
        return self.oracle.privatize(bucketize(values, self.bins), rng=rng)

    def ingest(self, reports) -> None:
        """Fold one batch into the chunk accumulator (empty batch: no-op)."""
        n = self.oracle._report_count(reports)
        if n == 0:
            return
        self._chunk_acc += n * self.oracle.aggregate_batch(reports)
        self._n += n

    def estimate(self) -> np.ndarray:
        """Reconstruct the ``d``-bucket histogram from all ingested reports."""
        if self._n == 0:
            raise EmptyAggregateError("no reports ingested yet")
        chunk_distribution = norm_sub(self._chunk_acc / self._n, total=1.0)
        return spread_uniformly(chunk_distribution, self.d)

    def reset(self) -> None:
        #: User-weighted chunk-frequency estimates, linear in shards.
        self._chunk_acc = np.zeros(self.bins, dtype=np.float64)
        self._n = 0

    # -- shard merge + serialization --------------------------------------
    def _merge_state(self, other: "CFOBinning") -> None:
        self._chunk_acc += other._chunk_acc
        self._n += other._n

    def _params(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "d": self.d,
            "bins": self.bins,
            "oracle": self.oracle_choice,
        }

    def _state(self) -> dict:
        return {"n": int(self._n), "chunk_acc": self._chunk_acc.tolist()}

    def _load_state(self, state: dict) -> None:
        chunk_acc = np.asarray(state["chunk_acc"], dtype=np.float64)
        if chunk_acc.shape != (self.bins,):
            raise ValueError(
                f"state 'chunk_acc' must have shape ({self.bins},), "
                f"got {chunk_acc.shape}"
            )
        self._n = int(state["n"])
        self._chunk_acc = chunk_acc

    def _repr_fields(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "d": self.d,
            "bins": self.bins,
            "oracle": self.oracle.name,
            "postprocess": "norm-sub",
        }
