"""CFO with binning (paper Section 4.1).

The unit domain is split into ``c`` equal chunks; each user reports their
chunk through the lower-variance CFO (GRR/OLH), the chunk frequencies are
Norm-Sub'ed into a distribution, and the mass of each chunk is spread
uniformly over the fine-grained histogram buckets it covers.

Choosing ``c`` trades noise (more chunks -> more noise) against binning bias
(fewer chunks -> coarser shape); the optimum is data- and epsilon-dependent,
which is exactly the weakness the paper's SW+EMS removes. The paper reports
``c in {16, 32, 64}``.

``CFOBinning`` implements the :class:`repro.api.Estimator` lifecycle. The
default post-processing is the paper's Norm-Sub, whose sufficient statistic
is the user-weighted chunk-frequency estimate (exact under ``merge``). With
an :class:`repro.api.EMConfig` the estimator instead reconstructs the fine
histogram by EM/EMS on the GRR chunk reports: the transition matrix composes
chunk membership with the GRR noise channel, so the smoothing prior (not the
uniform-within-bin assumption) fills in sub-chunk shape.
"""

from __future__ import annotations

import numpy as np

from repro.api.base import Estimator
from repro.api.config import EMConfig
from repro.api.errors import EmptyAggregateError
from repro.core.em import EMResult
from repro.engine.cache import (
    cached_matrix,
    cached_object,
    validated_channel_operator,
)
from repro.engine.operators import UniformPlusBandedChannel
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
    em:
        Optional :class:`repro.api.EMConfig` (or its ``to_dict()`` form)
        enabling EM/EMS reconstruction of the fine histogram from GRR chunk
        reports. EM needs per-bucket multinomial counts, so it forces the
        GRR oracle; combining it with ``oracle="olh"`` is an error.
    """

    kind = "distribution"

    def __init__(
        self,
        epsilon: float,
        d: int = 1024,
        bins: int = 32,
        *,
        oracle: str = "adaptive",
        em: EMConfig | dict | None = None,
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
        if isinstance(em, dict):
            em = EMConfig(**em)
        if em is not None and oracle == "olh":
            raise ValueError(
                "EM reconstruction needs per-bucket report counts, which OLH "
                "does not produce; use oracle='grr' (or 'adaptive')"
            )
        self.oracle_choice = oracle
        self.em = em
        if em is not None or oracle == "grr":
            self.oracle = GRR(self.epsilon, self.bins)
        elif oracle == "olh":
            self.oracle = OLH(self.epsilon, self.bins)
        else:
            self.oracle = choose_oracle(self.epsilon, self.bins)
        self._matrix: np.ndarray | None = None
        self.result_: EMResult | None = None
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

    @property
    def transition_matrix(self) -> np.ndarray:
        """``(bins, d)``: chunk membership composed with the GRR channel.

        Column ``i`` (a fine bucket inside chunk ``c``) is the GRR report
        distribution of chunk ``c`` — ``p`` on the true chunk, ``q``
        elsewhere — so columns sum to ``p + (bins - 1) q = 1``. Served
        read-only from the process-wide engine cache, keyed on the channel
        parameters.
        """
        if self._matrix is None:
            if not isinstance(self.oracle, GRR):
                raise RuntimeError(
                    "transition_matrix is defined for the GRR channel only; "
                    f"this estimator uses {self.oracle.name}"
                )
            self._matrix = cached_matrix(self._channel_key(), self._build_matrix)
        return self._matrix

    def _channel_key(self) -> tuple:
        """One cache identity for the chunk channel, dense and structured.

        Both :attr:`transition_matrix` and :attr:`channel` key off this
        tuple (the operator entry tagged apart), so the two paths can
        never silently serve differently-parameterized channels.
        """
        return ("cfo-grr-channel", self.bins, self.d, self.oracle.p, self.oracle.q)

    def _build_matrix(self) -> np.ndarray:
        noise = np.full((self.bins, self.bins), self.oracle.q)
        np.fill_diagonal(noise, self.oracle.p)
        return np.repeat(noise, self.d // self.bins, axis=1)

    @property
    def channel(self):
        """What EM runs against: the chunk channel as a structured operator.

        Row ``c`` of the channel is ``p`` on chunk ``c``'s ``d / bins``
        fine buckets and ``q`` elsewhere — a uniform-plus-band structure,
        so both EM products run as cumulative-sum boxcars
        (:class:`~repro.engine.operators.UniformPlusBandedChannel`). The
        column-stochastic invariant is checked once at cache insert, like
        every engine-cached channel.
        """
        if not isinstance(self.oracle, GRR):
            raise RuntimeError(
                "the chunk channel is defined for the GRR oracle only; "
                f"this estimator uses {self.oracle.name}"
            )
        per = self.d // self.bins
        return cached_object(
            ("operator", *self._channel_key()),
            lambda: validated_channel_operator(
                UniformPlusBandedChannel(
                    self.d,
                    np.arange(self.bins, dtype=np.int64) * per,
                    (np.arange(self.bins, dtype=np.int64) + 1) * per,
                    inside=self.oracle.p,
                    outside=self.oracle.q,
                )
            ),
        )

    # -- lifecycle ---------------------------------------------------------
    def privatize(self, values: np.ndarray, rng=None):
        """Client-side: bucketize unit values into chunks, then CFO-randomize."""
        return self.oracle.privatize(bucketize(values, self.bins), rng=rng)

    def ingest(self, reports) -> None:
        """Fold one batch into the chunk accumulator (empty batch: no-op)."""
        n = self.oracle._report_count(reports)
        if n == 0:
            return
        if self.em is not None:
            arr = np.asarray(reports, dtype=np.int64)
            if arr.min() < 0 or arr.max() >= self.bins:
                raise ValueError("reports outside the GRR output domain")
            self._chunk_acc += np.bincount(arr, minlength=self.bins)
        else:
            self._chunk_acc += n * self.oracle.aggregate_batch(reports)
        self._n += n

    def estimate(self, *, x0: np.ndarray | None = None) -> np.ndarray:
        """Reconstruct the ``d``-bucket histogram from all ingested reports.

        In EM mode, ``x0`` warm-starts the solve from a previous posterior
        (see :meth:`repro.core.pipeline.WaveEstimator.estimate`); Norm-Sub
        mode has no iterative solve and ignores it.
        """
        if self._n == 0:
            raise EmptyAggregateError("no reports ingested yet")
        if self.em is not None:
            self.result_ = self.em.run(
                self.channel, self._chunk_acc, self.epsilon,
                validated=True, x0=x0,
            )
            return self.result_.estimate
        chunk_distribution = norm_sub(self._chunk_acc / self._n, total=1.0)
        return spread_uniformly(chunk_distribution, self.d)

    def reset(self) -> None:
        #: Norm-Sub mode: user-weighted chunk-frequency estimates;
        #: EM mode: raw per-chunk report counts. Both are linear in shards.
        self._chunk_acc = np.zeros(self.bins, dtype=np.float64)
        self._n = 0
        self.result_ = None

    # -- shard merge + serialization --------------------------------------
    def _merge_state(self, other: "CFOBinning") -> None:
        self._chunk_acc += other._chunk_acc
        self._n += other._n
        self.result_ = None

    def _params(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "d": self.d,
            "bins": self.bins,
            "oracle": self.oracle_choice,
            "em": self.em.to_dict() if self.em is not None else None,
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
        self.result_ = None

    def _repr_fields(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "d": self.d,
            "bins": self.bins,
            "oracle": self.oracle.name,
            "postprocess": self.em.postprocess if self.em is not None else "norm-sub",
        }
