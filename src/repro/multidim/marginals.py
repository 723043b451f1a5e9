"""Multi-attribute collection: per-attribute marginals under one budget.

Real collections rarely involve a single attribute. The standard LDP recipe
(used by the multi-dimensional follow-up work the paper cites, e.g. Wang et
al. [33]) is to *split the population* across attributes: each user is
assigned one attribute uniformly at random and spends their whole budget
reporting it. Splitting the population beats splitting the budget for
exactly the Section 4.2 reason — LDP noise scales much worse with epsilon
than estimate counts do with users.

``MultiAttributeSW`` wraps one Square Wave + EMS estimator per attribute
behind that splitting strategy and reconstructs every marginal. It
implements the :class:`repro.api.Estimator` lifecycle (kind
``"marginals"``): the aggregation state is the per-attribute count vectors
of the wrapped estimators, so shards stream, ``merge`` exactly, and
serialize through ``to_state()``/``from_state()``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.api.base import Estimator
from repro.api.errors import EmptyAggregateError
from repro.core.pipeline import SWEstimator
from repro.utils.rng import RngLike, as_generator
from repro.utils.validation import check_domain_size, check_epsilon

__all__ = ["MultiAttributeReports", "MultiAttributeSW", "split_population"]


def split_population(n: int, k: int, rng: RngLike = None) -> np.ndarray:
    """Assign each of ``n`` users one of ``k`` slots uniformly at random.

    The standard multi-attribute LDP recipe (Section 4.2 rationale): each
    user spends their whole budget on a single attribute/slot, because LDP
    noise scales much worse with epsilon than estimate counts do with users.
    Used by :class:`MultiAttributeSW` and by population-split task sessions
    (:mod:`repro.tasks.session`).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return as_generator(rng).integers(0, k, size=n)


@dataclass(frozen=True)
class MultiAttributeReports:
    """Reports from one multi-attribute collection round."""

    attribute: np.ndarray  # which attribute each user reported
    value: np.ndarray  # the SW-randomized report

    def __post_init__(self) -> None:
        if self.attribute.shape != self.value.shape or self.attribute.ndim != 1:
            raise ValueError("attribute and value must be equal-length 1-d arrays")

    @property
    def n(self) -> int:
        return int(self.attribute.size)


class MultiAttributeSW(Estimator):
    """SW + EMS marginal estimation over ``k`` numerical attributes.

    Parameters
    ----------
    epsilon:
        Whole per-user budget (spent on a single attribute's report).
    n_attributes:
        Number of attributes ``k``; every user holds a value for each.
    d:
        Histogram granularity per attribute (shared).
    kwargs:
        Forwarded to each underlying :class:`SWEstimator`.
    """

    name = "sw-multi"
    kind = "marginals"
    wire_codec = "multi"

    def __init__(self, epsilon: float, n_attributes: int, d: int = 256, **kwargs) -> None:
        self.epsilon = check_epsilon(epsilon)
        if n_attributes < 1:
            raise ValueError(f"n_attributes must be >= 1, got {n_attributes}")
        self.n_attributes = int(n_attributes)
        self.d = check_domain_size(d)
        self._kwargs = dict(kwargs)
        self._estimators = [
            SWEstimator(epsilon, d, **kwargs) for _ in range(self.n_attributes)
        ]

    def _check_matrix(self, values: np.ndarray) -> np.ndarray:
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != self.n_attributes:
            raise ValueError(
                f"values must have shape (n, {self.n_attributes}), got {arr.shape}"
            )
        if arr.shape[0] == 0:
            raise ValueError("values must contain at least one user")
        if not np.isfinite(arr).all() or arr.min() < 0 or arr.max() > 1:
            raise ValueError("values must be finite and in [0, 1]")
        return arr

    # -- lifecycle ---------------------------------------------------------
    def privatize(self, values: np.ndarray, rng: RngLike = None) -> MultiAttributeReports:
        """Assign each user one attribute and randomize that value.

        ``values`` is an ``(n, k)`` matrix; only column ``attribute[i]`` of
        row ``i`` influences the report, so the other attributes never
        touch the mechanism (clean per-user privacy accounting).
        """
        arr = self._check_matrix(values)
        gen = as_generator(rng)
        n = arr.shape[0]
        assignment = split_population(n, self.n_attributes, gen)
        reports = np.empty(n, dtype=np.float64)
        for a in range(self.n_attributes):
            mask = assignment == a
            if mask.any():
                reports[mask] = self._estimators[a].privatize(arr[mask, a], rng=gen)
        return MultiAttributeReports(attribute=assignment, value=reports)

    def ingest(self, reports: MultiAttributeReports) -> None:
        """Fold one batch into the per-attribute count vectors."""
        for a, estimator in enumerate(self._estimators):
            mask = reports.attribute == a
            estimator.ingest(reports.value[mask])

    def estimate(self) -> list[np.ndarray]:
        """Reconstruct every attribute's marginal from all ingested reports.

        All attributes share one channel (identical mechanism parameters),
        so the reconstructions are stacked into one ``(d_out, k)`` count
        matrix and solved in a single batched EM/EMS call through
        :mod:`repro.engine` — whole-batch products through the structured
        Square Wave operator instead of ``k`` sequential solver loops. Per-attribute
        diagnostics still land on each wrapped estimator's ``result_``.

        Attributes that received no reports get the uniform fallback (and a
        diagnostic ``result_`` of ``None``).
        """
        if self.n_reports == 0:
            raise EmptyAggregateError("no reports ingested yet")
        out: list[np.ndarray] = [
            np.full(self.d, 1.0 / self.d) for _ in range(self.n_attributes)
        ]
        active = [
            a for a, est in enumerate(self._estimators) if est.n_reports > 0
        ]
        for a, estimator in enumerate(self._estimators):
            if a not in active:
                estimator.result_ = None
        lead = self._estimators[active[0]]
        counts = np.stack(
            [self._estimators[a]._counts for a in active], axis=1
        )
        batch = lead.config.run_many(
            lead.channel, counts, lead.epsilon, validated=True
        )
        for column, a in enumerate(active):
            result = batch.column(column)
            self._estimators[a].result_ = result
            out[a] = result.estimate
        return out

    def reset(self) -> None:
        for estimator in self._estimators:
            estimator.reset()

    @property
    def n_reports(self) -> int:
        """Reports ingested across all attributes."""
        return sum(estimator.n_reports for estimator in self._estimators)

    # -- shard merge + serialization --------------------------------------
    def _merge_state(self, other: "MultiAttributeSW") -> None:
        for mine, theirs in zip(self._estimators, other._estimators, strict=True):
            mine.merge(theirs)

    def _params(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "n_attributes": self.n_attributes,
            "d": self.d,
            **self._kwargs,
        }

    def _state(self) -> dict:
        return {"attributes": [est._state() for est in self._estimators]}

    def _load_state(self, state: dict) -> None:
        shards = state["attributes"]
        if len(shards) != self.n_attributes:
            raise ValueError(
                f"state must carry {self.n_attributes} attribute shards, "
                f"got {len(shards)}"
            )
        for estimator, shard in zip(self._estimators, shards, strict=True):
            estimator._load_state(shard)

    def _repr_fields(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "n_attributes": self.n_attributes,
            "d": self.d,
        }

    @property
    def estimators(self) -> list[SWEstimator]:
        """Per-attribute estimators (diagnostics live on each)."""
        return list(self._estimators)
