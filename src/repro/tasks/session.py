"""Plan execution: privatize → ingest (across shards) → typed results.

A :class:`Session` is the runtime of one :class:`~repro.tasks.plan.AnalysisPlan`.
It owns one registry-built estimator per attribute (chosen by
:func:`~repro.tasks.planner.plan_analysis`) and follows the same streaming
lifecycle as every estimator in the package:

* ``privatize(data, rng)`` — client side; applies the plan's split
  strategy (population or budget) and randomizes values;
* ``ingest(reports)`` / ``partial_fit(data, rng)`` — server side, streaming;
* ``merge(other)`` / ``to_state()`` / ``from_state()`` — shard-and-merge
  deployments combine sessions exactly, because every underlying estimator
  keeps linear sufficient statistics;
* ``results()`` — answer every task, in real-world units, with optional
  bootstrap confidence intervals and per-task budget attribution.

Sessions also speak the wire formats: ``to_feed``/``ingest_feed``
round-trip *every* mechanism family — each attribute's reports travel under
its estimator's payload codec (:mod:`repro.protocol.codecs`), either as one
mixed columnar binary frame (:mod:`repro.protocol.frames`) or as protocol-v2
envelope JSON lines — so a session is servable by a
:class:`repro.protocol.server.PlanServer` over the same wire as a plain
collection round.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from repro.api.base import Estimator
from repro.api.errors import EmptyAggregateError
from repro.core.pipeline import WaveEstimator
from repro.metrics.queries import range_queries
from repro.tasks.plan import AnalysisPlan, AttributeSpec, Task
from repro.tasks.planner import PlannedAnalysis, plan_analysis
from repro.tasks.results import AnalysisReport, TaskResult
from repro.utils.histograms import (
    histogram_mean,
    histogram_quantile,
    histogram_variance,
)
from repro.utils.rng import RngLike, as_generator

__all__ = ["Session", "split_population"]


def split_population(n: int, k: int, rng: RngLike = None) -> np.ndarray:
    """Assign each of ``n`` users one of ``k`` slots uniformly at random.

    The standard multi-attribute LDP recipe (Section 4.2 rationale): each
    user spends their whole budget on a single attribute/slot, because LDP
    noise scales much worse with epsilon than estimate counts do with users.
    Used by equal-weight population-split plans (:meth:`Session.privatize`).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return as_generator(rng).integers(0, k, size=n)


def _task_context(plan: AnalysisPlan, attribute: str) -> str:
    """``"tasks: mean, quantiles"`` — which answers an empty shard blocks."""
    names = sorted({task.task for task in plan.tasks_for(attribute)})
    return f"tasks: {', '.join(names)}"


class Session:
    """Executes one analysis plan over one (possibly sharded) population.

    Parameters
    ----------
    plan:
        The declarative plan to execute.
    planned:
        A pre-resolved :class:`~repro.tasks.planner.PlannedAnalysis`;
        resolved from ``plan`` when omitted. Passing it in lets a
        coordinator plan once and fan identical sessions out to shards.
    """

    def __init__(self, plan: AnalysisPlan, *, planned: PlannedAnalysis | None = None) -> None:
        if planned is None:
            planned = plan_analysis(plan)
        elif planned.plan.to_dict() != plan.to_dict():
            raise ValueError("planned analysis was resolved from a different plan")
        self.plan = plan
        self.planned = planned
        self._estimators: dict[str, Estimator] = planned.make_estimators()

    # -- introspection -----------------------------------------------------
    @property
    def attributes(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.plan.attributes)

    @property
    def estimators(self) -> dict[str, Estimator]:
        """Per-attribute estimators (shared aggregation state)."""
        return dict(self._estimators)

    @property
    def n_reports(self) -> dict[str, int]:
        """Reports ingested so far, per attribute."""
        return {name: est.n_reports for name, est in self._estimators.items()}

    def audit(self):
        """Plan-level budget audit (:class:`repro.privacy.audit.PlanAuditResult`)."""
        return self.planned.audit()

    @property
    def per_user_epsilon(self) -> float:
        return self.planned.per_user_epsilon

    # -- client side -------------------------------------------------------
    def _check_data(self, data: Mapping[str, Any]) -> dict[str, np.ndarray]:
        missing = set(self.attributes) - set(data)
        if missing:
            raise ValueError(f"data is missing attributes {sorted(missing)}")
        unknown = set(data) - set(self.attributes)
        if unknown:
            raise ValueError(f"data has undeclared attributes {sorted(unknown)}")
        arrays = {}
        n = None
        for name in self.attributes:
            arr = np.asarray(data[name], dtype=np.float64)
            if arr.ndim != 1 or arr.size == 0:
                raise ValueError(f"attribute {name!r}: values must be a non-empty 1-d array")
            if n is None:
                n = arr.size
            elif arr.size != n:
                raise ValueError(
                    f"attribute {name!r} has {arr.size} values, expected {n} "
                    "(one row per user across all attributes)"
                )
            # Every column is checked before any split: whether a bad value
            # is refused must not depend on which attribute its user draws.
            arrays[name] = self.plan.attribute(name).check(arr)
        return arrays

    def _assign(self, n: int, rng) -> np.ndarray:
        weights = np.asarray([a.weight for a in self.plan.attributes], dtype=np.float64)
        k = weights.size
        if np.allclose(weights, weights[0]):
            return split_population(n, k, rng)
        return as_generator(rng).choice(k, size=n, p=weights / weights.sum())

    def privatize(self, data: Mapping[str, Any], rng: RngLike = None) -> dict[str, Any]:
        """Client side: normalize, split, and randomize one batch of users.

        ``data`` maps every plan attribute to one value per user (arrays
        share the user axis). Under population splitting each user is
        assigned a single attribute (weight-proportional) and spends the
        whole budget on it; under budget splitting every user reports every
        attribute at its allocated fraction. One non-finite or out-of-range
        value refuses the whole batch with ``ValueError``, whichever
        attribute its user is assigned. Returns per-attribute LDP reports,
        ready for :meth:`ingest` or :meth:`to_feed`.
        """
        arrays = self._check_data(data)
        gen = as_generator(rng)
        reports: dict[str, Any] = {}
        if self.plan.split == "population":
            n = next(iter(arrays.values())).size
            assignment = self._assign(n, gen)
            for index, name in enumerate(self.attributes):
                group = np.compress(assignment == index, arrays[name])
                if group.size == 0:
                    continue
                unit = self.plan.attribute(name).to_unit(group)
                reports[name] = self._estimators[name].privatize(unit, rng=gen)
        else:
            for name in self.attributes:
                unit = self.plan.attribute(name).to_unit(arrays[name])
                reports[name] = self._estimators[name].privatize(unit, rng=gen)
        return reports

    # -- server side -------------------------------------------------------
    def ingest(self, reports: Mapping[str, Any]) -> None:
        """Fold per-attribute reports into the aggregation state."""
        unknown = set(reports) - set(self.attributes)
        if unknown:
            raise ValueError(f"reports for undeclared attributes {sorted(unknown)}")
        for name, batch in reports.items():
            self._estimators[name].ingest(batch)

    def partial_fit(self, data: Mapping[str, Any], rng: RngLike = None) -> "Session":
        """Privatize + ingest one shard of users; returns ``self``."""
        self.ingest(self.privatize(data, rng=rng))
        return self

    @classmethod
    def fit_sharded(
        cls,
        plan: AnalysisPlan,
        data: Mapping[str, Any],
        *,
        shards: int = 1,
        rng: RngLike = None,
        planned: PlannedAnalysis | None = None,
    ) -> "Session":
        """Run a plan as ``shards`` shard sessions over disjoint user slices
        and merge them exactly — the deployment shape, in one call.

        One generator drives every shard (a seed-like ``rng`` is
        materialized once), so shard noise is independent. Returns the
        merged session, ready for :meth:`results`.
        """
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if not data:
            raise ValueError("data must be non-empty")
        gen = as_generator(rng)
        if planned is None:
            planned = plan_analysis(plan)
        arrays = {k: np.asarray(v, dtype=np.float64) for k, v in data.items()}
        n = next(iter(arrays.values())).size
        if n == 0:
            raise ValueError("data must contain at least one user")
        bounds = np.linspace(0, n, shards + 1).astype(int)
        merged: Session | None = None
        for lo, hi in zip(bounds[:-1], bounds[1:], strict=True):
            if lo == hi:
                continue
            shard = cls(plan, planned=planned).partial_fit(
                {k: v[lo:hi] for k, v in arrays.items()}, rng=gen
            )
            merged = shard if merged is None else merged.merge(shard)
        assert merged is not None
        return merged

    def reset(self) -> None:
        for estimator in self._estimators.values():
            estimator.reset()

    # -- wire format -------------------------------------------------------
    def to_feed(
        self,
        reports: Mapping[str, Any],
        round_id: str,
        *,
        format: str = "frame",
    ) -> bytes | str:
        """Encode per-attribute reports as one mixed protocol-v2 feed.

        Every mechanism family is servable: each attribute's batch travels
        under its estimator's payload codec. ``format="frame"`` returns the
        columnar binary form (one frame, one block per attribute),
        ``format="jsonl"`` the envelope JSON-lines form. Invert with
        :meth:`ingest_feed` (or serve through
        :class:`repro.protocol.server.PlanServer`).
        """
        from repro.protocol.codecs import codec_for_estimator
        from repro.protocol.frames import encode_frame_blocks
        from repro.protocol.messages import encode_batch_v2

        unknown = set(reports) - set(self.attributes)
        if unknown:
            raise ValueError(f"reports for undeclared attributes {sorted(unknown)}")
        if not reports:
            raise ValueError("no reports to encode")
        blocks = [
            (name, codec_for_estimator(self._estimators[name]), batch)
            for name, batch in reports.items()
        ]
        if format == "frame":
            return encode_frame_blocks(round_id, blocks)
        if format == "jsonl":
            return "\n".join(
                encode_batch_v2(round_id, batch, codec, attr=name)
                for name, codec, batch in blocks
            )
        raise ValueError(f"format must be 'frame' or 'jsonl', got {format!r}")

    def ingest_feed(self, feed: bytes | str, round_id: str | None = None) -> int:
        """Decode a mixed frame/JSONL feed and route it; returns the count.

        Accepts the binary frame form (``bytes``) or v2 JSON lines
        (``str``); each attribute's payloads must travel under the codec
        its planned estimator expects. The feed ingests **atomically**: if
        any attribute's block is rejected — wrong codec, reports outside
        the mechanism's domain — no aggregator keeps any of the feed, so a
        corrected retry cannot double-count the blocks that were valid.
        """
        from repro.protocol.codecs import codec_for_estimator
        from repro.protocol.frames import decode_any_feed

        _, groups = decode_any_feed(feed, expected_round=round_id)
        unknown = set(groups) - set(self.attributes)
        if unknown:
            raise ValueError(f"feed reports undeclared attributes {sorted(unknown)}")
        for name, group in groups.items():
            expected = codec_for_estimator(self._estimators[name]).name
            if group.mechanism != expected:
                raise ValueError(
                    f"attribute {name!r}: feed carries {group.mechanism!r} "
                    f"payloads, plan estimator expects {expected!r}"
                )
        # All-or-nothing: aggregation state is O(state), so snapshotting it
        # is cheap, and ingest errors (e.g. out-of-domain reports) must not
        # leave the earlier attributes' blocks half-applied.
        snapshots = {name: self._estimators[name]._state() for name in groups}
        total = 0
        try:
            for name, group in groups.items():
                self._estimators[name].ingest(group.reports)
                total += group.n
        except Exception:
            for name, state in snapshots.items():
                self._estimators[name]._load_state(state)
            raise
        return total

    # -- shard merge + serialization --------------------------------------
    def merge(self, other: "Session") -> "Session":
        """Combine another shard's session state into this one, exactly.

        A session merged into itself would count its reports twice, so
        ``other is self`` is rejected.
        """
        if other is self:
            raise ValueError("cannot merge a session into itself")
        if not isinstance(other, Session):
            raise TypeError(f"cannot merge {type(other).__name__} into Session")
        if other.plan.to_dict() != self.plan.to_dict():
            raise ValueError("cannot merge sessions running different plans")
        for name, estimator in self._estimators.items():
            estimator.merge(other._estimators[name])
        return self

    def to_state(self) -> dict:
        """Serialize the plan and every aggregator for cross-shard transport."""
        return {
            "plan": self.plan.to_dict(),
            "estimators": {
                name: est.to_state() for name, est in self._estimators.items()
            },
        }

    @classmethod
    def from_state(cls, payload: dict) -> "Session":
        """Rebuild a session (plan + aggregation state) from :meth:`to_state`."""
        plan = AnalysisPlan.from_dict(payload["plan"])
        session = cls(plan)
        states = payload["estimators"]
        if set(states) != set(session.attributes):
            raise ValueError(
                f"state covers attributes {sorted(states)}, plan declares "
                f"{sorted(session.attributes)}"
            )
        for name, fresh in session._estimators.items():
            rebuilt = Estimator.from_state(states[name])
            if rebuilt._params() != fresh._params():
                raise ValueError(
                    f"attribute {name!r}: state was produced by a differently-"
                    "configured estimator than this plan resolves to"
                )
            session._estimators[name] = rebuilt
        return session

    @classmethod
    def from_estimators(
        cls,
        plan: AnalysisPlan,
        estimators: Mapping[str, Estimator],
        *,
        planned: PlannedAnalysis | None = None,
    ) -> "Session":
        """Adopt already-aggregated estimators as a session's state.

        The merge tier of a sharded deployment folds shard snapshots into
        one estimator per attribute; this wraps them back into a session so
        :meth:`results` can answer the plan without re-serializing state.
        Each estimator must match the configuration the plan resolves to
        for its attribute (same check as :meth:`from_state`); the session
        shares the passed aggregation state rather than copying it.
        """
        session = cls(plan, planned=planned)
        if set(estimators) != set(session.attributes):
            raise ValueError(
                f"estimators cover attributes {sorted(estimators)}, plan "
                f"declares {sorted(session.attributes)}"
            )
        for name, fresh in session._estimators.items():
            adopted = estimators[name]
            if adopted._params() != fresh._params():
                raise ValueError(
                    f"attribute {name!r}: estimator is configured differently "
                    "than this plan resolves to"
                )
            session._estimators[name] = adopted
        return session

    # -- results -----------------------------------------------------------
    def _estimate(self, name: str):
        try:
            return self._estimators[name].estimate()
        except EmptyAggregateError as exc:
            raise EmptyAggregateError(
                f"no reports ingested for attribute {name!r} "
                f"({_task_context(self.plan, name)})"
            ) from exc

    def _bands(self, name: str, confidence: float, n_bootstrap: int, rng):
        estimator = self._estimators[name]
        if not isinstance(estimator, WaveEstimator):
            return None
        return estimator.confidence_bands(
            coverage=confidence, n_bootstrap=n_bootstrap, rng=rng
        )

    @staticmethod
    def _stat_ci(bands, confidence: float, stat) -> tuple[float, float] | None:
        """CI of a scalar statistic pushed through the bootstrap samples."""
        if bands is None:
            return None
        stats = np.asarray([stat(sample) for sample in bands.samples])
        point = stat(bands.point)
        center = np.quantile(stats, 0.5)
        tail = (1.0 - confidence) / 2.0
        lower = point + (np.quantile(stats, tail) - center)
        upper = point + (np.quantile(stats, 1.0 - tail) - center)
        return (float(lower), float(upper))

    def _task_result(
        self,
        task: Task,
        spec: AttributeSpec,
        estimate,
        bands,
        confidence: float | None,
    ) -> TaskResult:
        choice = self.planned.choice_for(spec.name)
        estimator = self._estimators[spec.name]
        common = dict(
            task=task.task,
            attribute=spec.name,
            confidence=confidence if bands is not None else None,
            epsilon_spent=choice.epsilon,
            mechanism=choice.mechanism,
            n_reports=estimator.n_reports,
        )
        if task.task == "mean":
            if estimator.kind == "scalar":
                value = float(spec.from_unit(estimate))
                return TaskResult(value=value, **{**common, "confidence": None})
            value = float(spec.from_unit(histogram_mean(estimate)))
            ci = self._stat_ci(
                bands, confidence or 0.0, lambda h: float(spec.from_unit(histogram_mean(h)))
            )
            return TaskResult(value=value, ci=ci, **common)
        if task.task == "variance":
            scale = spec.span**2
            value = histogram_variance(estimate) * scale
            ci = self._stat_ci(
                bands, confidence or 0.0, lambda h: histogram_variance(h) * scale
            )
            return TaskResult(value=value, ci=ci, **common)
        if task.task == "quantiles":
            betas = task.quantiles
            value = tuple(
                float(spec.from_unit(histogram_quantile(estimate, q))) for q in betas
            )
            ci = None
            if bands is not None:
                per_q = [
                    self._stat_ci(
                        bands,
                        confidence or 0.0,
                        lambda h, q=q: float(spec.from_unit(histogram_quantile(h, q))),
                    )
                    for q in betas
                ]
                ci = (tuple(lo for lo, _ in per_q), tuple(hi for _, hi in per_q))
            return TaskResult(
                value=value, ci=ci, detail={"quantiles": list(betas)}, **common
            )
        if task.task == "range_queries":
            unit_windows = [
                ((lo - spec.low) / spec.span, (hi - spec.low) / spec.span)
                for lo, hi in task.windows
            ]
            value = tuple(float(v) for v in range_queries(estimate, unit_windows))
            ci = None
            if bands is not None:
                per_w = [
                    self._stat_ci(
                        bands,
                        confidence or 0.0,
                        lambda h, w=w: float(range_queries(h, [w])[0]),
                    )
                    for w in unit_windows
                ]
                ci = (tuple(lo for lo, _ in per_w), tuple(hi for _, hi in per_w))
            return TaskResult(
                value=value,
                ci=ci,
                detail={"windows": [list(w) for w in task.windows]},
                **common,
            )
        if task.task == "distribution":
            ci = None
            if bands is not None:
                ci = (bands.lower.tolist(), bands.upper.tolist())
            return TaskResult(
                value=np.asarray(estimate, dtype=np.float64).tolist(),
                ci=ci,
                detail={"edges": spec.bucket_edges(np.asarray(estimate).size).tolist()},
                **common,
            )
        raise ValueError(f"session cannot answer task type {task.task!r}")

    def results(
        self,
        *,
        confidence: float | None = None,
        n_bootstrap: int = 100,
        rng: RngLike = None,
        precomputed: Mapping[str, Any] | None = None,
    ) -> AnalysisReport:
        """Answer every task in the plan from the state aggregated so far.

        ``confidence`` turns on parametric-bootstrap intervals
        (:mod:`repro.core.confidence`) for attributes served by wave
        estimators; scalar and hierarchical mechanisms report ``ci=None``.
        ``precomputed`` supplies already-solved per-attribute estimates —
        what a :class:`repro.protocol.server.PlanServer` or the service's
        merge tier just read through its
        :class:`~repro.protocol.server.PosteriorCache` — so serving doesn't
        re-run reconstructions the caller just produced; attributes absent
        from it are estimated fresh. Raises
        :class:`repro.EmptyAggregateError` naming the attribute and its
        tasks if any aggregator is still empty.
        """
        if confidence is not None and not 0.0 < confidence < 1.0:
            raise ValueError(f"confidence must be in (0, 1), got {confidence}")
        gen = as_generator(rng)

        estimates: dict[str, Any] = {}
        bands: dict[str, Any] = {}
        for name in self.attributes:
            if precomputed is not None and name in precomputed:
                estimates[name] = precomputed[name]
            else:
                estimates[name] = self._estimate(name)
            # Bootstrap only where some task will consume the bands —
            # marginals-only attributes would waste n_bootstrap EM solves.
            wants_bands = confidence is not None and any(
                task.task != "marginals" for task in self.plan.tasks_for(name)
            )
            bands[name] = (
                self._bands(name, confidence, n_bootstrap, gen)
                if wants_bands
                else None
            )

        results: list[TaskResult] = []
        for task in self.plan.tasks:
            if task.task == "marginals":
                value = {
                    name: np.asarray(estimates[name], dtype=np.float64).tolist()
                    for name in task.attributes
                }
                detail = {
                    "edges": {
                        name: self.plan.attribute(name)
                        .bucket_edges(np.asarray(estimates[name]).size)
                        .tolist()
                        for name in task.attributes
                    }
                }
                choices = [self.planned.choice_for(name) for name in task.attributes]
                # Mirror audit_budget's composition rule: budget-split users
                # report every attribute (spends add up), population-split
                # users report one (worst single allocation).
                spent = (
                    sum(c.epsilon for c in choices)
                    if self.planned.composition == "sequential"
                    else max(c.epsilon for c in choices)
                )
                results.append(
                    TaskResult(
                        task=task.task,
                        attribute="+".join(task.attributes),
                        value=value,
                        detail=detail,
                        epsilon_spent=spent,
                        mechanism=",".join(sorted({c.mechanism for c in choices})),
                        n_reports=sum(
                            self._estimators[name].n_reports for name in task.attributes
                        ),
                    )
                )
                continue
            name = task.attributes[0]
            results.append(
                self._task_result(
                    task,
                    self.plan.attribute(name),
                    estimates[name],
                    bands[name],
                    confidence,
                )
            )

        audit = self.audit()
        return AnalysisReport(
            results=tuple(results),
            epsilon_budget=audit.epsilon_budget,
            per_user_epsilon=audit.per_user_epsilon,
            composition=audit.composition,
        )

    def __repr__(self) -> str:
        mechanisms = {c.attribute: c.mechanism for c in self.planned.choices}
        return (
            f"Session(epsilon={self.plan.epsilon}, split={self.plan.split!r}, "
            f"mechanisms={mechanisms}, n_reports={self.n_reports})"
        )
