"""Warm-start tick scheduler: continuous estimation over window states.

:class:`StreamingCollector` owns one window state per attribute
(:mod:`repro.streaming.window`) and turns "a new round arrived" into fresh
estimates through the serving tier's cached-solve path
(:func:`repro.protocol.server.solve_cached`), against one
:class:`~repro.protocol.server.PosteriorCache` keyed by attribute. That
gives three amortizations layered on the one-shot pipeline:

1. **Fingerprint skip** — the cache keys each attribute's last estimate on
   the digest of its window's contents (``fingerprint()``); a tick whose
   window did not change costs zero solves, whatever the family.
2. **Warm start** — EM-backed attributes start from the previous tick's
   posterior (mixed with a drop of uniform so no coordinate is exactly
   zero), via the estimator's existing ``estimate(x0=)`` plumbing. Far
   fewer iterations when the window moved by one round, but not the same
   answer: the solve stops at its tolerance near where it started, so a
   warm-started estimate differs from a cold solve of the same window and
   depends on the ticks before it.
3. **Fusion** — attributes that share a structured channel operator, EM
   configuration and epsilon are stacked into one ``(d_out, B)``
   :meth:`repro.api.EMConfig.run_many` batch, so a multi-attribute tick
   pays one solver call instead of B. Every fused column is bit-identical
   to the attribute solving alone.

Drift is the failure mode of warm starting: on a sampled cadence the
scheduler cross-checks the warm posterior against a cold solve
(:class:`repro.streaming.drift.DriftMonitor`) and, when the divergence
crosses the threshold, caches the fresh posterior in its place.

Privacy accounting for the stream lives in
:func:`repro.privacy.audit_stream_budget`; :meth:`StreamingCollector.audit`
charges every round collected so far against the per-attribute
allocation, whatever the window length.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from repro.api.base import Estimator
from repro.api.errors import EmptyAggregateError
from repro.protocol.server import PosteriorCache, copy_estimate, solve_cached
from repro.streaming.drift import DriftMonitor
from repro.streaming.window import (
    CumulativeState,
    SlidingWindowState,
    _WindowBase,
    clone_template,
)
from repro.utils.rng import RngLike, as_generator

__all__ = ["AttributeTick", "StreamingCollector", "TickResult"]


@dataclass(frozen=True)
class AttributeTick:
    """One attribute's outcome within a tick."""

    attribute: str
    estimate: Any
    iterations: int | None = None
    converged: bool | None = None
    warm: bool = False
    fused: bool = False
    skipped: bool = False
    empty: bool = False
    drift: float | None = None
    drifted: bool = False

    def to_dict(self) -> dict[str, Any]:
        estimate = self.estimate
        if isinstance(estimate, np.ndarray):
            estimate = estimate.tolist()
        return {
            "attribute": self.attribute,
            "estimate": estimate,
            "iterations": self.iterations,
            "converged": self.converged,
            "warm": self.warm,
            "fused": self.fused,
            "skipped": self.skipped,
            "empty": self.empty,
            "drift": self.drift,
            "drifted": self.drifted,
        }


@dataclass(frozen=True)
class TickResult:
    """Everything one call to :meth:`StreamingCollector.tick` produced."""

    tick: int
    attributes: dict[str, AttributeTick] = field(default_factory=dict)
    fused_groups: int = 0
    solved: int = 0
    skipped: int = 0

    @property
    def total_iterations(self) -> int:
        return sum(
            t.iterations or 0 for t in self.attributes.values() if not t.skipped
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "tick": self.tick,
            "fused_groups": self.fused_groups,
            "solved": self.solved,
            "skipped": self.skipped,
            "total_iterations": self.total_iterations,
            "attributes": {
                name: t.to_dict() for name, t in self.attributes.items()
            },
        }


class StreamingCollector:
    """Continuous-collection engine over per-attribute window states.

    Parameters
    ----------
    templates:
        ``{attribute: estimator}`` defining family and parameters per
        attribute; templates are cloned, never mutated.
    window:
        Sliding-window length in rounds (``SlidingWindowState``); without
        it, the collector aggregates everything since the start
        (``CumulativeState``).
    drift_every / drift_threshold / drift_statistic:
        Cadence-sampled warm-vs-cold cross-check
        (:class:`repro.streaming.drift.DriftMonitor`); ``drift_every=0``
        disables it.
    """

    def __init__(
        self,
        templates: Mapping[str, Estimator],
        *,
        window: int | None = None,
        drift_every: int = 0,
        drift_threshold: float = 0.05,
        drift_statistic: str = "tv",
    ) -> None:
        if not templates:
            raise ValueError("templates must be non-empty")
        self.window = int(window) if window is not None else None
        self.drift = DriftMonitor(
            every=drift_every,
            threshold=drift_threshold,
            statistic=drift_statistic,
        )
        self._windows: dict[str, _WindowBase] = {
            str(name): self._make_window(template)
            for name, template in templates.items()
        }
        self._posteriors = PosteriorCache()
        self._last: dict[str, AttributeTick] = {}
        self._ticks = 0
        self._rounds = 0

    def _make_window(self, template: Estimator) -> _WindowBase:
        if self.window is not None:
            return SlidingWindowState(template, self.window)
        return CumulativeState(template)

    @classmethod
    def from_plan(
        cls, plan: Any, **kwargs: Any
    ) -> "StreamingCollector":
        """Build a collector from an :class:`~repro.tasks.plan.AnalysisPlan`
        (or an already-planned analysis): one template per planned
        attribute, using the planner's mechanism choices and epsilon
        allocation."""
        from repro.tasks.planner import PlannedAnalysis, plan_analysis

        planned = plan if isinstance(plan, PlannedAnalysis) else plan_analysis(plan)
        return cls(planned.make_estimators(), **kwargs)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def attributes(self) -> tuple[str, ...]:
        return tuple(self._windows)

    @property
    def n_ticks(self) -> int:
        return self._ticks

    @property
    def n_rounds(self) -> int:
        """Rounds collected: the ticks that pushed at least one round.

        An idle tick pushes nothing, so it is not counted. A tick that
        pushes only some attributes counts whole: under a population split
        a user who reports every round may report a different attribute in
        each. Equals :attr:`n_ticks` when every tick pushes a round.
        """
        return self._rounds

    def window_state(self, attribute: str) -> _WindowBase:
        return self._windows[str(attribute)]

    def estimates(self) -> dict[str, Any]:
        """Latest per-attribute estimates (from the most recent tick)."""
        return {
            name: copy_estimate(tick.estimate) for name, tick in self._last.items()
        }

    # ------------------------------------------------------------------
    # round helpers
    # ------------------------------------------------------------------
    def make_round(
        self, attribute: str, values: Any, rng: RngLike = None
    ) -> Estimator:
        """Privatize + aggregate one round of raw values for ``attribute``.

        A convenience for simulations and examples: clones the attribute's
        template, runs one client/server round over ``values``, and
        returns the round estimator ready for :meth:`tick`. Production
        deployments build round estimators from wire feeds instead
        (:class:`repro.service.ShardedCollector` windowed mode).
        """
        template = self._windows[str(attribute)].template
        round_estimator = clone_template(template)
        round_estimator.partial_fit(values, rng=as_generator(rng))
        return round_estimator

    # ------------------------------------------------------------------
    # the tick
    # ------------------------------------------------------------------
    def tick(self, rounds: Mapping[str, Estimator]) -> TickResult:
        """Advance every window by one round and refresh estimates.

        ``rounds`` maps attribute name to that round's aggregate estimator
        (same family/params as the attribute's template). Attributes
        absent from ``rounds`` keep their window unchanged — their cached
        estimate is served without a solve (fingerprint skip).
        """
        unknown = set(map(str, rounds)) - set(self._windows)
        if unknown:
            raise KeyError(
                f"unknown attributes {sorted(unknown)}; "
                f"collector serves {sorted(self._windows)}"
            )
        self._ticks += 1
        if rounds:
            self._rounds += 1
        for name, round_estimator in rounds.items():
            self._windows[str(name)].push(round_estimator)

        members = [
            (self._posteriors, name, state.current, state.fingerprint())
            for name, state in self._windows.items()
        ]
        solves = solve_cached(members)
        ticks: dict[str, AttributeTick] = {}
        for (_, name, estimator, digest), solved in zip(members, solves, strict=True):
            if isinstance(solved.error, EmptyAggregateError):
                ticks[name] = AttributeTick(
                    attribute=name, estimate=None, skipped=True, empty=True
                )
            elif solved.error is not None:
                raise solved.error
            elif solved.hit:
                ticks[name] = AttributeTick(
                    attribute=name, estimate=solved.estimate, warm=True, skipped=True
                )
            else:
                result = getattr(estimator, "result_", None)
                tick = AttributeTick(
                    attribute=name,
                    estimate=copy_estimate(solved.estimate),
                    iterations=int(result.iterations) if result is not None else None,
                    converged=bool(result.converged) if result is not None else None,
                    warm=solved.warm,
                    fused=len(solved.batch) > 1,
                )
                ticks[name] = self._check_drift(name, estimator, digest, tick)

        self._last.update(ticks)
        return TickResult(
            tick=self._ticks,
            attributes=ticks,
            fused_groups=len({s.batch for s in solves if len(s.batch) > 1}),
            solved=sum(1 for t in ticks.values() if not t.skipped),
            skipped=sum(1 for t in ticks.values() if t.skipped),
        )

    def _check_drift(
        self,
        name: str,
        estimator: Estimator,
        digest: bytes,
        tick: AttributeTick,
    ) -> AttributeTick:
        """Cross-check a warm solve against a cold one, on the drift cadence.

        A drifted warm posterior is replaced by the cold one, in the tick
        and in the cache.
        """
        if not (tick.warm and self.drift.due(self._ticks)):
            return tick
        fresh = np.asarray(estimator.estimate(x0=None), dtype=np.float64)
        check = self.drift.observe(self._ticks, name, tick.estimate, fresh)
        if not check.drifted:
            return replace(tick, drift=check.statistic)
        # Warm start went stale: adopt the cold posterior.
        self._posteriors.put(name, digest, fresh)
        return replace(tick, estimate=fresh.copy(), drift=check.statistic, drifted=True)

    # ------------------------------------------------------------------
    # privacy accounting
    # ------------------------------------------------------------------
    def audit(
        self,
        per_attribute: Mapping[str, float],
        epsilon_budget: float,
        *,
        composition: str = "sequential",
        participation: str = "every-round",
    ) -> Any:
        """Cumulative privacy spend of this collector's stream so far.

        Every round collected (:attr:`n_rounds`) is charged, whatever the
        window: the collector saw each report it ever folded, and a
        windowed estimate still depends on evicted rounds through its warm
        starts. A tick that pushed no round collected nothing and is not
        charged. Before the first round the audit prices one. See
        :func:`repro.privacy.audit_stream_budget`.
        """
        from repro.privacy.audit import audit_stream_budget

        return audit_stream_budget(
            per_attribute,
            epsilon_budget,
            rounds=max(1, self.n_rounds),
            composition=composition,
            participation=participation,
        )
