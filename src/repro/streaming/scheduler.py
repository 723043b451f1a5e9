"""Warm-start tick scheduler: continuous estimation over window states.

:class:`StreamingCollector` owns one window state per attribute
(:mod:`repro.streaming.window`) and turns "a new round arrived" into fresh
estimates with three amortizations layered on the one-shot pipeline:

1. **Fingerprint skip** — each window keys a posterior cache on a stable
   fingerprint of its contents; a tick whose window did not change costs
   zero solves.
2. **Warm start** — EM-backed attributes start from the previous tick's
   posterior (mixed with a drop of uniform so no coordinate is exactly
   zero), via the estimator's existing ``estimate(x0=)`` plumbing. Same
   fixed point, far fewer iterations when the window moved by one round.
3. **Fusion** — attributes that share a structured channel operator, EM
   configuration and epsilon are stacked into one ``(d_out, B)``
   :meth:`repro.api.EMConfig.run_many` batch, so a multi-attribute tick
   pays one solver dispatch through the backend seam instead of B. The
   grouping and the batched solve are the serving tier's own
   (:func:`repro.protocol.server.fusion_groups` and
   :func:`~repro.protocol.server.solve_together`), and every fused column
   is bit-identical to the attribute solving alone.

Drift is the failure mode of warm starting: on a sampled cadence the
scheduler cross-checks the warm posterior against a cold solve
(:class:`repro.streaming.drift.DriftMonitor`) and invalidates the cache
when the divergence crosses the threshold, adopting the fresh posterior.

Privacy accounting for the stream lives in
:func:`repro.privacy.audit_stream_budget`; :meth:`StreamingCollector.audit`
reports the per-window effective epsilon for the collector's own window
length and per-attribute allocation.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.api.base import Estimator
from repro.protocol.server import fusion_groups, solve_together, warm_startable
from repro.streaming.drift import DriftMonitor
from repro.streaming.window import (
    CumulativeState,
    DecayedState,
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
        Sliding-window length in rounds (``SlidingWindowState``).
    decay:
        Exponential forgetting factor in ``(0, 1)`` (``DecayedState``).
        Mutually exclusive with ``window``; with neither, the collector
        aggregates everything since the start (``CumulativeState``).
    warm_start:
        Seed EM from the previous tick's posterior (default). ``False``
        forces cold solves — mainly for benchmarking the amortization.
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
        decay: float | None = None,
        warm_start: bool = True,
        drift_every: int = 0,
        drift_threshold: float = 0.05,
        drift_statistic: str = "tv",
    ) -> None:
        if not templates:
            raise ValueError("templates must be non-empty")
        if window is not None and decay is not None:
            raise ValueError("window and decay are mutually exclusive")
        self.window = int(window) if window is not None else None
        self.decay = float(decay) if decay is not None else None
        self.warm_start = bool(warm_start)
        self.drift = DriftMonitor(
            every=drift_every,
            threshold=drift_threshold,
            statistic=drift_statistic,
        )
        self._windows: dict[str, _WindowBase] = {
            str(name): self._make_window(template)
            for name, template in templates.items()
        }
        #: attribute -> (window fingerprint, posterior) of the last solve.
        self._cache: dict[str, tuple[str, np.ndarray]] = {}
        self._last: dict[str, AttributeTick] = {}
        self._ticks = 0

    def _make_window(self, template: Estimator) -> _WindowBase:
        if self.window is not None:
            return SlidingWindowState(template, self.window)
        if self.decay is not None:
            return DecayedState(template, self.decay)
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

    def window_state(self, attribute: str) -> _WindowBase:
        return self._windows[str(attribute)]

    def estimates(self) -> dict[str, Any]:
        """Latest per-attribute estimates (from the most recent tick)."""
        return {
            name: _copy(tick.estimate) for name, tick in self._last.items()
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
        for name, round_estimator in rounds.items():
            self._windows[str(name)].push(round_estimator)

        ticks: dict[str, AttributeTick] = {}
        pending: list[tuple[str, Estimator, str]] = []
        for name, state in self._windows.items():
            current = state.current
            fingerprint = state.fingerprint()
            cached = self._cache.get(name)
            if cached is not None and cached[0] == fingerprint:
                ticks[name] = AttributeTick(
                    attribute=name,
                    estimate=_copy(cached[1]),
                    warm=True,
                    skipped=True,
                )
                continue
            if _is_empty(current):
                ticks[name] = AttributeTick(
                    attribute=name, estimate=None, skipped=True, empty=True
                )
                continue
            pending.append((name, current, fingerprint))

        groups = fusion_groups([estimator for _, estimator, _ in pending])
        for group in groups:
            ticks.update(self._solve([pending[i] for i in group]))
        ticks = {name: ticks[name] for name in self._windows}

        self._last.update(ticks)
        solved = sum(1 for t in ticks.values() if not t.skipped)
        skipped = sum(1 for t in ticks.values() if t.skipped)
        return TickResult(
            tick=self._ticks,
            attributes=ticks,
            fused_groups=sum(1 for group in groups if len(group) > 1),
            solved=solved,
            skipped=skipped,
        )

    # -- solve path --------------------------------------------------------
    def _posterior_for(self, name: str, estimator: Estimator) -> np.ndarray | None:
        """The previous tick's posterior to warm-start from, if any."""
        if not (self.warm_start and warm_startable(estimator)):
            return None
        cached = self._cache.get(name)
        return None if cached is None else cached[1]

    def _solve(
        self, members: list[tuple[str, Estimator, str]]
    ) -> dict[str, AttributeTick]:
        """Solve one fusion group (a fused batch, or one attribute alone)."""
        posteriors = [
            self._posterior_for(name, estimator) for name, estimator, _ in members
        ]
        estimates = solve_together(
            [estimator for _, estimator, _ in members], posteriors
        )
        out: dict[str, AttributeTick] = {}
        for (name, estimator, fingerprint), posterior, estimate in zip(
            members, posteriors, estimates, strict=True
        ):
            result = getattr(estimator, "result_", None)
            tick = AttributeTick(
                attribute=name,
                estimate=_copy(estimate),
                iterations=int(result.iterations) if result is not None else None,
                converged=bool(result.converged) if result is not None else None,
                warm=posterior is not None,
                fused=len(members) > 1,
            )
            out[name] = self._finish(name, estimator, fingerprint, tick)
        return out

    def _finish(
        self,
        name: str,
        estimator: Estimator,
        fingerprint: str,
        tick: AttributeTick,
    ) -> AttributeTick:
        """Drift cross-check (on cadence), then refresh the posterior cache."""
        posterior = tick.estimate
        if not isinstance(posterior, np.ndarray):
            return tick  # scalar families: nothing to cache or cross-check
        if (
            tick.warm
            and not tick.skipped
            and self.drift.due(self._ticks)
            and warm_startable(estimator)
        ):
            fresh = np.asarray(estimator.estimate(x0=None), dtype=np.float64)
            check = self.drift.observe(self._ticks, name, posterior, fresh)
            if check.drifted:
                # Warm start went stale: adopt the cold posterior.
                posterior = fresh
                tick = AttributeTick(
                    attribute=name,
                    estimate=fresh.copy(),
                    iterations=tick.iterations,
                    converged=tick.converged,
                    warm=tick.warm,
                    fused=tick.fused,
                    drift=check.statistic,
                    drifted=True,
                )
            else:
                tick = AttributeTick(
                    attribute=name,
                    estimate=tick.estimate,
                    iterations=tick.iterations,
                    converged=tick.converged,
                    warm=tick.warm,
                    fused=tick.fused,
                    drift=check.statistic,
                    drifted=False,
                )
        self._cache[name] = (fingerprint, posterior.copy())
        return tick

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
        """Per-window effective-epsilon audit for this collector's stream.

        The window length is the collector's own: ``window`` rounds for a
        sliding window, ``ceil(1 / (1 - decay))`` equivalent rounds for a
        decayed state, and the number of ticks so far for cumulative
        aggregation. See :func:`repro.privacy.audit_stream_budget`.
        """
        from repro.privacy.audit import audit_stream_budget

        return audit_stream_budget(
            per_attribute,
            epsilon_budget,
            rounds=self.effective_rounds,
            composition=composition,
            participation=participation,
        )

    @property
    def effective_rounds(self) -> int:
        """Rounds a single user can influence the current estimate through."""
        if self.window is not None:
            return self.window
        if self.decay is not None:
            # Tolerance absorbs float artifacts: 1/(1-0.9) is 10 + 2 ulp,
            # which must audit as 10 rounds, not ceil to 11.
            return int(np.ceil(1.0 / (1.0 - self.decay) - 1e-9))
        return max(1, self._ticks)


def _is_empty(estimator: Estimator) -> bool:
    """Whether an estimator has ingested nothing (solve would raise)."""
    n = getattr(estimator, "n_reports", None)
    if n is None:
        return False
    return int(n) <= 0


def _copy(value: Any) -> Any:
    if isinstance(value, np.ndarray):
        return value.copy()
    if isinstance(value, list):
        return [_copy(item) for item in value]
    return value


def iter_ticks(results: Iterable[TickResult]) -> dict[str, Any]:
    """Summarize a sequence of tick results (iterations, skips, drift).

    A small reporting convenience shared by the CLI ``stream`` command and
    the benchmark harness.
    """
    ticks = list(results)
    total_iterations = sum(t.total_iterations for t in ticks)
    return {
        "n_ticks": len(ticks),
        "total_iterations": total_iterations,
        "solved": sum(t.solved for t in ticks),
        "skipped": sum(t.skipped for t in ticks),
        "fused_groups": sum(t.fused_groups for t in ticks),
        "drift_flags": sum(
            1
            for t in ticks
            for a in t.attributes.values()
            if a.drifted
        ),
    }
