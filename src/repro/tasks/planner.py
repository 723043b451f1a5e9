"""Budget allocation + mechanism selection for analysis plans.

This is the paper's Section 8 guidance, executable:

* tasks that derive from the full distribution (``Distribution``,
  ``Quantiles``, ``Variance``, ``Marginals``, or any mix) are served by
  Square Wave + EMS — one reconstruction answers them all;
* a *mean-only* attribute is served by a task-specific scalar mechanism —
  SR in the small-epsilon regime, PM otherwise
  (:func:`repro.mean.variance.recommended_scalar_mechanism`);
* a *range-query-only* attribute is served by the hierarchical
  histogram + ADMM estimator, whose tree decomposition is built for
  interval mass;
* discrete attributes route to the bucketize-before-randomize SW variant
  (Section 5.4).

Selections are validated against the central registry's capability
metadata (:func:`repro.api.registry.get_spec`), so a rule can never pick a
mechanism that cannot answer its tasks. The budget is spread across
attributes either by *population splitting* (each user reports one
attribute at full budget — parallel composition) or *budget splitting*
(every user reports every attribute at a weighted fraction — sequential
composition); :meth:`PlannedAnalysis.audit` proves the per-user spend
through :func:`repro.privacy.audit.audit_budget`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api.registry import get_spec, make_estimator
from repro.mean.variance import recommended_scalar_mechanism
from repro.privacy.audit import PlanAuditResult, audit_budget
from repro.tasks.plan import AnalysisPlan

__all__ = ["MechanismChoice", "PlannedAnalysis", "plan_analysis"]


@dataclass(frozen=True)
class MechanismChoice:
    """The planner's decision for one attribute."""

    attribute: str
    mechanism: str
    epsilon: float
    d: int | None
    reason: str

    def make(self):
        """Instantiate the chosen estimator through the central registry."""
        return make_estimator(self.mechanism, self.epsilon, self.d)


@dataclass(frozen=True)
class PlannedAnalysis:
    """A fully-resolved plan: one mechanism + budget share per attribute."""

    plan: AnalysisPlan
    choices: tuple[MechanismChoice, ...]
    composition: str

    def choice_for(self, attribute: str) -> MechanismChoice:
        for choice in self.choices:
            if choice.attribute == attribute:
                return choice
        raise ValueError(f"no mechanism planned for attribute {attribute!r}")

    @property
    def allocation(self) -> dict[str, float]:
        """Per-attribute epsilon allocation."""
        return {c.attribute: c.epsilon for c in self.choices}

    @property
    def per_user_epsilon(self) -> float:
        """Worst-case budget any single user spends under this plan."""
        return self.audit().per_user_epsilon

    def audit(self) -> PlanAuditResult:
        """Verify the allocation composes within the plan budget."""
        return audit_budget(
            self.allocation, self.plan.epsilon, composition=self.composition
        )

    def stream_audit(self, rounds: int, *, participation: str = "every-round"):
        """Cumulative epsilon when this plan runs for ``rounds`` rounds.

        ``rounds`` counts every collection round so far
        (:attr:`repro.streaming.StreamingCollector.n_rounds`), whatever
        window the estimates are published over. Returns
        :class:`repro.privacy.audit.StreamAuditResult`; see
        :func:`repro.privacy.audit.audit_stream_budget` for the
        composition/participation semantics.
        """
        from repro.privacy.audit import audit_stream_budget

        return audit_stream_budget(
            self.allocation,
            self.plan.epsilon,
            rounds=rounds,
            composition=self.composition,
            participation=participation,
        )

    def make_estimators(self) -> dict:
        """One estimator per attribute, built through the registry."""
        return {c.attribute: c.make() for c in self.choices}

    def describe(self) -> str:
        """Human-readable planning summary (one line per attribute)."""
        lines = []
        for c in self.choices:
            lines.append(
                f"{c.attribute}: {c.mechanism} at epsilon={c.epsilon:.4g} — {c.reason}"
            )
        audit = self.audit()
        lines.append(
            f"per-user epsilon {audit.per_user_epsilon:.4g} of "
            f"{audit.epsilon_budget:.4g} ({audit.composition} composition)"
        )
        return "\n".join(lines)


def _next_power(value: int, base: int) -> int:
    power = base
    while power < value:
        power *= base
    return power


#: Branching factor of planner-built hierarchical estimators (the registry
#: default for ``hh-admm``).
_HH_BRANCHING = 4


def _select_mechanism(plan: AnalysisPlan, attribute: str, epsilon: float) -> MechanismChoice:
    spec = plan.attribute(attribute)
    tasks = plan.tasks_for(attribute)
    kinds = {task.task for task in tasks}

    if kinds == {"mean"}:
        mechanism = recommended_scalar_mechanism(epsilon)
        d = None
        reason = (
            "mean-only workload: a task-specific scalar mechanism beats a "
            f"full reconstruction ({mechanism} is the epsilon={epsilon:.3g} regime choice)"
        )
    elif kinds <= {"range_queries"}:
        mechanism = "hh-admm"
        d = _next_power(spec.d, _HH_BRANCHING)
        reason = (
            "range-query-only workload: hierarchical histogram + ADMM "
            "decomposes interval mass into O(log d) nodes"
        )
        if d != spec.d:
            reason += f" (granularity snapped to {d}, the tree's power-of-{_HH_BRANCHING} grid)"
    else:
        mechanism = "sw-discrete-ems" if spec.kind == "discrete" else "sw-ems"
        d = spec.d
        reason = (
            "distribution-derived workload: SW+EMS reconstructs the full "
            "distribution once and serves every task from it"
            + (" (discrete variant, Section 5.4)" if spec.kind == "discrete" else "")
        )

    registry_spec = get_spec(mechanism)
    for task in tasks:
        for metric in task.metrics:
            if not registry_spec.supports(metric):
                raise ValueError(
                    f"planner bug: {mechanism!r} cannot serve metric {metric!r} "
                    f"needed by task {task.key!r}"
                )
    return MechanismChoice(
        attribute=attribute, mechanism=mechanism, epsilon=epsilon, d=d, reason=reason
    )


def plan_analysis(plan: AnalysisPlan) -> PlannedAnalysis:
    """Resolve a declarative plan into per-attribute mechanism choices.

    Budget allocation: under ``split="population"`` every attribute runs at
    the full plan epsilon (each user reports exactly one attribute, chosen
    with probability proportional to attribute weight — parallel
    composition keeps the per-user spend at the plan budget). Under
    ``split="budget"`` each attribute receives a weight-proportional slice
    and every user reports all of them (sequential composition).
    """
    names = [a.name for a in plan.attributes]
    if plan.split == "population":
        allocation = {name: float(plan.epsilon) for name in names}
        composition = "parallel"
    else:
        total_weight = sum(a.weight for a in plan.attributes)
        allocation = {
            a.name: float(plan.epsilon) * a.weight / total_weight
            for a in plan.attributes
        }
        composition = "sequential"
    choices = tuple(
        _select_mechanism(plan, name, allocation[name]) for name in names
    )
    planned = PlannedAnalysis(plan=plan, choices=choices, composition=composition)
    audit = planned.audit()
    if not audit.satisfied:
        raise ValueError(
            f"planner bug: allocation spends {audit.per_user_epsilon} per user, "
            f"over the plan budget {audit.epsilon_budget}"
        )
    return planned
