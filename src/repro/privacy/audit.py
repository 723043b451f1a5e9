"""Numerical LDP auditing (Definition 2.1).

These checks do not *prove* privacy — the proofs are in the paper — but they
catch implementation bugs: a mechanism whose realized density ratio exceeds
``e^eps`` is broken no matter what the math says. Two entry points:

* ``audit_continuous_mechanism`` grids the input/output domains of a wave
  mechanism and bounds ``max pdf(v1, out) / pdf(v2, out)``;
* ``audit_matrix`` checks a per-value transition matrix (GRR, discrete SW),
  where each column *is* the exact output distribution of one input.

Plan-level accounting lives here too: ``audit_budget`` verifies that an
analysis plan's per-attribute epsilon allocation composes to no more than
the declared per-user budget (sequential composition when every user
reports every attribute, parallel composition when the population is split
and each user reports exactly one attribute).
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from repro.utils.validation import check_epsilon

__all__ = [
    "AuditResult",
    "PlanAuditResult",
    "StreamAuditResult",
    "audit_continuous_mechanism",
    "audit_matrix",
    "audit_budget",
    "audit_stream_budget",
]


@dataclass(frozen=True)
class AuditResult:
    """Outcome of a numerical LDP audit.

    ``max_ratio`` is the largest observed output-probability ratio between
    two inputs; ``satisfied`` compares it to ``e^eps`` with a small
    float-tolerance margin.
    """

    epsilon: float
    max_ratio: float
    satisfied: bool

    @property
    def effective_epsilon(self) -> float:
        """``log(max_ratio)`` — the privacy level the audit actually observed.

        Uses scalar ``math.log`` so a degenerate audit (``max_ratio <= 0``,
        e.g. from an all-zero channel) raises loudly instead of silently
        returning ``-inf``/NaN behind a RuntimeWarning.
        """
        return math.log(self.max_ratio)


@dataclass(frozen=True)
class PlanAuditResult:
    """Outcome of a plan-level budget audit.

    ``per_user_epsilon`` is the worst-case budget any single user spends
    under the declared composition rule; ``satisfied`` compares it to the
    plan budget with a small float-tolerance margin.
    """

    epsilon_budget: float
    per_user_epsilon: float
    composition: str
    per_attribute: tuple[tuple[str, float], ...]

    @property
    def satisfied(self) -> bool:
        return self.per_user_epsilon <= self.epsilon_budget * (1.0 + 1e-9)

    @property
    def slack(self) -> float:
        """Unspent budget (negative means the allocation over-spends)."""
        return self.epsilon_budget - self.per_user_epsilon


def audit_budget(
    per_attribute: Mapping[str, float],
    epsilon_budget: float,
    *,
    composition: str = "sequential",
) -> PlanAuditResult:
    """Verify a per-attribute epsilon allocation against a per-user budget.

    ``composition="sequential"`` models every user reporting every
    attribute (budgets add up); ``"parallel"`` models population splitting,
    where each user reports exactly one attribute and the per-user spend is
    the worst single allocation.
    """
    epsilon_budget = check_epsilon(epsilon_budget)
    if composition not in ("sequential", "parallel"):
        raise ValueError(
            f"composition must be 'sequential' or 'parallel', got {composition!r}"
        )
    if not per_attribute:
        raise ValueError("per_attribute allocation must be non-empty")
    allocations = tuple(
        (str(name), check_epsilon(eps)) for name, eps in per_attribute.items()
    )
    spends = [eps for _, eps in allocations]
    per_user = sum(spends) if composition == "sequential" else max(spends)
    return PlanAuditResult(
        epsilon_budget=epsilon_budget,
        per_user_epsilon=float(per_user),
        composition=composition,
        per_attribute=allocations,
    )


@dataclass(frozen=True)
class StreamAuditResult:
    """Outcome of a multi-round (streaming) budget audit.

    ``per_round_epsilon`` is the single-round per-user spend under the
    declared attribute composition; ``cumulative_epsilon`` is what one
    user has spent over all ``rounds`` rounds under the declared
    participation model. ``satisfied`` compares the cumulative spend to
    the budget with the same float-tolerance margin as the one-shot audit.
    """

    epsilon_budget: float
    per_round_epsilon: float
    cumulative_epsilon: float
    rounds: int
    composition: str
    participation: str
    per_attribute: tuple[tuple[str, float], ...]

    @property
    def satisfied(self) -> bool:
        return self.cumulative_epsilon <= self.epsilon_budget * (1.0 + 1e-9)

    @property
    def slack(self) -> float:
        """Unspent budget (negative means the stream over-spends)."""
        return self.epsilon_budget - self.cumulative_epsilon

    def to_dict(self) -> dict[str, object]:
        """JSON-serializable form for service responses and CLI output."""
        return {
            "epsilon_budget": self.epsilon_budget,
            "per_round_epsilon": self.per_round_epsilon,
            "cumulative_epsilon": self.cumulative_epsilon,
            "rounds": self.rounds,
            "composition": self.composition,
            "participation": self.participation,
            "per_attribute": dict(self.per_attribute),
            "satisfied": self.satisfied,
            "slack": self.slack,
        }


def audit_stream_budget(
    per_attribute: Mapping[str, float],
    epsilon_budget: float,
    *,
    rounds: int,
    composition: str = "sequential",
    participation: str = "every-round",
) -> StreamAuditResult:
    """Audit a continuous collection's cumulative privacy spend.

    Extends :func:`audit_budget` across rounds. Within one round,
    ``composition`` composes the per-attribute allocation exactly as the
    one-shot audit does. Across the ``rounds`` rounds collected so far,
    sequential composition applies again under
    ``participation="every-round"`` (the same user reports in every round:
    spends add, ``cumulative = rounds * per_round``), while
    ``participation="once"`` models per-round user sampling where each
    user reports in at most one round (parallel composition across
    rounds: ``cumulative = per_round``).

    ``rounds`` counts every round collected, whatever window the estimate
    is published over: under LDP the collector sees every report, so the
    cumulative figure bounds what anyone holding all of a user's reports
    can learn about that user. A plan that satisfies its one-shot budget
    can still blow this budget after a handful of every-round ticks.
    """
    rounds = int(rounds)
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    if participation not in ("every-round", "once"):
        raise ValueError(
            f"participation must be 'every-round' or 'once', got {participation!r}"
        )
    base = audit_budget(per_attribute, epsilon_budget, composition=composition)
    per_round = base.per_user_epsilon
    cumulative = per_round * rounds if participation == "every-round" else per_round
    return StreamAuditResult(
        epsilon_budget=base.epsilon_budget,
        per_round_epsilon=per_round,
        cumulative_epsilon=float(cumulative),
        rounds=rounds,
        composition=composition,
        participation=participation,
        per_attribute=base.per_attribute,
    )


def audit_continuous_mechanism(
    mechanism,
    *,
    input_grid: int = 41,
    output_grid: int = 401,
    rtol: float = 1e-9,
) -> AuditResult:
    """Audit a continuous wave mechanism via its ``pdf``.

    Evaluates the output density for ``input_grid`` inputs across ``[0, 1]``
    on a shared ``output_grid`` over ``[-b, 1+b]`` and takes the worst
    pointwise ratio. Wave mechanisms have piecewise-constant/linear densities
    so a moderate grid finds the true maximum.
    """
    epsilon = check_epsilon(mechanism.epsilon)
    inputs = np.linspace(0.0, 1.0, input_grid)
    outputs = np.linspace(mechanism.output_low, mechanism.output_high, output_grid)
    densities = np.stack([mechanism.pdf(v, outputs) for v in inputs])
    if densities.min() <= 0:
        raise ValueError(
            "mechanism has zero-density outputs inside its domain; "
            "the LDP ratio is unbounded"
        )
    max_ratio = float((densities.max(axis=0) / densities.min(axis=0)).max())
    bound = float(np.exp(epsilon)) * (1.0 + rtol)
    return AuditResult(epsilon=epsilon, max_ratio=max_ratio, satisfied=max_ratio <= bound)


def audit_matrix(matrix: np.ndarray, epsilon: float, *, rtol: float = 1e-9) -> AuditResult:
    """Audit a per-value transition matrix (columns = exact output pmfs)."""
    epsilon = check_epsilon(epsilon)
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.size == 0:
        raise ValueError(f"matrix must be a non-empty 2-d array, got shape {m.shape}")
    if m.min() <= 0:
        raise ValueError("matrix has zero entries; the LDP ratio is unbounded")
    max_ratio = float((m.max(axis=1) / m.min(axis=1)).max())
    bound = float(np.exp(epsilon)) * (1.0 + rtol)
    return AuditResult(epsilon=epsilon, max_ratio=max_ratio, satisfied=max_ratio <= bound)
