"""Sanctioned state arithmetic for window maintenance.

Every built-in estimator keeps *linear* sufficient statistics (count
vectors, oracle sketches, tree-level accumulators), which is what makes
shard ``merge`` exact. The same linearity gives merge an inverse, which
the streaming layer's sliding window needs:

* ``subtract_state(est, other)`` — remove a previously-merged shard's
  contribution (sliding-window eviction: advance = add newest round +
  subtract the evicted one, O(d) instead of re-ingesting W rounds).

It operates on the JSON state payloads (``_state()``/``_load_state``), so
window math never touches raw feeds and works uniformly across families.
These helpers are the *only* sanctioned way to do window arithmetic on
estimator state — reprolint rule STATE001 flags ad-hoc arithmetic on raw
state dicts outside ``repro.api``/``repro.streaming``.

Exactness: bucketized counts are integer-valued float64, and integer
arithmetic below 2^53 is exact in binary floating point, so a sliding
window maintained by add/subtract is *bit-identical* to re-ingesting the
surviving rounds from scratch.

Estimators opt in via the ``state_arithmetic`` class attribute. The
default is ``True`` because linearity is the package-wide contract; an
estimator whose state is *not* closed under subtraction (e.g. one keeping
min/max or a sketch with nonlinear collisions) must set it to ``False``.
"""

from __future__ import annotations

from typing import Any

from repro.api.base import Estimator

__all__ = [
    "subtract_state",
    "subtract_payload",
    "supports_state_arithmetic",
]


def supports_state_arithmetic(estimator: Estimator) -> bool:
    """Whether ``estimator`` sanctions window state arithmetic."""
    return bool(getattr(estimator, "state_arithmetic", False))


def _require_arithmetic(estimator: Estimator) -> None:
    if not supports_state_arithmetic(estimator):
        raise TypeError(
            f"{type(estimator).__name__} does not support state arithmetic "
            "(state_arithmetic=False); its state is not closed under "
            "subtraction"
        )


def _check_compatible(estimator: Estimator, other: Estimator) -> None:
    """Same compatibility contract as :meth:`Estimator.merge`."""
    if type(other) is not type(estimator):
        raise TypeError(
            f"cannot combine {type(other).__name__} state with "
            f"{type(estimator).__name__}"
        )
    if other._params() != estimator._params():
        raise ValueError(
            f"cannot combine {type(estimator).__name__} states with different "
            f"parameters: {estimator._params()} != {other._params()}"
        )


def subtract_payload(state: Any, other: Any) -> Any:
    """``state - other`` over mirrored JSON state payloads.

    Numbers subtract; lists recurse elementwise (shapes must match); dicts
    recurse by key (key sets must match); any non-numeric leaf must be
    equal on both sides and passes through unchanged.
    """
    if isinstance(state, bool) or isinstance(other, bool):
        # bool is an int subclass; treat flags as structure, not counts.
        if state != other:
            raise ValueError("state payloads disagree on a non-numeric leaf")
        return state
    if isinstance(state, (int, float)) and isinstance(other, (int, float)):
        return state - other
    if isinstance(state, list) and isinstance(other, list):
        if len(state) != len(other):
            raise ValueError(
                f"state payload shape mismatch: {len(state)} != {len(other)}"
            )
        return [subtract_payload(a, b) for a, b in zip(state, other)]
    if isinstance(state, dict) and isinstance(other, dict):
        if state.keys() != other.keys():
            raise ValueError(
                f"state payload keys mismatch: {sorted(state)} != {sorted(other)}"
            )
        return {key: subtract_payload(state[key], other[key]) for key in state}
    if state != other:
        raise ValueError("state payloads disagree on a non-numeric leaf")
    return state


def subtract_state(estimator: Estimator, other: Estimator) -> Estimator:
    """Remove ``other``'s aggregation state from ``estimator`` in place.

    The inverse of :meth:`Estimator.merge`: after
    ``estimator.merge(other)`` followed by ``subtract_state(estimator,
    other)``, the state is bit-identical to never having merged (for
    integer-count states below 2^53). Both estimators must be the same
    type with identical parameters. Returns ``estimator`` for chaining.
    """
    _require_arithmetic(estimator)
    _check_compatible(estimator, other)
    estimator._load_state(subtract_payload(estimator._state(), other._state()))
    return estimator

