"""Window states: O(d)-maintained aggregates over a stream of rounds.

A continuous collection produces one aggregate state per round; every tick
wants an estimate over a *window* of recent rounds. Re-ingesting the window
from scratch costs O(W * n) per tick; because every estimator state is a
linear sufficient statistic, the same answer is maintainable in O(d):

* :class:`SlidingWindowState` — a ring buffer of the last ``W`` per-round
  state payloads plus one running aggregate. Advancing merges the newest
  round and subtracts the evicted one (``repro.api.subtract_state``), so
  each tick costs two O(d) passes — and, for integer-count states below
  2^53, the running aggregate is **bit-identical** to re-ingesting the
  surviving rounds from scratch (integer add/subtract is exact in float64).
  Memory is O(W * d): the ring keeps payloads, never raw reports.

* :class:`CumulativeState` — no forgetting; plain merge accumulation,
  provided so the scheduler has a uniform interface for the "estimate
  everything so far" mode.

Both expose the same surface: ``push(round_estimator)``,
``current`` (an estimator over the window), ``fingerprint()`` (the
:func:`~repro.protocol.server.state_digest` of the window contents, which
the streaming scheduler's posterior cache keys on), and ``n_rounds``.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.api.arithmetic import subtract_state, supports_state_arithmetic
from repro.api.base import Estimator
from repro.protocol.server import state_digest

__all__ = [
    "CumulativeState",
    "SlidingWindowState",
    "clone_template",
]


def clone_template(estimator: Estimator) -> Estimator:
    """A fresh estimator with ``estimator``'s parameters and empty state."""
    clone = Estimator.from_state(estimator.to_state())
    clone.reset()
    return clone


def _check_round(template: Estimator, round_estimator: Estimator) -> None:
    """Same compatibility contract as ``merge``: type + params must match."""
    if type(round_estimator) is not type(template):
        raise TypeError(
            f"round estimator is {type(round_estimator).__name__}, window is "
            f"over {type(template).__name__}"
        )
    if round_estimator._params() != template._params():
        raise ValueError(
            "round estimator parameters do not match the window template: "
            f"{round_estimator._params()} != {template._params()}"
        )


class _WindowBase:
    """Shared surface of the window states."""

    def __init__(self, template: Estimator) -> None:
        if not supports_state_arithmetic(template):
            raise TypeError(
                f"{type(template).__name__} does not support state arithmetic "
                "(state_arithmetic=False); it cannot back a window state"
            )
        self._template = template
        self._rounds = 0

    @property
    def template(self) -> Estimator:
        return self._template

    @property
    def n_rounds(self) -> int:
        """Rounds pushed so far (not capped by the window length)."""
        return self._rounds

    @property
    def current(self) -> Estimator:
        """Estimator whose state is the window aggregate (read-only use)."""
        raise NotImplementedError

    def push(self, round_estimator: Estimator) -> None:
        raise NotImplementedError

    def fingerprint(self) -> bytes:
        """Digest of the window contents (the posterior cache's key)."""
        return state_digest(self.current._state())


class CumulativeState(_WindowBase):
    """Everything-so-far aggregation: push = merge, nothing is forgotten."""

    def __init__(self, template: Estimator) -> None:
        super().__init__(template)
        self._current = clone_template(template)

    @property
    def current(self) -> Estimator:
        return self._current

    def push(self, round_estimator: Estimator) -> None:
        _check_round(self._template, round_estimator)
        self._current.merge(round_estimator)
        self._rounds += 1


class SlidingWindowState(_WindowBase):
    """Last-``window``-rounds aggregate, maintained in O(d) per push.

    The ring buffer stores per-round *state payloads* (``_state()`` dicts),
    so memory is O(window * d) regardless of how many reports each round
    saw. ``push`` merges the newest round into the running aggregate and,
    once the ring is full, subtracts the evicted round through the
    sanctioned ``repro.api.subtract_state`` — exact, and bit-identical to
    re-ingesting the surviving rounds, because bucketized counts are
    integer-valued float64 (< 2^53).
    """

    def __init__(self, template: Estimator, window: int) -> None:
        super().__init__(template)
        window = int(window)
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self._window = window
        self._ring: deque[dict[str, Any]] = deque()
        self._current = clone_template(template)
        self._scratch = clone_template(template)

    @property
    def window(self) -> int:
        return self._window

    @property
    def n_in_window(self) -> int:
        return len(self._ring)

    @property
    def current(self) -> Estimator:
        return self._current

    def push(self, round_estimator: Estimator) -> None:
        _check_round(self._template, round_estimator)
        self._current.merge(round_estimator)
        self._ring.append(round_estimator._state())
        if len(self._ring) > self._window:
            evicted = self._ring.popleft()
            self._scratch._load_state(evicted)
            subtract_state(self._current, self._scratch)
        self._rounds += 1

    def rebuild(self) -> Estimator:
        """Re-ingest the ring from scratch (the O(W * d) slow path).

        Exists for verification: the result must be bit-identical to
        :attr:`current`. Benchmarks and tests call it; the tick path never
        does.
        """
        rebuilt = clone_template(self._template)
        for payload in self._ring:
            self._scratch._load_state(payload)
            rebuilt.merge(self._scratch)
        return rebuilt

