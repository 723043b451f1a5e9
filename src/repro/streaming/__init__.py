"""repro.streaming — continuous collection over the estimator machinery.

The paper evaluates one-shot rounds; a production aggregator runs forever.
This package turns the one-shot pipeline into that monitoring workload:

* window states (:class:`SlidingWindowState` over the last ``W`` rounds,
  :class:`CumulativeState` over every round so far) keep a per-attribute
  aggregate in O(d) per tick; the sliding window's is bit-identical to
  re-ingesting the rounds it holds;
* :class:`StreamingCollector` schedules the per-tick solves — posterior
  cache with fingerprint skip, EM warm starts, fused multi-attribute
  batches — and cross-checks warm starts for drift on a sampled cadence;
* :func:`repro.privacy.audit_stream_budget` (re-exported by
  ``repro.privacy``) accounts the multi-round privacy spend: every round
  a user reported in, whatever the window;
* :mod:`repro.streaming.telemetry` provides seeded drifting streams for
  examples and benchmarks.

Window math goes exclusively through the sanctioned state arithmetic
(``repro.api.subtract_state``); reprolint rule STATE001 enforces that
boundary for the rest of the tree.
"""

from repro.streaming.drift import DriftMonitor, chi_square, total_variation
from repro.streaming.scheduler import (
    AttributeTick,
    StreamingCollector,
    TickResult,
)
from repro.streaming.telemetry import drifting_stream, shifting_mixture_stream
from repro.streaming.window import (
    CumulativeState,
    SlidingWindowState,
    clone_template,
)

__all__ = [
    "AttributeTick",
    "CumulativeState",
    "DriftMonitor",
    "SlidingWindowState",
    "StreamingCollector",
    "TickResult",
    "chi_square",
    "clone_template",
    "drifting_stream",
    "shifting_mixture_stream",
    "total_variation",
]
