"""Drift detection for warm-started streaming estimation.

Warm-starting EM from the previous tick's posterior saves iterations,
but it does not reproduce a cold solve: EM stops at its tolerance near
where it started, so even on a stationary stream the warm estimate
differs from a cold one of the same counts, far more under plain EM than
under EMS (the README's "Serving" section gives measured gaps). Under
*drift* the target moves as well, and a warm start near a stale mode can
take a locally-converged shortcut that a cold solve would not. The cheap guard: on a sampled cadence, run one cold solve next
to the warm one and compare the posteriors with a divergence statistic.
Small divergence certifies the warm start; large divergence flags drift,
and the scheduler invalidates its posterior cache (adopting the fresh
solve) so the next ticks re-anchor.

The statistics are deliberately simple and O(d):

* :func:`total_variation` — ``0.5 * sum |p - q|``, in ``[0, 1]``;
* :func:`chi_square` — ``sum (p - q)^2 / (q + floor)``, more sensitive
  to relative error in low-mass buckets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.typing import ArrayLike

__all__ = ["DriftMonitor", "chi_square", "total_variation"]


def _as_distribution(p: ArrayLike, name: str) -> np.ndarray:
    arr = np.asarray(p, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-d array, got shape {arr.shape}")
    return arr


def total_variation(p: ArrayLike, q: ArrayLike) -> float:
    """Total-variation distance ``0.5 * ||p - q||_1`` between histograms."""
    a = _as_distribution(p, "p")
    b = _as_distribution(q, "q")
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} != {b.shape}")
    return float(0.5 * np.abs(a - b).sum())


def chi_square(p: ArrayLike, q: ArrayLike, *, floor: float = 1e-12) -> float:
    """Chi-square divergence of ``p`` from reference ``q``.

    ``floor`` regularizes empty reference buckets so the statistic stays
    finite; it is a numerical smoothing constant, not a privacy budget.
    """
    a = _as_distribution(p, "p")
    b = _as_distribution(q, "q")
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} != {b.shape}")
    diff = a - b
    return float((diff * diff / (b + floor)).sum())


@dataclass(frozen=True)
class DriftCheck:
    """Outcome of one sampled warm-vs-cold comparison."""

    tick: int
    attribute: str
    statistic: float
    threshold: float

    @property
    def drifted(self) -> bool:
        return self.statistic > self.threshold


class DriftMonitor:
    """Cadence-sampled warm-vs-fresh posterior comparison.

    Parameters
    ----------
    every:
        Check cadence in ticks; ``0`` disables checking entirely.
    threshold:
        Divergence level above which the warm start is declared stale.
    statistic:
        ``"tv"`` (default) or ``"chi2"``.
    """

    def __init__(
        self,
        *,
        every: int = 0,
        threshold: float = 0.05,
        statistic: str = "tv",
    ) -> None:
        self.every = int(every)
        if self.every < 0:
            raise ValueError(f"every must be >= 0, got {self.every}")
        self.threshold = float(threshold)
        if not self.threshold > 0.0:
            raise ValueError(f"threshold must be > 0, got {self.threshold}")
        if statistic not in ("tv", "chi2"):
            raise ValueError(f"statistic must be 'tv' or 'chi2', got {statistic!r}")
        self.statistic = statistic
        self.checks: list[DriftCheck] = []

    def due(self, tick: int) -> bool:
        """Whether a warm solve at ``tick`` should be cross-checked."""
        return self.every > 0 and tick % self.every == 0

    def divergence(self, warm: ArrayLike, fresh: ArrayLike) -> float:
        if self.statistic == "chi2":
            return chi_square(warm, fresh)
        return total_variation(warm, fresh)

    def observe(
        self, tick: int, attribute: str, warm: ArrayLike, fresh: ArrayLike
    ) -> DriftCheck:
        """Record one warm-vs-fresh comparison and return the verdict."""
        check = DriftCheck(
            tick=tick,
            attribute=attribute,
            statistic=self.divergence(warm, fresh),
            threshold=self.threshold,
        )
        self.checks.append(check)
        return check
