"""Deterministic fault injection and retry policy for the service tier.

Fault tolerance that is not *testable* is a hope, not a property. This
module gives the test suite (and the chaos-smoke CI job) a seeded,
deterministic way to break the service at its real seams:

* :class:`FaultPlan` — a set of :class:`Fault` rules attached to named
  injection **sites** the production code consults at its critical
  points (``journal.append.before``/``.after``, ``journal.truncate``,
  ``meta.commit.before``/``.after``, ``checkpoint.truncate``,
  ``http.drop``, ``http.delay``). Each rule
  fires on an exact hit count (``at=``), a cadence (``every=``), or a
  seeded coin (``prob=``); the coin is a pure function of ``(seed, site,
  hit index)``, so a failing chaos run replays bit-identically from its
  seed — no hidden RNG state, no flaky repro.
* :exc:`InjectedCrash` — raised by crash sites. It derives from
  ``BaseException`` deliberately: the service's broad ``except
  Exception`` error accounting must *not* be able to absorb a simulated
  process death, exactly as a real ``kill -9`` would not be absorbed.
  Wherever it fires, the answer is a restart and journal recovery.
* :class:`RetryPolicy` — capped exponential backoff with deterministic
  jitter and a bounded attempt budget. This replaces the loadgen's old
  hand-rolled linear sleep; with idempotency keys attached by the
  uploader, a timeout-then-retry through this policy is exactly-once end
  to end.

Nothing here imports the rest of the service: the plan is plumbed in via
:class:`~repro.service.config.ServiceConfig`, and a ``None`` plan costs
one attribute load per site check on the hot path.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from hashlib import blake2b
from typing import Any

__all__ = [
    "DEFAULT_RETRY_POLICY",
    "FAULT_SITES",
    "Fault",
    "FaultPlan",
    "InjectedCrash",
    "InjectedFault",
    "RetryPolicy",
]

#: The injection sites the production code consults. Kept as one tuple so
#: tests (and ``Fault`` validation) can't drift from the seams that exist.
FAULT_SITES = (
    "journal.append.before",  # crash before a shard journal record is written
    "journal.append.after",  # crash after the record, before the meta commit
    "journal.truncate",  # write only part of a record, then crash (torn tail)
    "meta.commit.before",  # crash before the upload's commit record
    "meta.commit.after",  # crash after commit, before fold/ack
    "checkpoint.truncate",  # write part of a checkpoint slot, then crash the writer
    "http.drop",  # close the connection instead of writing the response
    "http.delay",  # delay the response by Fault.delay seconds
)


class InjectedFault(BaseException):
    """Base of all injected faults.

    A ``BaseException`` on purpose: the service counts and survives real
    ``Exception`` failures, and a simulated crash must punch through that
    accounting the way ``SIGKILL`` punches through a real deployment.
    """


class InjectedCrash(InjectedFault):
    """A simulated process/thread death at an injection site."""

    def __init__(self, site: str, hit: int) -> None:
        super().__init__(f"injected crash at {site!r} (hit {hit})")
        self.site = site
        self.hit = hit


def _unit(seed: int, site: str, hit: int) -> float:
    """Deterministic uniform in [0, 1) from (seed, site, hit)."""
    h = blake2b(digest_size=8)
    h.update(str(int(seed)).encode("ascii"))
    h.update(site.encode("utf-8"))
    h.update(str(int(hit)).encode("ascii"))
    return int.from_bytes(h.digest(), "little") / 2.0**64


@dataclass(frozen=True)
class Fault:
    """One injection rule bound to a named site.

    Exactly one trigger must be set: ``at`` fires on the ``at``-th hit of
    the site (1-based), ``every`` fires on every ``every``-th hit, and
    ``prob`` flips the seeded per-hit coin. ``times`` caps the total
    number of firings (``None`` = unlimited); ``delay`` is the injected
    latency for ``http.delay``; ``keep_bytes`` is how much of the record
    a ``journal.truncate`` or ``checkpoint.truncate`` firing actually
    writes before crashing (``None`` = half the record).
    """

    site: str
    at: int | None = None
    every: int | None = None
    prob: float | None = None
    times: int | None = 1
    delay: float = 0.0
    keep_bytes: int | None = None

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise ValueError(
                f"unknown fault site {self.site!r}; known sites: {FAULT_SITES}"
            )
        triggers = sum(x is not None for x in (self.at, self.every, self.prob))
        if triggers != 1:
            raise ValueError(
                "exactly one of at=/every=/prob= must be set, "
                f"got {triggers} on site {self.site!r}"
            )
        if self.at is not None and self.at < 1:
            raise ValueError(f"at must be >= 1, got {self.at}")
        if self.every is not None and self.every < 1:
            raise ValueError(f"every must be >= 1, got {self.every}")
        if self.prob is not None and not 0.0 <= self.prob <= 1.0:
            raise ValueError(f"prob must be in [0, 1], got {self.prob}")
        if self.times is not None and self.times < 1:
            raise ValueError(f"times must be >= 1, got {self.times}")
        if self.delay < 0.0:
            raise ValueError(f"delay must be >= 0, got {self.delay}")
        if self.keep_bytes is not None and self.keep_bytes < 0:
            raise ValueError(f"keep_bytes must be >= 0, got {self.keep_bytes}")

    def _matches(self, seed: int, hit: int, fired: int) -> bool:
        if self.times is not None and fired >= self.times:
            return False
        if self.at is not None:
            return hit == self.at
        if self.every is not None:
            return hit % self.every == 0
        assert self.prob is not None
        return _unit(seed, self.site, hit) < self.prob


class FaultPlan:
    """A seeded, deterministic set of faults over the injection sites.

    Thread-safe: sites are hit from the admitting thread (the event loop
    under HTTP) and from the checkpoint writer. Hit
    counters are per-site and monotonically increase; given the same
    sequence of site hits, the same plan fires the same faults — the
    whole point of seeding.
    """

    def __init__(self, faults: Any = (), *, seed: int = 0) -> None:
        self.faults = tuple(faults)
        for fault in self.faults:
            if not isinstance(fault, Fault):
                raise TypeError(f"faults must be Fault instances, got {fault!r}")
        self.seed = int(seed)
        self._lock = threading.Lock()
        self._hits: dict[str, int] = {}
        self._fired: dict[int, int] = {}
        self._log: list[tuple[str, int]] = []

    def __repr__(self) -> str:
        return (
            f"FaultPlan(seed={self.seed}, faults={len(self.faults)}, "
            f"fired={len(self._log)})"
        )

    # -- site protocol -----------------------------------------------------
    def check(self, site: str) -> Fault | None:
        """Record one hit of ``site``; return the fault that fires, if any."""
        if site not in FAULT_SITES:
            raise ValueError(f"unknown fault site {site!r}")
        with self._lock:
            hit = self._hits.get(site, 0) + 1
            self._hits[site] = hit
            for index, fault in enumerate(self.faults):
                if fault.site != site:
                    continue
                if fault._matches(self.seed, hit, self._fired.get(index, 0)):
                    self._fired[index] = self._fired.get(index, 0) + 1
                    self._log.append((site, hit))
                    return fault
            return None

    def crash(self, site: str) -> None:
        """Raise :exc:`InjectedCrash` if a fault fires at ``site``."""
        fault = self.check(site)
        if fault is not None:
            raise InjectedCrash(site, self._hits[site])

    def fires(self, site: str) -> bool:
        """Whether a fault fires at this hit of ``site``."""
        return self.check(site) is not None

    def delay_for(self, site: str) -> float:
        """Injected delay (seconds) for this hit of ``site``; 0.0 if none."""
        fault = self.check(site)
        return 0.0 if fault is None else fault.delay

    def truncation(self, site: str, full_length: int) -> int | None:
        """Bytes to keep of a torn write, or ``None`` when no fault fires."""
        fault = self.check(site)
        if fault is None:
            return None
        keep = fault.keep_bytes if fault.keep_bytes is not None else full_length // 2
        return min(keep, full_length)

    # -- observability -----------------------------------------------------
    @property
    def fired(self) -> tuple[tuple[str, int], ...]:
        """``(site, hit)`` pairs of every fault fired so far, in order."""
        with self._lock:
            return tuple(self._log)

    def hits(self) -> dict[str, int]:
        """Hit counters per site (including hits that fired nothing)."""
        with self._lock:
            return dict(self._hits)


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with deterministic jitter.

    ``delay(attempt)`` for attempt 0, 1, 2, ... is
    ``min(max_delay, base_delay * multiplier**attempt)`` shrunk by up to
    ``jitter * 100`` percent, where the shrink factor is a pure function
    of ``(seed, attempt)`` — two runs with the same seed back off on the
    same schedule, so a chaos test that depends on retry timing replays
    exactly.

    ``attempts`` is the total budget — the number of tries, not retries.
    """

    attempts: int = 8
    base_delay: float = 0.01
    max_delay: float = 2.0
    multiplier: float = 2.0
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts}")
        if self.base_delay < 0.0:
            raise ValueError(f"base_delay must be >= 0, got {self.base_delay}")
        if self.max_delay < self.base_delay:
            raise ValueError(
                f"max_delay ({self.max_delay}) must be >= base_delay "
                f"({self.base_delay})"
            )
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    def delay(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (0-based), in seconds."""
        if attempt < 0:
            raise ValueError(f"attempt must be >= 0, got {attempt}")
        raw = self.base_delay * self.multiplier ** min(attempt, 63)
        capped = min(self.max_delay, raw)
        return capped * (1.0 - self.jitter * _unit(self.seed, "retry", attempt))

    def schedule(self) -> list[float]:
        """The full deterministic backoff schedule (one entry per retry)."""
        return [self.delay(attempt) for attempt in range(self.attempts - 1)]


# Default policy the loadgen uses when none is supplied: generous budget,
# fast initial retry (a dropped connection reconnects in milliseconds),
# capped so a restarting service is probed about once a second.
DEFAULT_RETRY_POLICY = RetryPolicy(
    attempts=200, base_delay=0.004, max_delay=1.0, multiplier=2.0, jitter=0.5
)
