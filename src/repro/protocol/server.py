"""Server side of a collection round: mechanism-agnostic streaming ingestion.

:class:`CollectionServer` is a round-scoped wrapper around *any* registry
estimator (:func:`repro.api.make_estimator`): wire-format decoding and
round/attribute enforcement live here, while aggregation rides the
estimator's own ingest/merge/to_state machinery — memory stays O(state) no
matter how many users stream in, and shard servers for the same round
``merge`` exactly. Both wire transports route through one code path: the
columnar binary frames of :mod:`repro.protocol.frames` for bulk feeds, and
v2 JSON lines (:mod:`repro.protocol.messages`) for the greppable form.

Mid-round ``estimate()`` reads through a :class:`PosteriorCache`: the last
estimate per name, keyed by a 16-byte BLAKE2b digest of the aggregation
state it was solved from (:func:`state_digest`). An unchanged state is a
hit and skips the solve; a changed one solves, and the EM-backed families
warm-start from the cached posterior (:meth:`repro.api.EMConfig.run`
``x0``), so a small ingest delta costs a handful of EM iterations instead
of a cold solve from the uniform prior. Those iterations themselves run
against the structured channel operators of :mod:`repro.engine.operators`
(the wrapped estimators request them by default), so a wave-mechanism
round pays ``O(d)`` per iteration rather than a dense ``O(d^2)`` matmul.

Solves that share a structured channel fuse: :func:`solve_cached` stacks
every EM-backed estimator with the same channel object, ``EMConfig`` and
epsilon into one :meth:`repro.api.EMConfig.run_many` batch
(:func:`fusion_groups`, :func:`solve_together`), each column warm-started
from its own cached posterior. The batched solver is problem-major, so
every fused column is bit-identical to the same estimator solving alone —
fusion changes the cost of a poll, never its answer. The servers
(:func:`estimate_rounds`), the service's merge tier
(:class:`repro.service.ShardedCollector`) and the streaming scheduler
(:class:`repro.streaming.StreamingCollector`) all solve through
:func:`solve_cached`, each with its own cache.

:class:`PlanServer` serves a whole :class:`~repro.tasks.plan.AnalysisPlan`
— one ``CollectionServer`` per planned attribute — off a single mixed
frame/JSONL feed, and emits the typed
:class:`~repro.tasks.results.AnalysisReport`.
"""

from __future__ import annotations

import contextlib
import hashlib
import pickle
import threading
from collections.abc import Hashable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.api.base import Estimator
from repro.api.config import EMConfig
from repro.api.errors import EmptyAggregateError
from repro.api.registry import make_estimator
from repro.core.pipeline import WaveEstimator
from repro.engine.operators import ChannelOperator
from repro.protocol.codecs import codec_for_estimator
from repro.protocol.frames import decode_any_feed, encode_frame
from repro.protocol.messages import DEFAULT_ATTR, FeedGroup, encode_batch_v2
from repro.utils.rng import RngLike

__all__ = [
    "CollectionServer",
    "EstimateFailure",
    "PlanServer",
    "estimate_rounds",
]

#: Uniform-mixing weight applied to a cached posterior before it warm-starts
#: EM — keeps every coordinate strictly positive (EM cannot move a zero), at
#: a perturbation far below the noise floor of any real round.
_WARM_START_MIX = 1e-6


def copy_estimate(value: Any) -> Any:
    """Defensive copy of an estimate (ndarray or scalar)."""
    if isinstance(value, np.ndarray):
        return value.copy()
    return value


@dataclass(frozen=True)
class EstimateFailure:
    """One key's failed solve inside a :func:`solve_cached` batch.

    Carries the key it failed under and the original exception, so the
    service's estimate endpoint reports per-attribute errors structurally
    instead of losing every other attribute's result to the first raise.
    """

    key: str
    error: Exception

    def to_dict(self) -> dict[str, str]:
        """JSON-serializable form for service responses and logs."""
        return {
            "key": self.key,
            "type": type(self.error).__name__,
            "message": str(self.error),
        }


def warm_startable(estimator: Estimator) -> bool:
    """EM-backed families whose ``estimate`` accepts ``x0=``: the wave family."""
    return isinstance(estimator, WaveEstimator)


def _em_inputs(estimator: Estimator) -> tuple[Any, np.ndarray, EMConfig] | None:
    """``(channel, counts, config)`` an EM-backed estimator solves, else ``None``."""
    if isinstance(estimator, WaveEstimator):
        return estimator.channel, estimator._counts, estimator.config
    return None


def _fusion_key(estimator: Estimator) -> tuple | None:
    """What a solve may share a batch on, or ``None`` if it solves alone.

    Only structured channels fuse: their batched columns are bit-identical
    to solo solves, while a dense gemm rounds differently from per-column
    products.
    """
    inputs = _em_inputs(estimator)
    if inputs is None:
        return None
    channel, _, config = inputs
    if not (isinstance(channel, ChannelOperator) and channel.structured):
        return None
    return (channel, config, estimator.epsilon)


def _warm_start(posterior: np.ndarray) -> np.ndarray:
    """A cached posterior nudged strictly positive for the next warm start."""
    return (1.0 - _WARM_START_MIX) * posterior + _WARM_START_MIX / posterior.size


def fusion_groups(estimators: Sequence[Estimator]) -> list[list[int]]:
    """Indices of ``estimators`` grouped into solves that may share a batch.

    Estimators on the same structured channel object with equal
    ``EMConfig`` and epsilon share a group; every other estimator is a
    group of its own. Groups keep first-appearance order.
    """
    groups: list[list[int]] = []
    by_key: dict[tuple, list[int]] = {}
    for index, estimator in enumerate(estimators):
        key = _fusion_key(estimator)
        if key is None:
            groups.append([index])
        elif key in by_key:
            by_key[key].append(index)
        else:
            by_key[key] = [index]
            groups.append(by_key[key])
    return groups


def solve_together(
    estimators: Sequence[Estimator],
    posteriors: Sequence[np.ndarray | None],
) -> list[Any]:
    """Solve one :func:`fusion_groups` group; returns each estimate in order.

    Two or more estimators sharing a fusion key run as one
    :meth:`~repro.api.EMConfig.run_many` batch whose column ``j``
    warm-starts from ``posteriors[j]`` (``None``: a cold column, started
    from exactly the uniform prior a solo cold solve uses); each
    estimator's ``result_`` receives its column. Anything else solves
    alone through its own ``estimate``, warm-started when it can be. Either
    way an estimate is bit-identical to the solo solve.
    """
    keys = {_fusion_key(estimator) for estimator in estimators}
    if len(estimators) < 2 or len(keys) != 1 or None in keys:
        return [
            estimator.estimate(x0=_warm_start(posterior))
            if posterior is not None and warm_startable(estimator)
            else estimator.estimate()
            for estimator, posterior in zip(estimators, posteriors, strict=True)
        ]
    ((channel, config, epsilon),) = keys
    counts = np.stack([_em_inputs(e)[1] for e in estimators], axis=1)
    x0 = None
    if any(posterior is not None for posterior in posteriors):
        # An all-ones column normalizes to exactly 1/d: the cold prior.
        x0 = np.stack(
            [
                np.ones(channel.d) if posterior is None else _warm_start(posterior)
                for posterior in posteriors
            ],
            axis=1,
        )
    batch = config.run_many(channel, counts, epsilon, validated=True, x0=x0)
    estimates = []
    for j, estimator in enumerate(estimators):
        estimator.result_ = batch.column(j)
        estimates.append(estimator.result_.estimate)
    return estimates


def state_digest(state: Any) -> bytes:
    """16-byte BLAKE2b digest of an aggregation-state payload.

    What a :class:`PosteriorCache` keys on. ``pickle`` writes each float as
    its bits, never as text, and keeps every distinction the payload's JSON
    form makes (``1`` from ``1.0``, ``-0.0`` from ``0.0``). Every
    ``_state()`` builds its dicts in one fixed key order, so equal states
    share a digest.
    """
    return hashlib.blake2b(pickle.dumps(state, protocol=5), digest_size=16).digest()


class PosteriorCache:
    """The last estimate per name, keyed by the digest of its state.

    Maps each name to a ``(state digest, estimate)`` pair, which
    :func:`solve_cached` reads and writes. It takes no lock: every owner
    already serializes the calls that reach it — a :class:`CollectionServer`
    under its lock, the service's merge tier under its merge lock, the
    streaming scheduler through its one caller.
    """

    def __init__(self) -> None:
        self._entries: dict[Hashable, tuple[bytes, Any]] = {}

    def put(self, name: Hashable, digest: bytes, estimate: Any) -> None:
        """Cache a copy of ``estimate`` as ``name``'s answer for ``digest``."""
        self._entries[name] = (digest, copy_estimate(estimate))

    def clear(self) -> None:
        """Forget every entry, so each name's next solve is cold."""
        self._entries.clear()


@dataclass(frozen=True)
class CachedSolve:
    """One member's answer from :func:`solve_cached`.

    ``error`` replaces ``estimate`` when the state was empty or its solve
    raised. ``hit`` means the estimate came from the cache, ``warm`` that
    the solve started from the cached posterior, and ``batch`` lists the
    positions of the members solved in the same call.
    """

    estimate: Any = None
    error: Exception | None = None
    hit: bool = False
    warm: bool = False
    batch: tuple[int, ...] = ()


def _empty_error(name: Hashable) -> EmptyAggregateError:
    """The error for a still-empty state; ``(round, attr)`` names both."""
    if isinstance(name, tuple):
        round_id, attr = name
        where = f"round {round_id!r}, attribute {attr!r}"
    else:
        where = f"attribute {name!r}"
    return EmptyAggregateError(f"no reports ingested for {where}")


def solve_cached(
    members: Sequence[tuple[PosteriorCache, Hashable, Estimator, bytes]],
) -> list[CachedSolve]:
    """Answer each ``(cache, name, estimator, digest)`` member, in order.

    ``digest`` is the :func:`state_digest` of the state the estimator
    solves. A member whose digest equals its cache entry's gets a copy of
    the cached estimate, and an empty estimator gets a
    :class:`repro.EmptyAggregateError`. The rest are grouped by
    :func:`fusion_groups` and solved by :func:`solve_together`, each
    warm-started from its cached posterior when that is an array and its
    family can warm start; each fresh estimate is cached under its digest.
    A group whose solve raises gives each of its members that error, and
    the other groups still solve. The caller serializes access to every
    cache named.
    """
    out = [CachedSolve()] * len(members)
    pending: list[tuple[int, np.ndarray | None]] = []
    for i, (cache, name, estimator, digest) in enumerate(members):
        entry = cache._entries.get(name)
        if estimator.n_reports <= 0:
            out[i] = CachedSolve(error=_empty_error(name))
        elif entry is not None and entry[0] == digest:
            out[i] = CachedSolve(estimate=copy_estimate(entry[1]), hit=True)
        else:
            posterior = None if entry is None else entry[1]
            warm = isinstance(posterior, np.ndarray) and warm_startable(estimator)
            pending.append((i, posterior if warm else None))
    for group in fusion_groups([members[i][2] for i, _ in pending]):
        batch = tuple(pending[j][0] for j in group)
        posteriors = [pending[j][1] for j in group]
        try:
            estimates = solve_together([members[i][2] for i in batch], posteriors)
        except Exception as exc:  # surfaced per member, not aborted mid-batch
            for i in batch:
                out[i] = CachedSolve(error=exc)
            continue
        for i, posterior, estimate in zip(batch, posteriors, estimates, strict=True):
            cache, name, _, digest = members[i]
            cache.put(name, digest, estimate)
            out[i] = CachedSolve(
                estimate=estimate, warm=posterior is not None, batch=batch
            )
    return out


@contextlib.contextmanager
def _holding(locks: Iterable[threading.Lock]) -> Any:
    """Hold every distinct lock, taken in id order (as ``merge`` does)."""
    with contextlib.ExitStack() as stack:
        for lock in sorted({id(lock): lock for lock in locks}.values(), key=id):
            stack.enter_context(lock)
        yield


def estimate_rounds(servers: Mapping[str, "CollectionServer"]) -> dict[str, Any]:
    """Reconstruct several servers' estimates, fusing same-channel solves.

    The multi-attribute solve scheduler. Every server's lock is taken, in
    id order, and the servers are answered through :func:`solve_cached`,
    each from its own :class:`PosteriorCache`: unchanged states skip the
    solve, and servers whose estimators share a structured channel object,
    ``EMConfig`` and epsilon (see :func:`fusion_groups`) solve as one
    :meth:`~repro.api.EMConfig.run_many` batch, each column warm-started
    from its own server's cached posterior. Every fused column is
    bit-identical to that server's solo :meth:`CollectionServer.estimate`.
    Servers that cannot fuse (dense channels, non-EM families) solve alone.
    The groups solve one after another, in the order of their first member.

    Every group runs to completion regardless of the others: one empty or
    broken round does not abort the whole batch. The first failed key's
    original exception (notably :class:`repro.EmptyAggregateError` from a
    still-empty round) is re-raised after the batch finishes, so the
    surviving rounds' posteriors are still cached for the retry.

    Returns ``{name: estimate}`` in the mapping's iteration order. Servers
    must be distinct aggregation states — don't pass the same underlying
    estimator twice.
    """
    named = list(servers.items())
    with _holding(server._lock for _, server in named):
        solves = solve_cached(
            [
                (
                    server._posteriors,
                    (server.round_id, server.attr),
                    server._estimator,
                    state_digest(server._estimator._state()),
                )
                for _, server in named
            ]
        )
    for solved in solves:
        if solved.error is not None:
            raise solved.error
    return {name: solved.estimate for (name, _), solved in zip(named, solves, strict=True)}


class CollectionServer:
    """Aggregates any mechanism's reports for one round and reconstructs.

    Parameters
    ----------
    round_id:
        Identifier all of the round's feeds must carry.
    mechanism:
        Registry estimator name (see ``repro.api.list_estimators``).
    epsilon, d, kwargs:
        Forwarded to :func:`repro.api.make_estimator`.
    attr:
        Attribute id this single-attribute round serves; feeds stamped with
        any other attribute are rejected, so a mixed multi-attribute
        session feed fails loudly instead of being silently folded in.
    """

    def __init__(
        self,
        round_id: str,
        mechanism: str,
        epsilon: float,
        d: int | None = None,
        *,
        attr: str = DEFAULT_ATTR,
        **kwargs,
    ) -> None:
        estimator = make_estimator(mechanism, epsilon, d, **kwargs)
        self._bind(round_id, estimator, attr, str(mechanism))

    def _bind(
        self,
        round_id: str,
        estimator: Estimator,
        attr: str,
        mechanism_name: str,
    ) -> None:
        self.round_id = str(round_id)
        self.attr = str(attr)
        self.mechanism_name = mechanism_name
        self._estimator = estimator
        self._codec = codec_for_estimator(estimator)
        self._posteriors = PosteriorCache()
        # Ingest, estimate, merge, and snapshot all cross this lock: a fold
        # landing while another thread solves must never interleave a
        # half-applied batch into the state the posterior cache's digest
        # is taken of.
        self._lock = threading.Lock()

    @classmethod
    def for_estimator(
        cls,
        round_id: str,
        estimator: Estimator,
        *,
        attr: str = DEFAULT_ATTR,
        mechanism: str | None = None,
    ) -> "CollectionServer":
        """Wrap an existing estimator (shared aggregation state) in a server."""
        server = cls.__new__(cls)
        CollectionServer._bind(
            server,
            round_id,
            estimator,
            attr,
            estimator.name if mechanism is None else str(mechanism),
        )
        return server

    # -- delegated views ---------------------------------------------------
    @property
    def estimator(self) -> Estimator:
        """The underlying streaming estimator (shared aggregation state)."""
        return self._estimator

    @property
    def codec(self):
        """The payload codec this round's reports travel under."""
        return self._codec

    @property
    def n_reports(self) -> int:
        """Reports ingested so far."""
        return self._estimator.n_reports

    # -- client-side conveniences (simulation) -----------------------------
    def privatize(self, values: np.ndarray, rng: RngLike = None) -> Any:
        """Randomize raw values with the round's mechanism (client side)."""
        return self._estimator.privatize(values, rng=rng)

    def encode(self, reports: Any, *, format: str = "frame") -> bytes | str:
        """Encode one report batch as this round's wire feed.

        ``format="frame"`` produces the columnar binary form,
        ``format="jsonl"`` the v2 JSON-lines form.
        """
        if format == "frame":
            return encode_frame(self.round_id, reports, self._codec, attr=self.attr)
        if format == "jsonl":
            return encode_batch_v2(self.round_id, reports, self._codec, attr=self.attr)
        raise ValueError(f"format must be 'frame' or 'jsonl', got {format!r}")

    # -- ingestion ---------------------------------------------------------
    def ingest_reports(self, reports: Any) -> int:
        """Add one already-decoded report batch; returns the report count."""
        n = self._codec.n_reports(reports)
        with self._lock:
            self._estimator.ingest(reports)
        return n

    def _ingest_group(self, group: FeedGroup) -> int:
        if group.mechanism != self._codec.name:
            raise ValueError(
                f"feed for attribute {self.attr!r} carries "
                f"{group.mechanism!r} payloads, server expects "
                f"{self._codec.name!r}"
            )
        with self._lock:
            self._estimator.ingest(group.reports)
        return group.n

    def ingest_feed(self, data: bytes | str) -> int:
        """Add a feed of either transport (binary frame or JSON lines)."""
        _, groups = decode_any_feed(data, expected_round=self.round_id)
        foreign = set(groups) - {self.attr}
        if foreign:
            raise ValueError(
                f"feed for attribute {sorted(foreign)[0]!r} sent to "
                f"attribute {self.attr!r}"
            )
        return self._ingest_group(groups[self.attr])

    # -- estimation --------------------------------------------------------
    def estimate(self) -> Any:
        """Reconstruct from all reports so far (cached mid-round).

        The solve is skipped when the aggregation state is unchanged since
        the last call, and EM-backed estimators warm-start from the cached
        posterior otherwise (see :func:`estimate_rounds`). Raises
        :class:`repro.EmptyAggregateError` naming the round and attribute
        while the round is still empty.
        """
        return estimate_rounds({self.attr: self})[self.attr]

    # -- shard merge + serialization --------------------------------------
    def merge(self, other: "CollectionServer") -> "CollectionServer":
        """Fold another shard server's aggregation state into this round's.

        A server merged into itself would count its reports twice, so
        ``other is self`` is rejected before any lock is taken.
        """
        if other is self:
            raise ValueError("cannot merge a server into itself")
        if type(other) is not type(self):
            raise TypeError(
                f"cannot merge {type(other).__name__} into {type(self).__name__}"
            )
        if other.round_id != self.round_id:
            raise ValueError(
                f"cannot merge round {other.round_id!r} into round "
                f"{self.round_id!r}"
            )
        if other.attr != self.attr:
            raise ValueError(
                f"cannot merge attribute {other.attr!r} into attribute "
                f"{self.attr!r}"
            )
        # Both states cross the fold; take the locks in id order so two
        # threads merging opposite directions cannot deadlock.
        first, second = sorted((self._lock, other._lock), key=id)
        with first, second:
            self._estimator.merge(other._estimator)
            self._posteriors.clear()
        return self

    def to_state(self) -> dict:
        """Serialize the round identity plus the aggregation state."""
        with self._lock:
            return {
                "class": "repro.protocol.server:CollectionServer",
                "round_id": self.round_id,
                "attr": self.attr,
                "mechanism": self.mechanism_name,
                "estimator": self._estimator.to_state(),
            }

    @classmethod
    def from_state(cls, payload: dict) -> "CollectionServer":
        """Rebuild a shard server from :meth:`to_state` output.

        An ``"incremental"`` key, which older checkpoints carry, is ignored.
        """
        estimator = Estimator.from_state(payload["estimator"])
        return cls.for_estimator(
            payload["round_id"],
            estimator,
            attr=payload.get("attr", DEFAULT_ATTR),
            mechanism=payload.get("mechanism"),
        )

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(round_id={self.round_id!r}, "
            f"mechanism={self.mechanism_name!r}, attr={self.attr!r}, "
            f"codec={self._codec.name!r}, n_reports={self.n_reports})"
        )


class PlanServer:
    """Serves a whole analysis plan off one mixed multi-attribute feed.

    One :class:`CollectionServer` per planned attribute, all sharing the
    underlying :class:`~repro.tasks.session.Session` aggregation state —
    frames and JSON-lines feeds route each block to the right attribute's
    server, per-attribute ``estimate()`` is cached mid-round, and
    :meth:`report` emits the typed
    :class:`~repro.tasks.results.AnalysisReport` in real-world units.

    Parameters
    ----------
    plan:
        The declarative :class:`~repro.tasks.plan.AnalysisPlan` to serve.
    round_id:
        Identifier all of the round's feeds must carry.
    planned:
        Optional pre-resolved :class:`~repro.tasks.planner.PlannedAnalysis`
        (plan once, fan out to shard servers).
    """

    def __init__(self, plan, round_id: str, *, planned=None) -> None:
        from repro.tasks.session import Session

        self._bind_session(Session(plan, planned=planned), round_id)

    def _bind_session(self, session, round_id: str) -> None:
        self.session = session
        self.round_id = str(round_id)
        self._servers = {
            name: CollectionServer.for_estimator(
                self.round_id,
                estimator,
                attr=name,
                mechanism=session.planned.choice_for(name).mechanism,
            )
            for name, estimator in session.estimators.items()
        }

    # -- introspection -----------------------------------------------------
    @property
    def plan(self):
        return self.session.plan

    @property
    def attributes(self) -> tuple[str, ...]:
        return self.session.attributes

    @property
    def n_reports(self) -> dict[str, int]:
        """Reports ingested so far, per attribute."""
        return self.session.n_reports

    def server(self, attr: str) -> CollectionServer:
        """The per-attribute collection server (shared aggregation state)."""
        try:
            return self._servers[attr]
        except KeyError:
            raise ValueError(
                f"plan declares no attribute {attr!r}; "
                f"available: {sorted(self._servers)}"
            ) from None

    # -- ingestion ---------------------------------------------------------
    def ingest_feed(self, data: bytes | str) -> int:
        """Route one mixed frame/JSONL feed; returns the reports ingested.

        Delegates to :meth:`repro.tasks.session.Session.ingest_feed` (the
        per-attribute servers share the session's estimators), inheriting
        its all-or-nothing guarantee: a feed rejected for any block leaves
        no aggregator changed.
        """
        return self.session.ingest_feed(data, round_id=self.round_id)

    # -- estimation --------------------------------------------------------
    def estimate(self, attr: str) -> Any:
        """One attribute's reconstruction (cached mid-round)."""
        return self.server(attr).estimate()

    def report(self, *, confidence: float | None = None, n_bootstrap: int = 100, rng: RngLike = None):
        """Answer every task in the plan from the state aggregated so far.

        Reconstructions route through each attribute's server (cached
        posteriors are reused, EM warm-starts after deltas) via
        :func:`estimate_rounds`: attributes on one structured channel
        solve as a single fused batch, bit-identical to solving each
        alone, and the remaining groups solve one after another. The
        session turns the estimates into the typed
        :class:`~repro.tasks.results.AnalysisReport`. Raises
        :class:`repro.EmptyAggregateError` naming the round and the
        still-empty attribute if any aggregator has no reports yet.
        """
        try:
            estimates = estimate_rounds(self._servers)
            return self.session.results(
                confidence=confidence,
                n_bootstrap=n_bootstrap,
                rng=rng,
                precomputed=estimates,
            )
        except EmptyAggregateError as exc:
            raise EmptyAggregateError(f"round {self.round_id!r}: {exc}") from exc

    # -- shard merge + serialization --------------------------------------
    def merge(self, other: "PlanServer") -> "PlanServer":
        """Fold another shard plan-server's state into this round's."""
        if not isinstance(other, PlanServer):
            raise TypeError(f"cannot merge {type(other).__name__} into PlanServer")
        if other.round_id != self.round_id:
            raise ValueError(
                f"cannot merge round {other.round_id!r} into round "
                f"{self.round_id!r}"
            )
        self.session.merge(other.session)
        for server in self._servers.values():
            server._posteriors.clear()
        return self

    def to_state(self) -> dict:
        """Serialize the round identity plus the whole session state."""
        return {
            "class": "repro.protocol.server:PlanServer",
            "round_id": self.round_id,
            "session": self.session.to_state(),
        }

    @classmethod
    def from_state(cls, payload: dict) -> "PlanServer":
        """Rebuild a shard plan-server from :meth:`to_state` output."""
        from repro.tasks.session import Session

        server = cls.__new__(cls)
        server._bind_session(
            Session.from_state(payload["session"]), payload["round_id"]
        )
        return server

    def __repr__(self) -> str:
        mechanisms = {name: s.mechanism_name for name, s in self._servers.items()}
        return (
            f"PlanServer(round_id={self.round_id!r}, mechanisms={mechanisms}, "
            f"n_reports={self.n_reports})"
        )
