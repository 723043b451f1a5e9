"""Server side of a collection round: mechanism-agnostic streaming ingestion.

:class:`CollectionServer` is a round-scoped wrapper around *any* registry
estimator (:func:`repro.api.make_estimator`): wire-format decoding and
round/attribute enforcement live here, while aggregation rides the
estimator's own ingest/merge/to_state machinery — memory stays O(state) no
matter how many users stream in, and shard servers for the same round
``merge`` exactly. Both wire transports route through one code path: the
columnar binary frames of :mod:`repro.protocol.frames` for bulk feeds, and
v1/v2 JSON lines (:mod:`repro.protocol.messages`) for the greppable form.

Mid-round ``estimate()`` is *incremental*: the server caches the last
posterior keyed on a fingerprint of the aggregation state, skips the solve
entirely when nothing new arrived, and — for the EM-backed families —
warm-starts the solver from the cached posterior
(:meth:`repro.api.EMConfig.run` ``x0``), so a small ingest delta costs a
handful of EM iterations instead of a cold solve from the uniform prior.
Those iterations themselves run against the structured channel operators
of :mod:`repro.engine.operators` (the wrapped estimators request them by
default), so a wave-mechanism round pays ``O(d)`` per iteration rather
than a dense ``O(d^2)`` matmul.

Solves that share a structured channel fuse: :func:`estimate_rounds`
stacks every EM-backed server with the same channel object, ``EMConfig``
and epsilon into one :meth:`repro.api.EMConfig.run_many` batch, each
column warm-started from its own server's cached posterior. The batched
solver is problem-major, so every fused column is bit-identical to the
same server solving alone — fusion changes the cost of a poll, never its
answer. :class:`repro.streaming.StreamingCollector` fuses its window
solves through the same :func:`solve_together`.

:class:`PlanServer` serves a whole :class:`~repro.tasks.plan.AnalysisPlan`
— one ``CollectionServer`` per planned attribute — off a single mixed
frame/JSONL feed, and emits the typed
:class:`~repro.tasks.results.AnalysisReport`.

:class:`SWServer` remains as a thin deprecation shim over
``CollectionServer`` for the original Square-Wave-only API.
"""

from __future__ import annotations

import contextlib
import json
import threading
import warnings
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.api.base import Estimator
from repro.api.config import DEFAULT_MAX_ITER, EMConfig
from repro.api.errors import EmptyAggregateError
from repro.api.registry import make_estimator
from repro.binning.cfo_binning import CFOBinning
from repro.core.pipeline import SWEstimator, WaveEstimator
from repro.engine.operators import ChannelOperator
from repro.protocol.codecs import codec_for_estimator
from repro.protocol.frames import (
    decode_any_feed,
    decode_frame_grouped,
    encode_frame,
)
from repro.protocol.messages import (
    DEFAULT_ATTR,
    FeedGroup,
    SWReport,
    decode_feed_grouped,
    encode_batch_v2,
)
from repro.utils.rng import RngLike

__all__ = [
    "CollectionServer",
    "EstimateFailure",
    "PlanServer",
    "SWServer",
    "estimate_rounds",
]

#: Uniform-mixing weight applied to a cached posterior before it warm-starts
#: EM — keeps every coordinate strictly positive (EM cannot move a zero), at
#: a perturbation far below the noise floor of any real round.
_WARM_START_MIX = 1e-6


def _copy_estimate(value: Any) -> Any:
    """Defensive copy of an estimate (ndarray, list of ndarrays, or scalar)."""
    if isinstance(value, np.ndarray):
        return value.copy()
    if isinstance(value, list):
        return [_copy_estimate(item) for item in value]
    return value


@dataclass(frozen=True)
class EstimateFailure:
    """One round's failed solve inside an :func:`estimate_rounds` batch.

    Carries the key it failed under and the original exception, so callers
    (the service's estimate endpoint, monitoring) can report per-round
    errors structurally instead of losing every other round's result to
    the first raise.
    """

    key: str
    error: Exception

    @property
    def message(self) -> str:
        return str(self.error)

    def to_dict(self) -> dict[str, str]:
        """JSON-serializable form for service responses and logs."""
        return {
            "key": self.key,
            "type": type(self.error).__name__,
            "message": str(self.error),
        }


def warm_startable(estimator: Estimator) -> bool:
    """EM-backed families whose ``estimate`` accepts ``x0=``."""
    if isinstance(estimator, WaveEstimator):
        return True
    return isinstance(estimator, CFOBinning) and estimator.em is not None


def _em_inputs(estimator: Estimator) -> tuple[Any, np.ndarray, EMConfig] | None:
    """``(channel, counts, config)`` an EM-backed estimator solves, else ``None``."""
    if isinstance(estimator, WaveEstimator):
        return estimator.channel, estimator._counts, estimator.config
    if isinstance(estimator, CFOBinning) and estimator.em is not None:
        return estimator.channel, estimator._chunk_acc, estimator.em
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


@contextlib.contextmanager
def _holding(locks: Iterable[threading.RLock]) -> Any:
    """Hold every distinct lock, taken in id order (as ``merge`` does)."""
    with contextlib.ExitStack() as stack:
        for lock in sorted({id(lock): lock for lock in locks}.values(), key=id):
            stack.enter_context(lock)
        yield


def _estimate_group(
    named: Sequence[tuple[str, "CollectionServer"]],
) -> dict[str, Any]:
    """Estimate servers of one fusion group under all their locks.

    Cache hits and empty rounds are answered per server; the rest solve
    together through :func:`solve_together`. Failures come back as
    :class:`EstimateFailure` values, never raised.
    """
    out: dict[str, Any] = {}
    pending: list[tuple[str, CollectionServer, str | None]] = []
    with _holding(server._lock for _, server in named):
        for name, server in named:
            try:
                hit, value = server._lookup()
            except Exception as exc:  # surfaced per key, not aborted mid-batch
                out[name] = EstimateFailure(key=name, error=exc)
                continue
            if hit:
                out[name] = value
            else:
                pending.append((name, server, value))
        try:
            estimates = solve_together(
                [server._estimator for _, server, _ in pending],
                [server._warm_posterior() for _, server, _ in pending],
            )
        except Exception as exc:
            for name, _, _ in pending:
                out[name] = EstimateFailure(key=name, error=exc)
        else:
            for (name, server, key), estimate in zip(pending, estimates, strict=True):
                server._remember(key, estimate)
                out[name] = estimate
    return out


def estimate_rounds(
    servers: Mapping[str, "CollectionServer"],
    *,
    on_error: str = "raise",
    backend: Any = None,
) -> dict[str, Any]:
    """Reconstruct several servers' estimates, fusing same-channel solves.

    The multi-attribute solve scheduler. Servers whose estimators share a
    structured channel object, ``EMConfig`` and epsilon (see
    :func:`fusion_groups`) are solved as one
    :meth:`~repro.api.EMConfig.run_many` batch: each member's lock is
    taken in id order, cache hits still skip the solve, and each column
    warm-starts from its own server's cached posterior. Every fused column
    is bit-identical to that server's solo :meth:`CollectionServer.estimate`.
    Servers that cannot fuse (dense channels, non-EM families) solve alone.
    The groups fan out across the compute backend's workers (``backend=`` —
    a :class:`~repro.engine.backend.ComputeBackend`, a spec string like
    ``"threaded:4"``, or ``None`` for the process-wide active backend).

    Every group runs to completion regardless of the others: one empty or
    broken round no longer aborts the whole batch. Failures surface per
    key — with ``on_error="return"`` the result maps each failed key to an
    :class:`EstimateFailure` (successes map to their estimates as usual);
    with the default ``on_error="raise"`` the first failed key's original
    exception (notably :class:`repro.EmptyAggregateError` from a
    still-empty round) is re-raised after the batch finishes, so the
    surviving rounds' posteriors are still cached for the retry.

    Returns ``{name: estimate_or_failure}`` in the mapping's iteration
    order. Servers must be distinct aggregation states — don't pass the
    same underlying estimator twice.
    """
    if on_error not in ("raise", "return"):
        raise ValueError(
            f"on_error must be 'raise' or 'return', got {on_error!r}"
        )
    from repro.engine.backend import resolve_backend

    named = list(servers.items())
    groups = [
        [named[i] for i in group]
        for group in fusion_groups([server.estimator for _, server in named])
    ]
    solved: dict[str, Any] = {}
    for part in resolve_backend(backend).map_ordered(_estimate_group, groups):
        solved.update(part)
    results = {name: solved[name] for name in servers}
    if on_error == "raise":
        for value in results.values():
            if isinstance(value, EstimateFailure):
                raise value.error
    return results


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
    incremental:
        Keep the last posterior (keyed on the aggregation-state
        fingerprint) so mid-round ``estimate()`` calls skip unchanged
        solves and warm-start EM after small deltas. ``False`` restores
        the always-cold behaviour (useful for benchmarking the
        difference).
    """

    def __init__(
        self,
        round_id: str,
        mechanism: str,
        epsilon: float,
        d: int | None = None,
        *,
        attr: str = DEFAULT_ATTR,
        incremental: bool = True,
        **kwargs,
    ) -> None:
        estimator = make_estimator(mechanism, epsilon, d, **kwargs)
        self._bind(round_id, estimator, attr, str(mechanism), incremental)

    def _bind(
        self,
        round_id: str,
        estimator: Estimator,
        attr: str,
        mechanism_name: str,
        incremental: bool,
    ) -> None:
        self.round_id = str(round_id)
        self.attr = str(attr)
        self.mechanism_name = mechanism_name
        self.incremental = bool(incremental)
        self._estimator = estimator
        self._codec = codec_for_estimator(estimator)
        self._cached: Any = None
        self._cached_key: str | None = None
        # Ingest, estimate, merge, and snapshot all cross this lock: a shard
        # worker folding reports in while another thread solves must never
        # interleave a half-applied batch into the fingerprint the posterior
        # cache is keyed on. Reentrant, because estimate() fans out through
        # backend pools whose map may run inline on this thread.
        self._lock = threading.RLock()

    @classmethod
    def for_estimator(
        cls,
        round_id: str,
        estimator: Estimator,
        *,
        attr: str = DEFAULT_ATTR,
        mechanism: str | None = None,
        incremental: bool = True,
    ) -> "CollectionServer":
        """Wrap an existing estimator (shared aggregation state) in a server."""
        server = cls.__new__(cls)
        CollectionServer._bind(
            server,
            round_id,
            estimator,
            attr,
            estimator.name if mechanism is None else str(mechanism),
            incremental,
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

    def rebind_estimator(self, estimator: Estimator) -> None:
        """Swap in a replacement aggregation state, keeping the posterior cache.

        The estimate tier of a sharded deployment folds shard snapshots
        into a freshly merged estimator each round; rebinding it here
        (instead of rebuilding the server) preserves the fingerprint-keyed
        posterior cache, so an unchanged merge skips the solve entirely and
        a small delta warm-starts EM from the previous posterior. The
        replacement must speak the same wire codec as the original.
        """
        codec = codec_for_estimator(estimator)
        if codec.name != self._codec.name:
            raise ValueError(
                f"cannot rebind {type(estimator).__name__} ({codec.name!r} "
                f"payloads) into a server expecting {self._codec.name!r}"
            )
        with self._lock:
            self._estimator = estimator

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

    def _ingest_groups(self, groups: dict[str, FeedGroup]) -> int:
        foreign = set(groups) - {self.attr}
        if foreign:
            raise ValueError(
                f"feed for attribute {sorted(foreign)[0]!r} sent to "
                f"attribute {self.attr!r}"
            )
        return self._ingest_group(groups[self.attr])

    def ingest_frame(self, data: bytes) -> int:
        """Add a binary frame; returns the number of reports ingested."""
        _, groups = decode_frame_grouped(data, expected_round=self.round_id)
        return self._ingest_groups(groups)

    def ingest_lines(self, payload: str) -> int:
        """Add a v1/v2 JSON-lines batch; returns the reports ingested."""
        _, groups = decode_feed_grouped(payload, expected_round=self.round_id)
        return self._ingest_groups(groups)

    def ingest_feed(self, data: bytes | str) -> int:
        """Add a feed of either transport (binary frame or JSON lines)."""
        _, groups = decode_any_feed(data, expected_round=self.round_id)
        return self._ingest_groups(groups)

    # -- estimation --------------------------------------------------------
    def _state_key(self) -> str:
        """Cheap fingerprint of the aggregation state the cache is keyed on.

        Serializing ``_state()`` is O(state) — negligible next to a solve —
        and content-based, so the cache cannot serve a stale posterior when
        the state changed without the report count changing (e.g. a caller
        ``reset()`` the shared estimator and re-ingested an equal-sized
        batch).
        """
        return json.dumps(self._estimator._state(), sort_keys=True)

    def estimate(self) -> Any:
        """Reconstruct from all reports so far (incremental mid-round).

        With ``incremental=True`` (the default) the solve is skipped when
        the aggregation state is unchanged since the last call, and
        EM-backed estimators warm-start from the cached posterior
        otherwise. Raises :class:`repro.EmptyAggregateError` naming the
        round and attribute while the round is still empty.
        """
        value = _estimate_group([(self.attr, self)])[self.attr]
        if isinstance(value, EstimateFailure):
            raise value.error
        return value

    def _lookup(self) -> tuple[bool, Any]:
        """``(True, cached estimate)`` on a cache hit, else ``(False, state key)``.

        Called under the lock; raises :class:`repro.EmptyAggregateError`
        while the round is empty.
        """
        if self._estimator.n_reports == 0:
            raise EmptyAggregateError(
                f"no reports ingested for round {self.round_id!r}, "
                f"attribute {self.attr!r}"
            )
        key = self._state_key() if self.incremental else None
        if self.incremental and key == self._cached_key:
            return True, _copy_estimate(self._cached)
        return False, key

    def _warm_posterior(self) -> np.ndarray | None:
        """The cached posterior the next solve warm-starts from, if any."""
        if self.incremental and isinstance(self._cached, np.ndarray):
            return self._cached
        return None

    def _remember(self, key: str | None, estimate: Any) -> None:
        """Cache a fresh solve's estimate under its state key."""
        if self.incremental:
            self._cached = _copy_estimate(estimate)
            self._cached_key = key

    # -- shard merge + serialization --------------------------------------
    def merge(self, other: "CollectionServer") -> "CollectionServer":
        """Fold another shard server's aggregation state into this round's."""
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
            self._cached = None
            self._cached_key = None
        return self

    def to_state(self) -> dict:
        """Serialize the round identity plus the aggregation state."""
        with self._lock:
            return {
                "class": "repro.protocol.server:CollectionServer",
                "round_id": self.round_id,
                "attr": self.attr,
                "mechanism": self.mechanism_name,
                "incremental": self.incremental,
                "estimator": self._estimator.to_state(),
            }

    @classmethod
    def from_state(cls, payload: dict) -> "CollectionServer":
        """Rebuild a shard server from :meth:`to_state` output."""
        estimator = Estimator.from_state(payload["estimator"])
        return cls.for_estimator(
            payload["round_id"],
            estimator,
            attr=payload.get("attr", DEFAULT_ATTR),
            mechanism=payload.get("mechanism"),
            incremental=payload.get("incremental", True),
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
    server, per-attribute ``estimate()`` is incremental, and
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
    incremental:
        Forwarded to every per-attribute :class:`CollectionServer`.
    """

    def __init__(
        self,
        plan,
        round_id: str,
        *,
        planned=None,
        incremental: bool = True,
    ) -> None:
        from repro.tasks.session import Session

        self._bind_session(Session(plan, planned=planned), round_id, incremental)

    def _bind_session(self, session, round_id: str, incremental: bool) -> None:
        self.session = session
        self.round_id = str(round_id)
        self.incremental = bool(incremental)
        self._servers = {
            name: CollectionServer.for_estimator(
                self.round_id,
                estimator,
                attr=name,
                mechanism=session.planned.choice_for(name).mechanism,
                incremental=incremental,
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
        """One attribute's reconstruction (incremental mid-round)."""
        return self.server(attr).estimate()

    def report(self, *, confidence: float | None = None, n_bootstrap: int = 100, rng: RngLike = None):
        """Answer every task in the plan from the state aggregated so far.

        Reconstructions route through each attribute's incremental server
        (cached posteriors are reused, EM warm-starts after deltas) via
        :func:`estimate_rounds`: attributes on one structured channel
        solve as a single fused batch, bit-identical to solving each
        alone, and the remaining groups run concurrently when the active
        compute backend has workers. The session turns the estimates into
        the typed :class:`~repro.tasks.results.AnalysisReport`. Raises
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
            server._cached = None
            server._cached_key = None
        return self

    def to_state(self) -> dict:
        """Serialize the round identity plus the whole session state."""
        return {
            "class": "repro.protocol.server:PlanServer",
            "round_id": self.round_id,
            "incremental": self.incremental,
            "session": self.session.to_state(),
        }

    @classmethod
    def from_state(cls, payload: dict) -> "PlanServer":
        """Rebuild a shard plan-server from :meth:`to_state` output."""
        from repro.tasks.session import Session

        server = cls.__new__(cls)
        server._bind_session(
            Session.from_state(payload["session"]),
            payload["round_id"],
            payload.get("incremental", True),
        )
        return server

    def __repr__(self) -> str:
        mechanisms = {name: s.mechanism_name for name, s in self._servers.items()}
        return (
            f"PlanServer(round_id={self.round_id!r}, mechanisms={mechanisms}, "
            f"n_reports={self.n_reports})"
        )


class SWServer(CollectionServer):
    """Deprecated Square-Wave-only server; use :class:`CollectionServer`.

    Kept as a thin shim so existing deployments keep working: the full
    pre-v2 API (v1 ``ingest_batch``, delegated EM views, ``to_state``
    layout) is preserved on top of the generic server — including its new
    incremental ``estimate()``.
    """

    def __init__(
        self,
        round_id: str,
        epsilon: float,
        d: int = 1024,
        *,
        b: float | None = None,
        postprocess: str = "ems",
        tol: float | None = None,
        max_iter: int = DEFAULT_MAX_ITER,
        config: EMConfig | None = None,
        attr: str = DEFAULT_ATTR,
    ) -> None:
        warnings.warn(
            "SWServer is deprecated; use CollectionServer(round_id, 'sw-ems', "
            "epsilon, d, ...) which serves every registered mechanism",
            DeprecationWarning,
            stacklevel=2,
        )
        if config is None:
            config = EMConfig(postprocess=postprocess, tol=tol, max_iter=max_iter)
        estimator = SWEstimator(epsilon, d, b=b, config=config)
        self._bind(round_id, estimator, attr, f"sw-{config.postprocess}", True)

    # -- pre-v2 delegated views -------------------------------------------
    @property
    def mechanism(self):
        return self._estimator.mechanism

    @property
    def config(self) -> EMConfig:
        return self._estimator.config

    @property
    def epsilon(self) -> float:
        return self._estimator.epsilon

    @property
    def d(self) -> int:
        return self._estimator.d

    @property
    def postprocess(self) -> str:
        return self._estimator.postprocess

    @property
    def tol(self) -> float:
        """Effective stopping tolerance (always a plain ``float``)."""
        return self._estimator.tol

    @property
    def max_iter(self) -> int:
        return self._estimator.max_iter

    @property
    def transition_matrix(self) -> np.ndarray:
        """The round's ``(d, d)`` channel matrix (shared, read-only)."""
        return self._estimator.transition_matrix

    @property
    def result_(self):
        return self._estimator.result_

    # -- pre-v2 ingestion API ---------------------------------------------
    def ingest(self, report: SWReport) -> None:
        """Add one v1 report to the round."""
        if report.round_id != self.round_id:
            raise ValueError(
                f"report for round {report.round_id!r} sent to round "
                f"{self.round_id!r}"
            )
        if report.attr != self.attr:
            raise ValueError(
                f"report for attribute {report.attr!r} sent to server for "
                f"attribute {self.attr!r}"
            )
        self._estimator.ingest(np.array([report.value]))

    def ingest_batch(self, payload: str) -> int:
        """Add a JSON-lines batch; returns the number of reports ingested."""
        return self.ingest_lines(payload)

    def ingest_values(self, values: np.ndarray) -> None:
        """Add already-decoded randomized values (simulation fast path)."""
        self._estimator.ingest(np.asarray(values, dtype=np.float64))

    # -- pre-v2 serialization layout --------------------------------------
    def to_state(self) -> dict:
        """Serialize the round identity plus the aggregation state."""
        return {
            "class": "repro.protocol.server:SWServer",
            "round_id": self.round_id,
            "attr": self.attr,
            "sw": self._estimator.to_state(),
        }

    @classmethod
    def from_state(cls, payload: dict) -> "SWServer":
        """Rebuild a shard server from :meth:`to_state` output."""
        inner = Estimator.from_state(payload["sw"])
        if not isinstance(inner, SWEstimator):
            raise ValueError("SWServer state must wrap an SWEstimator")
        server = cls(
            payload["round_id"],
            inner.epsilon,
            inner.d,
            b=inner.mechanism.b,
            config=inner.config,
            attr=payload.get("attr", DEFAULT_ATTR),
        )
        server._estimator = inner
        return server

    def __repr__(self) -> str:
        return (
            f"SWServer(round_id={self.round_id!r}, epsilon={self.epsilon}, "
            f"d={self.d}, postprocess={self.postprocess!r}, "
            f"n_reports={self.n_reports})"
        )
