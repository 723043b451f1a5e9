"""Canonical estimator contract: the ``Mechanism`` protocol + ``Estimator`` ABC.

The paper's pipeline splits across a trust boundary — clients randomize,
an untrusted server aggregates — and every method in this package follows
the same lifecycle, made explicit here:

1. ``privatize(values, rng)`` — client side; raw values never leave it.
2. ``ingest(reports)`` / ``partial_fit(values, rng)`` — server side,
   streaming: folds a batch into O(state) sufficient statistics (count
   vectors, oracle sketches, tree-level accumulators).
3. ``estimate()`` — reconstruct from everything ingested so far; callable
   mid-round at any time.
4. ``aggregate(reports)`` / ``fit(values, rng)`` — one-shot conveniences
   (reset, ingest, estimate).

For distributed collection, shard-local state travels through
``merge(other)`` and ``to_state()`` / ``from_state()`` — two servers can
aggregate disjoint user populations and combine exactly, because every
concrete estimator keeps *linear* sufficient statistics.
"""

from __future__ import annotations

import abc
import importlib
from typing import Any, Protocol, runtime_checkable

from repro.utils.rng import RngLike
from repro.utils.typing import ArrayLike, FloatArray

__all__ = [
    "Mechanism",
    "Estimator",
    "mechanism_spec",
    "mechanism_from_spec",
]

#: Marker key identifying an embedded mechanism spec inside estimator params.
_MECHANISM_KEY = "__mechanism__"


@runtime_checkable
class Mechanism(Protocol):
    """Client-side randomizer contract.

    A mechanism owns the privacy guarantee: ``privatize`` maps raw values to
    eps-LDP reports, ``bucketize_reports`` turns reports into an output
    histogram, and ``transition_matrix`` gives the exact report distribution
    per input bucket (columns sum to 1) for likelihood-based reconstruction.
    ``SquareWave``, ``DiscreteSquareWave``, and ``GeneralWave`` all conform
    structurally — no inheritance needed.
    """

    epsilon: float

    def privatize(self, values: ArrayLike, rng: RngLike = None) -> Any: ...

    def bucketize_reports(self, reports: Any, *args: Any) -> FloatArray: ...

    def transition_matrix(self, *args: Any) -> FloatArray: ...

    def _params(self) -> dict[str, Any]: ...  # constructor kwargs, for state files


def _class_path(obj: Any) -> str:
    cls = type(obj) if not isinstance(obj, type) else obj
    return f"{cls.__module__}:{cls.__qualname__}"


def _import_class(path: str) -> type[Any]:
    module_name, _, qualname = path.partition(":")
    obj: Any = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


def mechanism_spec(mechanism: Any) -> dict[str, Any]:
    """JSON-serializable description of a mechanism (class path + params)."""
    return {
        _MECHANISM_KEY: True,
        "class": _class_path(mechanism),
        "params": mechanism._params(),
    }


#: Methods a class must expose to be instantiated from a mechanism spec.
_MECHANISM_METHODS = ("privatize", "bucketize_reports", "transition_matrix", "_params")


def mechanism_from_spec(spec: dict[str, Any]) -> Any:
    """Rebuild a mechanism from :func:`mechanism_spec` output.

    The named class must structurally conform to :class:`Mechanism`;
    arbitrary classes are refused, so a state payload cannot be used to
    instantiate unrelated code. (State payloads should still only be loaded
    from trusted shards — importing a module runs its top-level code.)
    """
    cls = _import_class(spec["class"])
    if not isinstance(cls, type) or not all(
        callable(getattr(cls, method, None)) for method in _MECHANISM_METHODS
    ):
        raise ValueError(f"{spec['class']} is not a Mechanism class")
    return cls(**spec["params"])


def _is_mechanism_spec(value: Any) -> bool:
    return isinstance(value, dict) and value.get(_MECHANISM_KEY) is True


class Estimator(abc.ABC):
    """Abstract base class for every estimator in the package.

    Concrete subclasses implement the streaming primitives (``privatize``,
    ``ingest``, ``estimate``, ``reset``) plus the merge/serialization hooks
    (``_merge_state``, ``_params``, ``_state``, ``_load_state``); the
    lifecycle conveniences (``partial_fit``, ``aggregate``, ``fit``,
    ``merge``, ``to_state``/``from_state``) are derived here.
    """

    #: Registry/reporting identity; subclasses override (possibly per instance).
    name: str = "estimator"

    #: What ``estimate()`` returns: ``"distribution"`` (probability
    #: histogram), ``"leaf-signed"`` (unbiased, possibly-negative leaves),
    #: ``"frequency"`` (unbiased signed categorical frequencies), or
    #: ``"scalar"`` (a single statistic).
    kind: str = "distribution"

    #: Whether ``ingest``/``partial_fit`` accumulate O(state) sufficient
    #: statistics (all built-in estimators do).
    streaming: bool = True

    #: Whether ``merge(other)`` combines two shards exactly.
    mergeable: bool = True

    #: Whether the aggregation state is closed under the sanctioned window
    #: arithmetic (``repro.api.subtract_state``): state payloads must be
    #: linear in the ingested reports, so subtracting a previously-merged
    #: shard yields the state of the collection without it. True for every
    #: built-in family — all keep linear sufficient statistics; set to
    #: ``False`` for states with nonlinear components (min/max, medians,
    #: collision-dependent sketches). Window states check it on their
    #: template.
    state_arithmetic: bool = True

    #: Name of the payload codec (:mod:`repro.protocol.codecs`) this
    #: estimator's reports travel under on the wire, or ``None`` if the
    #: reports have no wire form (shard state travels via ``to_state()``).
    #: May be a property where the payload type depends on construction.
    wire_codec: str | None = None

    # ------------------------------------------------------------------
    # client side
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def privatize(self, values: ArrayLike, rng: RngLike = None) -> Any:
        """Randomize raw private values into LDP reports (client side)."""

    # ------------------------------------------------------------------
    # server side: streaming aggregation
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def ingest(self, reports: Any) -> None:
        """Fold a batch of reports into the aggregation state."""

    @abc.abstractmethod
    def estimate(self) -> Any:
        """Reconstruct from everything ingested so far.

        Raises ``RuntimeError`` if nothing has been ingested.
        """

    @abc.abstractmethod
    def reset(self) -> None:
        """Clear the aggregation state (start a fresh collection round)."""

    def partial_fit(self, values: ArrayLike, rng: RngLike = None) -> "Estimator":
        """Privatize + ingest one shard of users; returns ``self``."""
        self.ingest(self.privatize(values, rng=rng))
        return self

    def aggregate(self, reports: Any) -> Any:
        """One-shot server side: reconstruct from exactly these reports.

        Resets any previously accumulated state first.
        """
        self.reset()
        self.ingest(reports)
        return self.estimate()

    def fit(self, values: ArrayLike, rng: RngLike = None) -> Any:
        """Simulate one whole collection round (privatize + aggregate)."""
        return self.aggregate(self.privatize(values, rng=rng))

    # ------------------------------------------------------------------
    # shard combination + serialization
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _merge_state(self, other: "Estimator") -> None:
        """Fold ``other``'s aggregation state into ours (params match)."""

    def merge(self, other: "Estimator") -> "Estimator":
        """Combine another shard's aggregation state into this one.

        Both estimators must be the same type with identical parameters;
        afterwards ``self.estimate()`` equals an estimate over the union of
        both shards' reports. Returns ``self`` for chaining. Merging an
        estimator into itself would count its reports twice, so ``other is
        self`` is rejected.
        """
        if other is self:
            raise ValueError(f"cannot merge a {type(self).__name__} into itself")
        if type(other) is not type(self):
            raise TypeError(
                f"cannot merge {type(other).__name__} into {type(self).__name__}"
            )
        if other._params() != self._params():
            raise ValueError(
                f"cannot merge {type(self).__name__} shards with different "
                f"parameters: {self._params()} != {other._params()}"
            )
        self._merge_state(other)
        return self

    @abc.abstractmethod
    def _params(self) -> dict[str, Any]:
        """JSON-serializable constructor kwargs that recreate this estimator."""

    @abc.abstractmethod
    def _state(self) -> dict[str, Any]:
        """JSON-serializable aggregation state."""

    @abc.abstractmethod
    def _load_state(self, state: dict[str, Any]) -> None:
        """Restore aggregation state produced by :meth:`_state`."""

    def to_state(self) -> dict[str, Any]:
        """Serialize identity, parameters, and aggregation state.

        The payload is plain JSON-compatible data, so shard-local state can
        cross process or machine boundaries; invert with
        :meth:`from_state`.
        """
        return {
            "estimator": self.name,
            "class": _class_path(self),
            "params": self._params(),
            "state": self._state(),
        }

    @classmethod
    def from_state(cls, payload: dict[str, Any]) -> "Estimator":
        """Rebuild an estimator (with state) from :meth:`to_state` output."""
        target = _import_class(payload["class"])
        if not isinstance(target, type) or not issubclass(target, Estimator):
            raise ValueError(f"{payload['class']} is not an Estimator")
        if cls is not Estimator and not issubclass(target, cls):
            raise ValueError(
                f"state payload is for {payload['class']}, not {cls.__name__}"
            )
        params = {
            key: mechanism_from_spec(value) if _is_mechanism_spec(value) else value
            for key, value in payload["params"].items()
        }
        instance = target(**params)
        instance._load_state(payload["state"])
        return instance

    # ------------------------------------------------------------------
    # display
    # ------------------------------------------------------------------
    def _repr_fields(self) -> dict[str, Any]:
        """Fields shown by ``repr``; defaults to the constructor params."""
        return self._params()

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in self._repr_fields().items())
        return f"{type(self).__name__}({fields})"
