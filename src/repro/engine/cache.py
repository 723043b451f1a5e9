"""Process-wide cache of transition matrices and derived solver objects.

Every estimator family needs the mechanism's bucket transition matrix
``M[j, i] = Pr[out in B~_j | in in B_i]`` (paper Section 5.5) before it can
run EM/EMS, and experiment sweeps construct the *same* matrix once per
trial — for the continuous Square Wave at ``d = 1024`` that is an exact
trapezoid-integral build of a million entries, repeated hundreds of times
per figure. The matrices are pure functions of the mechanism parameters and
the bucketization ``(d, d_out)``, so this module memoizes them process-wide.

Three properties make the cache safe to share:

* **Immutability** — cached arrays are returned with ``writeable=False``;
  an accidental in-place mutation raises instead of silently corrupting
  every other estimator in the process.
* **Insert-time validation** — the column-stochastic invariant (columns sum
  to 1) is checked once when a matrix enters the cache, so hot EM paths can
  skip the O(d * d_out) re-validation on every reconstruction.
* **Keyed identity** — keys combine the mechanism's class path with its
  serialized constructor parameters (the same ``_params()`` contract the
  ``repro.api`` state files use) plus ``(d, d_out)``, so two estimators
  configured identically share one array.

A small generic object cache (:func:`cached_object`) rides along for other
expensive pure derivations keyed the same way — e.g. the Cholesky-factored
tree-consistency projector that HH-ADMM rebuilds per estimator.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.utils.typing import ArrayLike, FloatArray

__all__ = [
    "MatrixCacheInfo",
    "cached_channel_operator",
    "cached_matrix",
    "cached_object",
    "cached_transition_matrix",
    "clear_caches",
    "freeze_matrix",
    "matrix_cache_info",
    "mechanism_cache_key",
    "set_matrix_cache_limit",
]

#: Default byte budget for cached matrices. 1 GiB holds ~128 distinct
#: d=1024 Square Wave matrices — far beyond any sweep, while bounding a
#: long-lived server that meets unboundedly many (epsilon, b, d) configs.
_DEFAULT_MAX_BYTES = 1 << 30

_lock = threading.Lock()
_matrices: OrderedDict[tuple[Any, ...], FloatArray] = OrderedDict()  # LRU order
_matrix_bytes = 0
_max_bytes = _DEFAULT_MAX_BYTES
_objects: dict[tuple[Any, ...], Any] = {}
_hits = 0
_misses = 0


@dataclass(frozen=True)
class MatrixCacheInfo:
    """Snapshot of the matrix cache: hit/miss counters, entries, and bytes."""

    hits: int
    misses: int
    entries: int
    nbytes: int


def freeze_matrix(matrix: ArrayLike) -> FloatArray:
    """Return a C-contiguous float64 copy with the write flag cleared."""
    arr = np.ascontiguousarray(matrix, dtype=np.float64).copy()
    arr.setflags(write=False)
    return arr


def _class_path(obj: Any) -> str:
    cls = type(obj)
    return f"{cls.__module__}:{cls.__qualname__}"


def mechanism_cache_key(mechanism: Any) -> tuple[Any, ...]:
    """Hashable identity of a mechanism: class path + sorted ``_params()``.

    ``_params()`` is the same JSON-serializable constructor description the
    ``repro.api`` state files persist, so mechanisms that deserialize equal
    also share cache entries.
    """
    params = mechanism._params()
    return (_class_path(mechanism), tuple(sorted(params.items())))


def cached_matrix(
    key: tuple[Any, ...],
    builder: Callable[[], ArrayLike],
    *,
    column_stochastic: bool = True,
) -> FloatArray:
    """Fetch (or build, validate, freeze, and insert) a matrix by key.

    The returned array is shared and read-only. ``column_stochastic``
    enables the insert-time check that every column sums to 1 — the matrix
    invariant EM relies on (Theorem 5.6 needs a proper channel matrix) —
    letting every later solve skip it.
    """
    global _hits, _misses, _matrix_bytes
    with _lock:
        cached = _matrices.get(key)
        if cached is not None:
            _hits += 1
            _matrices.move_to_end(key)
            return cached
    # Build outside the lock: builders can be expensive and are pure, so a
    # rare duplicate build is cheaper than serializing all constructions.
    built = np.asarray(builder(), dtype=np.float64)
    if built.ndim != 2:
        raise ValueError(f"matrix must be 2-d, got shape {built.shape}")
    if column_stochastic and not np.allclose(built.sum(axis=0), 1.0, atol=1e-6):
        raise ValueError("matrix columns must sum to 1")
    frozen = freeze_matrix(built)
    with _lock:
        existing = _matrices.get(key)
        if existing is not None:  # lost a build race; share the winner
            _hits += 1
            _matrices.move_to_end(key)
            return existing
        _misses += 1
        _matrices[key] = frozen
        _matrix_bytes += frozen.nbytes
        _evict_lru_locked()
        return frozen


def _evict_lru_locked() -> None:
    """Drop least-recently-used matrices until under the byte budget.

    Callers holding a previously-returned array keep it alive (eviction
    only drops the cache's reference); the newest entry is always kept so
    a single over-budget matrix still caches.
    """
    global _matrix_bytes
    while _matrix_bytes > _max_bytes and len(_matrices) > 1:
        _, evicted = _matrices.popitem(last=False)
        _matrix_bytes -= evicted.nbytes


def set_matrix_cache_limit(max_bytes: int) -> None:
    """Set the matrix cache byte budget (evicting LRU entries if needed)."""
    global _max_bytes
    if max_bytes < 1:
        raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
    with _lock:
        _max_bytes = int(max_bytes)
        _evict_lru_locked()


def cached_transition_matrix(
    mechanism: Any, d: int | None = None, d_out: int | None = None
) -> FloatArray:
    """Shared, validated, read-only transition matrix for a mechanism.

    ``d``/``d_out`` follow the :class:`repro.api.Mechanism` convention:
    continuous mechanisms take the bucketization explicitly, while discrete
    mechanisms (``d is None``) own their geometry and build without
    arguments.
    """
    key = (mechanism_cache_key(mechanism), d, d_out)
    if d is None:
        return cached_matrix(key, mechanism.transition_matrix)
    return cached_matrix(key, lambda: mechanism.transition_matrix(d, d_out))


#: Sentinel memoized for mechanisms whose geometry yields no structured
#: operator. The DenseChannel itself is *not* memoized: it would pin the
#: dense array in the unbounded object cache, escaping the matrix cache's
#: LRU byte budget — the wrapper is free to rebuild around the shared array.
_DENSE_FALLBACK = object()


def cached_channel_operator(
    mechanism: Any, d: int | None = None, d_out: int | None = None
) -> Any:
    """Shared, validated channel operator for a mechanism.

    Asks the mechanism's ``channel_operator`` hook for a structured
    :class:`~repro.engine.operators.ChannelOperator` (the hook may return
    ``None`` when its geometry has no exploitable structure) and falls back
    to a :class:`~repro.engine.operators.DenseChannel` around the cached
    dense matrix. Structured operators are memoized under the same
    mechanism identity keys as matrices — an ``"operator"`` tag apart —
    and their column-stochastic invariant is checked once at insert (via
    ``column_sums``, an O(d) product), so solver runs can skip it. Dense
    fallbacks memoize only the *decision*: the array stays governed by the
    matrix cache's LRU budget and remains retrievable through
    :func:`cached_transition_matrix` either way.
    """
    key = ("operator", mechanism_cache_key(mechanism), d, d_out)

    def build() -> Any:
        hook = getattr(mechanism, "channel_operator", None)
        operator = None
        if hook is not None:
            operator = hook() if d is None else hook(d, d_out)
        if operator is None:
            return _DENSE_FALLBACK
        if not np.allclose(operator.column_sums(), 1.0, atol=1e-6):
            raise ValueError("operator columns must sum to 1")
        return operator

    cached = cached_object(key, build)
    if cached is _DENSE_FALLBACK:
        from repro.engine.operators import DenseChannel

        return DenseChannel(cached_transition_matrix(mechanism, d, d_out))
    return cached


def cached_object(key: tuple[Any, ...], builder: Callable[[], Any]) -> Any:
    """Memoize any expensive pure derivation (no matrix validation/freeze)."""
    with _lock:
        if key in _objects:
            return _objects[key]
    built = builder()
    with _lock:
        return _objects.setdefault(key, built)


def matrix_cache_info() -> MatrixCacheInfo:
    """Hit/miss counters and footprint of the process-wide matrix cache."""
    with _lock:
        return MatrixCacheInfo(
            hits=_hits,
            misses=_misses,
            entries=len(_matrices),
            nbytes=_matrix_bytes,
        )


def clear_caches() -> None:
    """Drop every cached matrix and object and reset the counters.

    Mainly for benchmarks (cold-start timing) and test isolation; running
    estimators keep working because they re-fetch lazily.
    """
    global _hits, _misses, _matrix_bytes
    with _lock:
        _matrices.clear()
        _objects.clear()
        _matrix_bytes = 0
        _hits = 0
        _misses = 0
