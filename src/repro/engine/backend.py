"""Pluggable array-compute backends — saturate the hardware under one seam.

Every hot loop in the package bottoms out in a handful of array primitives:
the dense channel products ``M x`` / ``Mᵀ y`` of the EM/EMS solver, the
padded-cumsum boxcar behind the structured wave operators, and the chunked
Carter-Wegman support count of OLH aggregation. Historically those were
inlined NumPy calls, which pins the whole system to one core no matter how
many the machine has (the checked-in BENCH files record exactly that). This
module narrows them into a :class:`ComputeBackend` seam with three
implementations:

* :class:`NumpyBackend` — the default; every primitive is one whole-array
  NumPy expression, and a one-problem solve through it is bitwise-identical
  to the historical inline path.
* :class:`ThreadedBackend` — shards batched work (EM/EMS problems, OLH
  user chunks, frame blocks) across a thread pool. NumPy releases the GIL
  inside its kernels, so contiguous-slice shards scale near-linearly with
  cores. Shard boundaries depend only on the *data shape* (a fixed
  ``column_chunk``), never on the worker count, so results are bit-identical
  whether one worker or sixteen drain the queue.
* :class:`NumbaBackend` — JIT-compiles the cumsum-boxcar operator product
  and the Carter-Wegman hash loop when ``numba`` is importable; construction
  raises :class:`BackendUnavailableError` otherwise, and everything not
  worth JIT-ing (BLAS matmuls) inherits the NumPy implementation.

Batched primitives are *problem-major*: ``B`` stacked problems arrive as a
C-contiguous ``(B, n)`` array, one problem per row, so every per-problem
sum and cumulative sum runs over contiguous memory in the same order
whatever ``B`` is. A problem's result is therefore bit-identical whether it
is computed alone or as one row of a batch (dense ``matmul``/``rmatmul``
excepted: a BLAS gemm does not round like per-row gemv calls).

The active backend is process-wide state mirroring
:func:`repro.engine.operators.set_channel_mode`: read it with
:func:`backend`, replace it with :func:`set_backend`, scope it with the
:func:`use_backend` context manager, or preselect it for a whole process
with the ``REPRO_BACKEND`` environment variable (``"threaded"``,
``"threaded:4"``, ``"numba"``, ...). Like the channel mode, the backend is
a performance knob: it is never part of an estimator's serialized identity.
"""

from __future__ import annotations

import contextlib
import os
import threading
import warnings
from collections.abc import Callable, Iterator, Mapping, Sequence
from concurrent.futures import ThreadPoolExecutor
from typing import Any, TypeVar

import numpy as np

from repro.utils.typing import FloatArray, IntArray

__all__ = [
    "BACKEND_ENV_VAR",
    "BackendUnavailableError",
    "ComputeBackend",
    "NumpyBackend",
    "ThreadedBackend",
    "NumbaBackend",
    "available_backends",
    "backend",
    "effective_cpu_count",
    "make_backend",
    "resolve_backend",
    "set_backend",
    "use_backend",
]

_T = TypeVar("_T")
_R = TypeVar("_R")

#: Environment variable consulted once at import to pick the initial backend.
BACKEND_ENV_VAR = "REPRO_BACKEND"

#: Fallback OLH aggregation chunk when neither the caller nor the backend
#: pins one; mirrors ``repro.freq_oracle.olh._AGGREGATE_CHUNK``.
_DEFAULT_OLH_CHUNK = 1024


class BackendUnavailableError(RuntimeError):
    """A backend's optional dependency is not importable in this process."""


def effective_cpu_count() -> int:
    """Cores this *process* may run on, not cores the machine has.

    ``os.cpu_count()`` reports the machine; containers and ``taskset``-pinned
    CI runners routinely grant far fewer. ``sched_getaffinity`` reflects the
    actual allowance where the platform supports it (Linux), which is what
    worker-pool sizing and the BENCH skip-with-reason logic must key on.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            return max(1, len(getaffinity(0)))
        except OSError:  # pragma: no cover - exotic platforms
            pass
    return max(1, os.cpu_count() or 1)


def _olh_numpy_kernel(
    a: IntArray,
    b: IntArray,
    y: IntArray,
    d: int,
    g: int,
    chunk_size: int,
) -> IntArray:
    """Chunked, buffer-reusing OLH support count over one user span.

    The in-place form of :func:`repro.freq_oracle.hashing.evaluate_hash`
    and the support comparison run in two preallocated ``(chunk, d)``
    buffers reused across chunks — the PR-5 hot loop, verbatim, so the
    NumPy backend stays byte-for-byte the historical aggregation.
    """
    from repro.freq_oracle.hashing import evaluate_hash

    counts = np.zeros(d, dtype=np.int64)
    n = int(a.size)
    if n == 0:
        return counts
    domain = np.arange(d, dtype=np.int64)[None, :]
    chunk = max(1, min(chunk_size, n))
    work = np.empty((chunk, d), dtype=np.int64)
    match = np.empty((chunk, d), dtype=bool)
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        rows = stop - start
        hashes = evaluate_hash(
            a[start:stop, None],
            b[start:stop, None],
            domain,
            g,
            out=work[:rows],
        )
        np.equal(hashes, y[start:stop, None], out=match[:rows])
        counts += match[:rows].sum(axis=0)
    return counts


class ComputeBackend:
    """The array primitives every engine hot path is written against.

    Implementations must be *value-equivalent* to :class:`NumpyBackend` to
    1e-12 on probability-scale inputs and deterministic for a fixed
    configuration (same instance parameters → bit-identical outputs,
    regardless of how much hardware parallelism is actually available).
    ``workers`` advertises the parallelism level so schedulers
    (:func:`repro.protocol.server.estimate_rounds`, the frame decoder) can
    decide whether fanning out is worth the dispatch overhead.
    """

    #: Registry name of the backend family (``"numpy"``, ``"threaded"``, ...).
    name: str = ""

    #: Parallelism the backend can actually exploit (1 = serial).
    workers: int = 1

    #: Per-worker OLH aggregation chunk; ``None`` defers to the caller's
    #: default (``repro.freq_oracle.olh._AGGREGATE_CHUNK``).
    olh_chunk_size: int | None = None

    def matmul(self, m: FloatArray, x: FloatArray) -> FloatArray:
        """``m @ x`` per problem: ``x`` is ``(d,)`` or ``(B, d)`` rows."""
        raise NotImplementedError

    def rmatmul(self, m: FloatArray, y: FloatArray) -> FloatArray:
        """``m.T @ y`` per problem: ``y`` is ``(d_out,)`` or ``(B, d_out)`` rows."""
        raise NotImplementedError

    def padded_cumsum(self, v: FloatArray) -> FloatArray:
        """``S`` with ``S[..., k] = v[..., :k].sum()`` along the last axis."""
        raise NotImplementedError

    def banded_product(
        self,
        v: FloatArray,
        lo: IntArray,
        hi: IntArray,
        delta: float,
        outside: float,
    ) -> FloatArray:
        """The cumsum-boxcar product of the uniform-plus-band channels.

        ``out[..., j] = outside * v.sum() + delta * v[..., lo[j]:hi[j]].sum()``
        per problem row — the whole structured matvec/rmatvec for two-valued
        band channels, and the plateau term of the Toeplitz channel.
        """
        s = self.padded_cumsum(v)
        band = np.take(s, hi, axis=-1)
        band -= np.take(s, lo, axis=-1)
        band *= delta
        band += outside * s[..., -1:]
        return band

    def olh_support_counts(
        self,
        a: IntArray,
        b: IntArray,
        y: IntArray,
        d: int,
        g: int,
        *,
        chunk_size: int,
    ) -> IntArray:
        """``C(v) = |{j : H_j(v) = y_j}|`` over the whole value domain."""
        raise NotImplementedError

    def map_ordered(
        self, fn: Callable[[_T], _R], items: Sequence[_T]
    ) -> list[_R]:
        """``[fn(item) for item in items]``, possibly evaluated concurrently.

        Results come back in input order; any exception propagates. Items
        must be independent — this is the scheduling primitive behind
        multi-attribute solves and parallel frame-block decode.
        """
        raise NotImplementedError

    def describe(self) -> dict[str, Any]:
        """JSON-serializable identity for BENCH headers and diagnostics."""
        return {"name": self.name, "workers": int(self.workers)}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(workers={self.workers})"


class NumpyBackend(ComputeBackend):
    """Single-core NumPy: every primitive is one whole-array NumPy call."""

    name = "numpy"

    def matmul(self, m: FloatArray, x: FloatArray) -> FloatArray:
        # Row form of ``m @ x``; one row is the same gemv, bit for bit.
        return x @ m.T

    def rmatmul(self, m: FloatArray, y: FloatArray) -> FloatArray:
        return y @ m

    def padded_cumsum(self, v: FloatArray) -> FloatArray:
        out = np.zeros(v.shape[:-1] + (v.shape[-1] + 1,), dtype=np.float64)
        np.cumsum(v, axis=-1, out=out[..., 1:])
        return out

    def olh_support_counts(
        self,
        a: IntArray,
        b: IntArray,
        y: IntArray,
        d: int,
        g: int,
        *,
        chunk_size: int,
    ) -> IntArray:
        return _olh_numpy_kernel(a, b, y, d, g, chunk_size)

    def map_ordered(
        self, fn: Callable[[_T], _R], items: Sequence[_T]
    ) -> list[_R]:
        return [fn(item) for item in items]


class ThreadedBackend(NumpyBackend):
    """Shards batched primitives across a thread pool (GIL-releasing slices).

    Parameters
    ----------
    workers:
        Pool size; defaults to :func:`effective_cpu_count`.
    column_chunk:
        Problems (rows of a problem-major batch) per matmul/cumsum shard.
        Shard boundaries are a pure function of the batch size — *not* of
        ``workers`` — so a solve's float result is bit-identical under any
        worker count; the pool only changes who computes each shard.
    olh_chunk_size:
        Per-worker OLH aggregation chunk (rows of the ``(chunk, d)`` hash
        buffer). Defaults to the OLH module's tuned serial chunk, which
        keeps each worker's two buffers cache-resident.
    """

    name = "threaded"

    def __init__(
        self,
        workers: int | None = None,
        *,
        column_chunk: int = 8,
        olh_chunk_size: int | None = None,
    ) -> None:
        resolved = effective_cpu_count() if workers is None else int(workers)
        if resolved < 1:
            raise ValueError(f"workers must be >= 1, got {resolved}")
        if column_chunk < 1:
            raise ValueError(f"column_chunk must be >= 1, got {column_chunk}")
        self.workers = resolved
        self.column_chunk = int(column_chunk)
        self.olh_chunk_size = (
            None if olh_chunk_size is None else int(olh_chunk_size)
        )
        self._pool: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()

    def _executor(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.workers,
                    thread_name_prefix="repro-backend",
                )
            return self._pool

    def close(self) -> None:
        """Shut the worker pool down (tests; long-lived apps can skip it)."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    # -- sharding helpers --------------------------------------------------
    def _row_spans(self, v: FloatArray) -> list[tuple[int, int]] | None:
        """Fixed-size problem shards, or ``None`` when sharding can't pay.

        Spans depend only on the batch size and ``column_chunk`` — NEVER on
        ``workers``. Sliced BLAS products round differently than one
        whole-array call, so a worker-count-dependent shard layout would
        make the same solve drift across pool sizes; a shape-only layout
        keeps every ``ThreadedBackend(w)`` bit-identical to every other.
        """
        rows = v.shape[0] if v.ndim == 2 else 0
        if rows < 2 * self.column_chunk:
            return None
        step = self.column_chunk
        return [(lo, min(lo + step, rows)) for lo in range(0, rows, step)]

    def _sharded_rows(
        self, compute: Callable[[int, int], FloatArray], spans: list[tuple[int, int]]
    ) -> list[FloatArray]:
        futures = [
            self._executor().submit(compute, lo, hi) for lo, hi in spans
        ]
        return [future.result() for future in futures]

    # -- primitives --------------------------------------------------------
    def matmul(self, m: FloatArray, x: FloatArray) -> FloatArray:
        spans = self._row_spans(x)
        if spans is None:
            return super().matmul(m, x)
        blocks = self._sharded_rows(lambda lo, hi: x[lo:hi] @ m.T, spans)
        return np.concatenate(blocks, axis=0)

    def rmatmul(self, m: FloatArray, y: FloatArray) -> FloatArray:
        spans = self._row_spans(y)
        if spans is None:
            return super().rmatmul(m, y)
        blocks = self._sharded_rows(lambda lo, hi: y[lo:hi] @ m, spans)
        return np.concatenate(blocks, axis=0)

    def padded_cumsum(self, v: FloatArray) -> FloatArray:
        spans = self._row_spans(v)
        if spans is None:
            return super().padded_cumsum(v)
        out = np.zeros((v.shape[0], v.shape[1] + 1), dtype=np.float64)

        def fill(lo: int, hi: int) -> FloatArray:
            # Disjoint output rows: safe to fill concurrently. Per-row
            # cumsum order matches the whole-array call exactly.
            np.cumsum(v[lo:hi], axis=1, out=out[lo:hi, 1:])
            return out

        self._sharded_rows(fill, spans)
        return out

    def olh_support_counts(
        self,
        a: IntArray,
        b: IntArray,
        y: IntArray,
        d: int,
        g: int,
        *,
        chunk_size: int,
    ) -> IntArray:
        n = int(a.size)
        span = max(chunk_size, -(-n // max(self.workers, 1)))
        if self.workers < 2 or n <= span:
            return _olh_numpy_kernel(a, b, y, d, g, chunk_size)
        futures = [
            self._executor().submit(
                _olh_numpy_kernel,
                a[lo : lo + span],
                b[lo : lo + span],
                y[lo : lo + span],
                d,
                g,
                chunk_size,
            )
            for lo in range(0, n, span)
        ]
        # int64 partial counts: summation order cannot change the result.
        counts = np.zeros(d, dtype=np.int64)
        for future in futures:
            counts += future.result()
        return counts

    def map_ordered(
        self, fn: Callable[[_T], _R], items: Sequence[_T]
    ) -> list[_R]:
        if self.workers < 2 or len(items) < 2:
            return [fn(item) for item in items]
        return list(self._executor().map(fn, items))

    def describe(self) -> dict[str, Any]:
        info = super().describe()
        info["column_chunk"] = self.column_chunk
        return info


class NumbaBackend(NumpyBackend):
    """JIT-compiled kernels for the loops BLAS cannot help with.

    Compiles the cumsum-boxcar band product and the Carter-Wegman support
    loop with ``numba.njit`` on first use (compilation is cached per
    process); dense matmuls stay on BLAS via the inherited NumPy
    implementations. Constructing the backend without numba importable
    raises :class:`BackendUnavailableError` — callers get a clean fallback
    story instead of an ImportError deep inside a solve.
    """

    name = "numba"

    def __init__(self) -> None:
        try:
            import numba  # noqa: F401
        except ImportError as exc:  # pragma: no cover - numba-less CI leg
            raise BackendUnavailableError(
                "the 'numba' backend needs the optional numba package "
                "(pip install numba); use 'numpy' or 'threaded' instead"
            ) from exc
        self._kernel_lock = threading.Lock()
        self._banded: Callable[..., FloatArray] | None = None
        self._support: Callable[..., IntArray] | None = None

    def _compile(self) -> None:
        with self._kernel_lock:
            if self._banded is not None:
                return
            import numba

            from repro.freq_oracle.hashing import PRIME

            @numba.njit(cache=True)
            def banded(
                v: FloatArray,
                lo: IntArray,
                hi: IntArray,
                delta: float,
                outside: float,
            ) -> FloatArray:  # pragma: no cover - requires numba
                batch, d = v.shape
                rows = lo.shape[0]
                s = np.zeros((batch, d + 1))
                for j in range(batch):
                    for i in range(d):
                        s[j, i + 1] = s[j, i] + v[j, i]
                out = np.empty((batch, rows))
                for j in range(batch):
                    for r in range(rows):
                        out[j, r] = outside * s[j, d] + delta * (
                            s[j, hi[r]] - s[j, lo[r]]
                        )
                return out

            @numba.njit(cache=True)
            def support(
                a: IntArray, b: IntArray, y: IntArray, d: int, g: int
            ) -> IntArray:  # pragma: no cover - requires numba
                counts = np.zeros(d, dtype=np.int64)
                for j in range(a.shape[0]):
                    aj, bj, yj = a[j], b[j], y[j]
                    for v in range(d):
                        if ((aj * v + bj) % PRIME) % g == yj:
                            counts[v] += 1
                return counts

            self._banded = banded
            self._support = support

    def banded_product(
        self,
        v: FloatArray,
        lo: IntArray,
        hi: IntArray,
        delta: float,
        outside: float,
    ) -> FloatArray:
        self._compile()
        assert self._banded is not None
        squeeze = v.ndim == 1
        v2 = np.ascontiguousarray(
            v[None, :] if squeeze else v, dtype=np.float64
        )
        out = self._banded(
            v2,
            np.ascontiguousarray(lo),
            np.ascontiguousarray(hi),
            float(delta),
            float(outside),
        )
        return out[0, :] if squeeze else out

    def olh_support_counts(
        self,
        a: IntArray,
        b: IntArray,
        y: IntArray,
        d: int,
        g: int,
        *,
        chunk_size: int,
    ) -> IntArray:
        self._compile()
        assert self._support is not None
        return self._support(
            np.ascontiguousarray(a),
            np.ascontiguousarray(b),
            np.ascontiguousarray(y),
            int(d),
            int(g),
        )


# ----------------------------------------------------------------------
# registry + process-wide active backend
# ----------------------------------------------------------------------

_FACTORIES: dict[str, Callable[[int | None], ComputeBackend]] = {
    "numpy": lambda workers: NumpyBackend(),
    "threaded": lambda workers: ThreadedBackend(workers),
    "numba": lambda workers: NumbaBackend(),
}

_instances: dict[str, ComputeBackend] = {}
_backend_lock = threading.Lock()


def available_backends() -> tuple[str, ...]:
    """Registered backend names (availability is checked at construction)."""
    return tuple(sorted(_FACTORIES))


def make_backend(spec: str | ComputeBackend) -> ComputeBackend:
    """Resolve a backend spec: an instance, a name, or ``"name:workers"``.

    Named specs are memoized process-wide (``"threaded:4"`` always returns
    the same instance, so its thread pool is shared rather than rebuilt per
    solve). Raises :class:`BackendUnavailableError` when the named
    backend's optional dependency is missing and ``ValueError`` for an
    unknown name.
    """
    if isinstance(spec, ComputeBackend):
        return spec
    key = str(spec)
    with _backend_lock:
        cached = _instances.get(key)
    if cached is not None:
        return cached
    name, _, suffix = key.partition(":")
    factory = _FACTORIES.get(name)
    if factory is None:
        raise ValueError(
            f"unknown backend {name!r}; available: {available_backends()} "
            f"(optionally 'threaded:<workers>')"
        )
    workers: int | None = None
    if suffix:
        if name != "threaded":
            raise ValueError(
                f"backend {name!r} does not take a ':<workers>' suffix"
            )
        try:
            workers = int(suffix)
        except ValueError:
            raise ValueError(
                f"worker count in backend spec {key!r} must be an integer"
            ) from None
    built = factory(workers)
    with _backend_lock:
        return _instances.setdefault(key, built)


def _initial_backend(environ: Mapping[str, str] | None = None) -> ComputeBackend:
    """The import-time default: ``REPRO_BACKEND`` or plain NumPy.

    A broken value (typo, numba not installed) degrades to NumPy with a
    warning — an env var must never make ``import repro`` raise.
    """
    env = os.environ if environ is None else environ
    spec = env.get(BACKEND_ENV_VAR, "").strip()
    if not spec:
        return make_backend("numpy")
    try:
        return make_backend(spec)
    except (ValueError, BackendUnavailableError) as exc:
        warnings.warn(
            f"{BACKEND_ENV_VAR}={spec!r} is unusable ({exc}); "
            "falling back to the numpy backend",
            RuntimeWarning,
            stacklevel=2,
        )
        return make_backend("numpy")


_active: ComputeBackend = _initial_backend()


def backend() -> ComputeBackend:
    """The process-wide active compute backend."""
    return _active


def resolve_backend(spec: str | ComputeBackend | None) -> ComputeBackend:
    """``None`` → the active backend; otherwise :func:`make_backend`."""
    if spec is None:
        return _active
    return make_backend(spec)


def set_backend(spec: str | ComputeBackend) -> ComputeBackend:
    """Install a new process-wide backend; returns the previous one.

    Like :func:`repro.engine.operators.set_channel_mode`, this is a
    performance knob — estimates through any backend agree to 1e-12, and
    nothing about the backend enters serialized estimator state.
    """
    global _active
    resolved = make_backend(spec)
    with _backend_lock:
        previous = _active
        _active = resolved
    return previous


@contextlib.contextmanager
def use_backend(spec: str | ComputeBackend) -> Iterator[ComputeBackend]:
    """Context manager scoping :func:`set_backend` to a block."""
    resolved = make_backend(spec)
    previous = set_backend(resolved)
    try:
        yield resolved
    finally:
        set_backend(previous)
