"""Structured channel operators — near-linear EM/EMS matvecs (paper §5.5).

Every EM/EMS iteration applies the channel matrix twice: ``M x`` for the
E-step densities and ``Mᵀ w`` for the weights. With a dense ``(d_out, d)``
matrix that is ``O(d_out · d · B)`` per iteration, even though the wave
channels this package revolves around are *uniform-plus-band*:

    M = q_eff · J  +  K           (J the all-ones matrix)

where ``K`` vanishes outside a sliding band of output positions. The
uniform part collapses to a column sum; the band part collapses to a
sliding-window sum computable from one cumulative sum — ``O(d · B)`` per
product, independent of the band width.

Three operator implementations cover the package's channels:

* :class:`DenseChannel` — wraps any dense matrix; the universal fallback.
  Its products are the same BLAS calls the solver always made, so routing
  a dense matrix through it is bitwise-identical to the historical path.
* :class:`UniformPlusBandedChannel` — channels whose entries take exactly
  two values, ``inside`` on a per-row contiguous column band and
  ``outside`` elsewhere: the discrete Square Wave (§5.4) and the
  CFO-binning GRR chunk channel (§4.1). Exact by construction.
* :class:`UniformPlusToeplitzChannel` — the continuous Square Wave (§5.2).
  The trapezoid overlap kernel is translation-invariant in the *continuous*
  coordinate, but the input grid (width ``1/d``) and output grid (width
  ``(1+2b)/d_out``) are incommensurate, so an index-space convolution (FFT)
  would only be approximate. Instead the invariance is exploited exactly:
  every output bucket sees a *constant plateau* of height
  ``min(out_width, 2b)`` wherever an input bucket lies fully inside the
  high-probability band, leaving only ``O(1)`` "ramp" columns per row where
  the trapezoid rises or falls. The plateau runs as a cumsum boxcar and the
  ramps as narrow gather windows whose values come from the same
  closed-form antiderivative the dense builder uses — matvecs match the
  dense matrix to float rounding (~1e-14 relative, verified by the
  hypothesis suite in ``tests/engine/test_operators.py``).

Every operator computes its products *problem-major*
(:meth:`ChannelOperator.matvec_rows`): ``B`` problems arrive as a
C-contiguous ``(B, n)`` array, so each problem's cumulative sums, band-end
gathers and ramp sums run over its own contiguous row, in the same order
whatever ``B`` is. A structured product for one row of a batch is therefore
bit-identical to the same product computed alone. The column-layout
``matvec``/``rmatvec`` (``(d,)`` or ``(d, B)``) wrap the row form.

Selection is automatic: estimators ask the engine cache
(:func:`repro.engine.cache.cached_channel_operator`) which consults the
mechanism's ``channel_operator`` hook and falls back to dense. Force the
historical dense path globally with :func:`set_channel_mode` or locally
with the :func:`dense_channels` context manager.
"""

from __future__ import annotations

import contextlib
import threading
from collections.abc import Callable, Iterator
from typing import Any

import numpy as np

from repro.engine.backend import ComputeBackend, resolve_backend
from repro.utils.typing import ArrayLike, FloatArray, IntArray

__all__ = [
    "ChannelOperator",
    "DenseChannel",
    "UniformPlusBandedChannel",
    "UniformPlusToeplitzChannel",
    "channel_mode",
    "dense_channels",
    "set_channel_mode",
]

_CHANNEL_MODES = ("structured", "dense")
_mode_lock = threading.Lock()
_channel_mode = "structured"


def channel_mode() -> str:
    """The process-wide operator policy: ``"structured"`` or ``"dense"``."""
    return _channel_mode


def set_channel_mode(mode: str) -> str:
    """Set the operator policy; returns the previous mode.

    ``"structured"`` (the default) lets estimators run EM/EMS against the
    structured operators below; ``"dense"`` restores the historical dense
    matrix path everywhere (bitwise-identical plain-EM output). The policy
    is a performance knob, not part of any estimator's serialized identity.
    """
    global _channel_mode
    if mode not in _CHANNEL_MODES:
        raise ValueError(f"mode must be one of {_CHANNEL_MODES}, got {mode!r}")
    with _mode_lock:
        previous = _channel_mode
        _channel_mode = mode
    return previous


@contextlib.contextmanager
def dense_channels() -> Iterator[None]:
    """Context manager forcing the dense matrix path (benchmarks, debugging)."""
    previous = set_channel_mode("dense")
    try:
        yield
    finally:
        set_channel_mode(previous)


def _freeze(arr: ArrayLike, dtype: Any = np.float64) -> Any:
    out = np.ascontiguousarray(arr, dtype=dtype)
    if out is arr:
        out = out.copy()
    out.setflags(write=False)
    return out


def _by_columns(
    rows_product: Callable[[FloatArray, ComputeBackend], FloatArray],
    v: ArrayLike,
    backend: ComputeBackend | None,
) -> FloatArray:
    """Apply a problem-major product to a ``(n,)`` vector or ``(n, B)`` batch."""
    v = np.asarray(v, dtype=np.float64)
    bk = resolve_backend(backend)
    if v.ndim == 1:
        return rows_product(v[None, :], bk)[0, :]
    return rows_product(np.ascontiguousarray(v.T), bk).T


class ChannelOperator:
    """A transition matrix exposed through its action, not its entries.

    Subclasses implement the problem-major products :meth:`matvec_rows`
    (``M x`` per row) and :meth:`rmatvec_rows` (``Mᵀ y`` per row), plus
    :meth:`to_dense` for tests and interoperability; :meth:`matvec` and
    :meth:`rmatvec` take column-layout vectors and batches. ``structured``
    tells the solver whether the operator earns the product-reuse fast
    loop (``False`` only for :class:`DenseChannel`, which must stay bitwise
    compatible with the raw-ndarray path). Structured operators are also
    the only ones whose batched rows are bit-identical to solo products,
    which is what lets same-channel solves fuse.
    """

    #: Whether the solver may take the structured (product-reusing) loop.
    structured: bool = True

    shape: tuple[int, int]

    @property
    def d_out(self) -> int:
        return self.shape[0]

    @property
    def d(self) -> int:
        return self.shape[1]

    def matvec(
        self, x: ArrayLike, *, backend: ComputeBackend | None = None
    ) -> FloatArray:
        """``M @ x`` for ``x`` of shape ``(d,)`` or ``(d, B)``.

        ``backend`` selects the compute backend for the product; ``None``
        uses the process-wide active one (:func:`repro.engine.backend.backend`).
        """
        return _by_columns(self.matvec_rows, x, backend)

    def rmatvec(
        self, y: ArrayLike, *, backend: ComputeBackend | None = None
    ) -> FloatArray:
        """``M.T @ y`` for ``y`` of shape ``(d_out,)`` or ``(d_out, B)``."""
        return _by_columns(self.rmatvec_rows, y, backend)

    def matvec_rows(self, x: FloatArray, backend: ComputeBackend) -> FloatArray:
        """``M x`` for every row of a C-contiguous ``(B, d)`` float batch."""
        raise NotImplementedError

    def rmatvec_rows(self, y: FloatArray, backend: ComputeBackend) -> FloatArray:
        """``Mᵀ y`` for every row of a C-contiguous ``(B, d_out)`` float batch."""
        raise NotImplementedError

    def to_dense(self) -> FloatArray:
        """Materialize the ``(d_out, d)`` matrix this operator represents."""
        raise NotImplementedError

    def column_sums(self) -> FloatArray:
        """Per-input-bucket total mass ``Mᵀ 1`` (1 for a proper channel)."""
        return self.rmatvec(np.ones(self.d_out))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(shape={self.shape})"


class DenseChannel(ChannelOperator):
    """Dense fallback: any matrix, applied through the usual BLAS products.

    The products are the backend's ``matmul``/``rmatmul`` — exactly what
    the solver runs for a raw array, so its output through this wrapper is
    bitwise-identical to passing the raw array.
    """

    structured: bool = False

    def __init__(self, matrix: ArrayLike) -> None:
        m = np.asarray(matrix, dtype=np.float64)
        if m.ndim != 2:
            raise ValueError(f"matrix must be 2-d, got shape {m.shape}")
        self._m = m
        self.shape = (int(m.shape[0]), int(m.shape[1]))

    @property
    def matrix(self) -> FloatArray:
        return self._m

    def matvec_rows(self, x: FloatArray, backend: ComputeBackend) -> FloatArray:
        return backend.matmul(self._m, x)

    def rmatvec_rows(self, y: FloatArray, backend: ComputeBackend) -> FloatArray:
        return backend.rmatmul(self._m, y)

    def to_dense(self) -> FloatArray:
        return self._m


def _transpose_bands(
    lo: IntArray, hi: IntArray, n_cols: int
) -> tuple[IntArray, IntArray]:
    """Per-column contiguous row ranges of the band set ``lo_j <= i < hi_j``.

    Requires ``lo`` and ``hi`` nondecreasing (true for every sliding band
    here); then ``{j : lo_j <= i < hi_j}`` is the contiguous range
    ``[searchsorted(hi, i, 'right'), searchsorted(lo, i, 'right'))``.
    """
    cols = np.arange(n_cols)
    rlo = np.searchsorted(hi, cols, side="right")
    rhi = np.searchsorted(lo, cols, side="right")
    return rlo.astype(np.int64), np.maximum(rhi, rlo).astype(np.int64)


class UniformPlusBandedChannel(ChannelOperator):
    """Two-valued channel: ``inside`` on a sliding column band, ``outside`` off.

    ``M[j, i] = inside`` when ``lo[j] <= i < hi[j]`` and ``outside``
    elsewhere. Covers the discrete Square Wave (band = the ``2b+1`` wide
    moving window) and the CFO-binning GRR chunk channel (band = the chunk's
    fine buckets). Both products run off one cumulative sum — ``O(d · B)``
    regardless of band width, vs ``O(d_out · d · B)`` dense.

    ``lo``/``hi`` must be nondecreasing so the transposed band is also
    contiguous per column.
    """

    def __init__(
        self,
        d: int,
        lo: ArrayLike,
        hi: ArrayLike,
        *,
        inside: float,
        outside: float,
    ) -> None:
        lo = np.asarray(lo, dtype=np.int64)
        hi = np.asarray(hi, dtype=np.int64)
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise ValueError("lo and hi must be equal-length 1-d index arrays")
        d = int(d)
        if d < 1:
            raise ValueError(f"d must be >= 1, got {d}")
        if (lo < 0).any() or (hi > d).any() or (lo > hi).any():
            raise ValueError("band bounds must satisfy 0 <= lo <= hi <= d")
        if (np.diff(lo) < 0).any() or (np.diff(hi) < 0).any():
            raise ValueError("band bounds must be nondecreasing")
        self.shape = (int(lo.size), d)
        self._lo = _freeze(lo, np.int64)
        self._hi = _freeze(hi, np.int64)
        self.inside = float(inside)
        self.outside = float(outside)
        self._delta = self.inside - self.outside
        rlo, rhi = _transpose_bands(lo, hi, d)
        self._rlo = _freeze(rlo, np.int64)
        self._rhi = _freeze(rhi, np.int64)

    def matvec_rows(self, x: FloatArray, backend: ComputeBackend) -> FloatArray:
        return backend.banded_product(
            x, self._lo, self._hi, self._delta, self.outside
        )

    def rmatvec_rows(self, y: FloatArray, backend: ComputeBackend) -> FloatArray:
        return backend.banded_product(
            y, self._rlo, self._rhi, self._delta, self.outside
        )

    def to_dense(self) -> FloatArray:
        cols = np.arange(self.d)[None, :]
        in_band = (cols >= self._lo[:, None]) & (cols < self._hi[:, None])
        return np.where(in_band, self.inside, self.outside)

    def column_sums(self) -> FloatArray:
        height = (self._rhi - self._rlo).astype(np.float64)
        return self.outside * (self.d_out - height) + self.inside * height


class _CorrectionWindows:
    """A rectangular gather/sum of sparse per-row (or per-column) corrections.

    ``starts[k]`` is the first index of row/column ``k``'s window into the
    opposing axis; ``values`` is ``(width, n)`` with zero padding beyond
    each window's true extent, so padded cells contribute nothing and the
    gather indices can be safely clipped into range.
    """

    __slots__ = ("starts", "values", "_idx")

    def __init__(self, starts: IntArray, values: FloatArray, limit: int) -> None:
        self.starts = _freeze(starts, np.int64)
        self.values = _freeze(values)
        width = values.shape[0]
        idx = starts[None, :] + np.arange(width, dtype=np.int64)[:, None]
        np.clip(idx, 0, max(limit - 1, 0), out=idx)
        self._idx = _freeze(idx, np.int64)

    def apply(self, v: FloatArray) -> FloatArray:
        """``out[b, k] = sum_r values[r, k] * v[b, idx[r, k]]`` per problem row.

        The sum over ``r`` runs in index order for every row, so a row's
        result does not depend on how many rows share the batch.
        """
        gathered = np.take(v, self._idx, axis=1)  # (B, width, n)
        gathered *= self.values
        return gathered.sum(axis=1)


class UniformPlusToeplitzChannel(ChannelOperator):
    """Continuous Square Wave channel applied in ``O(d · B)`` per product.

    The exact §5.5 matrix is ``M[j, i] = q·w_out + (p − q)·T[j, i]`` with
    ``T`` the band/bucket trapezoid overlap averaged over input bucket
    ``i``. ``T`` is a fixed kernel evaluated at ``i·w_in − j·w_out`` —
    Toeplitz in the continuous coordinate — and because every output bucket
    has the same width, ``T`` equals the constant ``lmax = min(w_out, 2b)``
    wherever an input bucket sits fully inside the band plateau, and ``0``
    outside the band. Only the rise/fall ramps (a few columns per row)
    carry non-constant values, computed here from the same closed-form
    antiderivative as the dense builder.

    The products therefore decompose into a column sum (uniform part), a
    cumulative-sum boxcar (plateau band), and two narrow correction-window
    gathers (ramps) — no ``O(d_out · d)`` work anywhere, including
    construction.
    """

    def __init__(self, p: float, q: float, b: float, d: int, d_out: int) -> None:
        if b <= 0:
            raise ValueError(f"b must be > 0, got {b}")
        if d < 1 or d_out < 1:
            raise ValueError("d and d_out must be >= 1")
        self.p = float(p)
        self.q = float(q)
        self.b = float(b)
        self.shape = (int(d_out), int(d))
        w_out = (1.0 + 2.0 * b) / d_out
        w_in = 1.0 / d
        self.out_width = w_out
        self.in_width = w_in
        # Same per-row geometry as repro.core.transform.sw_transition_matrix.
        c = -b + np.arange(d_out) * w_out
        e = c + w_out
        lmax = min(w_out, 2.0 * b)
        t1 = c - b
        t3 = np.maximum(e - b, c + b)
        self._lmax = lmax
        self._baseline = self.q * w_out  # entry value outside the band
        self._plateau = (self.p - self.q) * lmax  # band boxcar height
        self._t1 = t1
        self._t3 = t3

        # Conservative integer bounds (±1-index margins absorb float
        # rounding of the divisions; misclassified cells land in a ramp
        # window, where the exact closed form is used anyway).
        band_lo = np.clip(np.floor(t1 / w_in).astype(np.int64) - 1, 0, d)
        band_hi = np.clip(
            np.ceil((t3 + lmax) / w_in).astype(np.int64) + 2, band_lo, d
        )
        plat_lo = np.ceil((t1 + lmax) / w_in).astype(np.int64) + 2
        plat_hi = np.floor(t3 / w_in).astype(np.int64) - 2
        plat_lo = np.clip(plat_lo, band_lo, band_hi)
        plat_hi = np.clip(plat_hi, plat_lo, band_hi)
        self._band_lo = _freeze(band_lo, np.int64)
        self._band_hi = _freeze(band_hi, np.int64)

        self._rise = self._row_windows(band_lo, plat_lo)
        self._fall = self._row_windows(plat_hi, band_hi)

        rlo, rhi = _transpose_bands(band_lo, band_hi, d)
        self._col_band_lo = _freeze(rlo, np.int64)
        self._col_band_hi = _freeze(rhi, np.int64)
        self._col_rise = self._col_windows(plat_lo, band_lo)
        self._col_fall = self._col_windows(band_hi, plat_hi)

    # -- exact band values -------------------------------------------------
    def _band_overlap(self, rows: IntArray, cols: IntArray) -> FloatArray:
        """Exact trapezoid overlap ``T[j, i]`` for broadcastable index arrays."""
        from repro.core.transform import trapezoid_antiderivative

        a1 = cols * self.in_width
        a2 = a1 + self.in_width
        t1 = self._t1[rows]
        t3 = self._t3[rows]
        upper = trapezoid_antiderivative(a2, t1, t3, self._lmax)
        lower = trapezoid_antiderivative(a1, t1, t3, self._lmax)
        return (upper - lower) / self.in_width

    def _correction(self, rows: IntArray, cols: IntArray) -> FloatArray:
        """Entry minus the boxcar height: ``(p−q)·(T[j,i] − lmax)``."""
        return (self.p - self.q) * (self._band_overlap(rows, cols) - self._lmax)

    def _row_windows(self, start: IntArray, stop: IntArray) -> _CorrectionWindows:
        d_out, d = self.shape
        widths = stop - start
        k = int(widths.max()) if widths.size else 0
        if k == 0:
            return _CorrectionWindows(
                np.zeros(d_out, np.int64), np.zeros((0, d_out)), d
            )
        offsets = np.arange(k, dtype=np.int64)[:, None]
        cols = np.clip(start[None, :] + offsets, 0, d - 1)
        rows = np.broadcast_to(np.arange(d_out, dtype=np.int64)[None, :], cols.shape)
        values = self._correction(rows, cols)
        values = np.where(offsets < widths[None, :], values, 0.0)
        return _CorrectionWindows(start, values, d)

    def _col_windows(
        self, upper_bound: IntArray, lower_bound: IntArray
    ) -> _CorrectionWindows:
        """Column-oriented windows for rows with ``lower_j <= i < upper_j``."""
        d_out, d = self.shape
        cols = np.arange(d, dtype=np.int64)
        start = np.searchsorted(upper_bound, cols, side="right").astype(np.int64)
        stop = np.searchsorted(lower_bound, cols, side="right").astype(np.int64)
        stop = np.maximum(stop, start)
        widths = stop - start
        k = int(widths.max()) if widths.size else 0
        if k == 0:
            return _CorrectionWindows(np.zeros(d, np.int64), np.zeros((0, d)), d_out)
        offsets = np.arange(k, dtype=np.int64)[:, None]
        rows = np.clip(start[None, :] + offsets, 0, d_out - 1)
        col_idx = np.broadcast_to(cols[None, :], rows.shape)
        values = self._correction(rows, col_idx)
        values = np.where(offsets < widths[None, :], values, 0.0)
        return _CorrectionWindows(start, values, d_out)

    @property
    def window_width(self) -> int:
        """Widest ramp window — the ``k`` in the O(d·k·B) product cost."""
        return max(self._rise.values.shape[0], self._fall.values.shape[0])

    # -- products ----------------------------------------------------------
    def matvec_rows(self, x: FloatArray, backend: ComputeBackend) -> FloatArray:
        out = backend.banded_product(
            x, self._band_lo, self._band_hi, self._plateau, self._baseline
        )
        out += self._rise.apply(x)
        out += self._fall.apply(x)
        return out

    def rmatvec_rows(self, y: FloatArray, backend: ComputeBackend) -> FloatArray:
        out = backend.banded_product(
            y, self._col_band_lo, self._col_band_hi, self._plateau, self._baseline
        )
        out += self._col_rise.apply(y)
        out += self._col_fall.apply(y)
        return out

    def to_dense(self) -> FloatArray:
        """The represented matrix (matches the §5.5 builder to float rounding)."""
        d_out, d = self.shape
        rows = np.arange(d_out, dtype=np.int64)[:, None]
        cols = np.arange(d, dtype=np.int64)[None, :]
        in_band = (cols >= self._band_lo[:, None]) & (cols < self._band_hi[:, None])
        matrix = np.full((d_out, d), self._baseline)
        matrix += np.where(in_band, self._plateau + self._correction(rows, cols), 0.0)
        return matrix

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"UniformPlusToeplitzChannel(shape={self.shape}, b={self.b:.4f}, "
            f"window_width={self.window_width})"
        )
