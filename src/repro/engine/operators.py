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
  ``outside`` elsewhere: the discrete Square Wave (§5.4), and any
  chunk-aligned band such as GRR over binned chunks (§4.1). Exact by
  construction.
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

Each product direction has one implementation, and it runs on a
:class:`Workspace`: the buffers of one solve. A structured workspace holds
the cumulative-sum rows, one gather of both band ends (from one table of
``hi`` then ``lo``), the ramp gather with its per-ramp sums, and the
output rows; the tables themselves stay on the operator, read-only.
:func:`repro.engine.solver.batched_expectation_maximization`
allocates one per direction per solve (:meth:`ChannelOperator.workspaces`)
and views its active rows as columns freeze (:meth:`Workspace.head`), so an
iteration calls NumPy kernels straight into preallocated memory;
``matvec_rows``/``rmatvec_rows`` make a fresh workspace per call and run
the same code. Operators are immutable and shared across threads through
the engine cache, so no scratch buffer ever lives on an operator.

Selection is automatic: estimators ask the engine cache
(:func:`repro.engine.cache.cached_channel_operator`) which consults the
mechanism's ``channel_operator`` hook and falls back to dense. A dense
solve of the same counts stays one call away:
``config.run(estimator.transition_matrix, counts, epsilon)``.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

import numpy as np

from repro.utils.typing import ArrayLike, FloatArray, IntArray

__all__ = [
    "ChannelOperator",
    "DenseChannel",
    "UniformPlusBandedChannel",
    "UniformPlusToeplitzChannel",
]


def _freeze(arr: ArrayLike, dtype: Any = np.float64) -> Any:
    out = np.ascontiguousarray(arr, dtype=dtype)
    if out is arr:
        out = out.copy()
    out.setflags(write=False)
    return out


def _by_columns(
    rows_product: Callable[[FloatArray], FloatArray], v: ArrayLike
) -> FloatArray:
    """Apply a problem-major product to a ``(n,)`` vector or ``(n, B)`` batch."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim == 1:
        return rows_product(v[None, :])[0, :]
    return rows_product(np.ascontiguousarray(v.T)).T


class Workspace:
    """One product's buffers for one solve, over its first ``rows`` problems.

    :meth:`ChannelOperator.workspaces` allocates them for a whole batch;
    :meth:`head` views the first ``rows`` rows of the same memory, which is
    how a solve follows its active problems as columns freeze (the caller
    moves the kept rows to the front). :meth:`apply` writes the product of
    a C-contiguous ``(rows, n_in)`` batch into :attr:`out` and returns it;
    the next call overwrites it.
    """

    __slots__ = ()

    out: FloatArray

    def head(self, rows: int) -> "Workspace":
        raise NotImplementedError

    def apply(self, v: FloatArray) -> FloatArray:
        raise NotImplementedError


class _DenseProduct:
    """``v @ matrix`` per problem row, as BLAS computes it."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: FloatArray) -> None:
        self.matrix = matrix

    def workspace(self, rows: int) -> "_DenseWorkspace":
        return _DenseWorkspace(
            self.matrix, np.empty((rows, self.matrix.shape[1])), rows
        )


class _DenseWorkspace(Workspace):
    """``v @ matrix`` per row: one BLAS product into :attr:`out`."""

    __slots__ = ("_matrix", "_full", "out")

    def __init__(self, matrix: FloatArray, full: FloatArray, rows: int) -> None:
        self._matrix = matrix
        self._full = full
        self.out = full[:rows]

    def head(self, rows: int) -> "_DenseWorkspace":
        return _DenseWorkspace(self._matrix, self._full, rows)

    def apply(self, v: FloatArray) -> FloatArray:
        return np.matmul(v, self._matrix, out=self.out)


class _BandProduct:
    """One direction of a uniform-plus-band product, as read-only tables.

    For each problem row ``v`` with cumulative sums ``c`` (``c[0] = 0``),
    ``out[j] = delta * (c[hi[j]] - c[lo[j]]) + outside * c[-1]``, then the
    rise and the fall ramp sums of :class:`_RampWindows`, when there are
    ramps, are added in that order. This is the whole product of the
    two-valued band channels, and the plateau plus ramps of the Toeplitz
    channel.
    """

    __slots__ = ("n_in", "ends", "delta", "outside", "ramps")

    def __init__(
        self,
        n_in: int,
        lo: IntArray,
        hi: IntArray,
        delta: float,
        outside: float,
        ramps: "_RampWindows | None" = None,
    ) -> None:
        self.n_in = n_in
        # Both band ends in one table, ``hi`` first: one gather fetches both.
        self.ends = _freeze(np.concatenate([hi, lo]), np.intp)
        self.delta = delta
        self.outside = outside
        self.ramps = ramps

    def workspace(self, rows: int) -> "_BandWorkspace":
        m = self.ends.size // 2
        full = [
            np.zeros((rows, self.n_in + 1)),  # cumulative sums; column 0 stays 0
            np.empty((rows, 2 * m)),  # gathered ends: hi, then lo
            np.empty((rows, 1)),  # outside * row total
            np.empty((rows, m)),  # the product
        ]
        if self.ramps is not None:
            full += [
                np.empty((rows, *self.ramps.values.shape)),  # gathered ramps
                np.empty((rows, m)),  # one ramp's sums
            ]
        return _BandWorkspace(self, full, rows)


class _BandWorkspace(Workspace):
    """The buffers of one :class:`_BandProduct`, viewed over ``rows`` problems.

    The gather tables are checked at construction, so every gather runs in
    ``clip`` mode, which neither checks them again nor copies its output.
    """

    __slots__ = (
        "_product", "_full", "out", "_cumsum", "_tail", "_row_total",
        "_ends", "_hi", "_lo", "_total", "_gathered", "_ramp_parts", "_ramp_sum",
    )

    def __init__(self, product: _BandProduct, full: list[Any], rows: int) -> None:
        self._product = product
        self._full = full
        cumsum, ends, self._total, self.out = (a[:rows] for a in full[:4])
        self._cumsum = cumsum
        self._tail = cumsum[:, 1:]
        self._row_total = cumsum[:, -1:]
        half = ends.shape[1] // 2
        self._ends, self._hi, self._lo = ends, ends[:, :half], ends[:, half:]
        if product.ramps is not None:
            gathered, self._ramp_sum = (a[:rows] for a in full[4:])
            split = product.ramps.split
            self._gathered = gathered
            self._ramp_parts = (gathered[:, :split], gathered[:, split:])

    def head(self, rows: int) -> "_BandWorkspace":
        return _BandWorkspace(self._product, self._full, rows)

    def apply(self, v: FloatArray) -> FloatArray:
        p = self._product
        out = self.out
        np.add.accumulate(v, axis=1, out=self._tail)
        self._cumsum.take(p.ends, axis=1, out=self._ends, mode="clip")
        np.subtract(self._hi, self._lo, out=out)
        np.multiply(out, p.delta, out=out)
        np.multiply(self._row_total, p.outside, out=self._total)
        np.add(out, self._total, out=out)
        if p.ramps is not None:
            # Each ramp sums over its own window rows, in index order for
            # every problem row, so a row's result does not depend on how
            # many rows share the batch.
            v.take(p.ramps._idx, axis=1, out=self._gathered, mode="clip")
            np.multiply(self._gathered, p.ramps.values, out=self._gathered)
            for part in self._ramp_parts:
                np.add.reduce(part, axis=1, out=self._ramp_sum)
                np.add(out, self._ramp_sum, out=out)
        return out


def _rows_product(product: Any, v: FloatArray) -> FloatArray:
    """One product of a ``(B, n)`` batch through a workspace of its own."""
    v = np.ascontiguousarray(v, dtype=np.float64)
    return product.workspace(v.shape[0]).apply(v)


class ChannelOperator:
    """A transition matrix exposed through its action, not its entries.

    Subclasses set the two product directions, ``M x`` and ``Mᵀ y``, and
    implement :meth:`to_dense` for tests and interoperability. Each
    direction has one implementation, run on a :class:`Workspace`: a solve
    takes both from :meth:`workspaces` once, and :meth:`matvec_rows` /
    :meth:`rmatvec_rows` (one product of a problem-major batch) and
    :meth:`matvec` / :meth:`rmatvec` (column layout) make a fresh one per
    call. Operators are immutable and shared across threads, so no scratch
    buffer ever lives on one. ``structured`` tells the solver whether the
    operator earns the product-reuse fast loop (``False`` only for
    :class:`DenseChannel`, which must stay bitwise compatible with the
    raw-ndarray path). Structured operators are also the only ones whose
    batched rows are bit-identical to solo products, which is what lets
    same-channel solves fuse.
    """

    #: Whether the solver may take the structured (product-reusing) loop.
    structured: bool = True

    shape: tuple[int, int]
    _matvec: Any  # the M x direction: ``workspace(rows) -> Workspace``
    _rmatvec: Any  # the Mᵀ y direction

    @property
    def d_out(self) -> int:
        return self.shape[0]

    @property
    def d(self) -> int:
        return self.shape[1]

    def workspaces(self, rows: int) -> tuple[Workspace, Workspace]:
        """Fresh ``(M x, Mᵀ y)`` workspaces for a solve over ``rows`` problems."""
        return self._matvec.workspace(rows), self._rmatvec.workspace(rows)

    def matvec(self, x: ArrayLike) -> FloatArray:
        """``M @ x`` for ``x`` of shape ``(d,)`` or ``(d, B)``."""
        return _by_columns(self.matvec_rows, x)

    def rmatvec(self, y: ArrayLike) -> FloatArray:
        """``M.T @ y`` for ``y`` of shape ``(d_out,)`` or ``(d_out, B)``."""
        return _by_columns(self.rmatvec_rows, y)

    def matvec_rows(self, x: FloatArray) -> FloatArray:
        """``M x`` for every row of a ``(B, d)`` float batch."""
        return _rows_product(self._matvec, x)

    def rmatvec_rows(self, y: FloatArray) -> FloatArray:
        """``Mᵀ y`` for every row of a ``(B, d_out)`` float batch."""
        return _rows_product(self._rmatvec, y)

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

    The products are the row forms ``x @ Mᵀ`` and ``y @ M`` — exactly what
    the solver runs for a raw array, so its output through this wrapper is
    bitwise-identical to passing the raw array. One row is the same gemv,
    bit for bit.
    """

    structured: bool = False

    def __init__(self, matrix: ArrayLike) -> None:
        m = np.asarray(matrix, dtype=np.float64)
        if m.ndim != 2:
            raise ValueError(f"matrix must be 2-d, got shape {m.shape}")
        self._m = m
        self.shape = (int(m.shape[0]), int(m.shape[1]))
        self._matvec = _DenseProduct(m.T)
        self._rmatvec = _DenseProduct(m)

    @property
    def matrix(self) -> FloatArray:
        return self._m

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
    moving window) and chunk-aligned bands such as GRR over binned chunks
    (band = the chunk's fine buckets). Both products run off one cumulative
    sum — ``O(d · B)`` regardless of band width, vs ``O(d_out · d · B)``
    dense.

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
        self._matvec = _BandProduct(d, lo, hi, self._delta, self.outside)
        self._rmatvec = _BandProduct(
            self.d_out, rlo, rhi, self._delta, self.outside
        )

    def to_dense(self) -> FloatArray:
        cols = np.arange(self.d)[None, :]
        in_band = (cols >= self._lo[:, None]) & (cols < self._hi[:, None])
        return np.where(in_band, self.inside, self.outside)

    def column_sums(self) -> FloatArray:
        height = (self._rhi - self._rlo).astype(np.float64)
        return self.outside * (self.d_out - height) + self.inside * height


class _RampWindows:
    """The rise and fall ramp corrections of one product, as window tables.

    Each ramp is a rectangular window table: ``starts[k]`` is the first
    index of row/column ``k``'s window into the opposing axis, and its
    ``(width, n)`` values are zero-padded beyond each window's true extent,
    so padded cells contribute nothing and the gather indices can be safely
    clipped into range. The rise table is stacked on the fall table, so one
    gather fetches both; ``split`` is the rise width. A ramp adds
    ``sum_r values[r, k] * v[b, idx[r, k]]`` to ``out[b, k]``
    (:meth:`_BandWorkspace.apply`). The tables are read-only, since
    operators are shared across threads.
    """

    __slots__ = ("split", "values", "_idx")

    def __init__(
        self,
        rise: tuple[IntArray, FloatArray],
        fall: tuple[IntArray, FloatArray],
        limit: int,
    ) -> None:
        tables = []
        for starts, values in (rise, fall):
            width = values.shape[0]
            idx = starts[None, :] + np.arange(width, dtype=np.int64)[:, None]
            np.clip(idx, 0, max(limit - 1, 0), out=idx)
            tables.append(idx)
        self.split = rise[1].shape[0]
        self.values = _freeze(np.concatenate([rise[1], fall[1]]))
        self._idx = _freeze(np.concatenate(tables), np.intp)


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
    cumulative-sum boxcar (plateau band), and two narrow correction windows
    (ramps) fetched by one gather — no ``O(d_out · d)`` work anywhere,
    including construction.
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

        self._ramps = _RampWindows(
            self._row_windows(band_lo, plat_lo),
            self._row_windows(plat_hi, band_hi),
            d,
        )

        rlo, rhi = _transpose_bands(band_lo, band_hi, d)
        self._col_band_lo = _freeze(rlo, np.int64)
        self._col_band_hi = _freeze(rhi, np.int64)
        self._col_ramps = _RampWindows(
            self._col_windows(plat_lo, band_lo),
            self._col_windows(band_hi, plat_hi),
            d_out,
        )
        self._matvec = _BandProduct(
            d, band_lo, band_hi, self._plateau, self._baseline, self._ramps
        )
        self._rmatvec = _BandProduct(
            d_out, rlo, rhi, self._plateau, self._baseline, self._col_ramps
        )

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

    def _row_windows(
        self, start: IntArray, stop: IntArray
    ) -> tuple[IntArray, FloatArray]:
        """Per-row ``(starts, values)`` ramp table over columns ``[start, stop)``."""
        d_out, d = self.shape
        widths = stop - start
        k = int(widths.max()) if widths.size else 0
        if k == 0:
            return np.zeros(d_out, np.int64), np.zeros((0, d_out))
        offsets = np.arange(k, dtype=np.int64)[:, None]
        cols = np.clip(start[None, :] + offsets, 0, d - 1)
        rows = np.broadcast_to(np.arange(d_out, dtype=np.int64)[None, :], cols.shape)
        values = self._correction(rows, cols)
        values = np.where(offsets < widths[None, :], values, 0.0)
        return start, values

    def _col_windows(
        self, upper_bound: IntArray, lower_bound: IntArray
    ) -> tuple[IntArray, FloatArray]:
        """Column-oriented windows for rows with ``lower_j <= i < upper_j``."""
        d_out, d = self.shape
        cols = np.arange(d, dtype=np.int64)
        start = np.searchsorted(upper_bound, cols, side="right").astype(np.int64)
        stop = np.searchsorted(lower_bound, cols, side="right").astype(np.int64)
        stop = np.maximum(stop, start)
        widths = stop - start
        k = int(widths.max()) if widths.size else 0
        if k == 0:
            return np.zeros(d, np.int64), np.zeros((0, d))
        offsets = np.arange(k, dtype=np.int64)[:, None]
        rows = np.clip(start[None, :] + offsets, 0, d_out - 1)
        col_idx = np.broadcast_to(cols[None, :], rows.shape)
        values = self._correction(rows, col_idx)
        values = np.where(offsets < widths[None, :], values, 0.0)
        return start, values

    @property
    def window_width(self) -> int:
        """Widest ramp window — the ``k`` in the O(d·k·B) product cost."""
        ramps = self._ramps
        return max(ramps.split, ramps.values.shape[0] - ramps.split)

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
