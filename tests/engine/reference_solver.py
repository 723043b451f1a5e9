"""The historical batched EM/EMS loop, kept as the byte-equality reference.

This is the solver loop as it stood before per-solve setup moved out of
the iteration loop (smoothing taps and edge weights, the log-likelihood
scratch block, in-place E/M/S steps, write-back on freeze, history
assembled once at the end). It is copied verbatim, together with its two
helpers, so tests can require that :func:`repro.engine.solver.
batched_expectation_maximization` returns the same bytes: estimates,
iteration counts, converged flags, log-likelihoods and histories.

Its channel products are the structured products as they stood before
they moved onto per-solve workspaces: :func:`_banded_product` and
:func:`_add_ramps` are the bodies of ``_banded_product`` and
``_RampWindows.add_to`` copied verbatim, reading the operator's band
bounds and ramp tables, and a dense channel is the BLAS product the solver
always ran. So the reference does not run the products it checks.

It is test code only — nothing in ``src/`` imports it.
"""

from __future__ import annotations

import numpy as np

from repro.api.config import DEFAULT_MAX_ITER
from repro.engine.operators import (
    ChannelOperator,
    DenseChannel,
    UniformPlusBandedChannel,
    UniformPlusToeplitzChannel,
)
from repro.engine.solver import BatchEMResult
from repro.utils.typing import ArrayLike, BoolArray, FloatArray, IntArray

__all__ = ["batched_expectation_maximization"]

#: Floor applied to predicted report probabilities before dividing/logging.
_DENSITY_FLOOR = 1e-300

#: Initial row capacity of the log-likelihood history buffer; doubled on
#: demand so a ``max_iter`` of 10k with a wide batch does not preallocate
#: a huge mostly-unused array.
_HISTORY_CHUNK = 128


def _banded_product(
    v: FloatArray, lo: IntArray, hi: IntArray, delta: float, outside: float
) -> FloatArray:
    """The cumsum-boxcar product of the uniform-plus-band channels.

    ``out[..., j] = outside * v.sum() + delta * v[..., lo[j]:hi[j]].sum()``
    per problem row — the whole structured matvec/rmatvec for two-valued
    band channels, and the plateau term of the Toeplitz channel.
    """
    s = np.zeros(v.shape[:-1] + (v.shape[-1] + 1,), dtype=np.float64)
    np.cumsum(v, axis=-1, out=s[..., 1:])
    band = np.take(s, hi, axis=-1)
    band -= np.take(s, lo, axis=-1)
    band *= delta
    band += outside * s[..., -1:]
    return band


def _add_ramps(self, out: FloatArray, v: FloatArray) -> None:
    """Add the rise, then the fall sums to ``out``, per problem row.

    ``self`` is the operator's ramp table (``_ramps`` or ``_col_ramps``).
    A ramp adds ``sum_r values[r, k] * v[b, idx[r, k]]`` to
    ``out[b, k]``. Each ramp sums over ``r`` on its own, in index
    order for every row, so a row's result does not depend on how
    many rows share the batch.
    """
    gathered = np.take(v, self._idx, axis=1)  # (B, rise + fall, n)
    gathered *= self.values
    out += gathered[:, : self.split].sum(axis=1)
    out += gathered[:, self.split :].sum(axis=1)


def matvec_rows(op: ChannelOperator, x: FloatArray) -> FloatArray:
    """``M x`` per problem row, as the operators computed it."""
    if isinstance(op, UniformPlusToeplitzChannel):
        out = _banded_product(x, op._band_lo, op._band_hi, op._plateau, op._baseline)
        _add_ramps(op._ramps, out, x)
        return out
    if isinstance(op, UniformPlusBandedChannel):
        return _banded_product(x, op._lo, op._hi, op._delta, op.outside)
    assert isinstance(op, DenseChannel)
    return x @ op.matrix.T


def rmatvec_rows(op: ChannelOperator, y: FloatArray) -> FloatArray:
    """``Mᵀ y`` per problem row, as the operators computed it."""
    if isinstance(op, UniformPlusToeplitzChannel):
        out = _banded_product(
            y, op._col_band_lo, op._col_band_hi, op._plateau, op._baseline
        )
        _add_ramps(op._col_ramps, out, y)
        return out
    if isinstance(op, UniformPlusBandedChannel):
        return _banded_product(y, op._rlo, op._rhi, op._delta, op.outside)
    assert isinstance(op, DenseChannel)
    return y @ op.matrix


def _log_likelihood_rows(
    counts: FloatArray, predicted: FloatArray, positive: BoolArray
) -> FloatArray:
    """Per-problem ``sum_j n_j log p_j`` (zero-count terms contribute 0).

    ``positive`` is the precomputed ``counts > 0`` mask; the log is
    evaluated only on those cells (zero-count cells never touch
    ``predicted``, so nothing rides on the ``1e-300`` floor there), while
    the summation still runs over each full contiguous row — the same
    pairwise order as a lone 1-d sum.
    """
    log_predicted = np.zeros_like(predicted)
    np.log(predicted, out=log_predicted, where=positive)
    return (counts * log_predicted).sum(axis=1)


def _smooth_rows(x: FloatArray, kernel: FloatArray) -> FloatArray:
    """Row-wise :func:`repro.core.smoothing.smooth` (edge-renormalized).

    Same semantics as the 1-d version: kernel taps that fall outside the
    domain are dropped and the surviving weights rescaled, applied to every
    problem row at once via shifted-slice accumulation instead of ``B``
    separate convolutions.
    """
    d = x.shape[1]
    if kernel.ndim != 1 or kernel.size % 2 == 0:
        raise ValueError("kernel must be 1-d with odd length")
    if kernel.size > 2 * d - 1:
        raise ValueError("kernel wider than the signal")
    half = kernel.size // 2
    numerator = np.zeros_like(x)
    weight = np.zeros(d)
    for j, tap in enumerate(kernel):
        # Convolution orientation: output[i] += kernel[j] * x[i + half - j].
        offset = half - j
        lo = max(0, -offset)
        hi = min(d, d - offset)
        numerator[:, lo:hi] += tap * x[:, lo + offset : hi + offset]
        weight[lo:hi] += tap
    return numerator / weight


def batched_expectation_maximization(
    matrix: FloatArray | ChannelOperator,
    counts: ArrayLike,
    *,
    tol: float = 1e-3,
    max_iter: int = DEFAULT_MAX_ITER,
    smoothing_kernel: ArrayLike | None = None,
    x0: ArrayLike | None = None,
    validate_matrix: bool = True,
) -> BatchEMResult:
    """Reconstruct ``B`` input histograms sharing one channel.

    Parameters
    ----------
    matrix:
        ``(d_out, d)`` transition matrix (columns must sum to 1) or a
        :class:`~repro.engine.operators.ChannelOperator`. Dense matrices
        take the historical BLAS path (bitwise-unchanged output);
        structured operators run each iteration in ``O(d · B)`` and reuse
        the log-likelihood product as the next E-step's densities.
    counts:
        ``(d_out, B)`` stacked report histograms, one problem per column
        (non-negative; every column needs at least one report).
    tol:
        Per-column stop: freeze a column when its log-likelihood
        improvement falls below this value.
    max_iter:
        Hard iteration cap; columns still active at the cap are flagged
        ``converged=False``.
    smoothing_kernel:
        Odd-length kernel applied column-wise after each M-step (EMS);
        ``None`` disables smoothing (plain EM).
    x0:
        Starting histogram — ``(d,)`` shared by every column or ``(d, B)``
        per-column; defaults to uniform. Each column is normalized to sum
        to 1, so an all-ones column starts exactly where a cold solve does
        (``1/d`` everywhere) — the way to mix cold and warm columns.
    validate_matrix:
        Skip the column-stochastic check when the channel comes from the
        engine cache (already validated at insert).

    Returns
    -------
    BatchEMResult
        ``estimates`` is a ``(d, B)`` view of the problem-major solution.
    """
    if isinstance(matrix, ChannelOperator):
        op: ChannelOperator = matrix
    else:
        m = np.asarray(matrix, dtype=np.float64)
        if m.ndim != 2:
            raise ValueError(f"matrix must be 2-d, got shape {m.shape}")
        op = DenseChannel(m)
    structured = op.structured
    d_out, d = op.shape
    n = np.asarray(counts, dtype=np.float64)
    if n.ndim != 2 or n.shape[0] != d_out:
        raise ValueError(f"counts must have shape ({d_out}, B), got {n.shape}")
    batch = n.shape[1]
    if batch < 1:
        raise ValueError("counts must contain at least one problem column")
    if n.min() < 0:
        raise ValueError("counts must be non-negative")
    if not (n.sum(axis=0) > 0).all():
        raise ValueError("counts must contain at least one report")
    if validate_matrix:
        if not np.allclose(op.column_sums(), 1.0, atol=1e-6):
            raise ValueError("matrix columns must sum to 1")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    kernel = (
        None
        if smoothing_kernel is None
        else np.asarray(smoothing_kernel, dtype=np.float64)
    )
    n = np.ascontiguousarray(n.T)  # (B, d_out): one problem per row

    if x0 is None:
        x = np.full((batch, d), 1.0 / d)
    else:
        x = np.asarray(x0, dtype=np.float64)
        if x.ndim == 1:
            x = np.repeat(x[None, :], batch, axis=0)
        else:
            x = np.ascontiguousarray(x.T)
        if (
            x.shape != (batch, d)
            or x.min() < 0
            or not (x.sum(axis=1) > 0).all()
        ):
            raise ValueError(
                "x0 must be a non-negative length-d vector with positive sum"
            )
        x = x / x.sum(axis=1, keepdims=True)

    def product(v: FloatArray) -> FloatArray:
        out = matvec_rows(op, v)
        return np.maximum(out, _DENSITY_FLOOR, out=out)

    iterations = np.zeros(batch, dtype=np.int64)
    converged = np.zeros(batch, dtype=bool)
    positive = n > 0.0  # fixed across iterations: counts never change
    ll_buffer = np.zeros((min(max_iter, _HISTORY_CHUNK), batch))
    initial = product(x)
    previous = _log_likelihood_rows(n, initial, positive)
    # Structured channels reuse the log-likelihood product as the next
    # E-step's predicted densities (rows tracked alongside `idx`).
    carried: FloatArray | None = initial if structured else None
    idx = np.arange(batch)  # the still-active problems
    xa, na, pa = x, n, positive

    for iteration in range(1, max_iter + 1):
        predicted = carried if carried is not None else product(xa)
        weights = rmatvec_rows(op, na / predicted)
        xa = xa * weights
        totals = xa.sum(axis=1, keepdims=True)
        dead = totals[:, 0] <= 0  # defensive; cannot occur with a valid matrix
        if dead.any():  # pragma: no cover
            xa[dead] = 1.0 / d
            totals[dead] = 1.0
        xa = xa / totals
        if kernel is not None:
            xa = _smooth_rows(xa, kernel)
            xa = xa / xa.sum(axis=1, keepdims=True)
        refreshed = product(xa)
        current = _log_likelihood_rows(na, refreshed, pa)
        x[idx] = xa
        iterations[idx] = iteration
        if iteration > ll_buffer.shape[0]:
            grown = np.zeros((min(max_iter, 2 * ll_buffer.shape[0]), batch))
            grown[: ll_buffer.shape[0]] = ll_buffer
            ll_buffer = grown
        ll_buffer[iteration - 1, idx] = current
        finished = current - previous[idx] < tol
        converged[idx[finished]] = True
        previous[idx] = current
        if finished.all():
            break
        if finished.any():
            # Freeze finished problems: keep only the still-active rows.
            keep = ~finished
            idx = idx[keep]
            xa, na, pa = xa[keep], na[keep], pa[keep]
            refreshed = refreshed[keep]
        if structured:
            carried = refreshed

    log_likelihood = ll_buffer[iterations - 1, np.arange(batch)].copy()
    return BatchEMResult(
        estimates=x.T,
        iterations=iterations,
        converged=converged,
        log_likelihood=log_likelihood,
        histories=tuple(
            ll_buffer[: iterations[j], j].copy() for j in range(batch)
        ),
    )
