"""Batched EM/EMS reconstruction (paper Section 5.5, vectorized over problems).

EM against a fixed channel is the hot path of every estimator family in
this package: per-attribute marginals, streaming server rounds, and every
sweep repetition solve ``argmax_x sum_j n_j log (M x)_j`` for a fresh count
vector ``n`` against the *same* channel. This module stacks ``B`` such
problems into an ``(d_out, B)`` count matrix and runs the E/M/S steps as
single whole-batch products:

    E-step:  W = Mᵀ (N ⊘ (M X))
    M-step:  X = normalize(X ⊙ W)          (column-wise)
    S-step:  X = normalize(smooth(X))      (EMS only; binomial kernel)

The channel may be a dense ``(d_out, d)`` matrix — the products are BLAS
matmuls, and this path is bitwise-identical to the historical solver — or a
:class:`repro.engine.operators.ChannelOperator`, whose structured
``matvec``/``rmatvec`` turn each iteration into ``O(d · B)`` cumsum/window
work for the wave channels. On the structured path the ``M X`` product
computed for the log-likelihood is reused as the next iteration's E-step
densities, so each iteration costs one ``matvec`` + one ``rmatvec``.

Internally the batch is *problem-major*: each problem's vectors are one
contiguous row of a ``(B, d)`` array, so every per-problem sum (column
totals, log-likelihoods, the smoothing renormalization) and every
structured product runs in the same order whatever ``B`` is. On a
structured channel, column ``j`` of a ``B``-problem solve is therefore
bit-identical to solving problem ``j`` alone — which is what lets the
serving tiers fuse same-channel solves without changing a single estimate.
Dense channels do not get that guarantee (a BLAS gemm does not round like
``B`` separate gemv calls), so callers fuse structured channels only.

Columns converge independently: a per-column mask freezes finished problems
(their iteration counts and log-likelihood histories match a sequential run
column by column) while the remaining ones keep iterating, so the batch
stops exactly when the slowest problem does. Stopping follows the paper's
Section 6.1 rule — iterate until the per-column log-likelihood improvement
drops below ``tol``.

:func:`repro.core.em.expectation_maximization` is the single-problem
wrapper around this solver; :class:`EMResult` lives here so both views
share one diagnostics type.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from repro.api.config import DEFAULT_MAX_ITER
from repro.engine.backend import ComputeBackend, resolve_backend
from repro.engine.operators import ChannelOperator, DenseChannel
from repro.utils.typing import ArrayLike, BoolArray, FloatArray, IntArray

__all__ = [
    "EMResult",
    "BatchEMResult",
    "batched_expectation_maximization",
]

#: Floor applied to predicted report probabilities before dividing/logging.
_DENSITY_FLOOR = 1e-300

#: Initial row capacity of the log-likelihood history buffer; doubled on
#: demand so a ``max_iter`` of 10k with a wide batch does not preallocate
#: a huge mostly-unused array.
_HISTORY_CHUNK = 128


@dataclass(frozen=True)
class EMResult:
    """Outcome of an EM/EMS run.

    Attributes
    ----------
    estimate:
        Reconstructed input histogram (non-negative, sums to 1).
    iterations:
        Number of completed iterations.
    converged:
        Whether the tolerance was met before ``max_iter``.
    log_likelihood:
        Final data log-likelihood ``sum_j n_j log (M x)_j``.
    history:
        Log-likelihood after every iteration (length ``iterations``).
    """

    estimate: FloatArray
    iterations: int
    converged: bool
    log_likelihood: float
    history: FloatArray = field(repr=False)


@dataclass(frozen=True)
class BatchEMResult:
    """Outcome of one batched EM/EMS solve over ``B`` stacked problems.

    Attributes
    ----------
    estimates:
        ``(d, B)`` reconstructed histograms, one column per problem.
    iterations:
        ``(B,)`` completed iterations per column.
    converged:
        ``(B,)`` convergence flags per column.
    log_likelihood:
        ``(B,)`` final data log-likelihoods.
    histories:
        Per-column log-likelihood trajectories (ragged: columns stop at
        different iterations).
    """

    estimates: FloatArray
    iterations: IntArray
    converged: BoolArray
    log_likelihood: FloatArray
    histories: tuple[FloatArray, ...] = field(repr=False)

    @property
    def batch_size(self) -> int:
        return int(self.estimates.shape[1])

    def column(self, j: int) -> EMResult:
        """The ``j``-th problem's outcome as a sequential-style EMResult."""
        return EMResult(
            estimate=self.estimates[:, j].copy(),
            iterations=int(self.iterations[j]),
            converged=bool(self.converged[j]),
            log_likelihood=float(self.log_likelihood[j]),
            history=self.histories[j],
        )

    def __iter__(self) -> Iterator[EMResult]:
        return (self.column(j) for j in range(self.batch_size))


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
    backend: ComputeBackend | str | None = None,
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
    backend:
        Compute backend for the channel products — an instance, a registry
        name (``"numpy"``, ``"threaded"``, ``"threaded:4"``, ``"numba"``),
        or ``None`` for the process-wide active backend
        (:func:`repro.engine.backend.backend`). Backends are
        value-equivalent to 1e-12; the default NumPy backend is
        bitwise-identical to the historical inline products.

    Returns
    -------
    BatchEMResult
        ``estimates`` is a ``(d, B)`` view of the problem-major solution.
    """
    bk = resolve_backend(backend)
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
        out = op.matvec_rows(v, bk)
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
        weights = op.rmatvec_rows(na / predicted, bk)
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
