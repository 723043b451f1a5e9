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

What does not change between iterations — the smoothing taps and edge
weights, a zeroed log-likelihood scratch block — is set up once per solve,
and the E/M/S steps update the active rows in place. The arithmetic is the
historical loop's, operation for operation: ``tests/engine/
reference_solver.py`` keeps that loop, and the tests require the same bytes.

:func:`repro.core.em.expectation_maximization` is the single-problem
wrapper around this solver; :class:`EMResult` lives here so both views
share one diagnostics type.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from repro.api.config import DEFAULT_MAX_ITER
from repro.engine.operators import ChannelOperator, DenseChannel
from repro.utils.typing import ArrayLike, BoolArray, FloatArray, IntArray

__all__ = [
    "EMResult",
    "BatchEMResult",
    "batched_expectation_maximization",
]

#: Floor applied to predicted report probabilities before dividing/logging.
_DENSITY_FLOOR = 1e-300


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
    counts: FloatArray,
    predicted: FloatArray,
    positive: BoolArray,
    log_predicted: FloatArray,
) -> FloatArray:
    """Per-problem ``sum_j n_j log p_j`` (zero-count terms contribute 0).

    ``positive`` is the precomputed ``counts > 0`` mask; the log is
    evaluated only on those cells (zero-count cells never touch
    ``predicted``, so nothing rides on the ``1e-300`` floor there), while
    the summation still runs over each full contiguous row — the same
    pairwise order as a lone 1-d sum. The logs land in the caller's
    ``log_predicted`` scratch block, whose zero-count cells must hold 0.
    """
    np.log(predicted, out=log_predicted, where=positive)
    return (counts * log_predicted).sum(axis=1)


def _smoothing_taps(
    kernel: FloatArray, d: int
) -> tuple[list[tuple[float, slice, slice]], FloatArray]:
    """Per-solve setup of the row-wise edge-renormalized S-step.

    Same semantics as :func:`repro.core.smoothing.smooth`: kernel taps that
    fall outside the domain are dropped and the surviving weights rescaled.
    Returns ``(tap, target, source)`` triples for the shifted-slice
    accumulation ``numerator[:, target] += tap * x[:, source]`` and the
    per-bucket sum of surviving taps, accumulated in tap order.
    """
    if kernel.ndim != 1 or kernel.size % 2 == 0:
        raise ValueError("kernel must be 1-d with odd length")
    if kernel.size > 2 * d - 1:
        raise ValueError("kernel wider than the signal")
    half = kernel.size // 2
    taps = []
    weight = np.zeros(d)
    for j, tap in enumerate(kernel.tolist()):
        # Convolution orientation: output[i] += kernel[j] * x[i + half - j].
        offset = half - j
        lo = max(0, -offset)
        hi = min(d, d - offset)
        taps.append((tap, slice(lo, hi), slice(lo + offset, hi + offset)))
        weight[lo:hi] += tap
    return taps, weight


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
    if not np.isfinite(n).all():
        raise ValueError("counts must be finite (no inf or NaN)")
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
        if not np.isfinite(x).all():
            raise ValueError("x0 must be finite (no inf or NaN)")
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
    smoothing = None if kernel is None else _smoothing_taps(kernel, d)

    def product(v: FloatArray) -> FloatArray:
        out = op.matvec_rows(v)
        return np.maximum(out, _DENSITY_FLOOR, out=out)

    iterations = np.zeros(batch, dtype=np.int64)
    converged = np.zeros(batch, dtype=bool)
    positive = n > 0.0  # fixed across iterations: counts never change
    # Zeroed once: logs land only on positive cells, so the zero-count
    # cells stay 0 as the rows are compacted with the active set.
    log_predicted = np.zeros((batch, d_out))
    initial = product(x)
    previous = _log_likelihood_rows(n, initial, positive, log_predicted)
    # Structured channels reuse the log-likelihood product as the next
    # E-step's predicted densities (rows tracked alongside `idx`).
    carried: FloatArray | None = initial if structured else None
    idx = np.arange(batch)  # the still-active problems
    # `x` is this solve's own array; the active rows `xa` are updated in
    # place and written back to `x` when a column freezes or the loop ends.
    xa, na, pa = x, n, positive
    # The active columns' log-likelihoods, iteration after iteration, as
    # packed float64 bytes, and the iteration index from which each active
    # set applies.
    trace = bytearray()
    active_sets = [(0, idx)]

    for iteration in range(1, max_iter + 1):
        predicted = carried if carried is not None else product(xa)
        # E-step ratio in place: `predicted` is not read again.
        weights = op.rmatvec_rows(np.divide(na, predicted, out=predicted))
        xa *= weights
        totals = xa.sum(axis=1, keepdims=True)
        dead = totals[:, 0] <= 0  # defensive; cannot occur with a valid matrix
        if dead.any():  # pragma: no cover
            xa[dead] = 1.0 / d
            totals[dead] = 1.0
        xa /= totals
        if smoothing is not None:
            taps, tap_weight = smoothing
            numerator = np.zeros_like(xa)
            for tap, target, source in taps:
                numerator[:, target] += tap * xa[:, source]
            np.divide(numerator, tap_weight, out=xa)
            xa /= xa.sum(axis=1, keepdims=True)
        refreshed = product(xa)
        current = _log_likelihood_rows(na, refreshed, pa, log_predicted)
        trace += current.tobytes()
        finished = current - previous < tol
        if finished.any():
            done = idx[finished]
            x[done] = xa[finished]
            iterations[done] = iteration
            converged[done] = True
            if finished.all():
                break
            # Freeze finished problems: keep only the still-active rows.
            keep = ~finished
            idx = idx[keep]
            active_sets.append((iteration, idx))
            xa, na, pa = xa[keep], na[keep], pa[keep]
            log_predicted = log_predicted[keep]
            current, refreshed = current[keep], refreshed[keep]
        previous = current
        if structured:
            carried = refreshed
    else:
        x[idx] = xa
        iterations[idx] = max_iter

    # Unpack the trace: each active set's rows fill that set's columns.
    table = np.empty((int(iterations.max()), batch))
    stops = [start for start, _ in active_sets[1:]] + [table.shape[0]]
    flat = np.frombuffer(trace)
    offset = 0
    for (start, cols), stop in zip(active_sets, stops, strict=True):
        size = (stop - start) * cols.size
        table[start:stop, cols] = flat[offset : offset + size].reshape(-1, cols.size)
        offset += size
    return BatchEMResult(
        estimates=x.T,
        iterations=iterations,
        converged=converged,
        log_likelihood=table[iterations - 1, np.arange(batch)],
        histories=tuple(
            table[: iterations[j], j].copy() for j in range(batch)
        ),
    )
