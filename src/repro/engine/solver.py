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

Every buffer the loop touches is allocated once per solve and sized for
the whole batch: the estimates and counts, the E-step, smoothing and
log-likelihood scratch, the current and previous log-likelihoods (which
swap roles each iteration) and one workspace per channel product
(:class:`repro.engine.operators.Workspace`), whose ``M x`` output rows are
the predicted densities. The active problems occupy the leading rows; when
columns freeze, the kept rows move to the front in place and every buffer
is viewed again over them. Each step then calls one NumPy kernel with
``out=`` — ``np.add.accumulate``, ``ndarray.take(..., out=)`` and
``np.add.reduce`` rather than the ``np.cumsum``/``np.take``/``.sum``
wrappers over them — and allocates nothing. The buffers belong to the
solve, never to the operator, which threads share. The arithmetic is the
historical loop's, operation for operation: ``tests/engine/
reference_solver.py`` keeps that loop and the historical products, and the
tests require the same bytes.

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


class _ActiveRows:
    """Every per-solve buffer of one batched solve, viewed over its active rows.

    The buffers are allocated once, for the whole batch; the still-active
    problems occupy their leading rows. The attributes are views over
    those rows: the estimates ``x`` and counts ``n`` (the solver's own
    copies), the E-step, smoothing and log-likelihood scratch, the current
    and previous log-likelihoods, and the channel's two product
    workspaces, whose ``M x`` output rows are the predicted densities.
    When columns freeze, :meth:`compact` moves the kept rows of every
    buffer that carries state from one iteration to the next to the front,
    in place, and views everything again over them.
    """

    def __init__(
        self,
        op: ChannelOperator,
        counts: FloatArray,
        x: FloatArray,
        smoothing: tuple[list[tuple[float, slice, slice]], FloatArray] | None,
    ) -> None:
        batch = x.shape[0]
        self._x = x.copy()
        self._n = np.array(counts, order="C")
        self._positive = self._n > 0.0  # fixed: counts never change
        # Zeroed once: logs land only on positive cells, so the zero-count
        # cells stay 0 as rows move with the active set.
        self._log = np.zeros(counts.shape)
        self._terms = np.empty(counts.shape)
        self._ll = np.empty((2, batch))
        self._current = 0  # which row of `_ll` holds the current values
        self._gain = np.empty(batch)
        self._totals = np.empty((batch, 1))
        self._forward, self._adjoint = op.workspaces(batch)
        self._taps = [] if smoothing is None else smoothing[0]
        self._smooth = None if smoothing is None else np.empty((2, *x.shape))
        self._view(batch)

    def _view(self, k: int) -> None:
        self.x, self.n, self.positive = self._x[:k], self._n[:k], self._positive[:k]
        self.log, self.terms = self._log[:k], self._terms[:k]
        self.current = self._ll[self._current, :k]
        self.previous = self._ll[1 - self._current, :k]
        self.gain, self.totals = self._gain[:k], self._totals[:k]
        self.forward, self.adjoint = self._forward.head(k), self._adjoint.head(k)
        self.density = self.forward.out
        if self._smooth is not None:
            self.numerator, scaled = self._smooth[0, :k], self._smooth[1, :k]
            self.taps = [
                (tap, self.numerator[:, target], self.x[:, source], scaled[:, target])
                for tap, target, source in self._taps
            ]

    def product(self, v: FloatArray) -> FloatArray:
        """The predicted densities ``M v``, floored, into :attr:`density`."""
        return np.maximum(self.forward.apply(v), _DENSITY_FLOOR, out=self.density)

    def log_likelihood(self, out: FloatArray) -> FloatArray:
        """Per-problem ``sum_j n_j log p_j`` of :attr:`density`, into ``out``.

        The log is evaluated only on positive-count cells (zero-count cells
        never touch the densities, so nothing rides on the ``1e-300`` floor
        there), while the summation still runs over each full contiguous
        row — the same pairwise order as a lone 1-d sum.
        """
        np.log(self.density, out=self.log, where=self.positive)
        np.multiply(self.n, self.log, out=self.terms)
        return np.add.reduce(self.terms, axis=1, out=out)

    def swap_log_likelihoods(self) -> None:
        """The current log-likelihoods become the previous ones."""
        self._current = 1 - self._current
        self.current, self.previous = self.previous, self.current

    def compact(self, keep: BoolArray) -> None:
        """Keep only the ``keep`` rows, moved to the front in order."""
        stateful = ("x", "n", "positive", "log", "current", "density")
        kept = [getattr(self, name)[keep] for name in stateful]
        self._view(len(kept[0]))
        for name, rows in zip(stateful, kept, strict=True):
            getattr(self, name)[...] = rows


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

    rows = _ActiveRows(op, n.T, x, smoothing)
    iterations = np.zeros(batch, dtype=np.int64)
    converged = np.zeros(batch, dtype=bool)
    rows.product(rows.x)
    rows.log_likelihood(rows.previous)
    idx = np.arange(batch)  # the still-active problems
    # The active columns' log-likelihoods, iteration after iteration, as
    # packed float64 bytes, and the iteration index from which each active
    # set applies.
    trace = bytearray()
    active_sets = [(0, idx)]
    divide, multiply, add = np.divide, np.multiply, np.add
    add_reduce, fmin_reduce = np.add.reduce, np.fmin.reduce

    for iteration in range(1, max_iter + 1):
        xa, totals = rows.x, rows.totals
        # Structured channels reuse the log-likelihood product as this
        # E-step's densities; dense channels recompute it.
        density = rows.density if structured else rows.product(xa)
        # E-step ratio in place: `density` is not read again.
        divide(rows.n, density, out=density)
        multiply(xa, rows.adjoint.apply(density), out=xa)
        add_reduce(xa, axis=1, keepdims=True, out=totals)
        # `fmin` skips NaN, so this is `(totals <= 0).any()` in one call.
        if fmin_reduce(totals, axis=None) <= 0:  # pragma: no cover
            dead = totals[:, 0] <= 0  # defensive; cannot occur with a valid matrix
            xa[dead] = 1.0 / d
            totals[dead] = 1.0
        divide(xa, totals, out=xa)
        if smoothing is not None:
            rows.numerator.fill(0.0)
            for tap, target, source, scaled in rows.taps:
                multiply(source, tap, out=scaled)
                add(target, scaled, out=target)
            divide(rows.numerator, smoothing[1], out=xa)
            add_reduce(xa, axis=1, keepdims=True, out=totals)
            divide(xa, totals, out=xa)
        rows.product(xa)
        current = rows.log_likelihood(rows.current)
        trace += current.tobytes()
        gain = np.subtract(current, rows.previous, out=rows.gain)
        if fmin_reduce(gain) < tol:
            finished = gain < tol
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
            rows.compact(keep)
        rows.swap_log_likelihoods()
    else:
        x[idx] = rows.x
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
