"""Expectation Maximization, with and without smoothing (paper Section 5.5).

Given the aggregated report histogram ``n_j`` and the transition matrix
``M[j, i] = Pr[out in B~_j | in in B_i]``, plain EM converges to the MLE of
the input distribution (Theorem 5.6: the log-likelihood is concave). One
fully vectorized iteration is

    E-step:  P = x ⊙ Mᵀ (n ⊘ (M x))
    M-step:  x = P / sum(P)

EMS inserts an S-step after the M-step — binomial-kernel smoothing followed
by renormalization — which regularizes against fitting the LDP noise and
removes the delicate stopping-threshold tuning that plain EM needs.

Stopping: iterate until the log-likelihood improvement drops below ``tol``.
Paper defaults (Section 6.1): ``tol = 1e-3 * e^eps`` for EM and
``tol = 1e-3`` for EMS; :class:`repro.api.EMConfig` applies them
(``EMConfig(postprocess="em").run(matrix, counts, epsilon)``).

This module is the single-problem view of the batched solver in
:mod:`repro.engine.solver` — ``expectation_maximization`` wraps one count
vector into a one-column batch, so the sequential and batched paths share
one implementation (and one :class:`EMResult` diagnostics type). Call the
engine directly to solve many count vectors against the same matrix in one
BLAS-batched pass.
"""

from __future__ import annotations

import numpy as np

from repro.api.config import DEFAULT_MAX_ITER
from repro.engine.operators import ChannelOperator
from repro.engine.solver import EMResult, batched_expectation_maximization

__all__ = [
    "EMResult",
    "DEFAULT_MAX_ITER",
    "expectation_maximization",
]


def expectation_maximization(
    matrix: np.ndarray,
    counts: np.ndarray,
    *,
    tol: float = 1e-3,
    max_iter: int = DEFAULT_MAX_ITER,
    smoothing_kernel: np.ndarray | None = None,
    x0: np.ndarray | None = None,
) -> EMResult:
    """Run EM (or EMS when ``smoothing_kernel`` is given) to reconstruct ``x``.

    Parameters
    ----------
    matrix:
        ``(d_out, d)`` transition matrix (columns must sum to 1) or a
        :class:`repro.engine.operators.ChannelOperator`.
    counts:
        Length-``d_out`` histogram of observed reports (non-negative).
    tol:
        Stop when the per-iteration log-likelihood improvement falls below
        this value.
    max_iter:
        Hard iteration cap; the result is flagged ``converged=False`` if hit.
    smoothing_kernel:
        Odd-length kernel applied after each M-step (EMS). ``None`` disables
        smoothing (plain EM).
    x0:
        Starting histogram; defaults to uniform.

    Returns
    -------
    EMResult
    """
    if isinstance(matrix, ChannelOperator):
        m = matrix
        d_out = m.shape[0]
    else:
        m = np.asarray(matrix, dtype=np.float64)
        if m.ndim != 2:
            raise ValueError(f"matrix must be 2-d, got shape {m.shape}")
        d_out = m.shape[0]
    n = np.asarray(counts, dtype=np.float64)
    if n.shape != (d_out,):
        raise ValueError(f"counts must have shape ({d_out},), got {n.shape}")
    if x0 is not None:
        x0 = np.asarray(x0, dtype=np.float64)
        if x0.ndim != 1:
            raise ValueError(
                "x0 must be a non-negative length-d vector with positive sum"
            )
    return batched_expectation_maximization(
        m,
        n[:, None],
        tol=tol,
        max_iter=max_iter,
        smoothing_kernel=smoothing_kernel,
        x0=x0,
    ).column(0)
