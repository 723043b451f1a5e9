"""Single source of truth for EM/EMS configuration (paper Section 6.1).

Every estimator that reconstructs a distribution with EM or EMS — the wave
estimators, and so every collection server built on them — consumes one
:class:`EMConfig`. Centralizing it here fixes a real bug class:
the paper's tolerance rule (``1e-3 * e^eps`` for plain EM, a fixed ``1e-3``
for EMS) used to be re-implemented per call site, once with ``math.exp`` and
once with ``np.exp`` (returning a NumPy scalar), so nominally-identical
estimators disagreed on ``tol`` value *and* type.

This module deliberately imports nothing from the rest of the package at
module scope, so it can sit at the bottom of the dependency graph.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.utils.typing import ArrayLike, FloatArray
from repro.utils.validation import check_epsilon

if TYPE_CHECKING:
    from repro.core.em import EMResult
    from repro.engine.operators import ChannelOperator
    from repro.engine.solver import BatchEMResult

__all__ = ["DEFAULT_MAX_ITER", "POSTPROCESS_CHOICES", "EMConfig"]

#: EM/EMS iteration cap; generous because each step is O(d * d_out).
DEFAULT_MAX_ITER = 10_000

#: Valid EM post-processing modes.
POSTPROCESS_CHOICES = ("ems", "em")


@dataclass(frozen=True)
class EMConfig:
    """EM/EMS reconstruction settings shared by all EM-backed estimators.

    Parameters
    ----------
    postprocess:
        ``"ems"`` (EM with smoothing, the paper default) or ``"em"``.
    tol:
        Log-likelihood stopping threshold; ``None`` selects the paper default
        for the chosen post-processing (see :meth:`default_tolerance`).
    max_iter:
        Hard iteration cap.
    smoothing_order:
        Binomial smoothing kernel order for EMS; ignored by plain EM.
    """

    postprocess: str = "ems"
    tol: float | None = None
    max_iter: int = DEFAULT_MAX_ITER
    smoothing_order: int = 2

    def __post_init__(self) -> None:
        if self.postprocess not in POSTPROCESS_CHOICES:
            raise ValueError(
                f"postprocess must be one of {POSTPROCESS_CHOICES}, "
                f"got {self.postprocess!r}"
            )
        if self.tol is not None:
            object.__setattr__(self, "tol", float(self.tol))
            if not self.tol > 0.0:
                raise ValueError(f"tol must be > 0, got {self.tol}")
        object.__setattr__(self, "max_iter", int(self.max_iter))
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        object.__setattr__(self, "smoothing_order", int(self.smoothing_order))
        if self.smoothing_order < 1:
            raise ValueError(
                f"smoothing_order must be >= 1, got {self.smoothing_order}"
            )

    @staticmethod
    def default_tolerance(postprocess: str, epsilon: float) -> float:
        """Paper Section 6.1: ``1e-3 * e^eps`` for EM, fixed ``1e-3`` for EMS.

        Always returns a plain Python ``float`` (never a NumPy scalar), so
        configs serialize cleanly and compare equal across call sites. The
        EM rule raises ``ValueError`` for a budget that is not finite and
        positive.
        """
        if postprocess not in POSTPROCESS_CHOICES:
            raise ValueError(
                f"postprocess must be one of {POSTPROCESS_CHOICES}, "
                f"got {postprocess!r}"
            )
        if postprocess == "em":
            return 1e-3 * math.exp(check_epsilon(epsilon))
        return 1e-3

    def resolve_tolerance(self, epsilon: float) -> float:
        """The effective ``tol``: the explicit one, or the paper default."""
        if self.tol is not None:
            return float(self.tol)
        return self.default_tolerance(self.postprocess, epsilon)

    def kernel(self) -> FloatArray | None:
        """Smoothing kernel for EMS runs; ``None`` for plain EM."""
        if self.postprocess != "ems":
            return None
        from repro.core.smoothing import binomial_kernel

        return binomial_kernel(self.smoothing_order)

    def run(
        self,
        matrix: FloatArray | ChannelOperator,
        counts: ArrayLike,
        epsilon: float,
        *,
        validated: bool = False,
        x0: FloatArray | None = None,
    ) -> EMResult:
        """Run EM/EMS on a report histogram with this configuration.

        ``matrix`` may be a dense ``(d_out, d)`` transition matrix or a
        :class:`repro.engine.operators.ChannelOperator` (the structured
        wave channels run each iteration in ``O(d)``).
        ``validated=True`` skips the column-stochastic channel check — pass
        it when the channel comes from the engine cache, which validates
        once at insert. ``x0`` warm-starts the solve from a previous
        posterior instead of the uniform prior: a nearby start converges
        in far fewer iterations, which is what makes mid-round
        incremental estimates cheap (:mod:`repro.protocol.server`). It
        stops at the tolerance near where it started, so its estimate is
        not the cold solve's.
        Returns the :class:`~repro.core.em.EMResult`.
        """
        return self.run_many(
            matrix, np.asarray(counts, dtype=np.float64)[:, None],
            epsilon, validated=validated, x0=x0,
        ).column(0)

    def run_many(
        self,
        matrix: FloatArray | ChannelOperator,
        counts: ArrayLike,
        epsilon: float,
        *,
        validated: bool = False,
        x0: FloatArray | None = None,
    ) -> BatchEMResult:
        """Batched EM/EMS over ``(d_out, B)`` stacked report histograms.

        All ``B`` problems share ``matrix`` — a dense array or a
        :class:`repro.engine.operators.ChannelOperator` — and this
        configuration; the engine solves them as whole-batch products with
        a per-column convergence mask. ``x0`` (a ``(d,)`` start shared by every column,
        or ``(d, B)`` per-column starts) warm-starts the solver; ``None``
        keeps the uniform prior. Returns the
        :class:`~repro.engine.solver.BatchEMResult`.
        """
        from repro.engine.solver import batched_expectation_maximization

        return batched_expectation_maximization(
            matrix,
            counts,
            tol=self.resolve_tolerance(epsilon),
            max_iter=self.max_iter,
            smoothing_kernel=self.kernel(),
            x0=x0,
            validate_matrix=not validated,
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable form; invert with ``EMConfig(**d)``."""
        return asdict(self)
