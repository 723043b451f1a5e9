"""repro.engine — the shared compute substrate under every estimator.

Three pieces, all pure infrastructure (no estimator logic lives here):

* :mod:`repro.engine.cache` — a process-wide, keyed, immutable cache of
  bucket transition matrices (validated once at insert, served read-only)
  plus channel operators and a generic object cache for other expensive
  pure derivations;
* :mod:`repro.engine.operators` — structured channel operators: the wave
  channels are uniform-plus-band, so ``M x`` / ``Mᵀ y`` run as
  cumsum/window passes in ``O(d · B)`` instead of dense ``O(d_out · d · B)``
  matmuls (:class:`DenseChannel` is the exact fallback);
* :mod:`repro.engine.solver` — the batched EM/EMS solver (paper §5.5):
  ``B`` independent reconstruction problems sharing one channel run as
  whole-batch products with a per-column convergence mask.

Every EM-backed estimator (the wave families of ``repro.core.pipeline``,
solved alone or fused by the streaming ``repro.protocol`` server) and the
experiment sweep runner route through this package; the
single-problem API in :mod:`repro.core.em` wraps one count vector into a
one-column batch.
"""

from repro.engine.cache import (
    MatrixCacheInfo,
    cached_channel_operator,
    cached_matrix,
    cached_object,
    cached_transition_matrix,
    clear_caches,
    freeze_matrix,
    matrix_cache_info,
    mechanism_cache_key,
    set_matrix_cache_limit,
)
from repro.engine.operators import (
    ChannelOperator,
    DenseChannel,
    UniformPlusBandedChannel,
    UniformPlusToeplitzChannel,
)
from repro.engine.solver import (
    BatchEMResult,
    EMResult,
    batched_expectation_maximization,
)

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
    "ChannelOperator",
    "DenseChannel",
    "UniformPlusBandedChannel",
    "UniformPlusToeplitzChannel",
    "EMResult",
    "BatchEMResult",
    "batched_expectation_maximization",
]
