"""The Square Wave mechanism (paper Sections 5.2 and 5.4).

Continuous variant ("randomize before bucketize"): a user with ``v in [0,1]``
reports a draw from the density that equals ``p`` within ``[v - b, v + b]``
and ``q`` elsewhere on ``[-b, 1 + b]``, with ``p/q = e^eps`` and

    p = e^eps / (2b e^eps + 1),     q = 1 / (2b e^eps + 1).

Discrete variant ("bucketize before randomize"): same shape on an integer
domain of size ``d`` with integer half-width ``b``; the output domain has
``d + 2b`` positions and

    p = e^eps / ((2b + 1) e^eps + d - 1),
    q = 1 / ((2b + 1) e^eps + d - 1).

Both satisfy eps-LDP because every output's density ratio between any two
inputs is at most ``p/q = e^eps`` (Theorem 5.2).
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.bandwidth import discrete_bandwidth, optimal_bandwidth
from repro.core.transform import discrete_sw_transition_matrix, sw_transition_matrix
from repro.utils.rng import as_generator
from repro.utils.validation import check_domain_size, check_epsilon, check_unit_values

__all__ = ["SquareWave", "DiscreteSquareWave"]

#: Elements per block in the large-batch kernels. Their temporaries are
#: block-sized, so they stay in cache instead of faulting in fresh pages
#: on every call.
_BLOCK = 16_384


def _select(dst: np.ndarray, src: np.ndarray, mask: np.ndarray) -> None:
    """Copy ``src`` into ``dst`` where the int64 ``mask`` is -1 (all bits set).

    A branch-free select on the float64 bit patterns: each element is one
    operand's bits exactly. ``src`` is overwritten.
    """
    dst_bits, src_bits = dst.view(np.int64), src.view(np.int64)
    src_bits ^= dst_bits
    src_bits &= mask
    dst_bits ^= src_bits


def _bucket_counts(arr: np.ndarray, low: float, span: float, d_out: int) -> np.ndarray:
    """Integer counts of in-domain reports over ``d_out`` equal buckets."""
    idx = np.floor((arr - low) / span * d_out).astype(np.int64)
    idx = np.clip(idx, 0, d_out - 1)
    return np.bincount(idx, minlength=d_out)


class SquareWave:
    """Continuous Square Wave randomizer on ``[0, 1] -> [-b, 1 + b]``.

    Parameters
    ----------
    epsilon:
        Privacy budget.
    b:
        Wave half-width; defaults to the mutual-information optimum
        ``b*(epsilon)`` from :func:`repro.core.bandwidth.optimal_bandwidth`.
    """

    name = "sw"

    def __init__(self, epsilon: float, b: float | None = None) -> None:
        self.epsilon = check_epsilon(epsilon)
        if b is None:
            b = optimal_bandwidth(self.epsilon)
        if not 0.0 < b <= 0.5:
            raise ValueError(f"b must be in (0, 0.5], got {b}")
        self.b = float(b)
        e_eps = math.exp(self.epsilon)
        self.p = e_eps / (2.0 * self.b * e_eps + 1.0)
        self.q = 1.0 / (2.0 * self.b * e_eps + 1.0)

    @property
    def output_low(self) -> float:
        return -self.b

    @property
    def output_high(self) -> float:
        return 1.0 + self.b

    def pdf(self, v: float, v_tilde: np.ndarray) -> np.ndarray:
        """Output density ``M_v(v~)`` for input ``v`` (0 outside the domain)."""
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"v must be in [0, 1], got {v}")
        out = np.asarray(v_tilde, dtype=np.float64)
        inside = (out >= self.output_low) & (out <= self.output_high)
        near = np.abs(out - v) <= self.b
        return np.where(inside, np.where(near, self.p, self.q), 0.0)

    def privatize(self, values: np.ndarray, rng=None) -> np.ndarray:
        """Randomize each value into a float report in ``[-b, 1 + b]``.

        With probability ``2 b p`` the report is uniform on the near band
        ``[v - b, v + b]``; otherwise it is uniform on the complement, whose
        total length is exactly 1 regardless of ``v``.
        """
        vals = check_unit_values(values)
        gen = as_generator(rng)
        n = vals.size
        b = self.b
        near_mass = 2.0 * b * self.p
        # The first draw picks near or far and its array becomes the
        # reports. The second is drawn one block at a time into one reused
        # buffer, which continues the generator stream exactly as one whole
        # draw would. `vals` may be the caller's array and is never written.
        out = gen.random(n)
        size = min(n, _BLOCK)
        buffers = (
            np.empty(size),
            np.empty(size),
            np.empty(size, dtype=bool),
            np.empty(size, dtype=np.int64),
            np.empty(size, dtype=np.int64),
        )
        for start in range(0, n, _BLOCK):
            block, v = out[start : start + _BLOCK], vals[start : start + _BLOCK]
            u, scratch, flag, near, left = (buf[: block.size] for buf in buffers)
            np.less(block, near_mass, out=flag)
            np.negative(flag, out=near, dtype=np.int64)
            gen.random(out=u)
            # Far region = [-b, v - b) U (v + b, 1 + b]; the left piece has
            # length v, so u < v lands left and u >= v lands right.
            np.less(u, v, out=flag)
            np.negative(flag, out=left, dtype=np.int64)
            # Each case is computed whole over the block, then selected:
            # far right (v + b) + (u - v), far left (-b) + u, near
            # (v - b) + u * 2b.
            np.subtract(u, v, out=scratch)
            np.add(v, b, out=block)
            block += scratch
            np.add(u, -b, out=scratch)
            _select(block, scratch, left)
            np.subtract(v, b, out=scratch)
            u *= 2.0 * b
            scratch += u
            _select(block, scratch, near)
        return out

    def bucketize_reports(self, reports: np.ndarray, d_out: int) -> np.ndarray:
        """Histogram counts of reports over ``d_out`` output buckets."""
        d_out = check_domain_size(d_out)
        arr = np.asarray(reports, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("reports must be a non-empty 1-d array")
        low, high = self.output_low, self.output_high
        if arr.min() < low - 1e-9 or arr.max() > high + 1e-9:
            raise ValueError("reports outside the SW output domain")
        if arr.size <= _BLOCK:
            return _bucket_counts(arr, low, high - low, d_out).astype(np.float64)
        # Larger batches count block by block, so the temporaries stay
        # block-sized; integer counts add up exactly.
        counts = np.zeros(d_out, dtype=np.int64)
        for start in range(0, arr.size, _BLOCK):
            counts += _bucket_counts(arr[start : start + _BLOCK], low, high - low, d_out)
        return counts.astype(np.float64)

    def transition_matrix(self, d: int, d_out: int | None = None) -> np.ndarray:
        """Exact ``(d_out, d)`` bucket transition matrix (columns sum to 1)."""
        d = check_domain_size(d)
        d_out = d if d_out is None else check_domain_size(d_out)
        return sw_transition_matrix((self.p, self.q), self.b, d, d_out)

    def channel_operator(self, d: int, d_out: int | None = None):
        """Structured ``O(d)``-per-product view of :meth:`transition_matrix`.

        The trapezoid overlap kernel is translation-invariant in the
        continuous coordinate, so the channel runs as uniform + boxcar +
        narrow ramp windows (:class:`repro.engine.operators.
        UniformPlusToeplitzChannel`). Returns ``None`` — telling the engine
        cache to fall back to the dense matrix — when the ramp windows
        would cover most of the input domain (very coarse output grids),
        where the structured form has no advantage.
        """
        from repro.engine.operators import UniformPlusToeplitzChannel

        d = check_domain_size(d)
        d_out = d if d_out is None else check_domain_size(d_out)
        operator = UniformPlusToeplitzChannel(self.p, self.q, self.b, d, d_out)
        if 4 * operator.window_width >= max(d, 1):
            return None
        return operator

    def _params(self) -> dict:
        """Constructor kwargs for serialization (``repro.api`` state files)."""
        return {"epsilon": self.epsilon, "b": self.b}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SquareWave(epsilon={self.epsilon}, b={self.b:.4f})"


class DiscreteSquareWave:
    """Discrete Square Wave randomizer on ``{0..d-1} -> {0..d+2b-1}``.

    Output index ``j`` corresponds to input position ``j - b``; the near set
    of input ``v`` is ``{v, ..., v + 2b}`` in output indices (always ``2b+1``
    positions thanks to the domain extension).
    """

    name = "sw-discrete"

    def __init__(self, epsilon: float, d: int, b: int | None = None) -> None:
        self.epsilon = check_epsilon(epsilon)
        self.d = check_domain_size(d)
        if b is None:
            b = discrete_bandwidth(self.epsilon, self.d)
        if b < 0 or 2 * b + 1 > self.d + 2 * b:
            raise ValueError(f"b must be a non-negative int, got {b}")
        self.b = int(b)
        e_eps = math.exp(self.epsilon)
        denom = (2.0 * self.b + 1.0) * e_eps + self.d - 1.0
        self.p = e_eps / denom
        self.q = 1.0 / denom

    @property
    def d_out(self) -> int:
        return self.d + 2 * self.b

    def privatize(self, values: np.ndarray, rng=None) -> np.ndarray:
        """Randomize integer values into output indices.

        With probability ``(2b + 1) p`` the report is uniform over the near
        set; otherwise the shift trick ``(v + 2b + r) mod d_out`` with
        ``r ~ Uniform{1..d-1}`` lands uniformly on the ``d - 1`` far indices.
        """
        vals = np.asarray(values, dtype=np.int64)
        if vals.ndim != 1 or vals.size == 0:
            raise ValueError("values must be a non-empty 1-d array")
        if vals.min() < 0 or vals.max() >= self.d:
            raise ValueError(f"values must be in [0, {self.d - 1}]")
        gen = as_generator(rng)
        n = vals.size
        near_mass = (2.0 * self.b + 1.0) * self.p
        near = gen.random(n) < near_mass
        near_offset = gen.integers(0, 2 * self.b + 1, size=n)
        near_draw = vals + near_offset
        far_shift = gen.integers(1, self.d, size=n)
        far_draw = (vals + 2 * self.b + far_shift) % self.d_out
        return np.where(near, near_draw, far_draw).astype(np.int64)

    def bucketize_reports(self, reports: np.ndarray) -> np.ndarray:
        """Counts over the ``d + 2b`` output positions."""
        arr = np.asarray(reports, dtype=np.int64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("reports must be a non-empty 1-d array")
        if arr.min() < 0 or arr.max() >= self.d_out:
            raise ValueError("reports outside the discrete SW output domain")
        return np.bincount(arr, minlength=self.d_out).astype(np.float64)

    def transition_matrix(self) -> np.ndarray:
        """Exact ``(d + 2b, d)`` transition matrix (columns sum to 1)."""
        return discrete_sw_transition_matrix(self.p, self.q, self.b, self.d)

    def channel_operator(self):
        """Structured view of :meth:`transition_matrix`: uniform + 0/1 band.

        Output row ``j`` carries ``p`` on input positions ``j - 2b .. j``
        (clipped to the domain) and ``q`` elsewhere, so both EM products
        run as cumulative-sum boxcars
        (:class:`repro.engine.operators.UniformPlusBandedChannel`) —
        exact by construction, ``O(d)`` per product regardless of ``b``.
        """
        from repro.engine.operators import UniformPlusBandedChannel

        rows = np.arange(self.d_out, dtype=np.int64)
        lo = np.clip(rows - 2 * self.b, 0, self.d)
        hi = np.clip(rows + 1, 0, self.d)
        return UniformPlusBandedChannel(
            self.d, lo, hi, inside=self.p, outside=self.q
        )

    def _params(self) -> dict:
        """Constructor kwargs for serialization (``repro.api`` state files)."""
        return {"epsilon": self.epsilon, "d": self.d, "b": self.b}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DiscreteSquareWave(epsilon={self.epsilon}, d={self.d}, b={self.b})"
