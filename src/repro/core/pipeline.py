"""High-level estimators: the public entry point for SW + EM/EMS.

``SWEstimator`` wires the full paper pipeline together: Square Wave
randomization on the client, report bucketization on the server, and EM or
EMS reconstruction. ``WaveEstimator`` accepts any wave mechanism (used by the
Figure 5 wave-shape study), and ``DiscreteSWEstimator`` is the
"bucketize before randomize" variant from Section 5.4.

All three implement the :class:`repro.api.Estimator` contract: the
aggregation state is the O(d_out) report-count vector, so shards can
``partial_fit`` independently, ``merge`` exactly, and serialize through
``to_state()``/``from_state()``.

Typical usage::

    est = SWEstimator(epsilon=1.0, d=256)
    histogram = est.fit(values)          # simulate all users + aggregate

    # Or split across trust boundaries:
    reports = est.privatize(values)      # client side
    histogram = est.aggregate(reports)   # server side

    # Or stream shards and estimate mid-round:
    est.partial_fit(values_monday)
    est.partial_fit(values_tuesday)
    histogram = est.estimate()
"""

from __future__ import annotations

import numpy as np

from repro.api.base import Estimator, mechanism_spec
from repro.api.config import DEFAULT_MAX_ITER, EMConfig
from repro.api.errors import EmptyAggregateError
from repro.core.em import EMResult
from repro.core.square_wave import DiscreteSquareWave, SquareWave
from repro.engine.cache import cached_channel_operator, cached_transition_matrix
from repro.utils.validation import check_domain_size

__all__ = ["WaveEstimator", "SWEstimator", "DiscreteSWEstimator", "estimate_distribution"]


class WaveEstimator(Estimator):
    """Distribution estimator around any continuous wave mechanism.

    Parameters
    ----------
    mechanism:
        A :class:`~repro.core.square_wave.SquareWave` or
        :class:`~repro.core.general_wave.GeneralWave` instance.
    d:
        Granularity of the reconstructed input histogram.
    d_out:
        Report bucket count; defaults to ``d`` (the paper's choice, close to
        the ``sqrt(N)`` guideline for its datasets).
    postprocess, tol, max_iter, smoothing_order:
        EM/EMS controls; ``tol=None`` selects the paper default for the
        chosen post-processing. Equivalently pass a pre-built ``config``
        (:class:`repro.api.EMConfig`), which takes precedence.

    After :meth:`fit`, :meth:`aggregate`, or :meth:`estimate`, the EM
    diagnostics are available as :attr:`result_`.
    """

    kind = "distribution"
    wire_codec = "float"

    def __init__(
        self,
        mechanism,
        d: int = 1024,
        *,
        d_out: int | None = None,
        postprocess: str = "ems",
        tol: float | None = None,
        max_iter: int = DEFAULT_MAX_ITER,
        smoothing_order: int = 2,
        config: EMConfig | None = None,
    ) -> None:
        if config is None:
            config = EMConfig(
                postprocess=postprocess,
                tol=tol,
                max_iter=max_iter,
                smoothing_order=smoothing_order,
            )
        self.mechanism = mechanism
        self.d = check_domain_size(d)
        self.d_out = self.d if d_out is None else check_domain_size(d_out)
        self.config = config
        self._matrix: np.ndarray | None = None
        self.result_: EMResult | None = None
        self.reset()

    # -- configuration views (kept as attributes of record) ---------------
    @property
    def epsilon(self) -> float:
        return self.mechanism.epsilon

    @property
    def postprocess(self) -> str:
        return self.config.postprocess

    @property
    def tol(self) -> float:
        """Effective stopping tolerance (always a plain ``float``)."""
        return self.config.resolve_tolerance(self.epsilon)

    @property
    def max_iter(self) -> int:
        return self.config.max_iter

    @property
    def smoothing_order(self) -> int:
        return self.config.smoothing_order

    @property
    def name(self) -> str:
        return f"{self.mechanism.name}-{self.config.postprocess}"

    @property
    def n_reports(self) -> int:
        """Reports ingested into the current aggregation state."""
        return int(round(self._counts.sum()))

    @property
    def transition_matrix(self) -> np.ndarray:
        """The ``(d_out, d)`` matrix, served read-only from the engine cache.

        Identically-parameterized estimators across the process share one
        immutable array (see :mod:`repro.engine.cache`); its column-sum
        invariant is validated once at insert, so EM runs skip the check.
        """
        if self._matrix is None:
            self._matrix = self._build_matrix()
        return self._matrix

    def _build_matrix(self) -> np.ndarray:
        return cached_transition_matrix(self.mechanism, self.d, self.d_out)

    @property
    def channel(self):
        """What EM/EMS runs against: the mechanism's channel operator.

        A :class:`~repro.engine.operators.ChannelOperator` from the engine
        cache — ``O(d)`` per product for the wave channels, and the dense
        matrix wrapped as a
        :class:`~repro.engine.operators.DenseChannel` for mechanisms
        without exploitable structure.
        """
        return self._build_operator()

    def _build_operator(self):
        return cached_channel_operator(self.mechanism, self.d, self.d_out)

    # -- lifecycle ---------------------------------------------------------
    def privatize(self, values: np.ndarray, rng=None) -> np.ndarray:
        """Client-side: randomize raw values in ``[0, 1]`` into reports."""
        return self.mechanism.privatize(values, rng=rng)

    def _bucketize(self, reports: np.ndarray) -> np.ndarray:
        return self.mechanism.bucketize_reports(reports, self.d_out)

    def ingest(self, reports: np.ndarray) -> None:
        """Server-side: fold randomized reports into the count vector.

        An empty batch is a no-op (a shard with no users is routine in
        distributed collection).
        """
        if np.asarray(reports).size == 0:
            return
        self._counts += self._bucketize(reports)

    def ingest_counts(self, counts: np.ndarray) -> None:
        """Fold an already-bucketized report histogram into the state.

        The histogram is validated whole before anything is folded, so a
        rejected one leaves the state unchanged.
        """
        arr = np.asarray(counts, dtype=np.float64)
        if arr.shape != (self.d_out,):
            raise ValueError(
                f"counts must have shape ({self.d_out},), got {arr.shape}"
            )
        if not np.isfinite(arr).all():
            raise ValueError("counts must be finite (no inf or NaN)")
        if arr.min() < 0:
            raise ValueError("counts must be non-negative")
        self._counts += arr

    def estimate(self, *, x0: np.ndarray | None = None) -> np.ndarray:
        """Reconstruct the input histogram from all reports ingested so far.

        ``x0`` warm-starts EM/EMS from a previous posterior instead of the
        uniform prior — same fixed point, far fewer iterations when the
        counts changed only a little since that posterior was computed
        (the warm starts of :func:`repro.protocol.server.solve_cached`,
        which the servers, the service's merge tier and the streaming
        scheduler share). Without ``x0`` the solve is cold.
        """
        if self._counts.sum() <= 0:
            raise EmptyAggregateError("no reports ingested yet")
        self.result_ = self.config.run(
            self.channel, self._counts, self.epsilon,
            validated=True, x0=x0,
        )
        return self.result_.estimate

    def reset(self) -> None:
        self._counts = np.zeros(self.d_out, dtype=np.float64)
        self.result_ = None

    def confidence_bands(
        self,
        *,
        coverage: float = 0.9,
        n_bootstrap: int = 100,
        rng=None,
    ):
        """Parametric-bootstrap bands from the *current* aggregation state.

        Unlike :func:`repro.core.confidence.estimator_confidence_bands`,
        which simulates a fresh collection from raw values, this works from
        the report counts already ingested — the only form of the data a
        streaming server (or a task :class:`~repro.tasks.session.Session`)
        still holds. Returns
        :class:`~repro.core.confidence.ConfidenceBands`.
        """
        from repro.core.confidence import bootstrap_confidence_bands

        if self._counts.sum() <= 0:
            raise EmptyAggregateError("no reports ingested yet")
        smoothing = (
            self.smoothing_order if self.postprocess == "ems" else None
        )
        return bootstrap_confidence_bands(
            self.transition_matrix,
            self._counts,
            coverage=coverage,
            n_bootstrap=n_bootstrap,
            tol=self.tol,
            max_iter=self.max_iter,
            smoothing_order=smoothing,
            rng=rng,
        )

    # -- shard merge + serialization --------------------------------------
    def _merge_state(self, other: "WaveEstimator") -> None:
        self._counts += other._counts
        self.result_ = None

    def _params(self) -> dict:
        return {
            "mechanism": mechanism_spec(self.mechanism),
            "d": self.d,
            "d_out": self.d_out,
            **self.config.to_dict(),
        }

    def _state(self) -> dict:
        return {"counts": self._counts.tolist()}

    def _load_state(self, state: dict) -> None:
        self.reset()
        self.ingest_counts(state["counts"])

    def _repr_fields(self) -> dict:
        return {
            "mechanism": self.mechanism,
            "d": self.d,
            "d_out": self.d_out,
            "postprocess": self.postprocess,
            "tol": self.tol,
        }


class SWEstimator(WaveEstimator):
    """Square Wave + EM/EMS — the paper's headline method.

    ``b`` defaults to the mutual-information optimum ``b*(epsilon)``.
    """

    def __init__(
        self,
        epsilon: float,
        d: int = 1024,
        *,
        b: float | None = None,
        **kwargs,
    ) -> None:
        super().__init__(SquareWave(epsilon, b=b), d, **kwargs)

    @property
    def b(self) -> float:
        return self.mechanism.b

    def _params(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "b": self.mechanism.b,
            "d": self.d,
            "d_out": self.d_out,
            **self.config.to_dict(),
        }

    def _repr_fields(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "d": self.d,
            "d_out": self.d_out,
            "postprocess": self.postprocess,
            "b": round(self.b, 6),
        }


class DiscreteSWEstimator(WaveEstimator):
    """Discrete SW + EM/EMS — "bucketize before randomize" (Section 5.4).

    Users bucketize their value into ``{0..d-1}`` first; randomization
    happens on the discrete domain, so reports are integers over the
    ``d + 2b`` extended output positions.
    """

    wire_codec = "category"

    def __init__(
        self,
        epsilon: float,
        d: int = 1024,
        *,
        b: int | None = None,
        **kwargs,
    ) -> None:
        mechanism = DiscreteSquareWave(epsilon, d, b=b)
        super().__init__(mechanism, mechanism.d, d_out=mechanism.d_out, **kwargs)

    @property
    def b(self) -> int:
        return self.mechanism.b

    def privatize(self, values: np.ndarray, rng=None) -> np.ndarray:
        """Client-side: bucketize unit values, then discrete-SW randomize."""
        from repro.utils.histograms import bucketize

        buckets = bucketize(values, self.d)
        return self.mechanism.privatize(buckets, rng=rng)

    def _bucketize(self, reports: np.ndarray) -> np.ndarray:
        return self.mechanism.bucketize_reports(reports)

    def _build_matrix(self) -> np.ndarray:
        # The discrete mechanism owns its geometry: cache key on params only.
        return cached_transition_matrix(self.mechanism)

    def _build_operator(self):
        return cached_channel_operator(self.mechanism)

    def _params(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "d": self.d,
            "b": self.mechanism.b,
            **self.config.to_dict(),
        }

    def _repr_fields(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "d": self.d,
            "postprocess": self.postprocess,
            "b": self.b,
        }


def estimate_distribution(
    values: np.ndarray,
    epsilon: float,
    d: int = 1024,
    *,
    method: str = "sw-ems",
    rng=None,
    **kwargs,
) -> np.ndarray:
    """One-call distribution estimation through the central registry.

    Parameters
    ----------
    values:
        Private values in ``[0, 1]`` (one per user).
    epsilon:
        Privacy budget.
    d:
        Histogram granularity.
    method:
        Any registered distribution method (``"sw-ems"`` is the paper
        default; see ``repro.api.list_estimators`` for the full set).
    kwargs:
        Forwarded to the underlying estimator factory.
    """
    from repro.api.registry import get_spec, list_estimators, make_estimator

    try:
        spec = get_spec(method)
    except ValueError:
        available = sorted(
            s.name for s in list_estimators(kind="distribution")
        )
        raise ValueError(
            f"unknown method {method!r}; registered methods: {available}"
        ) from None
    if spec.kind != "distribution":
        raise ValueError(
            f"method {method!r} estimates a {spec.kind}, not a probability "
            "distribution; use make_estimator for leaf-signed/frequency/"
            "scalar methods"
        )
    estimator = make_estimator(method, epsilon, d, **kwargs)
    return estimator.fit(values, rng=rng)
