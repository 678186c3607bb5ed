"""A batteries-included single-sensor online detector.

The distributed algorithms (D3/MGDD) compose chain samples, variance
sketches and kernel models per node; embedding the same loop on a single
device keeps coming up (the quickstart, the CLI, unit deployments), so
this module packages it behind one call:

    detector = OnlineOutlierDetector(
        window_size=2_000, sample_size=100,
        spec=DistanceOutlierSpec(radius=0.01, count_threshold=9))
    for value in readings:                       # readings in [0, 1]
        decision = detector.process(value)
        if decision is not None and decision.is_outlier:
            ...

``spec`` may be a :class:`~repro.core.outliers.DistanceOutlierSpec` or a
:class:`~repro.core.mdef.MDEFSpec`; the detector picks the matching test.
``process`` returns ``None`` during the warm-up period (before the first
window fills), after which it returns the decision object of the
underlying test.

When readings arrive in blocks, :meth:`OnlineOutlierDetector.process_many`
ingests them through the vectorised chain-sample/sketch fast path and
scores whole chunks with one batched range query per cached model --
producing the same decisions as the loop above (see ``repro bench-
throughput`` for the speedup).  Model refresh is change-driven: the
kernel model is rebuilt only when the chain sample's active elements
actually changed or the bandwidths drifted, not on a bare arrival
counter (see :meth:`repro.detectors._state.StreamModelState.model`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Sequence

import numpy as np

from repro._exceptions import ParameterError, SnapshotError
from repro._validation import require_positive_int
from repro.core.estimator import KernelDensityEstimator
from repro.core.kernels import EPANECHNIKOV, Kernel
from repro.core.mdef import MDEFDecision, MDEFOutlierDetector, MDEFSpec
from repro.core.outliers import (
    DistanceOutlierDecision,
    DistanceOutlierSpec,
    is_distance_outlier,
)
from repro.detectors._state import StreamModelState

__all__ = [
    "OnlineOutlierDetector",
    "DetectorLayout",
    "check_detector_args",
    "spec_bandwidth_cap",
]


# The per-stream policy below is shared with the lockstep DetectorEngine,
# every lane of which behaves exactly like one OnlineOutlierDetector.

def check_detector_args(window_size: int, sample_size: int,
                        spec: "DistanceOutlierSpec | MDEFSpec",
                        warmup: "int | None") -> int:
    """Validate a detector's window, sample and spec; return its warm-up.

    ``warmup`` defaults to one window.
    """
    require_positive_int("window_size", window_size)
    require_positive_int("sample_size", sample_size)
    if sample_size > window_size:
        raise ParameterError("sample_size cannot exceed window_size")
    if not isinstance(spec, (DistanceOutlierSpec, MDEFSpec)):
        raise ParameterError(
            "spec must be a DistanceOutlierSpec or an MDEFSpec, "
            f"got {type(spec).__name__}")
    if warmup is None:
        return window_size
    if warmup < 0:
        raise ParameterError(f"warmup must be >= 0, got {warmup}")
    return warmup


def spec_bandwidth_cap(spec: "DistanceOutlierSpec | MDEFSpec") -> "float | None":
    """The bandwidth cap a spec's test needs, if any.

    MDEF probes density contrast at the counting-radius scale, so its
    bandwidth is capped there (see ``MGDDConfig.bandwidth_cap``).
    """
    return 2.0 * spec.counting_radius if isinstance(spec, MDEFSpec) else None


@dataclass(frozen=True)
class DetectorLayout:
    """The checkpoint layout of one :class:`OnlineOutlierDetector`.

    Written by :meth:`OnlineOutlierDetector.snapshot_state` and by the
    lockstep engine for each lane, and read by both restores.  The spec
    travels as a tagged field dict so the codec payload stays plain data
    (no pickled spec classes); ``state`` is the
    :class:`~repro.detectors._state.StreamModelLayout` dict.
    """

    spec: "DistanceOutlierSpec | MDEFSpec"
    warmup: int
    window_size: int
    state: "dict[str, Any]"
    seen: int
    flagged: int

    def to_state(self) -> "dict[str, Any]":
        """The snapshot dict: one key per field, in field order."""
        kind = "distance" if isinstance(self.spec, DistanceOutlierSpec) \
            else "mdef"
        return {**vars(self), "spec": {"kind": kind, **asdict(self.spec)}}

    @classmethod
    def from_state(cls, state: "dict[str, Any]") -> "DetectorLayout":
        """Read (and type) the fields of a snapshot dict."""
        spec_state = dict(state["spec"])
        kind = spec_state.pop("kind")
        if kind == "distance":
            spec: "DistanceOutlierSpec | MDEFSpec" = \
                DistanceOutlierSpec(**spec_state)
        elif kind == "mdef":
            spec = MDEFSpec(**spec_state)
        else:
            raise SnapshotError(f"unknown outlier-spec kind {kind!r}")
        return cls(spec=spec, warmup=int(state["warmup"]),
                   window_size=int(state["window_size"]),
                   state=state["state"], seen=int(state["seen"]),
                   flagged=int(state["flagged"]))


# repro-lint: shard-state
class OnlineOutlierDetector:
    """Online outlier detection for one sensor stream.

    Parameters
    ----------
    window_size:
        Sliding-window length ``|W|``.
    sample_size:
        Kernel sample slots ``|R|`` (the paper uses ``0.05 |W|``).
    spec:
        The outlier definition: distance-based or MDEF-based.
    warmup:
        Readings to observe before flagging; defaults to one window.
    model_refresh / epsilon / kernel / rng:
        Passed through to the underlying components.
    """

    def __init__(self, window_size: int, sample_size: int,
                 spec: "DistanceOutlierSpec | MDEFSpec", *,
                 n_dims: int = 1, warmup: int | None = None,
                 model_refresh: int = 32, epsilon: float = 0.2,
                 kernel: Kernel = EPANECHNIKOV,
                 bandwidth_basis: str = "window",
                 rng: np.random.Generator | None = None) -> None:
        self._warmup = check_detector_args(window_size, sample_size, spec,
                                           warmup)
        self._spec = spec
        self._window_size = window_size
        self._state = StreamModelState(
            window_size, sample_size, n_dims, epsilon=epsilon,
            model_refresh=model_refresh, kernel=kernel,
            bandwidth_cap=spec_bandwidth_cap(spec),
            bandwidth_basis=bandwidth_basis, rng=rng)
        self._seen = 0
        self._flagged = 0

    # ------------------------------------------------------------------

    @property
    def spec(self) -> "DistanceOutlierSpec | MDEFSpec":
        """The outlier definition in use."""
        return self._spec

    @property
    def readings_seen(self) -> int:
        """Total readings processed."""
        return self._seen

    @property
    def readings_flagged(self) -> int:
        """Total readings flagged as outliers."""
        return self._flagged

    @property
    def model_seq(self) -> int:
        """Version of the cached estimator (PR-9 lineage observational).

        Delegates to :attr:`repro.detectors._state.StreamModelState
        .model_seq`; never consulted by the decision path.
        """
        return self._state.model_seq

    @property
    def is_warm(self) -> bool:
        """Whether the warm-up period has completed."""
        return self._seen > self._warmup

    def model(self) -> "KernelDensityEstimator | None":
        """The current density model (None before enough data)."""
        self._state.count_window_size = min(self._seen, self._window_size)
        return self._state.model()

    def memory_words(self) -> int:
        """Logical footprint of all retained state, in 16-bit words."""
        return self._state.memory_words()

    # ------------------------------------------------------------------

    def process(self, value: "np.ndarray | Sequence[float] | float") -> "DistanceOutlierDecision | MDEFDecision | None":
        """Observe one reading; return a decision once warmed up."""
        point = np.asarray(value, dtype=float).reshape(-1)
        self._state.observe(point)
        self._seen += 1
        if self._seen <= self._warmup:
            return None
        model = self.model()
        if model is None:
            return None
        if isinstance(self._spec, DistanceOutlierSpec):
            decision = is_distance_outlier(model, point, self._spec)
        else:
            decision = MDEFOutlierDetector(model, self._spec).check(point)
        if decision.is_outlier:
            self._flagged += 1
        return decision

    def process_many(self, values: "np.ndarray | Sequence[Sequence[float]] | Sequence[float]") -> "list[DistanceOutlierDecision | MDEFDecision | None]":
        """Observe a block of readings; return one decision per reading.

        Equivalent to calling :meth:`process` on each reading in order
        (same chain-sample RNG consumption, same model refresh schedule,
        same decisions), but ingestion is vectorised and all readings
        that share a cached model are scored with a single batched range
        query.  Readings inside the warm-up period map to ``None``.
        """
        vals = np.asarray(values, dtype=float)
        n_dims = self._state.sample.n_dims
        if vals.ndim == 1:
            if n_dims != 1:
                raise ParameterError(
                    f"values must have shape (m, {n_dims}), got {vals.shape}")
            vals = vals.reshape(-1, 1)
        if vals.ndim != 2 or vals.shape[1] != n_dims:
            raise ParameterError(
                f"values must have shape (m, {n_dims}), got {vals.shape}")
        # Validated whole, so a rejected block changes no state.
        if not np.isfinite(vals).all():
            raise ParameterError("values must all be finite")
        m = vals.shape[0]
        decisions: "list[DistanceOutlierDecision | MDEFDecision | None]" = [None] * m
        for start, stop, due in self._state.check_chunks(
                m, self._warmup - self._seen):
            self._state.observe_many(vals[start:stop])
            self._seen += stop - start
            if due is None:
                continue
            for model, _, a, b in self._state.chunk_models(start, stop, due,
                                                            self.model):
                self._decide_batch(model, vals[a:b], decisions, a)
        return decisions

    def _decide_batch(self, model: KernelDensityEstimator, points: np.ndarray,
                      decisions: list, offset: int) -> None:
        """Score ``points`` against one model via the vectorised range path."""
        if isinstance(self._spec, DistanceOutlierSpec):
            radius = self._spec.radius
            threshold = self._spec.count_threshold
            counts = model._range_probability_batch(
                points - radius, points + radius) * model.window_size
            flagged = 0
            # tolist() unboxes the whole batch at once; per-element
            # float()/bool() on numpy scalars costs ~10x more.
            for j, count in enumerate(counts.tolist()):
                outlier = count < threshold
                decisions[offset + j] = DistanceOutlierDecision(outlier, count)
                if outlier:
                    flagged += 1
            self._flagged += flagged
        else:
            detector = MDEFOutlierDetector(model, self._spec)
            for j, decision in enumerate(detector.check_many(points)):
                decisions[offset + j] = decision
                if decision.is_outlier:
                    self._flagged += 1

    # ------------------------------------------------------------------
    # Snapshot protocol (repro.engine.snapshot)
    # ------------------------------------------------------------------

    def snapshot_state(self) -> "dict[str, Any]":
        """Plain-data snapshot for the :mod:`repro.engine.snapshot` codec."""
        return DetectorLayout(
            spec=self._spec, warmup=self._warmup,
            window_size=self._window_size,
            state=self._state.snapshot_state(), seen=self._seen,
            flagged=self._flagged).to_state()

    @classmethod
    def restore_state(cls, state: "dict[str, Any]") -> "OnlineOutlierDetector":
        """Rebuild a detector from a :meth:`snapshot_state` dict."""
        layout = DetectorLayout.from_state(state)
        detector = cls.__new__(cls)
        detector._spec = layout.spec
        detector._warmup = layout.warmup
        detector._window_size = layout.window_size
        detector._state = StreamModelState.restore_state(layout.state)
        detector._seen = layout.seen
        detector._flagged = layout.flagged
        return detector
