"""The multi-stream detector engine: ``ingest(batch) -> detections``.

The ROADMAP's scale-out item needs detector state decoupled from the
tick-loop network simulator: an engine that owns the detector state of
many streams and exposes a single batched call.  This module is that
interface, and -- together with the snapshot codec -- the unit of state
a supervisor can kill, move and restore bit for bit.

A batch is tick-major: shape ``(m, n_streams)`` for scalar readings (or
``(m, n_streams, d)`` for d-dimensional ones), covering ``m``
consecutive ticks across every stream.  ``ingest`` returns a boolean
``(m, n_streams)`` detection matrix: ``True`` exactly where the stream's
detector flagged the reading (warm-up readings are ``False``).
Per-stream randomness comes from spawned substreams of one injected
generator, so an engine is fully determined by its construction
arguments -- and two engines fed the same batches agree bit for bit,
which is what the crash-recovery equivalence tests assert.

Lockstep layout
---------------
Every stream ("lane") of an engine sees the same ticks, so all lanes
share one model-check schedule.  The engine therefore keeps the Section 5
state of all lanes as arrays -- a :class:`~repro.streams.sampling.ChainSampleBank`,
one :class:`~repro.streams.variance.EHVarianceBank` per dimension, and
per-lane kernel-model arrays -- and advances them with one vectorised
pass per layer and chunk instead of one Python loop per stream.  Lane
``l`` is bit-identical to an
:class:`~repro.detectors.single.OnlineOutlierDetector` fed column ``l``
through :meth:`~repro.detectors.single.OnlineOutlierDetector.process_many`:
same detections, flag details, counters and snapshot.  The per-stream
classes stay the reference the equivalence tests compare against.
"""

from __future__ import annotations

import time
from typing import Any, Sequence

import numpy as np

from repro import _sanitize, obs
from repro._exceptions import ParameterError, SnapshotError
from repro._rng import resolve_rng
from repro._validation import require_positive_int
from repro.core import backend as _backend
from repro.core.estimator import EstimatorLayout, KernelDensityEstimator
from repro.core.kernels import EPANECHNIKOV, kernel_by_name
from repro.core.mdef import MDEFOutlierDetector, MDEFSpec
from repro.core.outliers import DistanceOutlierSpec
from repro.detectors._state import (
    DEFAULT_BANDWIDTH_TOL,
    StreamModelLayout,
    check_model_args,
    default_min_arrivals,
    model_bandwidths,
    model_check_chunks,
    needs_rebuild,
)
from repro.detectors.single import (
    DetectorLayout,
    check_detector_args,
    spec_bandwidth_cap,
)
from repro.streams.sampling import ChainSampleBank
from repro.streams.variance import EHVarianceBank

__all__ = ["DetectorEngine"]


# repro-lint: shard-state
class DetectorEngine:
    """Online outlier detection for many streams behind one batched call.

    Parameters
    ----------
    n_streams:
        Number of independent sensor streams this engine owns.
    spec:
        The outlier definition every stream applies
        (:class:`~repro.core.outliers.DistanceOutlierSpec` for the D3
        test, :class:`~repro.core.mdef.MDEFSpec` for MGDD).
    window_size / sample_size / n_dims / warmup / model_refresh /
    epsilon / bandwidth_basis:
        As for :class:`~repro.detectors.single.OnlineOutlierDetector`;
        every stream behaves exactly like one of those.
    rng:
        Source of randomness; per-stream substreams are spawned from it
        at construction, so the engine consumes nothing from the
        caller's generator afterwards.
    stream_seeds:
        Explicit per-stream seeds (one per stream) overriding ``rng``.
        This is the *partition invariance* hook the fleet pilot relies
        on: derive one seed per global stream, give each worker the
        slice for its streams, and a stream consumes an identical
        randomness substream whether it runs in a single-process engine
        over all streams or in any sharded partitioning -- so
        detections stay ``np.array_equal`` across process layouts.
    """

    def __init__(self, n_streams: int,
                 spec: "DistanceOutlierSpec | MDEFSpec", *,
                 window_size: int, sample_size: int, n_dims: int = 1,
                 warmup: int | None = None, model_refresh: int = 32,
                 epsilon: float = 0.2, bandwidth_basis: str = "window",
                 rng: np.random.Generator | None = None,
                 stream_seeds: "Sequence[int] | None" = None) -> None:
        require_positive_int("n_streams", n_streams)
        warmup = check_detector_args(window_size, sample_size, spec, warmup)
        bandwidth_cap = spec_bandwidth_cap(spec)
        check_model_args(model_refresh, DEFAULT_BANDWIDTH_TOL, bandwidth_cap,
                         bandwidth_basis)
        if stream_seeds is not None:
            if len(stream_seeds) != n_streams:
                raise ParameterError(
                    f"stream_seeds must have one seed per stream "
                    f"({n_streams}), got {len(stream_seeds)}")
            stream_rngs: "Sequence[np.random.Generator]" = [
                resolve_rng(None, int(seed)) for seed in stream_seeds]
        else:
            root = resolve_rng(rng)
            try:
                stream_rngs = root.spawn(n_streams)
            except (AttributeError, TypeError):
                seeds = root.integers(0, 2**63, size=n_streams)
                stream_rngs = [resolve_rng(None, int(seed))
                               for seed in seeds]
        self._n_streams = n_streams
        self._n_dims = n_dims
        self._spec = spec
        self._warmup = warmup
        self._window_size = window_size
        self._sample = ChainSampleBank(window_size, sample_size, n_dims,
                                       stream_rngs)
        self._sketches = [EHVarianceBank(window_size, epsilon, n_streams)
                          for _ in range(n_dims)]
        self._kernel = EPANECHNIKOV
        self._bandwidth_basis = bandwidth_basis
        self._bandwidth_cap = bandwidth_cap
        self._model_refresh = model_refresh
        self._bandwidth_tol = DEFAULT_BANDWIDTH_TOL
        self._min_arrivals = default_min_arrivals(sample_size)
        # The model-check schedule, shared by every lane.
        self._seen = 0
        self._last_check = -1
        self._count_window_size = window_size
        self._has_model = False
        self._init_models(n_streams, sample_size, n_dims)
        self._tick = 0
        self._last_flags: "list[dict[str, Any]]" = []

    def _init_models(self, n_streams: int, sample_size: int,
                     n_dims: int) -> None:
        """Per-lane kernel models and the fingerprints they were built from."""
        self._centres = np.zeros((n_streams, sample_size, n_dims))
        self._bandwidths = np.ones((n_streams, n_dims))
        self._inv_bw = np.ones((n_streams, n_dims))
        self._built_std = np.zeros((n_streams, n_dims))
        self._built_window = np.full(n_streams, -1, dtype=np.int64)
        self._built_mutations = np.full(n_streams, -1, dtype=np.int64)
        self._model_seq = np.zeros(n_streams, dtype=np.int64)
        self._flagged = np.zeros(n_streams, dtype=np.int64)
        # MDEF scoring binds each lane's model as an estimator object,
        # built on first use after each rebuild.
        self._estimators: "list[KernelDensityEstimator | None]" = \
            [None] * n_streams

    # ------------------------------------------------------------------

    @property
    def n_streams(self) -> int:
        """Number of streams this engine owns."""
        return self._n_streams

    @property
    def tick(self) -> int:
        """The next tick to be ingested (= ticks processed so far)."""
        return self._tick

    def readings_flagged(self) -> int:
        """Total readings flagged across all streams."""
        return int(self._flagged.sum())

    @property
    def last_flags(self) -> "list[dict[str, Any]]":
        """Flag details from the most recent :meth:`ingest` call.

        One dict per flagged reading -- ``stream`` (engine-local index),
        ``tick``, ``score``, ``threshold`` and ``model_seq`` (the
        stream's model version after the call) -- ordered by ``(tick,
        stream)``.  Maintained unconditionally (pure bookkeeping over
        decisions already computed, no RNG or control-flow impact), so
        telemetry emitters can consume it without perturbing the
        detection path: traced and untraced runs stay bit-identical.
        """
        return list(self._last_flags)

    def memory_words(self) -> int:
        """Logical footprint of all per-stream state, in words."""
        words = self._sample.memory_words().sum()
        for sketch in self._sketches:
            words += sketch.memory_words().sum()
        return int(words)

    # ------------------------------------------------------------------

    def _as_batch(self, batch: "np.ndarray | Sequence[Any]") -> np.ndarray:
        """The batch as ``(m, n_streams, n_dims)`` floats, validated whole.

        Shape and finiteness are checked before any lane changes, so a
        rejected batch leaves the engine (and a supervisor's journal)
        untouched.
        """
        arr = np.asarray(batch, dtype=float)
        if self._n_dims == 1 and arr.ndim == 2:
            arr = arr[:, :, None]
        if (arr.ndim != 3 or arr.shape[1] != self._n_streams
                or arr.shape[2] != self._n_dims):
            raise ParameterError(
                f"batch must have shape (m, {self._n_streams}) or "
                f"(m, {self._n_streams}, {self._n_dims}), got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ParameterError("batch readings must all be finite")
        return arr

    def ingest(self, batch: "np.ndarray | Sequence[Any]") -> np.ndarray:
        """Feed ``m`` ticks of readings; return the detection matrix.

        Equivalent to running each stream's
        :class:`~repro.detectors.single.OnlineOutlierDetector` over its
        column via ``process_many`` (itself bit-identical to the scalar
        loop); a reading maps to ``True`` exactly when its decision
        exists and flags an outlier.  All lanes follow the one
        model-check schedule ``process_many`` follows per stream.
        """
        arr = self._as_batch(batch)
        m = arr.shape[0]
        detections = np.zeros((m, self._n_streams), dtype=bool)
        self._last_flags = []
        if m == 0:
            return detections
        scores = np.zeros((m, self._n_streams))
        thresholds = np.zeros((m, self._n_streams))
        for start, stop, due in model_check_chunks(
                m, self._warmup - self._seen, self._check_args):
            self._observe(arr[start:stop])
            if due is None:
                continue
            # Rows before a due arrival see the current models; the due
            # arrival sees the lanes the check rebuilt.
            last = stop - 1 if due else stop
            if self._has_model and last > start:
                self._decide(arr, start, last, detections, scores, thresholds)
            if due:
                self._check_models()
                if self._has_model:
                    self._decide(arr, last, stop, detections, scores,
                                 thresholds)
        rows, lanes = np.nonzero(detections)
        self._last_flags = [
            {"stream": lane, "tick": self._tick + row,
             "score": float(scores[row, lane]),
             "threshold": float(thresholds[row, lane]),
             "model_seq": int(self._model_seq[lane])}
            for row, lane in zip(rows.tolist(), lanes.tolist())]
        self._tick += m
        return detections

    def _check_args(self) -> "tuple[bool, int, int, int, int]":
        """The model-check schedule every lane shares."""
        return (self._has_model, self._seen, self._last_check,
                self._min_arrivals, self._model_refresh)

    def _observe(self, values: np.ndarray) -> None:
        """Chain sample and variance sketches take ``(k, L, d)`` arrivals."""
        self._sample.offer_many(values, _backend.BLOCK_CELLS)
        t0 = time.perf_counter() if obs.ACTIVE else 0.0
        for dim, sketch in enumerate(self._sketches):
            sketch.insert_many(values[:, :, dim])
        if obs.ACTIVE:
            obs.profiler().record("sketch.update_many",
                                  time.perf_counter() - t0)
        self._seen += values.shape[0]

    def _check_models(self) -> None:
        """A due model check (:meth:`StreamModelState.model`) on every lane.

        Rebuilds only the lanes whose sample mutated, whose count window
        changed, or whose sketched deviation drifted beyond the
        tolerance; the rest keep their model (and its ``model_seq``).
        :func:`model_check_chunks` only lets the schedule reach here
        once ``min_arrivals`` and a full refresh interval have passed.
        """
        self._count_window_size = min(self._seen, self._window_size)
        # Every slot accepts the very first arrival and a chain always
        # captures its successor before its newest element expires, so
        # from then on no slot is ever empty.
        assert self._sample.active().all(), "a chain-sample slot is empty"
        self._last_check = self._seen
        std = np.stack([sketch.std() for sketch in self._sketches], axis=1)
        window_size = max(1, int(self._count_window_size))
        mutations = self._sample.mutation_counts
        if self._has_model:
            lanes = np.nonzero(needs_rebuild(
                std, self._built_std, mutations, self._built_mutations,
                window_size, self._built_window, self._bandwidth_tol))[0]
            if lanes.size == 0:
                return
        else:
            lanes = np.arange(self._n_streams)
        t0 = time.perf_counter() if obs.ACTIVE else 0.0
        n_centres = self._centres.shape[1]
        bandwidths = model_bandwidths(std[lanes], n_centres, window_size,
                                      self._bandwidth_basis,
                                      self._bandwidth_cap)
        if _sanitize.ACTIVE:
            _sanitize.check_bandwidths(bandwidths, label="DetectorEngine")
        self._centres[lanes] = self._sample.heads()[lanes]
        self._bandwidths[lanes] = bandwidths
        self._inv_bw[lanes] = 1.0 / bandwidths
        self._built_std[lanes] = std[lanes]
        self._built_window[lanes] = window_size
        self._built_mutations[lanes] = mutations[lanes]
        self._model_seq[lanes] += 1
        for lane in lanes.tolist():
            self._estimators[lane] = None
        self._has_model = True
        if obs.ACTIVE:
            elapsed = time.perf_counter() - t0
            obs.profiler().record("estimator.rebuild", elapsed)
            obs.emit("estimator.rebuild", sample_size=n_centres,
                     dur_s=elapsed)

    def _decide(self, arr: np.ndarray, start: int, stop: int,
                detections: np.ndarray, scores: np.ndarray,
                thresholds: np.ndarray) -> None:
        """Score rows ``start:stop`` of every lane against its current model."""
        points = arr[start:stop]
        if isinstance(self._spec, DistanceOutlierSpec):
            counts = self._neighbour_counts(points, self._spec.radius)
            flags = counts < self._spec.count_threshold
            detections[start:stop] = flags
            scores[start:stop] = counts
            thresholds[start:stop] = float(self._spec.count_threshold)
            self._flagged += flags.sum(axis=0)
            return
        spec = self._spec
        for lane in range(self._n_streams):
            detector = MDEFOutlierDetector(self._estimator(lane), spec)
            decisions = detector.check_many(points[:, lane, :])
            for row, decision in enumerate(decisions, start):
                if decision.is_outlier:
                    detections[row, lane] = True
                    scores[row, lane] = decision.mdef
                    thresholds[row, lane] = spec.k_sigma * decision.sigma_mdef
                    self._flagged[lane] += 1

    def _neighbour_counts(self, points: np.ndarray,
                          radius: float) -> np.ndarray:
        """Eq. 4 counts of ``(k, L, d)`` points, one lane model each: ``(k, L)``."""
        t0 = time.perf_counter() if obs.ACTIVE else 0.0
        lanes_first = np.ascontiguousarray(points.transpose(1, 0, 2))
        out = np.empty(lanes_first.shape[:2])
        _backend.get_backend().range_lanes(
            self._kernel, lanes_first - radius, lanes_first + radius,
            self._centres, self._inv_bw, out, _backend.BLOCK_CELLS)
        if _sanitize.ACTIVE:
            _sanitize.check_probabilities(out, label="range_probability")
        counts = np.clip(out, 0.0, 1.0) * self._built_window[:, None]
        if obs.ACTIVE:
            elapsed = time.perf_counter() - t0
            obs.profiler().record("kernels.range_batch", elapsed)
            obs.metrics().histogram(
                "estimator.range_query.latency").observe(elapsed)
        return counts.T

    def _estimator(self, lane: int) -> KernelDensityEstimator:
        """Lane ``lane``'s model as the estimator a per-stream detector caches."""
        model = self._estimators[lane]
        if model is None:
            model = KernelDensityEstimator(
                self._centres[lane].copy(),
                stddev=self._built_std[lane].copy(),
                bandwidths=self._bandwidths[lane].copy(),
                kernel=self._kernel,
                window_size=int(self._built_window[lane]))
            self._estimators[lane] = model
        return model

    # ------------------------------------------------------------------
    # Snapshot protocol (repro.engine.snapshot)
    # ------------------------------------------------------------------

    def snapshot_state(self) -> "dict[str, Any]":
        """Plain-data snapshot for the :mod:`repro.engine.snapshot` codec.

        The layout is one :class:`~repro.detectors.single.DetectorLayout`
        dict per stream -- what
        :meth:`OnlineOutlierDetector.snapshot_state
        <repro.detectors.single.OnlineOutlierDetector.snapshot_state>`
        writes -- so checkpoints stay readable across the per-stream and
        lockstep implementations in both directions.
        """
        samples = self._sample.snapshot_state()["lanes"]
        sketches = [sketch.snapshot_state()["lanes"]
                    for sketch in self._sketches]
        return {
            "n_streams": self._n_streams,
            "n_dims": self._n_dims,
            "tick": self._tick,
            "detectors": [
                self._lane_layout(lane, samples[lane],
                                  [dims[lane] for dims in sketches]
                                  ).to_state()
                for lane in range(self._n_streams)],
        }

    def _lane_layout(self, lane: int, sample: "dict[str, Any]",
                     sketches: "list[dict[str, Any]]") -> DetectorLayout:
        """Lane ``lane`` as the per-stream detector it is equivalent to."""
        model = None
        if self._has_model:
            model = EstimatorLayout(
                sample=self._centres[lane].copy(),
                bandwidths=self._bandwidths[lane].copy(),
                stddev=self._built_std[lane].copy(),
                kernel=self._kernel.name,
                window_size=int(self._built_window[lane])).to_state()
        state = StreamModelLayout(
            bandwidth_basis=self._bandwidth_basis,
            sample=sample,
            sketch={"n_dims": self._n_dims, "sketches": sketches},
            kernel=self._kernel.name,
            bandwidth_cap=self._bandwidth_cap,
            model_refresh=self._model_refresh,
            bandwidth_tol=self._bandwidth_tol,
            min_arrivals=self._min_arrivals,
            arrivals=self._seen,
            last_check=self._last_check,
            cached=model,
            built_std=None if model is None
            else self._built_std[lane].copy(),
            built_window_size=int(self._built_window[lane]),
            built_mutations=int(self._built_mutations[lane]),
            model_seq=int(self._model_seq[lane]),
            count_window_size=self._count_window_size)
        return DetectorLayout(
            spec=self._spec, warmup=self._warmup,
            window_size=self._window_size, state=state.to_state(),
            seen=self._seen, flagged=int(self._flagged[lane]))

    @classmethod
    def restore_state(cls, state: "dict[str, Any]") -> "DetectorEngine":
        """Rebuild an engine from a :meth:`snapshot_state` dict.

        Every stream must be at the same point of the shared schedule
        (:class:`~repro._exceptions.SnapshotError` otherwise): that holds
        for any snapshot an engine wrote, lockstep or per-stream.
        """
        detectors = [DetectorLayout.from_state(d) for d in state["detectors"]]
        n_streams = int(state["n_streams"])
        if len(detectors) != n_streams or n_streams < 1:
            raise SnapshotError(
                f"engine snapshot holds {len(detectors)} streams, "
                f"expected {n_streams}")
        lanes = [StreamModelLayout.from_state(d.state) for d in detectors]
        first, first_lane = detectors[0], lanes[0]
        shared = ("bandwidth_basis", "kernel", "bandwidth_cap",
                  "model_refresh", "bandwidth_tol", "min_arrivals",
                  "arrivals", "last_check", "count_window_size")
        for detector, lane_state in zip(detectors, lanes):
            mismatched = [key for key in ("spec", "warmup", "window_size",
                                          "seen")
                          if getattr(detector, key) != getattr(first, key)]
            mismatched += [key for key in shared
                           if getattr(lane_state, key)
                           != getattr(first_lane, key)]
            if (lane_state.cached is None) != (first_lane.cached is None):
                mismatched.append("cached")
            if mismatched:
                raise SnapshotError(
                    f"engine streams are out of step on {mismatched}")
        if first_lane.arrivals != first.seen:
            raise SnapshotError("stream arrivals and readings seen differ")
        engine = cls.__new__(cls)
        engine._n_streams = n_streams
        engine._n_dims = n_dims = int(state["n_dims"])
        engine._tick = int(state["tick"])
        engine._spec = first.spec
        engine._warmup = first.warmup
        engine._window_size = first.window_size
        engine._sample = ChainSampleBank.restore_state(
            {"lanes": [lane.sample for lane in lanes]})
        if any(int(lane.sketch["n_dims"]) != n_dims for lane in lanes):
            raise SnapshotError(
                f"variance sketches do not track {n_dims} dimension(s)")
        engine._sketches = [
            EHVarianceBank.restore_state(
                {"lanes": [lane.sketch["sketches"][dim] for lane in lanes]})
            for dim in range(n_dims)]
        engine._kernel = kernel_by_name(first_lane.kernel)
        engine._bandwidth_basis = first_lane.bandwidth_basis
        engine._bandwidth_cap = first_lane.bandwidth_cap
        engine._model_refresh = first_lane.model_refresh
        engine._bandwidth_tol = first_lane.bandwidth_tol
        engine._min_arrivals = first_lane.min_arrivals
        engine._seen = first.seen
        engine._last_check = first_lane.last_check
        engine._count_window_size = first_lane.count_window_size
        engine._has_model = first_lane.cached is not None
        sample_size = int(first_lane.sample["sample_size"])
        engine._init_models(n_streams, sample_size, n_dims)
        for index, (detector, lane_state) in enumerate(zip(detectors, lanes)):
            engine._flagged[index] = detector.flagged
            engine._built_window[index] = lane_state.built_window_size
            engine._built_mutations[index] = lane_state.built_mutations
            engine._model_seq[index] = lane_state.model_seq
            if lane_state.cached is None:
                continue
            model = EstimatorLayout.from_state(lane_state.cached)
            if model.sample.shape != (sample_size, n_dims):
                raise SnapshotError(
                    f"stream {index} model has {model.sample.shape} "
                    f"centres, expected {(sample_size, n_dims)}")
            if model.window_size != lane_state.built_window_size:
                raise SnapshotError(
                    f"stream {index} model window differs from its "
                    f"fingerprint")
            engine._centres[index] = model.sample
            engine._bandwidths[index] = model.bandwidths
            engine._built_std[index] = lane_state.built_std
        engine._inv_bw = 1.0 / engine._bandwidths
        engine._last_flags = []
        return engine
