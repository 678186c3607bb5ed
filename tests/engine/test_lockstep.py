"""The lockstep engine equals per-stream detectors, and ingest is atomic.

:class:`~repro.engine.core.DetectorEngine` advances all its streams with
one vectorised pass per layer.  Its contract is the per-stream one: lane
``s`` must behave exactly like an
:class:`~repro.detectors.single.OnlineOutlierDetector` fed column ``s``
through ``process_many`` -- detections, flag details, counters, memory
and the snapshot it writes, down to Python types -- under any
construction and any split of the input into batches.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro._exceptions import ParameterError, SnapshotError
from repro.core.mdef import MDEFSpec
from repro.core.outliers import DistanceOutlierDecision, DistanceOutlierSpec
from repro.detectors.single import OnlineOutlierDetector
from repro.engine.core import DetectorEngine
from repro.engine.snapshot import decode_snapshot, encode_snapshot
from repro.engine.supervisor import SupervisedEngine
from repro.network.faults import EngineCrash, FaultPlan
from tests.state_equality import assert_same_state

D3 = DistanceOutlierSpec(radius=0.5, count_threshold=3)
MDEF = MDEFSpec(sampling_radius=0.08, counting_radius=0.01)


class PerStream:
    """The reference: one OnlineOutlierDetector per engine stream."""

    def __init__(self, n_streams, spec, kwargs, rngs) -> None:
        self.detectors = [
            OnlineOutlierDetector(
                kwargs["window_size"], kwargs["sample_size"], spec,
                n_dims=kwargs.get("n_dims", 1),
                warmup=kwargs.get("warmup"),
                model_refresh=kwargs.get("model_refresh", 32),
                bandwidth_basis=kwargs.get("bandwidth_basis", "window"),
                rng=rng)
            for rng in rngs]
        self.spec = spec
        self.tick = 0
        self.last_flags: "list[dict]" = []

    def ingest(self, batch: np.ndarray) -> np.ndarray:
        m = batch.shape[0]
        detections = np.zeros((m, len(self.detectors)), dtype=bool)
        flags = []
        for stream, detector in enumerate(self.detectors):
            for row, decision in enumerate(
                    detector.process_many(batch[:, stream])):
                if decision is None or not decision.is_outlier:
                    continue
                detections[row, stream] = True
                if isinstance(decision, DistanceOutlierDecision):
                    score = float(decision.neighbor_count)
                    threshold = float(self.spec.count_threshold)
                else:
                    score = float(decision.mdef)
                    threshold = float(self.spec.k_sigma
                                      * decision.sigma_mdef)
                flags.append({"stream": stream, "tick": self.tick + row,
                              "score": score, "threshold": threshold,
                              "model_seq": detector.model_seq})
        self.last_flags = sorted(flags,
                                 key=lambda f: (f["tick"], f["stream"]))
        self.tick += m
        return detections

    def snapshot_state(self) -> dict:
        return {"n_streams": len(self.detectors),
                "n_dims": self.detectors[0]._state.sample.n_dims,
                "tick": self.tick,
                "detectors": [d.snapshot_state() for d in self.detectors]}


def build(n_streams, spec, kwargs, seed, use_seeds):
    """A lockstep engine and its per-stream reference on equal randomness."""
    if use_seeds:
        seeds = np.random.default_rng(seed).integers(
            0, 2 ** 32, size=n_streams).tolist()
        engine = DetectorEngine(n_streams, spec, stream_seeds=seeds,
                                **kwargs)
        rngs = [np.random.default_rng(s) for s in seeds]
    else:
        engine = DetectorEngine(n_streams, spec,
                                rng=np.random.default_rng(seed), **kwargs)
        rngs = np.random.default_rng(seed).spawn(n_streams)
    return engine, PerStream(n_streams, spec, kwargs, rngs)


def readings(seed, n_ticks, n_streams, n_dims):
    rng = np.random.default_rng(seed)
    data = rng.normal(0.4, 0.3, size=(n_ticks, n_streams, n_dims))
    data[::13] += 3.0
    return data


def assert_equivalent(engine, reference, data, splits) -> None:
    start = 0
    for index, size in enumerate(splits):
        batch = data[start:start + size]
        start += size
        if batch.shape[2] == 1 and index % 2:
            batch = batch[:, :, 0]    # scalar readings as (m, n_streams)
        got = engine.ingest(batch)
        want = reference.ingest(batch)
        assert np.array_equal(got, want)
        assert_same_state(engine.last_flags, reference.last_flags)
        assert engine.tick == reference.tick
    assert engine.readings_flagged() == sum(
        d.readings_flagged for d in reference.detectors)
    assert engine.memory_words() == sum(
        d.memory_words() for d in reference.detectors)
    assert_same_state(engine.snapshot_state(), reference.snapshot_state())


class TestLockstepEqualsPerStream:
    @settings(max_examples=30, deadline=None)
    @given(n_streams=st.integers(min_value=1, max_value=9),
           n_dims=st.integers(min_value=1, max_value=2),
           mdef=st.booleans(),
           window=st.integers(min_value=8, max_value=60),
           sample=st.integers(min_value=1, max_value=16),
           warmup=st.one_of(st.none(), st.integers(min_value=0,
                                                   max_value=90)),
           refresh=st.integers(min_value=1, max_value=40),
           basis=st.sampled_from(["window", "sample"]),
           use_seeds=st.booleans(),
           seed=st.integers(min_value=0, max_value=2 ** 16),
           splits=st.lists(st.integers(min_value=1, max_value=50),
                           min_size=1, max_size=8))
    def test_random_constructions_and_splits(
            self, n_streams, n_dims, mdef, window, sample, warmup, refresh,
            basis, use_seeds, seed, splits):
        kwargs = dict(window_size=window, sample_size=min(sample, window),
                      n_dims=n_dims, warmup=warmup, model_refresh=refresh,
                      bandwidth_basis=basis)
        engine, reference = build(n_streams, MDEF if mdef else D3, kwargs,
                                  seed, use_seeds)
        # Size-1 batches plus the drawn split: the batches straddle
        # warm-up and refresh boundaries at random offsets.
        splits = [1] + splits + [1]
        data = readings(seed, sum(splits), n_streams, n_dims)
        assert_equivalent(engine, reference, data, splits)

    @pytest.mark.parametrize("n_dims", [1, 2])
    def test_d3_flags(self, n_dims):
        kwargs = dict(window_size=40, sample_size=16, n_dims=n_dims,
                      warmup=10, model_refresh=8)
        engine, reference = build(5, D3, kwargs, 3, use_seeds=False)
        data = readings(4, 230, 5, n_dims)
        assert_equivalent(engine, reference, data, [7, 1, 33, 64, 125])
        assert engine.readings_flagged() > 0

    def test_mdef_flags(self):
        # MDEF needs a wide window before it resolves density contrast.
        kwargs = dict(window_size=150, sample_size=40, warmup=10,
                      model_refresh=8)
        engine, reference = build(4, MDEF, kwargs, 7, use_seeds=False)
        rng = np.random.default_rng(3)
        data = rng.normal(0.4, 0.02, size=(300, 4, 1))
        data[::37] = 0.46
        assert_equivalent(engine, reference, data, [100, 1, 99, 100])
        assert engine.readings_flagged() > 0

    def test_snapshots_cross_between_layouts(self):
        kwargs = dict(window_size=40, sample_size=16, warmup=10,
                      model_refresh=8)
        engine, reference = build(3, D3, kwargs, 5, use_seeds=True)
        data = readings(6, 160, 3, 1)
        engine.ingest(data[:70])
        reference.ingest(data[:70])
        # A per-stream checkpoint restores into the lockstep engine...
        restored = DetectorEngine.restore_state(reference.snapshot_state())
        # ...and the lockstep one into per-stream detectors.
        detectors = [OnlineOutlierDetector.restore_state(s)
                     for s in engine.snapshot_state()["detectors"]]
        reference.detectors = detectors
        got = restored.ingest(data[70:])
        assert np.array_equal(got, reference.ingest(data[70:]))
        assert_same_state(restored.snapshot_state(),
                          reference.snapshot_state())
        assert encode_snapshot(decode_snapshot(encode_snapshot(restored))) \
            == encode_snapshot(restored)

    def test_streams_out_of_step_refused(self):
        engine = DetectorEngine(2, D3, window_size=20, sample_size=4,
                                rng=np.random.default_rng(0))
        engine.ingest(np.zeros((5, 2)))
        state = engine.snapshot_state()
        state["detectors"][1]["seen"] = 6
        with pytest.raises(SnapshotError, match="out of step"):
            DetectorEngine.restore_state(state)


def bad_batch(n_ticks: int = 5) -> np.ndarray:
    batch = np.random.default_rng(2).normal(size=(n_ticks, 3))
    batch[3, 1] = np.nan
    return batch


class TestAtomicIngest:
    """A rejected batch changes nothing: no lane takes part of it."""

    def make_engine(self) -> DetectorEngine:
        return DetectorEngine(3, D3, window_size=20, sample_size=8,
                              warmup=5, model_refresh=4,
                              rng=np.random.default_rng(1))

    def test_non_finite_batch_leaves_engine_untouched(self):
        data = np.random.default_rng(0).normal(size=(60, 3))
        engine, control = self.make_engine(), self.make_engine()
        engine.ingest(data[:20])
        control.ingest(data[:20])
        before = encode_snapshot(engine)
        with pytest.raises(ParameterError, match="finite"):
            engine.ingest(bad_batch())
        assert engine.tick == 20
        assert encode_snapshot(engine) == before
        # The engine stays in step: the next batch matches a run that
        # never saw the bad one.
        assert np.array_equal(engine.ingest(data[20:]),
                              control.ingest(data[20:]))

    def test_supervisor_journals_only_accepted_batches(self, tmp_path):
        data = np.random.default_rng(0).normal(size=(60, 3))
        control = self.make_engine()
        expected = control.ingest(data)
        plan = FaultPlan(engine_crashes=[EngineCrash(tick=40)])
        sup = SupervisedEngine(self.make_engine(), tmp_path,
                               checkpoint_every=32, fault_plan=plan)
        first = sup.ingest(data[:20])
        before = encode_snapshot(sup.engine)
        with pytest.raises(ParameterError, match="finite"):
            sup.ingest(bad_batch())
        assert sup.tick == 20
        assert encode_snapshot(sup.engine) == before
        assert [start for start, _ in sup.journal.replay_from(0)] == [0]
        # The crash at tick 40 replays the journal: it must hold only
        # accepted batches for recovery to succeed.
        rest = sup.ingest(data[20:])
        assert sup.restarts == 1
        assert np.array_equal(np.concatenate([first, rest]), expected)
        sup.close()


class TestObservabilityParity:
    def test_counters_and_phases_match_per_stream(self):
        kwargs = dict(window_size=30, sample_size=8, warmup=10,
                      model_refresh=6)
        data = readings(8, 120, 4, 1)
        splits = [15, 40, 65]

        def run(target) -> dict:
            obs.reset()
            with obs.enabled():
                start = 0
                for size in splits:
                    target.ingest(data[start:start + size])
                    start += size
            return obs.snapshot()

        engine, reference = build(4, D3, kwargs, 9, use_seeds=False)
        per_stream = run(reference)
        lockstep = run(engine)
        obs.reset()
        counters = ("sample.mutations", "sample.evictions")
        for name in counters:
            assert lockstep["metrics"]["counters"][name] == \
                per_stream["metrics"]["counters"][name] > 0
        assert lockstep["events_by_kind"]["sample.evict"] == \
            per_stream["events_by_kind"]["sample.evict"]
        # Same chunk schedule: one lockstep call per chunk stands for
        # one call per stream.
        for phase in ("chain.offer_many", "sketch.update_many"):
            assert lockstep["profile"][phase]["calls"] * 4 == \
                per_stream["profile"][phase]["calls"]
        for phase in ("estimator.rebuild", "kernels.range_batch"):
            assert 0 < lockstep["profile"][phase]["calls"] \
                <= per_stream["profile"][phase]["calls"]
