"""The benchmark's three workloads, each a closed loop from one caller.

Every workload builds its inputs from the seed alone, warms up one
window before the first timed batch, and then exposes the same loop to
the worker: :meth:`next_batch` prepares the next input outside the
timer, :meth:`run` is the one timed call into the program, and
:meth:`keep` stores its output outside the timer.  After the timed loop
:meth:`check` compares a fixed evaluation prefix against the reference
path of the program's bit-identity contracts and against exact
sliding-window truth.  README.md in this directory says why each
workload exists.
"""

from __future__ import annotations

import math
import shutil
import tempfile
from pathlib import Path
from typing import Any

import numpy as np

from repro import obs
from repro.core.mdef import MDEFSpec
from repro.core.outliers import DistanceOutlierSpec
from repro.data import StreamSet, make_plateau_streams
from repro.detectors.mgdd import MGDDConfig, build_mgdd_network
from repro.detectors.single import OnlineOutlierDetector
from repro.engine.core import DetectorEngine
from repro.engine.supervisor import SupervisedEngine
from repro.network.faults import EngineCrash, FaultPlan
from repro.network.messages import MessageCounter
from repro.network.simulator import NetworkSimulator
from repro.network.topology import build_hierarchy
from repro.network.transport import TransportConfig

__all__ = ["EVAL_TICKS", "MIN_BATCHES", "build_workload", "exact_distance_flags",
           "spiked_normal"]

WINDOW = 300            # |W|, also the warm-up length in ticks
SAMPLE = 30             # |R|
D3_SPEC = DistanceOutlierSpec(radius=0.5, count_threshold=3)
#: ``min_mdef=0.8`` is the accuracy harness's edge-suppression floor for
#: plateau data.  Without it the exact truth flags the plateau edges
#: (about 8% of readings) and recall and precision swing by a factor of
#: two from seed to seed.
MGDD_SPEC = MDEFSpec(sampling_radius=0.1, counting_radius=0.025,
                     min_mdef=0.8)

#: Ticks per generated input chunk of the engine workloads.  Chunks are
#: seeded by (seed, chunk index), so the input of a tick never depends
#: on how fast the timed loop ran.
_CHUNK_TICKS = 256
#: Streams whose detections are replayed through the per-stream
#: reference path (``OnlineOutlierDetector.process_many``).
_REFERENCE_STREAMS = 16


def spiked_normal(rng: np.random.Generator, n_ticks: int,
                  n_streams: int) -> np.ndarray:
    """Unit-variance readings with rare +-8 spikes, shape (ticks, streams).

    The same generator as the recovery sweep (``repro.eval.recovery``):
    one spike per 50 ticks, spread over random streams.  It is copied
    here so that the benchmark's inputs stay fixed when that sweep
    changes.
    """
    data = rng.normal(0.0, 1.0, size=(n_ticks, n_streams))
    n_spikes = max(1, n_ticks // 50)
    ticks = rng.choice(n_ticks, size=n_spikes, replace=False)
    streams = rng.integers(0, n_streams, size=n_spikes)
    data[ticks, streams] = rng.choice((-1.0, 1.0), size=n_spikes) * 8.0
    return data


def exact_distance_flags(data: np.ndarray, start: int, stop: int, *,
                         window: int, spec: DistanceOutlierSpec
                         ) -> np.ndarray:
    """Exact D3 truth for ticks ``[start, stop)`` of every stream.

    A reading is an outlier when fewer than ``spec.count_threshold``
    readings of its stream's last ``window`` (itself included) lie
    within ``spec.radius`` of it -- BruteForce-D of
    :func:`repro.core.baselines.brute_force_distance_outliers`, applied
    at every arrival.  Returns a bool array of shape
    ``(stop - start, n_streams)``.
    """
    if start < window - 1:
        raise ValueError("start must leave a full window behind it")
    flags = np.empty((stop - start, data.shape[1]), dtype=bool)
    block = 64
    for lo in range(start, stop, block):
        hi = min(stop, lo + block)
        # windows[k, s, j] = data[lo + k - window + 1 + j, s]
        windows = np.lib.stride_tricks.sliding_window_view(
            data[lo - window + 1:hi], window, axis=0)
        near = np.abs(windows - data[lo:hi, :, None]) <= spec.radius
        flags[lo - start:hi - start] = near.sum(axis=2) < spec.count_threshold
    return flags


def _score(flags: np.ndarray, truth: np.ndarray) -> "dict[str, int]":
    return {"flags": int(flags.sum()), "true": int(truth.sum()),
            "hits": int((flags & truth).sum())}


class EngineWorkload:
    """``DetectorEngine`` (optionally supervised) over spiked streams."""

    def __init__(self, seed: int, *, n_streams: int, batch_ticks: int,
                 supervised: bool = False,
                 state_root: "Path | None" = None) -> None:
        self._seed = seed
        self._n_streams = n_streams
        self.batch_ticks = batch_ticks
        self.readings_per_batch = batch_ticks * n_streams
        self._chunks: "dict[int, np.ndarray]" = {}
        self._stream_seeds = [
            int(s) for s in np.random.default_rng([seed, 1]).integers(
                0, 2**63, size=n_streams)]
        self.engine = DetectorEngine(
            n_streams, D3_SPEC, window_size=WINDOW, sample_size=SAMPLE,
            stream_seeds=self._stream_seeds)
        self.supervisor: "SupervisedEngine | None" = None
        self.state_dir: "Path | None" = None
        if supervised:
            if state_root is None:
                raise ValueError("a supervised workload needs a state_root")
            state_root.mkdir(parents=True, exist_ok=True)
            self.state_dir = Path(tempfile.mkdtemp(dir=state_root))
            # A crash every 128, 192 or 256 ticks (seeded).  Gaps are
            # whole checkpoint periods, so every recovery replays the same
            # 44 ticks (300 mod 64) and crash batches cost alike.
            gaps = np.random.default_rng([seed, 2]).choice(
                (128, 192, 256), size=4096)
            crashes = [EngineCrash(tick=WINDOW + int(t))
                       for t in np.cumsum(gaps)]
            self.supervisor = SupervisedEngine(
                self.engine, self.state_dir, checkpoint_every=64,
                fault_plan=FaultPlan(engine_crashes=crashes))
        self._target: Any = self.supervisor or self.engine
        self._target.ingest(self._ticks(0, WINDOW))
        self._tick = WINDOW
        self._outputs: "list[np.ndarray]" = []

    # -- inputs --------------------------------------------------------

    def _ticks(self, start: int, stop: int) -> np.ndarray:
        parts = []
        for chunk in range(start // _CHUNK_TICKS,
                           (stop - 1) // _CHUNK_TICKS + 1):
            if chunk not in self._chunks:
                self._chunks[chunk] = spiked_normal(
                    np.random.default_rng([self._seed, 0, chunk]),
                    _CHUNK_TICKS, self._n_streams)
            parts.append(self._chunks[chunk])
        base = (start // _CHUNK_TICKS) * _CHUNK_TICKS
        return np.concatenate(parts)[start - base:stop - base]

    # -- the timed loop ------------------------------------------------

    def exhausted(self) -> bool:
        return False

    def next_batch(self) -> np.ndarray:
        return self._ticks(self._tick, self._tick + self.batch_ticks)

    def run(self, batch: np.ndarray) -> np.ndarray:
        return self._target.ingest(batch)

    def keep(self, output: np.ndarray) -> None:
        self._outputs.append(output)
        self._tick += self.batch_ticks

    # -- state and counters ----------------------------------------------

    def state_words_per_stream(self) -> float:
        engine = self.supervisor.engine if self.supervisor else self.engine
        return engine.memory_words() / self._n_streams

    def tallies(self) -> "dict[str, float]":
        if self.supervisor is None:
            return {}
        recoveries = self.supervisor.recoveries
        return {"recoveries": len(recoveries),
                "replayed_ticks": sum(r["replayed_ticks"]
                                      for r in recoveries)}

    def recovery_seconds(self) -> "list[float]":
        if self.supervisor is None:
            return []
        return [float(r["recovery_s"]) for r in self.supervisor.recoveries]

    # -- correctness -----------------------------------------------------

    def check(self, n_batches: int) -> "dict[str, int]":
        """Reference and truth comparison over the first timed batches."""
        n_ticks = n_batches * self.batch_ticks
        detected = np.vstack(self._outputs[:n_batches])
        data = self._ticks(0, WINDOW + n_ticks)
        truth = exact_distance_flags(data, WINDOW, WINDOW + n_ticks,
                                     window=WINDOW, spec=D3_SPEC)
        result = _score(detected, truth)
        streams = np.unique(np.linspace(
            0, self._n_streams - 1, _REFERENCE_STREAMS).astype(int))
        mismatched = 0
        for stream in streams:
            reference = OnlineOutlierDetector(
                WINDOW, SAMPLE, D3_SPEC,
                rng=np.random.default_rng(self._stream_seeds[stream]))
            decisions = reference.process_many(data[:, stream])[WINDOW:]
            expected = np.array([d is not None and d.is_outlier
                                 for d in decisions])
            mismatched += int((expected != detected[:, stream]).sum())
        result["compared"] = len(streams) * n_ticks
        result["mismatched"] = mismatched
        return result

    def close(self) -> None:
        if self.supervisor is not None:
            self.supervisor.close()
        if self.state_dir is not None:
            shutil.rmtree(self.state_dir, ignore_errors=True)


class NetworkWorkload:
    """MGDD over a 16-leaf hierarchy with lossy links and reliable transport."""

    n_leaves = 16
    batch_ticks = 64
    readings_per_batch = batch_ticks * n_leaves
    #: Ticks replayed through the stepped reference ``NetworkSimulator.run``.
    reference_ticks = 4 * 64

    def __init__(self, seed: int, *, n_epochs: int) -> None:
        self._seed = seed
        length = WINDOW + n_epochs * self.batch_ticks
        self._arrays = make_plateau_streams(self.n_leaves, length, 1,
                                            seed=seed)
        self.hierarchy = build_hierarchy(self.n_leaves, 4)
        # Program telemetry stays on as an in-memory ring (no file sink):
        # it is part of what this workload measures.
        obs.reset()
        obs.activate()
        self.network, self.simulator, self.counter = self._build()
        self.simulator.step_epoch(WINDOW)

    def _build(self) -> "tuple[Any, NetworkSimulator, MessageCounter]":
        config = MGDDConfig(spec=MGDD_SPEC, window_size=WINDOW,
                            sample_size=SAMPLE)
        network = build_mgdd_network(
            self.hierarchy, config, 1,
            rng=np.random.default_rng([self._seed, 1]))
        counter = MessageCounter()
        simulator = NetworkSimulator(
            self.hierarchy, network.nodes,
            StreamSet.from_arrays(self._arrays), counter=counter,
            loss_rate=0.1, transport=TransportConfig(),
            rng=np.random.default_rng([self._seed, 2]))
        return network, simulator, counter

    # -- the timed loop ------------------------------------------------

    def exhausted(self) -> bool:
        return self.simulator.n_ticks_available < self.batch_ticks

    def next_batch(self) -> None:
        return None

    def run(self, batch: None) -> None:
        self.simulator.step_epoch(self.batch_ticks)

    def keep(self, output: None) -> None:
        pass

    # -- state and counters ----------------------------------------------

    def state_words_per_stream(self) -> float:
        words = 0
        for node in self.network.nodes.values():
            words += node.state.memory_words()
            copy = getattr(node, "global_copy", None)
            if copy is not None:
                words += copy.memory_words()
        return words / self.n_leaves

    def tallies(self) -> "dict[str, float]":
        tracer = obs.tracer()
        transport = self.simulator.transport
        return {"messages": self.counter.total_messages,
                "words": self.counter.total_words,
                "retransmits": transport.stats()["retransmissions"]
                if transport is not None else 0,
                "obs_events": tracer.n_emitted,
                "obs_dropped": tracer.n_dropped}

    def recovery_seconds(self) -> "list[float]":
        return []

    # -- correctness -----------------------------------------------------

    def _flags(self, log: Any, stop: int) -> "set[tuple[int, int]]":
        leaf_index = {leaf: i for i, leaf in
                      enumerate(self.hierarchy.leaf_ids)}
        return {(d.tick, leaf_index[d.origin]) for d in log.detections
                if d.level == 1 and WINDOW <= d.tick < stop}

    def check(self, n_batches: int) -> "dict[str, int]":
        """Reference and truth comparison over the first timed epochs."""
        from repro.eval.truth import GlobalMDEFTruth, WindowBank

        stop = WINDOW + n_batches * self.batch_ticks
        detected = self._flags(self.network.log, stop)
        bank = WindowBank(self.hierarchy, WINDOW, 1, mode="fixed")
        truth_model = GlobalMDEFTruth(bank, self.hierarchy, MGDD_SPEC)
        arrivals = np.stack(self._arrays, axis=1)
        truth: "set[tuple[int, int]]" = set()
        for tick in range(stop):
            truth_model.record_insert(arrivals[tick])
            bank.insert_tick(arrivals[tick])
            if tick >= WINDOW:
                truth.update((tick, int(i)) for i in np.flatnonzero(
                    truth_model.labels_for_tick(arrivals[tick])))
        result = {"flags": len(detected), "true": len(truth),
                  "hits": len(detected & truth)}
        # The reference runs untraced: traced == untraced is part of
        # the contract it checks.
        ref_stop = min(stop, WINDOW + self.reference_ticks)
        obs.deactivate()
        network, simulator, _ = self._build()
        simulator.run(ref_stop)
        expected = self._flags(network.log, ref_stop)
        observed = {key for key in detected if key[0] < ref_stop}
        result["compared"] = self.n_leaves * (ref_stop - WINDOW)
        result["mismatched"] = len(expected ^ observed)
        return result

    def close(self) -> None:
        obs.deactivate()


#: Timed batches every run measures at least, so that p90 has ten
#: batches above it.
MIN_BATCHES = 100
#: Ticks of the fixed evaluation prefix the correctness checks cover.
EVAL_TICKS = {"engine-d3": 1024, "network-mgdd": 2048, "supervised-d3": 2048}


def build_workload(name: str, seed: int, *, seconds: float,
                   state_root: Path) -> Any:
    """Construct and warm up the named workload."""
    if name == "engine-d3":
        return EngineWorkload(seed, n_streams=256, batch_ticks=32)
    if name == "supervised-d3":
        return EngineWorkload(seed, n_streams=64, batch_ticks=64,
                              supervised=True, state_root=state_root)
    if name == "network-mgdd":
        # Enough input for the minimum batch count, or for ``seconds`` at
        # four times the rate measured on a 2-core box, whichever is more.
        n_epochs = max(MIN_BATCHES, math.ceil(seconds * 16))
        return NetworkWorkload(seed, n_epochs=n_epochs)
    raise ValueError(f"unknown workload {name!r}")
