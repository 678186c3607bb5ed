"""Epoch-batched simulation reproduces the per-tick simulation exactly."""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.core.mdef import MDEFSpec
from repro.core.outliers import DistanceOutlierSpec
from repro.data.streams import StreamSet
from repro.data.synthetic import make_mixture_streams, make_plateau_streams
from repro.detectors.d3 import D3Config, build_d3_network
from repro.detectors.mgdd import MGDDConfig, build_mgdd_network
from repro.network.faults import CrashWindow, FaultPlan
from repro.network.simulator import NetworkSimulator
from repro.network.topology import build_hierarchy
from repro.network.transport import TransportConfig


def build_d3(seed, **sim_kwargs):
    hierarchy = build_hierarchy(8, 4)
    config = D3Config(
        spec=DistanceOutlierSpec(radius=0.01, count_threshold=5),
        window_size=300, sample_size=30, sample_fraction=0.5, warmup=300)
    network = build_d3_network(hierarchy, config, 1,
                               rng=np.random.default_rng(seed))
    streams = StreamSet.from_arrays(make_mixture_streams(8, 600, seed=seed))
    sim = NetworkSimulator(hierarchy, network.nodes, streams, **sim_kwargs)
    return network, sim


def build_mgdd(seed, config_kwargs=None, **sim_kwargs):
    """Eight plateau leaves under MGDD with a spec that flags (the
    perfbench one); ``config_kwargs`` override MGDDConfig fields."""
    hierarchy = build_hierarchy(8, 4)
    config = MGDDConfig(
        spec=MDEFSpec(sampling_radius=0.1, counting_radius=0.025,
                      min_mdef=0.8),
        window_size=300, sample_size=30, sample_fraction=0.5, warmup=300,
        **(config_kwargs or {}))
    network = build_mgdd_network(hierarchy, config, 1,
                                 rng=np.random.default_rng(seed))
    streams = StreamSet.from_arrays(make_plateau_streams(8, 600, seed=seed))
    sim = NetworkSimulator(hierarchy, network.nodes, streams, **sim_kwargs)
    return network, sim


def snapshot(network, sim):
    detections = [(d.tick, d.node_id, d.origin, d.level)
                  for d in network.log.detections]
    return detections, dict(sim.counter.counts), sim.tick


def loss_snapshot(network, sim):
    """Snapshot extended with the per-attempt outcome accounting."""
    return (snapshot(network, sim), sim.messages_lost,
            dict(sim.counter.delivered), dict(sim.counter.dropped),
            sim.drops_by_reason)


class TestBatchedEquivalence:
    @pytest.mark.parametrize("epoch_size", [64, 17, 1])
    def test_d3_run_batched_identical(self, epoch_size):
        network_a, sim_a = build_d3(seed=9)
        sim_a.run()
        network_b, sim_b = build_d3(seed=9)
        sim_b.run_batched(epoch_size=epoch_size)
        assert snapshot(network_a, sim_a) == snapshot(network_b, sim_b)

    @pytest.mark.parametrize("epoch_size", [64, 17])
    def test_mgdd_run_batched_identical(self, epoch_size):
        network_a, sim_a = build_mgdd(seed=4)
        sim_a.run()
        network_b, sim_b = build_mgdd(seed=4)
        sim_b.run_batched(epoch_size=epoch_size)
        assert snapshot(network_a, sim_a) == snapshot(network_b, sim_b)
        assert len(network_a.log.detections) > 0

    def test_step_epoch_resumable_mid_run(self):
        """Interleaving epochs of different sizes matches one run()."""
        network_a, sim_a = build_d3(seed=3)
        sim_a.run()
        network_b, sim_b = build_d3(seed=3)
        for n_ticks in (100, 1, 37, 462):
            sim_b.step_epoch(n_ticks)
        assert snapshot(network_a, sim_a) == snapshot(network_b, sim_b)

    def test_on_tick_callback_fires_per_tick(self):
        _, sim = build_d3(seed=5)
        seen = []
        sim.run_batched(200, epoch_size=64, on_tick=seen.append)
        assert seen == list(range(200))


class TestLossyBatchedEquivalence:
    """Satellite (d): the two ingestion paths consume the loss rng in the
    same order, so detections, counters, and loss patterns all match."""

    @pytest.mark.parametrize("epoch_size", [64, 17])
    def test_d3_lossy_runs_identical(self, epoch_size):
        network_a, sim_a = build_d3(seed=9, loss_rate=0.2,
                                    rng=np.random.default_rng(11))
        sim_a.run()
        network_b, sim_b = build_d3(seed=9, loss_rate=0.2,
                                    rng=np.random.default_rng(11))
        sim_b.run_batched(epoch_size=epoch_size)
        assert loss_snapshot(network_a, sim_a) \
            == loss_snapshot(network_b, sim_b)
        assert sim_a.messages_lost > 0

    def test_d3_lossy_step_vs_step_epoch(self):
        network_a, sim_a = build_d3(seed=3, loss_rate=0.3,
                                    rng=np.random.default_rng(5))
        for _ in range(600):
            sim_a.step()
        network_b, sim_b = build_d3(seed=3, loss_rate=0.3,
                                    rng=np.random.default_rng(5))
        for n_ticks in (100, 1, 37, 462):
            sim_b.step_epoch(n_ticks)
        assert loss_snapshot(network_a, sim_a) \
            == loss_snapshot(network_b, sim_b)

    def test_d3_crash_plan_runs_identical(self):
        # Crash a leaf (stops sending) and an L2 leader (node 8: its
        # children's forwards drop while it is down).
        faults = FaultPlan(crashes=[CrashWindow(node=1, start=350, end=450),
                                    CrashWindow(node=8, start=400, end=500)])
        network_a, sim_a = build_d3(seed=9, loss_rate=0.1, faults=faults,
                                    rng=np.random.default_rng(2))
        sim_a.run()
        network_b, sim_b = build_d3(seed=9, loss_rate=0.1, faults=faults,
                                    rng=np.random.default_rng(2))
        sim_b.run_batched(epoch_size=64)
        assert loss_snapshot(network_a, sim_a) \
            == loss_snapshot(network_b, sim_b)
        assert sim_a.drops_by_reason.get("crash", 0) > 0


#: Trace fields that hold wall-clock time or tracer bookkeeping.
_UNTIMED = ("t", "seq", "span", "dur_s")
#: Events whose grain differs by design between the two ingestion
#: paths: spans, and sample.evict (one per offer call, with a count).
_PATH_SPECIFIC = ("span_open", "span_close", "sample.evict")

#: MGDD scenarios: (MGDDConfig overrides, NetworkSimulator kwargs).
#: Leaf 1 and L2 leader 8 crash; the root (10, the model source) crashes
#: long enough for leaves to outlive the staleness horizon and pause.
_MGDD_CASES = {
    "loss-transport": ({}, dict(loss_rate=0.1, transport=TransportConfig())),
    "crash": ({}, dict(loss_rate=0.1, faults=FaultPlan(crashes=[
        CrashWindow(node=1, start=350, end=450),
        CrashWindow(node=8, start=400, end=500)]))),
    "staleness": ({"staleness_horizon": 20}, dict(faults=FaultPlan(crashes=[
        CrashWindow(node=10, start=380, end=470)]))),
    "lazy": ({"update_policy": "lazy"}, {}),
    "regional": ({"model_level": 2}, dict(loss_rate=0.1)),
}


def traced_mgdd_run(case, drive):
    """Build a seeded MGDD case, drive it traced; every observable."""
    config_kwargs, sim_kwargs = _MGDD_CASES[case]
    obs.reset()
    obs.activate()
    try:
        network, sim = build_mgdd(seed=4, config_kwargs=config_kwargs,
                                  rng=np.random.default_rng(11),
                                  **sim_kwargs)
        drive(sim)
        assert obs.tracer().n_dropped == 0
        events = [{key: value for key, value in event.items()
                   if key not in _UNTIMED}
                  for event in obs.tracer().events()
                  if event["event"] not in _PATH_SPECIFIC]
    finally:
        obs.deactivate()
        obs.reset()
    transport = sim.transport.stats() if sim.transport is not None else None
    return (loss_snapshot(network, sim), list(network.log.latencies),
            sim.messages_duplicated, transport, events)


class TestMGDDBatchedScenarios:
    """Stepped MGDD equals both batched entry points on every observable --
    detections with their MDEF score, threshold, model_seq and staleness
    (the detector.flag events), latencies, counters, loss accounting and
    trace events -- under loss, crashes, pauses and both update policies."""

    @pytest.mark.parametrize("case", sorted(_MGDD_CASES))
    def test_stepped_equals_batched(self, case):
        stepped = traced_mgdd_run(case, lambda sim: sim.run())
        flags = [e for e in stepped[-1] if e["event"] == "detector.flag"]
        assert len(flags) > 0
        assert all("prob" in e and "threshold" in e and "model_seq" in e
                   and "staleness" in e for e in flags)
        if case == "staleness":
            assert any(e["event"] == "detector.pause" for e in stepped[-1])
        if case in ("loss-transport", "crash", "regional"):
            assert stepped[0][1] > 0        # messages were lost
        assert traced_mgdd_run(
            case, lambda sim: sim.run_batched(epoch_size=64)) == stepped

        def uneven_epochs(sim):
            for n_ticks in (100, 1, 37, 462):
                sim.step_epoch(n_ticks)
        assert traced_mgdd_run(case, uneven_epochs) == stepped
