"""Ingest-throughput measurement: scalar loops vs the batched fast path.

The batched ingestion pipeline (``ChainSample.offer_many`` up through
``OnlineOutlierDetector.process_many`` and
``NetworkSimulator.run_batched``) promises the *same* decisions as the
one-reading-at-a-time loops at a fraction of the cost.  This module
measures both sides of that promise on a fixed workload:

* **single node** -- one sensor stream through
  :class:`~repro.detectors.single.OnlineOutlierDetector`, scalar
  ``process`` vs chunked ``process_many`` (identical flag sequences are
  asserted, not assumed);
* **network** -- a D3 deployment driven by
  :meth:`~repro.network.simulator.NetworkSimulator.run` vs
  :meth:`~repro.network.simulator.NetworkSimulator.run_batched`
  (identical detection logs and message counts are asserted).

Results are written to ``BENCH_throughput.json``.  Its record in
:mod:`repro.eval.regression` gates the dimensionless *speedup ratios*
-- absolute readings/sec depend on the machine, the ratio does not.
"""

from __future__ import annotations

import math
import platform
import time

import numpy as np

from repro._exceptions import ParameterError
from repro.core.outliers import DistanceOutlierSpec
from repro.data.streams import StreamSet
from repro.data.synthetic import make_mixture_streams
from repro.detectors.d3 import D3Config, build_d3_network
from repro.detectors.single import OnlineOutlierDetector
from repro.eval.provenance import run_metadata
from repro.network.simulator import NetworkSimulator
from repro.network.topology import build_hierarchy

__all__ = [
    "measure_single_node",
    "measure_network",
    "run_throughput_benchmark",
]

def _flags(decisions) -> "list[bool | None]":
    return [None if d is None else bool(d.is_outlier) for d in decisions]


def measure_single_node(*, window_size: int = 2_000, sample_size: int = 100,
                        n_readings: int = 20_000, batch_size: int = 1_024,
                        repeats: int = 3, seed: int = 0) -> dict:
    """Time scalar ``process`` vs ``process_many`` on one sensor stream.

    Both detectors are built from the same seed, so the batched run must
    reproduce the scalar flag sequence exactly; a mismatch raises (a
    fast benchmark of a wrong answer is worthless).  Each side runs
    ``repeats`` times and the fastest run counts -- the standard
    least-interference estimate for in-process timing.
    """
    readings = make_mixture_streams(1, n_readings, seed=seed)[0].reshape(-1)
    spec = DistanceOutlierSpec(radius=0.01, count_threshold=9)

    def build():
        return OnlineOutlierDetector(
            window_size, sample_size, spec,
            rng=np.random.default_rng(seed))

    scalar_seconds = math.inf
    for _ in range(max(1, repeats)):
        scalar = build()
        start = time.perf_counter()
        scalar_decisions = [scalar.process(value) for value in readings]
        scalar_seconds = min(scalar_seconds, time.perf_counter() - start)

    batched_seconds = math.inf
    for _ in range(max(1, repeats)):
        batched = build()
        batched_decisions: list = []
        start = time.perf_counter()
        for i in range(0, n_readings, batch_size):
            batched_decisions.extend(
                batched.process_many(readings[i:i + batch_size]))
        batched_seconds = min(batched_seconds, time.perf_counter() - start)

    if _flags(scalar_decisions) != _flags(batched_decisions):
        raise ParameterError(
            "batched decisions diverged from the scalar path")
    return {
        "window_size": window_size,
        "sample_size": sample_size,
        "n_readings": n_readings,
        "batch_size": batch_size,
        "flagged": batched.readings_flagged,
        "scalar_readings_per_sec": n_readings / scalar_seconds,
        "batched_readings_per_sec": n_readings / batched_seconds,
        "speedup": scalar_seconds / batched_seconds,
    }


def measure_network(*, n_leaves: int = 8, n_ticks: int = 800,
                    window_size: int = 300, sample_size: int = 30,
                    epoch_size: int = 64, repeats: int = 3,
                    seed: int = 0) -> dict:
    """Time a D3 deployment under ``run`` vs ``run_batched``.

    Both simulations are seeded identically; diverging detection logs or
    message counts raise.  Each side runs ``repeats`` times and the
    fastest run counts.
    """
    hierarchy = build_hierarchy(n_leaves, min(4, n_leaves))
    config = D3Config(
        spec=DistanceOutlierSpec(radius=0.01, count_threshold=5),
        window_size=window_size, sample_size=sample_size,
        sample_fraction=0.5, warmup=window_size)
    streams = StreamSet.from_arrays(
        make_mixture_streams(n_leaves, n_ticks, seed=seed))

    def build():
        network = build_d3_network(hierarchy, config, 1,
                                   rng=np.random.default_rng(seed))
        sim = NetworkSimulator(hierarchy, network.nodes, streams)
        return network, sim

    scalar_seconds = math.inf
    for _ in range(max(1, repeats)):
        network_a, sim_a = build()
        start = time.perf_counter()
        sim_a.run()
        scalar_seconds = min(scalar_seconds, time.perf_counter() - start)

    batched_seconds = math.inf
    for _ in range(max(1, repeats)):
        network_b, sim_b = build()
        start = time.perf_counter()
        sim_b.run_batched(epoch_size=epoch_size)
        batched_seconds = min(batched_seconds, time.perf_counter() - start)

    log_a = [(d.tick, d.node_id, d.origin, d.level)
             for d in network_a.log.detections]
    log_b = [(d.tick, d.node_id, d.origin, d.level)
             for d in network_b.log.detections]
    if log_a != log_b or dict(sim_a.counter.counts) != dict(sim_b.counter.counts):
        raise ParameterError(
            "batched simulation diverged from the scalar path")
    readings = n_leaves * n_ticks
    return {
        "n_leaves": n_leaves,
        "n_ticks": n_ticks,
        "window_size": window_size,
        "sample_size": sample_size,
        "epoch_size": epoch_size,
        "detections": len(log_a),
        "scalar_readings_per_sec": readings / scalar_seconds,
        "batched_readings_per_sec": readings / batched_seconds,
        "speedup": scalar_seconds / batched_seconds,
    }


def run_throughput_benchmark(*, window_size: int = 2_000,
                             sample_size: int = 100,
                             n_readings: int = 20_000,
                             batch_size: int = 1_024,
                             n_leaves: int = 8, n_ticks: int = 800,
                             seed: int = 0,
                             obs: "bool | str" = False) -> dict:
    """Run both measurements; return the full result document.

    The timed measurements always run with instrumentation *off* (the
    committed throughput numbers must not pay tracing overhead).  With
    ``obs`` truthy, a reduced traced workload runs afterwards via
    :func:`repro.eval.profiling.run_profile_benchmark` and its per-phase
    profile is embedded under the ``"obs"`` key (a string value also
    streams that trace to the given JSONL path).
    """
    results = {
        "benchmark": "ingest-throughput",
        "machine": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
        "meta": run_metadata(seed=seed),
        "single_node": measure_single_node(
            window_size=window_size, sample_size=sample_size,
            n_readings=n_readings, batch_size=batch_size, seed=seed),
        "network": measure_network(
            n_leaves=n_leaves, n_ticks=n_ticks, seed=seed),
    }
    if obs:
        from repro.eval.profiling import run_profile_benchmark
        results["obs"] = run_profile_benchmark(
            window_size=window_size, sample_size=sample_size,
            n_readings=min(n_readings, 10_000), batch_size=batch_size,
            n_leaves=n_leaves, n_ticks=min(n_ticks, 400), seed=seed,
            trace_path=obs if isinstance(obs, str) else None)
    return results
