"""One fresh-interpreter benchmark process; started by ``run.py``.

``worker.py setup ...`` builds and warms up a workload, prints the
monotonic clock reading at which the first timed batch could start,
and exits.  ``worker.py run ...`` does the same, then runs the timed
closed loop, checks the outputs, and prints one JSON object of raw
measurements as its last line.  With ``--trace 1`` the loop runs in two
halves: untraced, then with the layer probes of :mod:`probes`
installed, so one process yields both the per-layer figures and the
tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

from layers import LayerClock, installed  # noqa: E402
from repro.core.backend import backend_name  # noqa: E402
from workloads import EVAL_TICKS, MIN_BATCHES, build_workload  # noqa: E402

#: Batches each half of a traced run measures at least.
TRACE_MIN_BATCHES = 20


def percentile(values: "list[float]", q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def timed_loop(workload: Any, seconds: float,
               min_batches: int) -> "list[int]":
    """Run batches until both the time and the batch floor are met.

    Returns each batch's duration in nanoseconds.  Input preparation and
    output bookkeeping stay outside the timer.
    """
    durations: "list[int]" = []
    deadline = time.perf_counter() + seconds
    while (time.perf_counter() < deadline
           or len(durations) < min_batches) and not workload.exhausted():
        batch = workload.next_batch()
        start = time.perf_counter_ns()
        output = workload.run(batch)
        durations.append(time.perf_counter_ns() - start)
        workload.keep(output)
    return durations


def latency_metrics(durations: "list[int]",
                    readings_per_batch: int) -> "dict[str, float]":
    p50 = statistics.median(durations)
    return {
        "readings_per_s": readings_per_batch / (p50 / 1e9),
        "batch_ms_p50": p50 / 1e6,
        "batch_ms_p90": percentile(durations, 90) / 1e6,
    }


def layer_metrics(clock: LayerClock, wall_ns: int, readings: int,
                  tallies: "dict[str, float]", recoveries: "list[float]",
                  untraced_rps: float, traced_rps: float
                  ) -> "dict[str, float]":
    """Per-layer figures of the traced half (see README.md)."""
    def us(ns: float) -> float:
        return ns / 1e3 / readings

    def p50(name: str, scale: float = 1.0) -> float:
        values = clock.samples.get(name)
        return statistics.median(values) * scale if values else 0.0

    out: "dict[str, float]" = {}
    for layer in ("sampling", "variance", "rebuild", "kernel", "mdef",
                  "decide", "network", "nodes", "obs", "supervisor",
                  "journal", "checkpoint"):
        out[f"{layer}.self_us_per_reading"] = us(clock.self_ns.get(layer, 0))
    counts = clock.counts
    checks = counts.get("rebuild.checks", 0)
    out.update({
        "sampling.calls": clock.entries.get("sampling", 0),
        "sampling.mutations_per_reading":
            counts.get("sampling.mutations", 0) / readings,
        "variance.calls": clock.entries.get("variance", 0),
        "variance.buckets_per_stream": counts.get("variance.buckets", 0.0),
        "rebuild.count": counts.get("rebuild.count", 0),
        "rebuild.per_check":
            counts.get("rebuild.count", 0) / checks if checks else 0.0,
        "kernel.cells_per_reading": counts.get("kernel.cells", 0) / readings,
        "mdef.calls": clock.entries.get("mdef", 0),
        "network.msgs_per_reading": tallies.get("messages", 0) / readings,
        "network.words_per_reading": tallies.get("words", 0) / readings,
        "network.retransmits": tallies.get("retransmits", 0),
        "obs.events_per_reading": tallies.get("obs_events", 0) / readings,
        "obs.dropped": tallies.get("obs_dropped", 0),
        "journal.append_ms_p50": p50("journal.append_ns", 1e-6),
        "journal.bytes_per_batch": p50("journal.bytes"),
        "checkpoint.save_ms_p50": p50("checkpoint.save_ns", 1e-6),
        "checkpoint.load_ms_p50": p50("checkpoint.load_ns", 1e-6),
        "checkpoint.bytes": p50("checkpoint.bytes"),
        "supervisor.recoveries": tallies.get("recoveries", 0),
        "supervisor.replay_ticks":
            tallies.get("replayed_ticks", 0) / tallies["recoveries"]
            if tallies.get("recoveries") else 0.0,
        "supervisor.recovery_s_p50":
            statistics.median(recoveries) if recoveries else 0.0,
        "trace.wall_us_per_reading": us(wall_ns),
        "residual.us_per_reading": us(wall_ns - clock.total_self_ns()),
        "trace.overhead": untraced_rps / traced_rps - 1.0,
    })
    return out


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True, choices=EVAL_TICKS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--state-root", type=Path, required=True)
    args = parser.parse_args(argv)

    workload = build_workload(args.workload, args.seed,
                              seconds=args.seconds,
                              state_root=args.state_root)
    ready = time.monotonic()
    try:
        if args.mode == "setup":
            print(json.dumps({"ready_monotonic": ready}))
            return 0
        result = measure(workload, args)
    finally:
        workload.close()
    result["ready_monotonic"] = ready
    result["numpy"] = np.__version__
    result["backend"] = backend_name()
    print(json.dumps(result))
    return 0


def measure(workload: Any, args: argparse.Namespace) -> "dict[str, Any]":
    per_batch = workload.readings_per_batch
    eval_batches = EVAL_TICKS[args.workload] // workload.batch_ticks
    result: "dict[str, Any]" = {}
    if not args.trace:
        durations = timed_loop(workload, args.seconds, MIN_BATCHES)
        result["metrics"] = latency_metrics(durations, per_batch)
    else:
        from probes import probes_for, tally_sketches

        half = args.seconds / 2
        untraced = timed_loop(workload, half, TRACE_MIN_BATCHES)
        clock = LayerClock()
        before = workload.tallies()
        recoveries_before = len(workload.recovery_seconds())
        probes, sketches = probes_for()
        with installed(clock, probes):
            traced = timed_loop(workload, half, TRACE_MIN_BATCHES)
        after = workload.tallies()
        tallies = {key: after[key] - before[key] for key in after}
        tally_sketches(clock, sketches)
        durations = untraced + traced
        result["metrics"] = layer_metrics(
            clock, sum(traced), len(traced) * per_batch, tallies,
            workload.recovery_seconds()[recoveries_before:],
            latency_metrics(untraced, per_batch)["readings_per_s"],
            latency_metrics(traced, per_batch)["readings_per_s"])
    result["batches"] = len(durations)
    result["readings"] = len(durations) * per_batch
    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["state_words_per_stream"] = workload.state_words_per_stream()
    result["eval_batches"] = min(eval_batches, len(durations))
    result["check"] = workload.check(result["eval_batches"])
    return result


if __name__ == "__main__":
    sys.exit(main())
