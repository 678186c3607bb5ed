"""The layer map: which public entry points belong to which layer.

Each layer of the README's table is a set of entry points into the
program.  A call's time is charged to the innermost layer it is in (see
:mod:`layers`), so, for example, the kernel queries a D3 decision makes
count as ``kernel`` and only the loop around them as ``decide``.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from layers import LayerClock, Probe
from repro.core.estimator import KernelDensityEstimator
from repro.core.mdef import MDEFOutlierDetector
from repro.detectors._state import StreamModelState
from repro.detectors.mgdd import MGDDLeaderNode, MGDDLeafNode, _GlobalModelCopy
from repro.detectors.single import OnlineOutlierDetector
from repro.engine.checkpoint import CheckpointStore
from repro.engine.core import DetectorEngine
from repro.engine.journal import Journal
from repro.engine.supervisor import SupervisedEngine
from repro.network.simulator import NetworkSimulator
from repro.obs.metrics import Counter, Gauge, Histogram
from repro.obs.profile import PhaseProfiler
from repro.obs.trace import Tracer
from repro.streams.sampling import ChainSample
from repro.streams.variance import EHVarianceSketch, MultiDimVarianceSketch

__all__ = ["probes_for", "tally_sketches"]


def _mutations_before(args: tuple) -> int:
    return args[0].mutation_count


def _count_mutations(clock: LayerClock, before: int, args: tuple,
                     result: Any, dur_ns: int) -> None:
    if clock.outermost("sampling"):
        clock.count("sampling.mutations", args[0].mutation_count - before)


def _count_check(clock: LayerClock, token: None, args: tuple,
                 result: Any, dur_ns: int) -> None:
    clock.count("rebuild.checks")


def _count_build(clock: LayerClock, token: None, args: tuple,
                 result: Any, dur_ns: int) -> None:
    # Only estimators built by a model() check; a checkpoint restore
    # constructs them too, but that is no rebuild.
    if not clock.outermost("rebuild"):
        clock.count("rebuild.count")


def _queries(name: str, args: tuple) -> int:
    model = args[0]
    if name == "_range_probability_batch":
        return int(args[1].shape[0])
    if name == "interval_probabilities":
        return max(0, int(np.size(args[1])) - 1)
    if name == "grid_probabilities":
        return int(args[1]) ** model.n_dims
    return max(1, int(np.size(args[1])) // model.n_dims)


def _kernel_hook(name: str) -> Any:
    def count_cells(clock: LayerClock, token: None, args: tuple,
                    result: Any, dur_ns: int) -> None:
        if clock.outermost("kernel"):
            model = args[0]
            clock.count("kernel.cells", _queries(name, args)
                        * model.sample_size * model.n_dims)
    return count_cells


def _sample(name: str) -> Any:
    def record(clock: LayerClock, token: None, args: tuple, result: Any,
               dur_ns: int) -> None:
        clock.sample(name, dur_ns)
    return record


def _journal_size(args: tuple) -> int:
    path = args[0].path
    return path.stat().st_size if path.exists() else 0


def _journal_append(clock: LayerClock, size_before: int, args: tuple,
                    result: Any, dur_ns: int) -> None:
    clock.sample("journal.append_ns", dur_ns)
    clock.sample("journal.bytes", args[0].path.stat().st_size - size_before)


def _checkpoint_save(clock: LayerClock, token: None, args: tuple,
                     result: Any, dur_ns: int) -> None:
    clock.sample("checkpoint.save_ns", dur_ns)
    clock.sample("checkpoint.bytes", result[1])


def probes_for() -> "tuple[list[Probe], dict[int, EHVarianceSketch]]":
    """Every probe, plus the registry the variance probes fill in.

    The registry maps ``id(sketch)`` to each EH sketch written during the
    traced phase, for :func:`tally_sketches`.
    """
    sketches: "dict[int, EHVarianceSketch]" = {}

    def note_sketch(clock: LayerClock, token: None, args: tuple,
                    result: Any, dur_ns: int) -> None:
        sketches[id(args[0])] = args[0]

    probes = [
        Probe(ChainSample, name, "sampling", _mutations_before,
              _count_mutations)
        for name in ("offer", "offer_detailed", "offer_many")]
    probes += [Probe(MultiDimVarianceSketch, name, "variance")
               for name in ("insert", "insert_many", "std")]
    probes += [Probe(EHVarianceSketch, name, "variance", None, note_sketch)
               for name in ("insert", "insert_many")]
    probes += [
        Probe(StreamModelState, "model", "rebuild", None, _count_check),
        Probe(_GlobalModelCopy, "model", "rebuild", None, _count_check),
        Probe(KernelDensityEstimator, "__init__", "rebuild", None,
              _count_build),
    ]
    probes += [Probe(KernelDensityEstimator, name, "kernel", None,
                     _kernel_hook(name))
               for name in ("pdf", "range_probability", "neighborhood_count",
                            "interval_probabilities", "grid_probabilities",
                            "_range_probability_batch")]
    probes += [Probe(MDEFOutlierDetector, name, "mdef")
               for name in ("check", "check_many")]
    probes += [Probe(DetectorEngine, "ingest", "decide")]
    probes += [Probe(OnlineOutlierDetector, name, "decide")
               for name in ("process", "process_many")]
    probes += [Probe(NetworkSimulator, name, "network")
               for name in ("step", "step_epoch")]
    probes += [Probe(MGDDLeafNode, name, "nodes")
               for name in ("on_reading", "on_readings", "on_tick_start",
                            "on_message")]
    probes += [Probe(MGDDLeaderNode, name, "nodes")
               for name in ("on_reading", "on_message")]
    probes += [Probe(Tracer, name, "obs")
               for name in ("emit", "open_span", "close_span")]
    probes += [Probe(PhaseProfiler, "record", "obs"),
               Probe(Counter, "inc", "obs"),
               Probe(Gauge, "set", "obs"),
               Probe(Histogram, "observe", "obs")]
    probes += [
        Probe(SupervisedEngine, "ingest", "supervisor"),
        Probe(Journal, "append", "journal", _journal_size, _journal_append),
        Probe(Journal, "replay_from", "journal"),
        Probe(Journal, "truncate_before", "journal"),
        Probe(CheckpointStore, "save", "checkpoint", None, _checkpoint_save),
        Probe(CheckpointStore, "load", "checkpoint", None,
              _sample("checkpoint.load_ns")),
    ]
    return probes, sketches


def tally_sketches(clock: LayerClock,
                   sketches: "dict[int, EHVarianceSketch]") -> None:
    """Mean EH bucket count over the sketches the traced phase wrote."""
    if sketches:
        clock.count("variance.buckets", sum(
            s.bucket_count for s in sketches.values()) / len(sketches))
