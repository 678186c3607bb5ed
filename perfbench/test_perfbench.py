"""The benchmark's own tests: ``python3 -m pytest perfbench``.

They cover the self-time arithmetic, the metric declarations, the exact
truth against the repository's BruteForce-D, a tiny run of each
workload (untraced and traced), and the launcher's refusal to run
without the program.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import worker  # noqa: E402
from layers import LayerClock, Probe, installed  # noqa: E402
from probes import probes_for, tally_sketches  # noqa: E402
from repro.core.baselines import brute_force_distance_outliers  # noqa: E402
from workloads import (  # noqa: E402
    D3_SPEC,
    EVAL_TICKS,
    EngineWorkload,
    NetworkWorkload,
    exact_distance_flags,
)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


class _FakeTime:
    def __init__(self) -> None:
        self.ns = 0

    def __call__(self) -> int:
        return self.ns


class _Nested:
    """outer (layer a) -> inner (layer b) -> leaf (layer a again)."""

    def __init__(self, clock: _FakeTime) -> None:
        self.clock = clock

    def outer(self) -> None:
        self.clock.ns += 5
        self.inner()
        self.clock.ns += 7

    def inner(self) -> None:
        self.clock.ns += 3
        self.leaf()
        self.clock.ns += 1

    def leaf(self) -> None:
        self.clock.ns += 2


def test_self_time_of_nested_calls() -> None:
    fake = _FakeTime()
    clock = LayerClock(now=fake)
    probes = [Probe(_Nested, "outer", "a"), Probe(_Nested, "inner", "b"),
              Probe(_Nested, "leaf", "a")]
    original = _Nested.__dict__["outer"]
    with installed(clock, probes):
        _Nested(fake).outer()
    assert _Nested.__dict__["outer"] is original
    assert clock.self_ns == {"a": 5 + 7 + 2, "b": 3 + 1}
    assert clock.total_self_ns() == fake.ns
    # leaf re-enters layer a from layer b, so a is entered twice.
    assert clock.entries == {"a": 2, "b": 1}


def test_self_time_charged_when_a_call_raises() -> None:
    fake = _FakeTime()
    clock = LayerClock(now=fake)

    class Failing:
        def go(self) -> None:
            fake.ns += 4
            raise ValueError("boom")

    with installed(clock, [Probe(Failing, "go", "a")]):
        with pytest.raises(ValueError):
            Failing().go()
    assert clock.self_ns == {"a": 4}


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_declared_names_and_units_are_well_formed() -> None:
    spec = _declared()
    names = [w["name"] for w in spec["workloads"]]
    for group in ("end_to_end", "per_layer"):
        for metric in spec[group]:
            names.append(metric["name"])
            assert UNIT.fullmatch(metric["unit"]), metric
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in spec["workloads"]] == \
        list(run.WORKLOAD_NAMES) == list(EVAL_TICKS)


def test_every_emitted_metric_is_declared() -> None:
    spec = _declared()
    clock = LayerClock()
    traced = set(worker.layer_metrics(clock, 1, 1, {}, [], 1.0, 1.0))
    traced |= {f"import.{name}_s" for name in ("repro",) + run.SUBPACKAGES}
    traced |= set(run.quality({"hits": 1, "true": 1, "flags": 1}))
    assert traced == {m["name"] for m in spec["per_layer"]}
    untraced = set(worker.latency_metrics([1, 2, 3], 1)) | {
        "setup_s", "peak_rss_mb", "state_words_per_stream"}
    assert untraced == {m["name"] for m in spec["end_to_end"]}
    setup_s = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup_s["unit"] == "s" and setup_s["better"] == "lower"
    assert setup_s["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_exact_truth_matches_brute_force() -> None:
    data = np.random.default_rng(3).normal(size=(80, 3))
    data[60, 1] = 6.0
    window = 20
    flags = exact_distance_flags(data, window - 1, 80, window=window,
                                 spec=D3_SPEC)
    for tick in range(window - 1, 80):
        for stream in range(3):
            expected = brute_force_distance_outliers(
                data[tick - window + 1:tick + 1, stream], D3_SPEC)[-1]
            assert flags[tick - window + 1, stream] == expected
    assert flags[60 - window + 1, 1]


def _smoke(workload, n_batches: int) -> dict:
    durations = worker.timed_loop(workload, 0.0, n_batches)
    assert len(durations) == n_batches
    check = workload.check(n_batches)
    assert check["mismatched"] == 0
    assert check["compared"] > 0 and check["flags"] > 0
    return check


def test_engine_workload_smoke() -> None:
    workload = EngineWorkload(5, n_streams=8, batch_ticks=16)
    _smoke(workload, 6)
    assert workload.state_words_per_stream() > 0


def test_supervised_workload_smoke_recovers(tmp_path: Path) -> None:
    workload = EngineWorkload(5, n_streams=8, batch_ticks=64,
                              supervised=True, state_root=tmp_path)
    try:
        _smoke(workload, 6)
        assert workload.tallies()["recoveries"] >= 1
    finally:
        workload.close()
    assert not any(tmp_path.iterdir())


def test_network_workload_smoke() -> None:
    workload = NetworkWorkload(5, n_epochs=4)
    try:
        _smoke(workload, 4)
        assert workload.tallies()["messages"] > 0
        assert workload.exhausted()
    finally:
        workload.close()


@pytest.mark.parametrize("kind", ["engine", "network", "supervised"])
def test_traced_layers_add_up_to_wall_time(kind: str,
                                           tmp_path: Path) -> None:
    if kind == "network":
        workload = NetworkWorkload(6, n_epochs=2)
    else:
        workload = EngineWorkload(6, n_streams=4, batch_ticks=64,
                                  supervised=kind == "supervised",
                                  state_root=tmp_path)
    clock = LayerClock()
    probes, sketches = probes_for()
    with installed(clock, probes):
        durations = worker.timed_loop(workload, 0.0, 2)
    workload.close()
    tally_sketches(clock, sketches)
    readings = len(durations) * workload.readings_per_batch
    metrics = worker.layer_metrics(clock, sum(durations), readings,
                                   workload.tallies(), [], 1.0, 1.0)
    parts = sum(value for name, value in metrics.items()
                if name.endswith(".self_us_per_reading"))
    assert parts + metrics["residual.us_per_reading"] == pytest.approx(
        metrics["trace.wall_us_per_reading"], rel=1e-9)
    assert metrics["residual.us_per_reading"] >= 0
    busy = {"engine": ["decide"], "network": ["mdef", "network", "nodes",
                                              "obs"],
            "supervised": ["decide", "supervisor", "journal", "checkpoint"]}
    for layer in ["sampling", "variance", "rebuild", "kernel"] + busy[kind]:
        assert metrics[f"{layer}.self_us_per_reading"] > 0, layer
    assert metrics["variance.buckets_per_stream"] > 0


def test_launcher_fails_without_the_program(tmp_path: Path) -> None:
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"),
         "--workload", "engine-d3", "--seed", "1", "--seconds", "1",
         "--trace", "0"], capture_output=True, text=True, timeout=60,
        cwd=tmp_path, check=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
