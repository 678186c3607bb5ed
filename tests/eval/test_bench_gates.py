"""Every bench gate, pinned: one tampered document per failure branch.

Each case starts from an untampered per-kind document that passes every
gate, applies a few ``(path, value)`` edits, and asserts the gate under
test reports a problem naming the tampered figure.  Three gate families
are covered:

* the absolute gate each bench CLI exits non-zero on;
* the comparison of a fresh run against a committed baseline artifact;
* the relative and absolute gates ``tools/bench_history.py`` applies to
  the latest history entry.
"""

from __future__ import annotations

import copy

import pytest

from repro.eval.regression import check_baseline as check_kernels_baseline
from repro.eval.regression import check_baseline as check_throughput_baseline
from repro.eval.regression import check_benchmark as check_degradation
from repro.eval.regression import check_benchmark as check_fleet
from repro.eval.regression import check_benchmark as check_latency
from repro.eval.regression import check_benchmark as check_recovery
from repro.eval.regression import check_history, summarize_benchmark

_META = {"git_sha": "abc123", "seed": 7, "backend": "numpy"}

#: One untampered document per bench kind; every gate passes on it.
BASE = {
    "ingest-throughput": {
        "benchmark": "ingest-throughput", "meta": _META,
        "single_node": {"speedup": 6.0, "scalar_readings_per_sec": 13_000.0,
                        "batched_readings_per_sec": 80_000.0},
        "network": {"speedup": 2.5, "scalar_readings_per_sec": 20_000.0,
                    "batched_readings_per_sec": 50_000.0},
    },
    "resilience": {
        "benchmark": "resilience", "meta": _META,
        "cells": [
            {"algorithm": "d3", "loss_rate": 0.0, "crash_fraction": 0.0,
             "precision": 0.9, "recall": 1.0, "message_overhead": 1.0,
             "network": {"conservation_failures": [], "messages_sent": 900,
                         "transport": {"retransmissions": 0}}},
            {"algorithm": "d3", "loss_rate": 0.1, "crash_fraction": 0.25,
             "precision": 0.8, "recall": 0.8, "message_overhead": 1.2,
             "network": {"conservation_failures": [],
                         "messages_sent": 1_080,
                         "transport": {"retransmissions": 12}}},
        ],
    },
    "kernels": {
        "benchmark": "kernels", "meta": _META, "backend": "numpy",
        "cases": [
            {"case": "range_epanechnikov_1d", "gated": True,
             "reference_s": 0.1, "backend_s": 0.02, "speedup": 5.0,
             "backend_mcells_per_s": 400.0, "max_abs_err": 0.0},
        ],
        "min_speedup": 5.0, "max_abs_err": 0.0,
    },
    "recovery": {
        "benchmark": "recovery", "meta": _META,
        "cells": [
            {"algorithm": "d3", "crash_rate": 0.05, "checkpoint_every": 32,
             "n_crashes_scheduled": 20, "n_recoveries": 20,
             "divergence": 0, "recovery_p99_s": 0.05,
             "replayed_ticks": 200, "max_replayed_ticks": 12,
             "max_checkpoint_bytes": 9_000},
        ],
    },
    "latency": {
        "benchmark": "latency", "meta": _META,
        "cells": [
            {"algorithm": "d3", "loss_rate": 0.0, "staleness_horizon": 30,
             "n_flags": 150, "latency_p50": 0, "latency_p99": 0,
             "latency_max": 0, "words_per_detection": 8.0,
             "recall_level1": 0.7},
            {"algorithm": "d3", "loss_rate": 0.25, "staleness_horizon": 30,
             "n_flags": 150, "latency_p50": 0, "latency_p99": 6,
             "latency_max": 8, "words_per_detection": 12.0,
             "recall_level1": 0.7},
        ],
    },
    "fleet": {
        "benchmark": "fleet", "meta": _META,
        "cells": [
            {"n_workers": 2, "loss_rate": 0.0, "divergence": 0,
             "n_flags": 40, "n_sent": 40, "n_delivered": 40,
             "n_dropped": 0, "n_crashes_scheduled": 0, "n_recoveries": 0,
             "trace": True, "conservation_failures": [],
             "schema_problems": 0, "n_level1_records": 40,
             "n_level1_complete": 40, "n_cross_worker": 6,
             "torn_spools": 0, "readings_per_sec": 12_000.0},
            {"n_workers": 4, "loss_rate": 0.25, "divergence": 0,
             "n_flags": 40, "n_sent": 40, "n_delivered": 30,
             "n_dropped": 10, "n_crashes_scheduled": 4, "n_recoveries": 4,
             "trace": True, "conservation_failures": [],
             "schema_problems": 0, "n_level1_records": 30,
             "n_level1_complete": 30, "n_cross_worker": 6,
             "torn_spools": 0, "readings_per_sec": 18_000.0},
        ],
    },
}

#: The absolute gate each bench CLI runs before choosing its exit code.
ABSOLUTE = {"resilience": check_degradation, "recovery": check_recovery,
            "latency": check_latency, "fleet": check_fleet}

#: Fresh run vs committed baseline artifact (the slow bench smokes).
BASELINE = {"ingest-throughput": check_throughput_baseline,
            "kernels": check_kernels_baseline}


def _tampered(kind, *edits):
    doc = copy.deepcopy(BASE[kind])
    for path, value in edits:
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    return doc


def _cell(i, *keys):
    return ("cells", i, *keys)


# (case id, kind, edits, text the reported problem must contain)
ABSOLUTE_FAILURES = [
    ("resilience-conservation", "resilience",
     [(_cell(1, "network", "conservation_failures"), ["Ack"])],
     "sent != delivered + dropped"),
    ("resilience-recall-cliff", "resilience",
     [(_cell(1, "recall"), 0.0)], "recall cliffed to zero"),
    ("resilience-no-retransmissions", "resilience",
     [(_cell(1, "network", "transport", "retransmissions"), 0)],
     "no retransmissions"),
    ("recovery-divergence", "recovery",
     [(_cell(0, "divergence"), 3)], "diverged"),
    ("recovery-missed-crash", "recovery",
     [(_cell(0, "n_recoveries"), 19)], "scheduled crash"),
    ("recovery-unbounded-replay", "recovery",
     [(_cell(0, "max_replayed_ticks"), 32)], "cadence"),
    ("latency-negative-p50", "latency",
     [(_cell(1, "latency_p50"), -1)], "latency_p50"),
    ("latency-negative-p99", "latency",
     [(_cell(1, "latency_p99"), -1)], "latency_p99"),
    ("latency-negative-max", "latency",
     [(_cell(1, "latency_max"), -1)], "latency_max"),
    ("latency-lossless-delay", "latency",
     [(_cell(0, "latency_max"), 2)], "lossless cell"),
    ("latency-no-flags", "latency",
     [(_cell(0, "n_flags"), 0), (_cell(1, "n_flags"), 0)],
     "measured nothing"),
    ("fleet-divergence", "fleet",
     [(_cell(0, "divergence"), 2)], "diverged"),
    ("fleet-no-flags", "fleet",
     [(_cell(0, "n_flags"), 0)], "flagged nothing"),
    ("fleet-local-conservation", "fleet",
     [(_cell(1, "n_dropped"), 9)], "sent 40 != delivered"),
    ("fleet-missed-crash", "fleet",
     [(_cell(1, "n_recoveries"), 3)], "scheduled crash"),
    ("fleet-global-conservation", "fleet",
     [(_cell(0, "conservation_failures"), ["leak"])],
     "global conservation"),
    ("fleet-schema", "fleet",
     [(_cell(0, "schema_problems"), 1)], "schema problem"),
    ("fleet-incomplete-lineage", "fleet",
     [(_cell(0, "n_level1_complete"), 39)], "complete"),
    ("fleet-no-cross-worker", "fleet",
     [(_cell(0, "n_cross_worker"), 0)], "worker ids"),
    ("fleet-torn-spool", "fleet",
     [(_cell(0, "torn_spools"), 1)], "torn tails"),
]

BASELINE_FAILURES = [
    ("throughput-single-node", "ingest-throughput",
     [(("single_node", "speedup"), 4.0)], "single_node"),
    ("throughput-network", "ingest-throughput",
     [(("network", "speedup"), 1.5)], "network"),
    ("kernels-min-speedup", "kernels",
     [(("min_speedup",), 3.0)], "min_speedup"),
]

HISTORY_FAILURES = [
    ("throughput-single-node-drop", "ingest-throughput",
     [(("single_node", "speedup"), 4.5)], "single_node_speedup"),
    ("throughput-network-drop", "ingest-throughput",
     [(("network", "speedup"), 1.8)], "network_speedup"),
    ("kernels-speedup-drop", "kernels",
     [(("min_speedup",), 3.5)], "min_speedup"),
    ("resilience-faultfree-drop", "resilience",
     [(_cell(0, "recall"), 0.5)], "min_faultfree_recall"),
    ("resilience-cliff-floor", "resilience",
     [(_cell(1, "recall"), 0.05)], "min_faulted_recall"),
    ("recovery-divergence", "recovery",
     [(_cell(0, "divergence"), 1)], "total_divergence"),
    ("recovery-time-rise", "recovery",
     [(_cell(0, "recovery_p99_s"), 0.2)], "recovery_p99_s"),
    ("latency-no-flags", "latency",
     [(_cell(0, "n_flags"), 0), (_cell(1, "n_flags"), 0)], "total_flags"),
    ("latency-p99-rise", "latency",
     [(_cell(1, "latency_p99"), 20)], "latency_p99_max"),
    ("fleet-divergence", "fleet",
     [(_cell(0, "divergence"), 1)], "total_divergence"),
    ("fleet-conservation", "fleet",
     [(_cell(1, "conservation_failures"), ["leak"])],
     "total_conservation_failures"),
    ("fleet-no-flags", "fleet",
     [(_cell(0, "n_flags"), 0), (_cell(1, "n_flags"), 0)], "total_flags"),
    ("fleet-no-cross-worker", "fleet",
     [(_cell(0, "n_cross_worker"), 0), (_cell(1, "n_cross_worker"), 0)],
     "total_cross_worker"),
    ("fleet-throughput-drop", "fleet",
     [(_cell(0, "readings_per_sec"), 2_000.0)], "min_readings_per_sec"),
]


def _history(doc):
    return [summarize_benchmark(BASE[doc["benchmark"]]),
            summarize_benchmark(doc)]


@pytest.mark.parametrize(
    "kind, edits, needle",
    [case[1:] for case in ABSOLUTE_FAILURES],
    ids=[case[0] for case in ABSOLUTE_FAILURES])
def test_absolute_gate_fails(kind, edits, needle):
    problems = ABSOLUTE[kind](_tampered(kind, *edits))
    assert any(needle in p for p in problems), problems


@pytest.mark.parametrize(
    "kind, edits, needle",
    [case[1:] for case in BASELINE_FAILURES],
    ids=[case[0] for case in BASELINE_FAILURES])
def test_baseline_gate_fails(kind, edits, needle):
    problems = BASELINE[kind](_tampered(kind, *edits), BASE[kind])
    assert any(needle in p for p in problems), problems


@pytest.mark.parametrize(
    "kind, edits, needle",
    [case[1:] for case in HISTORY_FAILURES],
    ids=[case[0] for case in HISTORY_FAILURES])
def test_history_gate_fails(kind, edits, needle):
    problems = check_history(_history(_tampered(kind, *edits)))
    assert any(needle in p for p in problems), problems


@pytest.mark.parametrize("kind", sorted(ABSOLUTE))
def test_absolute_gate_passes_untampered(kind):
    assert ABSOLUTE[kind](_tampered(kind)) == []


@pytest.mark.parametrize("kind", sorted(BASELINE))
def test_baseline_gate_passes_untampered(kind):
    assert BASELINE[kind](_tampered(kind), BASE[kind]) == []


@pytest.mark.parametrize("kind", sorted(BASE))
def test_history_gate_passes_untampered(kind):
    assert check_history(_history(_tampered(kind))) == []


def test_untraced_fleet_cell_skips_telemetry_gates():
    # Telemetry gates only apply to traced cells: an untraced cell has
    # no merged trace to check.
    doc = _tampered("fleet", (_cell(0, "trace"), False),
                    (_cell(0, "conservation_failures"), ["leak"]),
                    (_cell(0, "n_cross_worker"), 0))
    assert ABSOLUTE["fleet"](doc) == []


def test_kernels_baseline_from_another_backend_is_skipped():
    baseline = _tampered("kernels", (("backend",), "numba"),
                         (("min_speedup",), 40.0))
    assert BASELINE["kernels"](_tampered("kernels"), baseline) == []


def test_kernels_history_compares_same_backend_only():
    numba = _tampered("kernels", (("backend",), "numba"),
                      (("meta",), dict(_META, backend="numba")),
                      (("min_speedup",), 40.0))
    entries = [summarize_benchmark(numba), summarize_benchmark(BASE["kernels"])]
    assert check_history(entries) == []
