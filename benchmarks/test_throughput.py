"""Ingest-throughput smoke: the batched pipeline vs the scalar loops.

Runs the same measurement as ``repro bench-throughput`` on a reduced
workload (full window and sample sizes, shorter streams) so CI can gate
on it: the batched path must still deliver its speedup, its decisions
must match the scalar path (asserted inside the measurement helpers),
and the dimensionless speedup ratios must not regress more than 30%
against the committed ``BENCH_throughput.json`` baseline.  The measured
results are written back to ``BENCH_throughput.json`` so the CI job can
upload them as an artifact.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.eval.throughput import run_throughput_benchmark
from repro.eval.regression import check_baseline, write_benchmark

REPO_ROOT = Path(__file__).resolve().parents[1]
BASELINE_PATH = REPO_ROOT / "BENCH_throughput.json"

#: Reduced workload: same window/sample geometry as the committed
#: baseline (speedup ratios stay comparable), shorter streams.
REDUCED = dict(window_size=2_000, sample_size=100, n_readings=8_000,
               batch_size=1_024, n_leaves=8, n_ticks=500, seed=0)


@pytest.fixture(scope="module")
def results():
    baseline = json.loads(BASELINE_PATH.read_text()) \
        if BASELINE_PATH.exists() else None
    current = run_throughput_benchmark(**REDUCED)
    write_benchmark(current, BASELINE_PATH)
    return current, baseline


def test_single_node_batched_faster(results):
    current, _ = results
    # The decisions-identical check already ran inside the measurement;
    # here we only gate the ratio.  The full-workload acceptance bar is
    # 5x; leave headroom for noisy CI runners.
    assert current["single_node"]["speedup"] > 2.0


def test_network_batched_faster(results):
    current, _ = results
    assert current["network"]["speedup"] > 1.3


def test_no_regression_vs_committed_baseline(results):
    current, baseline = results
    if baseline is None:
        pytest.skip("no committed BENCH_throughput.json baseline")
    failures = check_baseline(current, baseline)
    assert not failures, "; ".join(failures)
