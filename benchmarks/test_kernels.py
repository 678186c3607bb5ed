"""Kernel-microbenchmark smoke: the backend vs the frozen pre-backend code.

Runs the same measurement as ``repro bench-kernels`` on a reduced
workload so CI can gate on it: the active backend must beat the frozen
reference implementations by the floor its tier promises (2x for pure
numpy, 10x for numba), must agree with them to the backend's accuracy
contract (bit-identical for numpy, 1e-9 relative for numba), and the
gated speedup must not regress more than 30% against the committed
``BENCH_kernels.json`` baseline when that baseline was produced by the
same backend.  The measured results are written back to
``BENCH_kernels.json`` so the CI job can upload them as an artifact.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.backend import backend_name
from repro.eval.kernels_bench import run_kernels_benchmark
from repro.eval.regression import check_baseline, write_benchmark

REPO_ROOT = Path(__file__).resolve().parents[1]
BASELINE_PATH = REPO_ROOT / "BENCH_kernels.json"

#: Reduced workload: same shape as the committed baseline, fewer
#: repeats.  Best-of timing keeps the ratios stable on noisy runners.
REDUCED = dict(n_queries=2_048, n_centers=1_024, repeats=3, seed=0)

#: Gated speedup floor per backend tier (the full-workload acceptance
#: bars are 2x / 10x; keep a little headroom for noisy CI runners).
SPEEDUP_FLOOR = {"numpy": 1.5, "numba": 8.0}


@pytest.fixture(scope="module")
def results():
    baseline = json.loads(BASELINE_PATH.read_text()) \
        if BASELINE_PATH.exists() else None
    current = run_kernels_benchmark(**REDUCED)
    write_benchmark(current, BASELINE_PATH)
    return current, baseline


def test_backend_beats_reference(results):
    current, _ = results
    assert current["min_speedup"] > SPEEDUP_FLOOR[current["backend"]]


def test_backend_matches_reference(results):
    current, _ = results
    if current["backend"] == "numpy":
        # The numpy backend is a pure refactor of the reference
        # expressions: bit-identical, not merely close.
        assert current["max_abs_err"] == 0.0
    else:
        assert current["max_abs_err"] < 1e-9


def test_backend_stamp_consistent(results):
    current, _ = results
    assert current["backend"] == backend_name()
    assert current["meta"]["backend"] == current["backend"]


def test_no_regression_vs_committed_baseline(results):
    current, baseline = results
    if baseline is None:
        pytest.skip("no committed BENCH_kernels.json baseline")
    if baseline.get("backend") != current["backend"]:
        pytest.skip("committed baseline is from a different backend")
    failures = check_baseline(current, baseline)
    assert not failures, "; ".join(failures)
