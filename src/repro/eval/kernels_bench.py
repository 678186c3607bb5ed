"""Microbenchmark of the Eq. 4-6 hot-path kernels against the pre-backend code.

The compute backends (:mod:`repro.core.backend`) promise the same
numbers as the historical estimator expressions, faster.  This module
measures both halves of that promise on fixed many-queries x
many-centres workloads:

* the *reference* implementations below are frozen copies of the
  estimator's pre-backend evaluation loops (chunked broadcasting with
  temporaries).  They are deliberately **not** kept in sync with the
  estimator -- they are the yardstick;
* each case times reference vs the active backend (best-of-``repeats``)
  and records the worst absolute deviation between the two.

The gated ``min_speedup`` covers the Epanechnikov range-probability
cases -- the paper's kernel on the query that dominates the detection
loop.  The Gaussian and pdf cases are recorded for visibility but not
gated: their runtime is dominated by ``ndtr``/``exp`` evaluations that
fusion cannot remove, so their speedups are structurally smaller.

Results are written to ``BENCH_kernels.json`` and tracked per backend in
``benchmarks/history/kernels.jsonl``.
"""

from __future__ import annotations

import math
import platform
import time
from typing import Callable

import numpy as np

from repro.core import backend as _backend
from repro.core.estimator import KernelDensityEstimator
from repro.core.kernels import EPANECHNIKOV, GAUSSIAN, Kernel

__all__ = [
    "reference_range_batch",
    "reference_pdf",
    "measure_case",
    "run_kernels_benchmark",
]

#: The pre-backend per-chunk cell cap (frozen with the references).
_REFERENCE_CHUNK_CELLS = 4_000_000


def reference_range_batch(kernel: Kernel, lows: np.ndarray, highs: np.ndarray,
                          centers: np.ndarray,
                          bandwidths: np.ndarray) -> np.ndarray:
    """The estimator's pre-backend batched Eq. 5 evaluation, frozen."""
    out = np.empty(lows.shape[0], dtype=float)
    n, d = centers.shape
    chunk = max(1, _REFERENCE_CHUNK_CELLS // max(1, n * d))
    inv_bw = 1.0 / bandwidths
    for start in range(0, lows.shape[0], chunk):
        lo = lows[start:start + chunk]
        hi = highs[start:start + chunk]
        if d == 1:
            c = centers[None, :, 0]
            z_hi = (hi[:, 0, None] - c) * inv_bw[0]
            z_lo = (lo[:, 0, None] - c) * inv_bw[0]
            per_point = kernel.cdf(z_hi) - kernel.cdf(z_lo)
            out[start:start + chunk] = per_point.mean(axis=1)
            continue
        z_hi = (hi[:, None, :] - centers[None, :, :]) * inv_bw
        z_lo = (lo[:, None, :] - centers[None, :, :]) * inv_bw
        per_dim = kernel.cdf(z_hi) - kernel.cdf(z_lo)
        out[start:start + chunk] = per_dim.prod(axis=2).mean(axis=1)
    return np.clip(out, 0.0, 1.0)


def reference_pdf(kernel: Kernel, queries: np.ndarray, centers: np.ndarray,
                  bandwidths: np.ndarray) -> np.ndarray:
    """The estimator's pre-backend Eq. 1 evaluation, frozen."""
    n, d = centers.shape
    out = np.empty(queries.shape[0], dtype=float)
    chunk = max(1, _REFERENCE_CHUNK_CELLS // max(1, n * d))
    inv_bw = 1.0 / bandwidths
    norm = inv_bw.prod() / n
    for start in range(0, queries.shape[0], chunk):
        q = queries[start:start + chunk]
        u = (q[:, None, :] - centers[None, :, :]) * inv_bw
        out[start:start + chunk] = kernel.profile(u).prod(axis=2).sum(axis=1) * norm
    return out


def _best_seconds(fn: "Callable[[], object]", repeats: int) -> float:
    best = math.inf
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def measure_case(*, name: str, kernel: Kernel, n_queries: int, n_centers: int,
                 n_dims: int, query: str = "range", gated: bool = True,
                 repeats: int = 3, seed: int = 0) -> dict:
    """Time one workload: frozen reference vs the active backend.

    ``query`` selects the Eq. 5 range-probability path (``"range"``) or
    the Eq. 1 density path (``"pdf"``).  The backend side goes through
    the public estimator API, so it measures exactly what detectors pay.
    """
    rng = np.random.default_rng(seed)
    centers = rng.random((n_centers, n_dims))
    bandwidths = np.full(n_dims, 0.05)
    est = KernelDensityEstimator(centers, bandwidths=bandwidths, kernel=kernel)
    queries = rng.random((n_queries, n_dims))
    if query == "range":
        lows = queries - 0.02
        highs = queries + 0.02
        reference = reference_range_batch(kernel, lows, highs, centers,
                                          bandwidths)
        current = np.asarray(est.range_probability(lows, highs))
        ref_seconds = _best_seconds(
            lambda: reference_range_batch(kernel, lows, highs, centers,
                                          bandwidths), repeats)
        backend_seconds = _best_seconds(
            lambda: est.range_probability(lows, highs), repeats)
    else:
        reference = reference_pdf(kernel, queries, centers, bandwidths)
        current = est.pdf(queries)
        ref_seconds = _best_seconds(
            lambda: reference_pdf(kernel, queries, centers, bandwidths),
            repeats)
        backend_seconds = _best_seconds(lambda: est.pdf(queries), repeats)
    cells = n_queries * n_centers * n_dims
    return {
        "case": name,
        "query": query,
        "kernel": kernel.name,
        "n_queries": n_queries,
        "n_centers": n_centers,
        "n_dims": n_dims,
        "gated": gated,
        "reference_s": ref_seconds,
        "backend_s": backend_seconds,
        "speedup": ref_seconds / backend_seconds,
        "backend_mcells_per_s": cells / backend_seconds / 1e6,
        "max_abs_err": float(np.max(np.abs(current - reference))),
    }


def run_kernels_benchmark(*, n_queries: int = 4_096, n_centers: int = 2_048,
                          repeats: int = 3, seed: int = 0) -> dict:
    """Run all workload cases; return the full result document.

    ``min_speedup`` (the gated figure) is the worst speedup over the
    Epanechnikov range cases; ``max_abs_err`` spans *all* cases.
    """
    from repro.eval.provenance import run_metadata

    cases = [
        measure_case(name="range_epanechnikov_1d", kernel=EPANECHNIKOV,
                     n_queries=n_queries, n_centers=n_centers, n_dims=1,
                     repeats=repeats, seed=seed),
        measure_case(name="range_epanechnikov_2d", kernel=EPANECHNIKOV,
                     n_queries=n_queries, n_centers=n_centers // 2, n_dims=2,
                     repeats=repeats, seed=seed),
        measure_case(name="range_epanechnikov_3d", kernel=EPANECHNIKOV,
                     n_queries=n_queries, n_centers=n_centers // 4, n_dims=3,
                     repeats=repeats, seed=seed),
        measure_case(name="range_gaussian_1d", kernel=GAUSSIAN, gated=False,
                     n_queries=n_queries, n_centers=n_centers, n_dims=1,
                     repeats=repeats, seed=seed),
        measure_case(name="pdf_epanechnikov_1d", kernel=EPANECHNIKOV,
                     query="pdf", gated=False,
                     n_queries=n_queries, n_centers=n_centers, n_dims=1,
                     repeats=repeats, seed=seed),
    ]
    return {
        "benchmark": "kernels",
        "backend": _backend.backend_name(),
        "machine": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
        "meta": run_metadata(seed=seed),
        "workload": {
            "n_queries": n_queries,
            "n_centers": n_centers,
            "repeats": repeats,
        },
        "cases": cases,
        "min_speedup": min(c["speedup"] for c in cases if c["gated"]),
        "max_abs_err": max(c["max_abs_err"] for c in cases),
    }
