"""Fused, cache-blocked numpy kernels for the Eq. 4-6 hot paths.

This module is the portable compute backend behind
:mod:`repro.core.backend`.  Each function evaluates the exact expression
the estimator historically inlined, but blocked over the *query* axis so
a block's scratch arrays (sized by ``backend.BLOCK_CELLS``) stay resident
in cache, and with every elementwise step running in place instead of
allocating a fresh temporary.

Bit-identity contract
---------------------
Every function here reproduces the historical estimator expressions bit
for bit.  That holds because the rewrites only use transformations that
are exact under IEEE-754 round-to-nearest:

* blocking over the query axis (rows are reduced independently, so the
  per-row pairwise summation of ``mean``/``sum`` is unchanged -- blocking
  over the *centres* axis would change it and is never done);
* in-place ``out=`` variants of the same ufunc calls;
* commuting the operands of a single multiplication or addition
  (``z * 3.0`` for ``3.0 * z``);
* ``np.maximum(t, 0.0)`` for the Epanechnikov profile's ``np.where``
  mask (values outside the support are negative, and the boundary value
  is ``+0.0`` either way);
* sweeping the dimensions of a multi-dimensional query as 2-d slabs
  with a running product (numpy's multiply reduction over a short last
  axis is sequential left to right, so the accumulator reproduces
  ``prod(axis=2)`` exactly).

Divisions are preserved as divisions and reciprocal-multiplications as
reciprocal-multiplications, per call site: the two differ in the last
ulp.  The equivalence suite in ``tests/core/test_backend_equivalence.py``
asserts ``np.array_equal`` against frozen copies of the pre-backend
implementations.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from repro.core.kernels import Kernel

__all__ = ["range_batch", "range_lanes", "pdf_batch", "cdf_diff_rows"]

_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)


def _cdf_inplace(kernel: Kernel, name: str, z: np.ndarray,
                 scratch: np.ndarray) -> None:
    """``z <- kernel.cdf(z)`` without allocating (named kernels)."""
    if name == "epanechnikov":
        # 0.25 * (2 + 3c - c^3) with c = clip(z, -1, 1), as in
        # EpanechnikovKernel.cdf.
        np.clip(z, -1.0, 1.0, out=z)
        np.multiply(z, z, out=scratch)
        np.multiply(scratch, z, out=scratch)
        np.multiply(z, 3.0, out=z)
        np.add(z, 2.0, out=z)
        np.subtract(z, scratch, out=z)
        np.multiply(z, 0.25, out=z)
    elif name == "gaussian":
        from scipy.special import ndtr   # lazy, as in GaussianKernel.cdf
        ndtr(z, out=z)
    else:
        z[...] = kernel.cdf(z)


def _profile_inplace(kernel: Kernel, name: str, u: np.ndarray,
                     scratch: np.ndarray) -> np.ndarray:
    """``kernel.profile(u)`` evaluated into ``scratch``."""
    if name == "epanechnikov":
        # max(0.75 * (1 - u^2), 0): outside the support the parabola is
        # negative, so the clamp equals the where() mask bit for bit.
        np.multiply(u, u, out=scratch)
        np.subtract(1.0, scratch, out=scratch)
        np.multiply(scratch, 0.75, out=scratch)
        np.maximum(scratch, 0.0, out=scratch)
    elif name == "gaussian":
        np.multiply(u, -0.5, out=scratch)
        np.multiply(scratch, u, out=scratch)
        np.exp(scratch, out=scratch)
        np.divide(scratch, _SQRT_TWO_PI, out=scratch)
    else:
        scratch[...] = kernel.profile(u)
    return scratch


def _range_block(kernel: Kernel, name: str,
                 dims: "list[tuple[Any, Any, Any, Any]]",
                 z_hi: np.ndarray, z_lo: np.ndarray, buf: np.ndarray,
                 acc: np.ndarray, out: np.ndarray) -> None:
    """One block of Eq. 5 range probabilities into ``out``.

    ``dims`` holds one ``(lows, highs, centres, inv_bw)`` tuple per
    dimension, each broadcasting to the block's ``(..., k, n)`` shape
    (``k`` queries against ``n`` centres).  Dimensions are swept one
    slab at a time: with more than one, the running product accumulates
    them left to right in ``acc`` like ``prod(axis=-1)`` over the full
    cube.  ``out`` gets the mean over the centres.
    """
    multi = len(dims) > 1
    for j, (lo, hi, c, scale) in enumerate(dims):
        np.subtract(hi, c, out=z_hi)
        np.multiply(z_hi, scale, out=z_hi)
        np.subtract(lo, c, out=z_lo)
        np.multiply(z_lo, scale, out=z_lo)
        _cdf_inplace(kernel, name, z_hi, buf)
        _cdf_inplace(kernel, name, z_lo, buf)
        np.subtract(z_hi, z_lo, out=z_hi)
        if multi:
            if j == 0:
                acc[...] = z_hi
            else:
                np.multiply(acc, z_hi, out=acc)
    np.mean(acc if multi else z_hi, axis=-1, out=out)


def range_batch(kernel: Kernel, lows: np.ndarray, highs: np.ndarray,
                centers: np.ndarray, inv_bw: np.ndarray,
                out: np.ndarray, block_cells: int) -> None:
    """Eq. 5 range probabilities for ``m`` query boxes into ``out``.

    ``out[i] = mean_j prod_k (cdf(z_hi[i,j,k]) - cdf(z_lo[i,j,k]))`` with
    ``z = (bound - centre) * inv_bw``.  Unclipped and unsanitised -- the
    estimator applies both.
    """
    m = lows.shape[0]
    if m == 0:
        return
    n, d = centers.shape
    name = getattr(kernel, "name", "")
    qb = max(1, min(m, block_cells // max(1, n)))
    z_hi = np.empty((qb, n))
    z_lo = np.empty((qb, n))
    buf = np.empty((qb, n))
    acc = np.empty((qb, n)) if d > 1 else z_hi
    for s in range(0, m, qb):
        e = min(s + qb, m)
        k = e - s
        dims = [(lows[s:e, j, None], highs[s:e, j, None], centers[None, :, j],
                 inv_bw[j]) for j in range(d)]
        _range_block(kernel, name, dims, z_hi[:k], z_lo[:k], buf[:k],
                     acc[:k], out[s:e])


def range_lanes(kernel: Kernel, lows: np.ndarray, highs: np.ndarray,
                centers: np.ndarray, inv_bw: np.ndarray,
                out: np.ndarray, block_cells: int) -> None:
    """:func:`range_batch` for ``L`` independent models at once.

    Lane ``l`` scores its ``m`` query boxes ``lows[l]``/``highs[l]``
    (``(L, m, d)``) against its own centres ``centers[l]`` (``(L, n,
    d)``) and inverse bandwidths ``inv_bw[l]`` (``(L, d)``) into
    ``out[l]`` (``(L, m)``), bit-identical to ``range_batch`` on that
    lane alone.  Blocks span lanes and queries, never centres, so each
    row's mean is the same pairwise sum over the same ``n`` values.
    """
    n_lanes, m, d = lows.shape
    if n_lanes == 0 or m == 0:
        return
    n = centers.shape[1]
    name = getattr(kernel, "name", "")
    qb = max(1, min(m, block_cells // max(1, n)))
    lb = max(1, min(n_lanes, block_cells // max(1, qb * n)))
    z_hi = np.empty((lb, qb, n))
    z_lo = np.empty((lb, qb, n))
    buf = np.empty((lb, qb, n))
    acc = np.empty((lb, qb, n)) if d > 1 else z_hi
    for l0 in range(0, n_lanes, lb):
        l1 = min(l0 + lb, n_lanes)
        for s in range(0, m, qb):
            e = min(s + qb, m)
            lanes, k = l1 - l0, e - s
            dims = [(lows[l0:l1, s:e, j, None], highs[l0:l1, s:e, j, None],
                     centers[l0:l1, None, :, j], inv_bw[l0:l1, j, None, None])
                    for j in range(d)]
            _range_block(kernel, name, dims, z_hi[:lanes, :k],
                         z_lo[:lanes, :k], buf[:lanes, :k],
                         acc[:lanes, :k], out[l0:l1, s:e])


def pdf_batch(kernel: Kernel, queries: np.ndarray, centers: np.ndarray,
              inv_bw: np.ndarray, norm: float, out: np.ndarray,
              block_cells: int) -> None:
    """Eq. 1 density at ``m`` query points into ``out``.

    ``out[i] = norm * sum_j prod_k profile((q[i,k] - c[j,k]) * inv_bw[k])``.
    """
    m = queries.shape[0]
    if m == 0:
        return
    n, d = centers.shape
    name = getattr(kernel, "name", "")
    if d == 1:
        q, c = queries[:, 0], centers[:, 0]
        scale = inv_bw[0]
        qb = max(1, min(m, block_cells // max(1, n)))
        u2 = np.empty((qb, n))
        buf = np.empty((qb, n))
        for s in range(0, m, qb):
            e = min(s + qb, m)
            k = e - s
            u, t = u2[:k], buf[:k]
            np.subtract(q[s:e, None], c[None, :], out=u)
            np.multiply(u, scale, out=u)
            t = _profile_inplace(kernel, name, u, t)
            np.sum(t, axis=1, out=out[s:e])
    else:
        # Same per-dimension slab sweep as _range_block: left-to-right
        # accumulation matches ``prod(axis=2)`` bit for bit.
        qb = max(1, min(m, block_cells // max(1, n)))
        u2 = np.empty((qb, n))
        buf = np.empty((qb, n))
        acc = np.empty((qb, n))
        for s in range(0, m, qb):
            e = min(s + qb, m)
            k = e - s
            u, t, p = u2[:k], buf[:k], acc[:k]
            for j in range(d):
                c = centers[:, j]
                np.subtract(queries[s:e, j, None], c[None, :], out=u)
                np.multiply(u, inv_bw[j], out=u)
                t = _profile_inplace(kernel, name, u, buf[:k])
                if j == 0:
                    p[...] = t
                else:
                    np.multiply(p, t, out=p)
            np.sum(p, axis=1, out=out[s:e])
    np.multiply(out, norm, out=out)


def cdf_diff_rows(kernel: Kernel, edges: np.ndarray, centers: np.ndarray,
                  bandwidth: float) -> np.ndarray:
    """Per-centre CDF mass between consecutive edges, shape ``(n, k)``.

    Matches ``np.diff(kernel.cdf((edges[None, :] - centers[:, None])
    / bandwidth), axis=1)`` -- note the division by the bandwidth, which
    this call site has always used (it is not a reciprocal multiply).
    """
    z = np.subtract(edges[None, :], centers[:, None])
    np.divide(z, bandwidth, out=z)
    _cdf_inplace(kernel, getattr(kernel, "name", ""), z, np.empty_like(z))
    return np.diff(z, axis=1)
