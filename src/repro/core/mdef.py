"""MDEF / local-metric outlier detection (paper Sections 3 and 8, Figure 3).

The Multi-Granularity Deviation Factor (Papadimitriou et al., LOCI)
compares a point's *counting neighbourhood* population against the
population that a typical *object* of its sampling neighbourhood sees:

    MDEF(p, r, alpha)       = 1 - n(p, alpha*r) / n_hat(p, r, alpha)
    sigma_MDEF(p, r, alpha) = sigma_hat / n_hat(p, r, alpha)

where ``n(p, alpha*r)`` is the number of values within ``alpha*r`` of
``p`` and ``n_hat`` is the average of ``n(q, alpha*r)`` over the objects
``q`` of the sampling neighbourhood.  Following aLOCI, both moments are
approximated from the populations ``c_i`` of the grid cells (side
``2*alpha*r``) whose centres fall within ``r`` of ``p``: every object in
cell ``i`` is charged the cell's own population, so

    n_hat      = sum_i c_i^2 / sum_i c_i
    sigma_hat2 = sum_i c_i (c_i - n_hat)^2 / sum_i c_i

(the count-weighted mean and variance -- empty cells contain no objects
and therefore contribute nothing).  A value is flagged when

    MDEF > k_sigma * sigma_MDEF            (Equation 9, k_sigma = 3).

The paper estimates all the counts from the kernel density model
(Figure 3): the counting neighbourhood via the range query
``N(p, alpha*r)`` and cell ``i`` via ``N(alpha*r*(2i - 1), alpha*r)``.
This module implements that estimation generically over any
:class:`~repro.core.model.DensityModel`, plus the shared statistic used by
the exact :mod:`~repro.core.baselines` path so model-based and
brute-force decisions apply the *same* rule to different count sources.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro._exceptions import ParameterError
from repro._validation import as_point
from repro.core.estimator import KernelDensityEstimator
from repro.core.model import DensityModel

__all__ = [
    "MDEFSpec",
    "MDEFDecision",
    "mdef_statistic",
    "cell_grid_centers",
    "sampling_cell_centers",
    "MDEFOutlierDetector",
]

#: Cell populations below this are treated as zero when judging whether a
#: sampling neighbourhood carries any evidence at all.
_EVIDENCE_FLOOR = 1e-9


@dataclass(frozen=True)
class MDEFSpec:
    """Parameters of the MDEF outlier test.

    Attributes
    ----------
    sampling_radius:
        ``r``, the radius over which typical cell populations are
        collected (0.08 in the paper's synthetic experiments).
    counting_radius:
        ``alpha * r``, the radius of the counting neighbourhood and the
        half-side of the grid cells (0.01 in the synthetic experiments,
        i.e. ``alpha = 1/8``).
    k_sigma:
        Significance factor of Equation 9; the paper uses 3.
    min_mdef:
        Optional absolute deviation floor: values are flagged only when
        their MDEF also exceeds this.  LOCI is known to assign
        moderately high MDEF (~0.5) to the *edges* of uniform-density
        regions; a floor of ~0.8 restricts flags to genuine local
        voids.  0 (the default) disables the guard.
    """

    sampling_radius: float
    counting_radius: float
    k_sigma: float = 3.0
    min_mdef: float = 0.0

    def __post_init__(self) -> None:
        if not np.isfinite(self.sampling_radius) or self.sampling_radius <= 0:
            raise ParameterError(
                f"sampling_radius must be positive, got {self.sampling_radius!r}")
        if not np.isfinite(self.counting_radius) or self.counting_radius <= 0:
            raise ParameterError(
                f"counting_radius must be positive, got {self.counting_radius!r}")
        if self.counting_radius >= self.sampling_radius:
            raise ParameterError(
                "counting_radius must be smaller than sampling_radius "
                f"(got {self.counting_radius} >= {self.sampling_radius})")
        if not np.isfinite(self.k_sigma) or self.k_sigma <= 0:
            raise ParameterError(f"k_sigma must be positive, got {self.k_sigma!r}")
        if not np.isfinite(self.min_mdef) or not 0.0 <= self.min_mdef < 1.0:
            raise ParameterError(
                f"min_mdef must lie in [0, 1), got {self.min_mdef!r}")

    @property
    def alpha(self) -> float:
        """The ratio ``alpha = counting_radius / sampling_radius``."""
        return self.counting_radius / self.sampling_radius

    @property
    def cell_width(self) -> float:
        """Grid cell side length, ``2 * alpha * r``."""
        return 2.0 * self.counting_radius


@dataclass(frozen=True)
class MDEFDecision:
    """Outcome of one MDEF outlier check."""

    is_outlier: bool
    mdef: float
    sigma_mdef: float
    #: (Estimated) population of the counting neighbourhood of the point.
    neighbor_count: float
    #: Count-weighted mean population of the sampling-neighbourhood cells
    #: (``n_hat``, aLOCI's estimate of the average per-object count).
    cell_mean: float
    #: Count-weighted standard deviation of those populations (``sigma_hat``).
    cell_std: float


#: Lower bound on the estimated sigma_MDEF when counts come from a
#: sampled model: at least a (two-sided) Poisson term.
_POISSON_FLOOR = 2.0


def mdef_statistic(neighbor_count: float, cell_counts: np.ndarray,
                   k_sigma: float, *, min_mdef: float = 0.0,
                   estimation_variance_per_unit: float = 0.0) -> MDEFDecision:
    """Apply Equation 9 to a neighbour count and its peer cell populations.

    ``n_hat`` and ``sigma_hat`` are the count-weighted moments of the
    cell populations (see the module docstring): every object in a cell
    is charged the cell's own population, which is aLOCI's approximation
    of the per-object neighbourhood counts.  Shared by the
    model-estimated path (Figure 3) and the exact brute-force path so
    both flag by the identical rule.  A sampling neighbourhood with
    (essentially) no population provides no evidence of deviation, so
    the value is not flagged.

    ``estimation_variance_per_unit`` corrects sigma_hat when the cell
    populations are *estimates* from a sampled density model rather than
    exact counts: a cell of estimated population ``c`` carries sampling
    variance of roughly ``(|W| / R_distinct) * c`` (binomial counts
    scaled to the window), which inflates the observed spread and would
    otherwise mask true deviations.  Passing ``|W| / R_distinct`` here
    subtracts that component and floors the result at a Poisson term.
    Exact paths pass 0 and are unaffected.
    """
    counts = np.asarray(cell_counts, dtype=float)
    if counts.size == 0:
        raise ParameterError("cell_counts must be non-empty")
    return _equation9(np.array([float(neighbor_count)]), counts.reshape(1, -1),
                      k_sigma, min_mdef, estimation_variance_per_unit)[0]


def _equation9(neighbors: np.ndarray, cell_counts: np.ndarray, k_sigma: float,
               min_mdef: float, evpu: float) -> "list[MDEFDecision]":
    """Equation 9 for rows of equally many cell populations.

    Row ``i`` pairs ``neighbors[i]`` with ``cell_counts[i]``.  Every
    step is elementwise or a per-row sum, so a row's decision does not
    depend on the other rows: :func:`mdef_statistic` is the one-row
    case, and a batch gives each point the decision it gets alone.
    """
    counts = np.clip(cell_counts, 0.0, None)
    total = counts.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        cell_mean = (counts * counts).sum(axis=1) / total
        cell_var = (counts * (counts - cell_mean[:, None]) ** 2).sum(axis=1) \
            / total
        if evpu > 0.0:
            cell_var = np.maximum(0.0, cell_var - evpu * cell_mean)
            floor = _POISSON_FLOOR * np.sqrt(np.maximum(cell_mean, 1.0))
            cell_std = np.maximum(np.sqrt(cell_var), floor)
        else:
            cell_std = np.sqrt(np.maximum(cell_var, 0.0))
        mdef = 1.0 - neighbors / cell_mean
        sigma_mdef = cell_std / cell_mean
    is_outlier = (mdef > k_sigma * sigma_mdef) & (mdef > min_mdef)
    return [MDEFDecision(flag, m, s, n, mean, std)
            if row_total > _EVIDENCE_FLOOR
            # No population, no evidence of deviation: not flagged.
            else MDEFDecision(False, 0.0, 0.0, n, 0.0, 0.0)
            for row_total, flag, m, s, n, mean, std in zip(
                total.tolist(), is_outlier.tolist(), mdef.tolist(),
                sigma_mdef.tolist(), neighbors.tolist(), cell_mean.tolist(),
                cell_std.tolist())]


def cell_grid_centers(spec: MDEFSpec) -> np.ndarray:
    """Centres of the 1-d grid cells covering ``[0, 1]``: ``alpha*r*(2i - 1)``.

    The d-dimensional grid is the Cartesian product of this array with
    itself; :func:`sampling_cell_centers` enumerates only the cells a
    given point needs.
    """
    width = spec.cell_width
    n_cells = int(np.ceil(1.0 / width))
    return (np.arange(n_cells) + 0.5) * width


def sampling_cell_centers(p: np.ndarray, spec: MDEFSpec) -> np.ndarray:
    """Centres of the grid cells inside the sampling neighbourhood of ``p``.

    A cell belongs to the sampling neighbourhood when its centre lies
    within ``r`` of ``p`` in every dimension (Chebyshev ball, matching
    the paper's interval geometry).  Returns shape ``(m, d)``.
    """
    centers_1d = cell_grid_centers(spec)
    per_dim = [centers_1d[mask[0]] for mask in _cell_masks(
        np.asarray(p, dtype=float).reshape(1, -1), spec)]
    if len(per_dim) == 1:
        return per_dim[0].reshape(-1, 1)
    return np.array(list(itertools.product(*per_dim)), dtype=float)


def _cell_masks(points: np.ndarray, spec: MDEFSpec) -> "list[np.ndarray]":
    """Per dimension, the grid cells each point's sampling neighbourhood spans.

    Entry ``j`` is an ``(m, n_cells)`` mask over
    :func:`cell_grid_centers`: row ``i`` selects the cells whose centre
    lies within the sampling radius of point ``i``'s coordinate ``j``,
    or the nearest cell when none does.
    """
    centers_1d = cell_grid_centers(spec)
    masks = []
    for coords in points.T:
        dist = np.abs(centers_1d[None, :] - coords[:, None])
        mask = dist <= spec.sampling_radius
        beyond = np.flatnonzero(~mask.any(axis=1))
        if beyond.size:
            # Point beyond the grid edge: fall back to the nearest cell.
            mask[beyond, np.argmin(dist[beyond], axis=1)] = True
        masks.append(mask)
    return masks


class MDEFOutlierDetector:
    """A density model bound to an MDEF specification (the ``isMDEFOutlier``
    procedure of Figure 4, estimated as in Figure 3).

    In the MGDD algorithm every leaf binds this detector to its copy of
    the *global* estimator model, so deviations are judged against the
    distribution of the whole region rather than the local stream.

    ``variance_correction`` (default on) subtracts the density model's
    known estimation variance from sigma_hat (see
    :func:`mdef_statistic`); without it the sampling noise of small
    kernel samples systematically masks deviations.
    """

    def __init__(self, model: DensityModel, spec: MDEFSpec, *,
                 variance_correction: bool = True) -> None:
        self._model = model
        self._spec = spec
        self._evpu = 0.0
        if variance_correction:
            distinct = getattr(model, "distinct_sample_size", None)
            if distinct:
                self._evpu = model.window_size / max(1, int(distinct))

    @property
    def model(self) -> DensityModel:
        """The bound density model."""
        return self._model

    @property
    def spec(self) -> MDEFSpec:
        """The bound MDEF specification."""
        return self._spec

    def check(self, p: "np.ndarray | Sequence[float] | float") -> MDEFDecision:
        """Check one point against the model (Figure 3's estimation)."""
        point = as_point("p", p, self._model.n_dims)
        r_count = self._spec.counting_radius
        neighbor = float(np.asarray(
            self._model.neighborhood_count(point, r_count)).reshape(()))
        centers = sampling_cell_centers(point, self._spec)
        cell_counts = np.asarray(
            self._model.neighborhood_count(centers, r_count)).reshape(-1)
        return mdef_statistic(neighbor, cell_counts, self._spec.k_sigma,
                              min_mdef=self._spec.min_mdef,
                              estimation_variance_per_unit=self._evpu)

    def check_many(self, points: "np.ndarray | Sequence[Sequence[float]] | Sequence[float]") -> "list[MDEFDecision]":
        """Check a batch of points; decision ``i`` equals ``check(points[i])``.

        Every count is computed with :meth:`check`'s own arithmetic, so
        the decisions match per-point calls bit for bit:

        * counting-neighbourhood counts come from one Theorem 2 sorted
          call (:meth:`~repro.core.estimator.KernelDensityEstimator.range_probability_sorted`)
          on a 1-d kernel model, and from check's scalar query otherwise;
        * every distinct sampling cell of the batch goes through one
          batched ``neighborhood_count`` call, whose rows are independent
          (true of both density models), so a cell's count does not
          depend on which other cells share the call;
        * cell selection and Equation 9 run over the whole batch through
          the same row-wise rules (``_cell_masks``, ``_equation9``) that
          :func:`sampling_cell_centers` and :func:`mdef_statistic` apply
          to one point.
        """
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(-1, self._model.n_dims) if self._model.n_dims == 1 \
                else pts.reshape(1, -1)
        if pts.ndim != 2 or pts.shape[1] != self._model.n_dims:
            raise ParameterError(
                f"points must have shape (m, {self._model.n_dims}), "
                f"got {pts.shape}")
        if not np.isfinite(pts).all():
            raise ParameterError("points must contain only finite values")
        if pts.shape[0] == 0:
            return []
        neighbors = self._neighbor_counts(pts)
        cells, members = self._sampling_cells(pts)
        counts = np.asarray(self._model.neighborhood_count(
            cells, self._spec.counting_radius)).reshape(-1)
        # Equation 9 over the points with equally many cells at a time.
        sizes = np.array([rows.size for rows in members])
        decisions: "dict[int, MDEFDecision]" = {}
        for size in set(sizes.tolist()):
            points_of = np.flatnonzero(sizes == size).tolist()
            decisions.update(zip(points_of, _equation9(
                neighbors[points_of],
                counts[np.stack([members[i] for i in points_of])],
                self._spec.k_sigma, self._spec.min_mdef, self._evpu)))
        return [decisions[i] for i in range(len(members))]

    def _neighbor_counts(self, pts: np.ndarray) -> np.ndarray:
        """``n(p, alpha*r)`` per point, each as :meth:`check` computes it."""
        r_count = self._spec.counting_radius
        model = self._model
        if isinstance(model, KernelDensityEstimator) and model.n_dims == 1:
            return model.range_probability_sorted(
                pts[:, 0] - r_count, pts[:, 0] + r_count) * model.window_size
        return np.array([float(np.asarray(
            model.neighborhood_count(p, r_count)).reshape(())) for p in pts])

    def _sampling_cells(self, pts: np.ndarray) -> "tuple[np.ndarray, list[np.ndarray]]":
        """The distinct sampling cells of a batch, and each point's rows.

        ``members[i]`` indexes the returned centres with point ``i``'s
        cells, in :func:`sampling_cell_centers` order (the nearest-cell
        fallback included).
        """
        centers_1d = cell_grid_centers(self._spec)
        masks = _cell_masks(pts, self._spec)
        if len(masks) == 1:
            used = masks[0].any(axis=0)
            rank = np.cumsum(used) - 1
            return (centers_1d[used].reshape(-1, 1),
                    [rank[row] for row in masks[0]])
        grids = [np.array(list(itertools.product(
            *(np.flatnonzero(mask[i]) for mask in masks))))
            for i in range(pts.shape[0])]
        unique, inverse = np.unique(np.concatenate(grids), axis=0,
                                    return_inverse=True)
        bounds = np.cumsum([len(grid) for grid in grids])[:-1]
        return centers_1d[unique], np.split(inverse.reshape(-1), bounds)
