"""MDEF / aLOCI statistics and detector (paper Sections 3, 8, Figure 3)."""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._exceptions import ParameterError
from repro.core.estimator import KernelDensityEstimator
from repro.core.kernels import EPANECHNIKOV, GAUSSIAN
from repro.core.mdef import (
    MDEFOutlierDetector,
    MDEFSpec,
    cell_grid_centers,
    mdef_statistic,
    sampling_cell_centers,
)

SPEC = MDEFSpec(sampling_radius=0.08, counting_radius=0.01)


class TestSpec:
    def test_paper_parameters(self):
        assert SPEC.alpha == pytest.approx(1 / 8)
        assert SPEC.cell_width == pytest.approx(0.02)
        assert SPEC.k_sigma == 3.0
        assert SPEC.min_mdef == 0.0

    def test_counting_must_be_smaller_than_sampling(self):
        with pytest.raises(ParameterError):
            MDEFSpec(sampling_radius=0.01, counting_radius=0.05)

    @pytest.mark.parametrize("kwargs", [
        {"sampling_radius": -1.0, "counting_radius": 0.01},
        {"sampling_radius": 0.08, "counting_radius": 0.0},
        {"sampling_radius": 0.08, "counting_radius": 0.01, "k_sigma": 0.0},
        {"sampling_radius": 0.08, "counting_radius": 0.01, "min_mdef": 1.0},
        {"sampling_radius": 0.08, "counting_radius": 0.01, "min_mdef": -0.1},
    ])
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(ParameterError):
            MDEFSpec(**kwargs)


class TestCellGrid:
    def test_centers_cover_unit_interval(self):
        centers = cell_grid_centers(SPEC)
        assert centers.shape == (50,)
        assert centers[0] == pytest.approx(0.01)
        assert centers[-1] == pytest.approx(0.99)

    def test_centers_are_odd_multiples_of_counting_radius(self):
        # Figure 3's grid: centres at alpha*r*(2i - 1) for i = 1..k.
        centers = cell_grid_centers(SPEC)
        i = np.arange(1, centers.shape[0] + 1)
        np.testing.assert_allclose(centers, SPEC.counting_radius * (2 * i - 1))

    def test_sampling_cells_within_radius(self):
        cells = sampling_cell_centers(np.array([0.46]), SPEC)
        assert (np.abs(cells[:, 0] - 0.46) <= SPEC.sampling_radius).all()
        assert cells.shape[0] == 8   # 2 * 0.08 / 0.02

    def test_sampling_cells_at_domain_edge(self):
        cells = sampling_cell_centers(np.array([0.0]), SPEC)
        assert cells.shape[0] >= 1
        assert (cells >= 0).all()

    def test_sampling_cells_beyond_grid_falls_back_to_nearest(self):
        cells = sampling_cell_centers(np.array([2.0]), SPEC)
        assert cells.shape[0] == 1
        assert cells[0, 0] == pytest.approx(0.99)

    def test_2d_cells_are_cartesian_product(self):
        cells = sampling_cell_centers(np.array([0.46, 0.46]), SPEC)
        assert cells.shape == (64, 2)


class TestStatistic:
    def test_weighted_moments(self):
        # Two cells of 10 objects each seeing 10; one singleton seeing 1.
        counts = np.array([10.0, 10.0, 1.0])
        decision = mdef_statistic(1.0, counts, k_sigma=3.0)
        expected_nhat = (100 + 100 + 1) / 21
        assert decision.cell_mean == pytest.approx(expected_nhat)
        assert decision.mdef == pytest.approx(1 - 1 / expected_nhat)

    def test_void_point_next_to_uniform_mass_is_outlier(self):
        counts = np.array([100.0, 100.0, 100.0, 0.0, 0.0])
        decision = mdef_statistic(1.0, counts, k_sigma=3.0)
        assert decision.is_outlier
        assert decision.sigma_mdef == pytest.approx(0.0)

    def test_typical_point_is_not_outlier(self):
        counts = np.array([100.0, 95.0, 105.0, 98.0])
        decision = mdef_statistic(99.0, counts, k_sigma=3.0)
        assert not decision.is_outlier
        assert abs(decision.mdef) < 0.1

    def test_empty_neighbourhood_gives_no_evidence(self):
        decision = mdef_statistic(0.0, np.zeros(8), k_sigma=3.0)
        assert not decision.is_outlier
        assert decision.mdef == 0.0

    def test_min_mdef_guard_suppresses_edges(self):
        # A uniform-block edge: half the typical count, zero spread.
        counts = np.array([100.0, 100.0, 100.0])
        edge = mdef_statistic(50.0, counts, k_sigma=3.0)
        assert edge.is_outlier   # plain LOCI flags it...
        guarded = mdef_statistic(50.0, counts, k_sigma=3.0, min_mdef=0.8)
        assert not guarded.is_outlier   # ...the floor suppresses it.

    def test_variance_correction_unmasks_deviation(self):
        # Noisy estimated cells around a true mean of ~100.
        counts = np.array([200.0, 20.0, 150.0, 40.0])
        raw = mdef_statistic(2.0, counts, k_sigma=3.0)
        assert not raw.is_outlier   # estimation noise masks the void
        corrected = mdef_statistic(2.0, counts, k_sigma=3.0,
                                   estimation_variance_per_unit=18.0)
        assert corrected.is_outlier

    def test_correction_keeps_poisson_floor(self):
        counts = np.array([100.0, 100.0])
        decision = mdef_statistic(99.0, counts, k_sigma=3.0,
                                  estimation_variance_per_unit=50.0)
        assert decision.sigma_mdef > 0.0   # floored, not zeroed

    def test_negative_estimated_cells_clipped(self):
        decision = mdef_statistic(1.0, np.array([-0.5, 10.0]), k_sigma=3.0)
        assert decision.cell_mean == pytest.approx(10.0)

    def test_empty_cells_rejected(self):
        with pytest.raises(ParameterError):
            mdef_statistic(1.0, np.array([]), k_sigma=3.0)


class TestDetector:
    def test_gap_value_flagged_on_plateau_window(self, plateau_window):
        model = KernelDensityEstimator.from_window(
            plateau_window, 400, rng=np.random.default_rng(0))
        # Cap the bandwidth as the MGDD detector does.
        model = KernelDensityEstimator(
            model.sample, bandwidths=np.array([0.02]),
            window_size=plateau_window.shape[0])
        detector = MDEFOutlierDetector(model, MDEFSpec(
            sampling_radius=0.08, counting_radius=0.01, min_mdef=0.8))
        assert detector.check([0.46]).is_outlier

    def test_plateau_interior_not_flagged(self, plateau_window):
        model = KernelDensityEstimator(
            plateau_window.reshape(-1, 1)[::10], bandwidths=np.array([0.02]),
            window_size=plateau_window.shape[0])
        detector = MDEFOutlierDetector(model, MDEFSpec(
            sampling_radius=0.08, counting_radius=0.01, min_mdef=0.8))
        assert not detector.check([0.35]).is_outlier
        assert not detector.check([0.54]).is_outlier

    def test_exposes_model_and_spec(self, plateau_window):
        model = KernelDensityEstimator.from_window(plateau_window, 50)
        detector = MDEFOutlierDetector(model, SPEC)
        assert detector.model is model
        assert detector.spec is SPEC

    def test_variance_correction_can_be_disabled(self, plateau_window):
        model = KernelDensityEstimator.from_window(plateau_window, 50)
        detector = MDEFOutlierDetector(model, SPEC, variance_correction=False)
        assert detector._evpu == 0.0

    def test_2d_check_runs(self, rng):
        values = np.concatenate([
            rng.uniform(0.3, 0.42, size=(2000, 2)),
            rng.uniform(0.5, 0.58, size=(2000, 2)),
        ])
        model = KernelDensityEstimator(
            values[::10], bandwidths=np.array([0.02, 0.02]),
            window_size=values.shape[0])
        detector = MDEFOutlierDetector(model, MDEFSpec(
            sampling_radius=0.08, counting_radius=0.01, min_mdef=0.8))
        decision = detector.check([0.46, 0.46])
        assert decision.mdef > 0.8


def decision_bits(decision):
    """All six fields, floats as their IEEE bytes (so -0.0 != 0.0)."""
    return (type(decision.is_outlier), decision.is_outlier) + tuple(
        struct.pack("<d", value) for value in (
            decision.mdef, decision.sigma_mdef, decision.neighbor_count,
            decision.cell_mean, decision.cell_std))


class TestCheckManyEqualsCheck:
    """check_many is check, bit for bit, on every field of every point."""

    @settings(max_examples=150, deadline=None)
    @given(centres=st.lists(st.floats(-0.3, 1.3), min_size=1, max_size=40),
           duplicates=st.integers(min_value=0, max_value=20),
           points=st.lists(st.floats(-0.6, 1.6), min_size=1, max_size=40),
           on_centres=st.integers(min_value=0, max_value=10),
           bandwidth=st.sampled_from([1e-3, 0.01, 0.04, 0.3]),
           kernel=st.sampled_from([EPANECHNIKOV, GAUSSIAN]),
           counting=st.sampled_from([0.005, 0.01, 0.025]),
           ratio=st.sampled_from([4.0, 8.0]),
           min_mdef=st.sampled_from([0.0, 0.8]),
           correction=st.booleans(),
           window=st.integers(min_value=1, max_value=5000))
    def test_random_1d_models(self, centres, duplicates, points, on_centres,
                              bandwidth, kernel, counting, ratio, min_mdef,
                              correction, window):
        sample = np.array(centres + centres[:1] * duplicates)
        # Points sitting exactly on centres, plus far outside [0, 1]
        # (the nearest-cell fallback) when the draw reaches there.
        queries = np.array(points + centres[:on_centres]).reshape(-1, 1)
        model = KernelDensityEstimator(
            sample, bandwidths=[bandwidth], kernel=kernel,
            window_size=max(window, sample.size))
        detector = MDEFOutlierDetector(
            model, MDEFSpec(counting * ratio, counting, min_mdef=min_mdef),
            variance_correction=correction)
        batched = detector.check_many(queries)
        assert len(batched) == len(queries)
        for point, decision in zip(queries, batched):
            assert decision_bits(decision) == decision_bits(
                detector.check(point))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2 ** 16),
           n_points=st.integers(min_value=1, max_value=12),
           min_mdef=st.sampled_from([0.0, 0.8]))
    def test_random_2d_models(self, seed, n_points, min_mdef):
        rng = np.random.default_rng(seed)
        model = KernelDensityEstimator(
            rng.uniform(0.2, 0.8, size=(25, 2)),
            bandwidths=rng.uniform(0.01, 0.1, size=2), window_size=500)
        detector = MDEFOutlierDetector(model, MDEFSpec(
            sampling_radius=0.1, counting_radius=0.025, min_mdef=min_mdef))
        queries = rng.uniform(-0.2, 1.2, size=(n_points, 2))
        for point, decision in zip(queries, detector.check_many(queries)):
            assert decision_bits(decision) == decision_bits(
                detector.check(point))

    def test_flat_1d_input_and_empty_batch(self, plateau_window):
        detector = MDEFOutlierDetector(
            KernelDensityEstimator.from_window(plateau_window, 50), SPEC)
        points = np.array([0.1, 0.46, 0.9])
        assert [decision_bits(d) for d in detector.check_many(points)] \
            == [decision_bits(detector.check(p)) for p in points]
        assert detector.check_many(np.empty((0, 1))) == []

    def test_non_finite_points_rejected(self, plateau_window):
        detector = MDEFOutlierDetector(
            KernelDensityEstimator.from_window(plateau_window, 50), SPEC)
        with pytest.raises(ParameterError):
            detector.check_many([0.4, np.nan])
