"""Graceful degradation: child staleness tracking and horizons."""

from __future__ import annotations

import numpy as np
import pytest

from repro._exceptions import ParameterError
from repro.core.mdef import MDEFSpec
from repro.core.outliers import DistanceOutlierSpec
from repro.detectors._state import ChildStalenessTracker
from repro.detectors.d3 import D3Config, D3ParentNode
from repro.detectors.mgdd import MGDDConfig, MGDDLeafNode, MGDDLeaderNode
from repro.network.messages import ModelUpdate, ValueForward
from repro.network.node import DetectionLog

D3_SPEC = DistanceOutlierSpec(radius=0.01, count_threshold=5)
MGDD_SPEC = MDEFSpec(sampling_radius=0.08, counting_radius=0.01,
                     min_mdef=0.8)


def d3_config(**overrides):
    defaults = dict(spec=D3_SPEC, window_size=400, sample_size=40,
                    sample_fraction=0.5, warmup=400)
    defaults.update(overrides)
    return D3Config(**defaults)


def mgdd_config(**overrides):
    defaults = dict(spec=MGDD_SPEC, window_size=400, sample_size=40,
                    sample_fraction=0.5, warmup=400)
    defaults.update(overrides)
    return MGDDConfig(**defaults)


class TestChildStalenessTracker:
    def test_never_heard_child_is_maximally_stale(self):
        tracker = ChildStalenessTracker({3: 1, 7: 1})
        assert tracker.staleness(10) == {3: 11, 7: 11}

    def test_mark_resets_staleness(self):
        tracker = ChildStalenessTracker({3: 1, 7: 1})
        tracker.mark(3, 4)
        assert tracker.staleness(10) == {3: 6, 7: 11}
        tracker.mark(3, 10)
        assert tracker.staleness(10)[3] == 0

    def test_unregistered_sender_still_tracked(self):
        tracker = ChildStalenessTracker({3: 1})
        tracker.mark(9, 2)
        assert tracker.staleness(5) == {3: 6, 9: 3}

    def test_active_leaf_count_weights_by_subtree(self):
        tracker = ChildStalenessTracker({3: 4, 7: 4})
        tracker.mark(3, 8)
        tracker.mark(7, 2)
        # At tick 10 with horizon 5: child 3 is 2 stale (active, 4
        # leaves), child 7 is 8 stale (excluded).
        assert tracker.active_leaf_count(10, horizon=5) == 4
        assert tracker.active_leaf_count(10, horizon=8) == 8
        assert tracker.active_leaf_count(10, horizon=1) == 0


class TestHorizonConfig:
    def test_default_is_disabled(self):
        assert d3_config().staleness_horizon is None
        assert mgdd_config().staleness_horizon is None

    def test_invalid_horizon_rejected(self):
        for make in (d3_config, mgdd_config):
            with pytest.raises(ParameterError):
                make(staleness_horizon=0)
            with pytest.raises(ParameterError):
                make(staleness_horizon=-3)


class TestD3ParentDegradation:
    def make_parent(self, **config_overrides):
        config_overrides.setdefault("parent_window", "union")
        parent = D3ParentNode(
            5, None, 2, 2, 8, d3_config(**config_overrides), 1,
            DetectionLog(), np.random.default_rng(0),
            children_leaf_counts={3: 4, 4: 4})
        return parent

    def test_reports_per_child_staleness(self):
        parent = self.make_parent()
        parent.on_message(ValueForward(value=np.array([0.4])),
                          sender=3, tick=6)
        assert parent.child_staleness(10) == {3: 4, 4: 11}

    def test_stale_children_excluded_from_window_scaling(self):
        fresh = self.make_parent(staleness_horizon=5)
        # Only child 3's subtree (4 leaves) has been heard from inside
        # the horizon, so the union window scales by 4 leaves, not 8.
        fresh.on_message(ValueForward(value=np.array([0.4])),
                         sender=3, tick=100)
        assert fresh._active_leaves(100) == 4
        assert fresh.state.count_window_size == 101 * 4

    def test_no_horizon_keeps_full_leaf_count(self):
        parent = self.make_parent()
        parent.on_message(ValueForward(value=np.array([0.4])),
                          sender=3, tick=100)
        assert parent._active_leaves(100) == 8
        assert parent.state.count_window_size == 101 * 8

    def test_all_stale_floors_at_one_leaf(self):
        parent = self.make_parent(staleness_horizon=5)
        assert parent._active_leaves(50) == 1


class TestMGDDDegradation:
    def test_leaf_model_staleness(self):
        leaf = MGDDLeafNode(0, 9, mgdd_config(), 1, DetectionLog(),
                            np.random.default_rng(0))
        assert leaf.model_staleness(10) == 11
        update = ModelUpdate(stddev=np.array([0.05]),
                             full_sample=np.full((40, 1), 0.4),
                             window_size=400)
        leaf.on_message(update, sender=9, tick=4)
        assert leaf.model_staleness(10) == 6

    def test_leaf_pauses_detection_past_horizon(self):
        log = DetectionLog()
        leaf = MGDDLeafNode(0, 9, mgdd_config(warmup=0,
                                              staleness_horizon=5),
                            1, log, np.random.default_rng(0))
        update = ModelUpdate(stddev=np.array([0.001]),
                             full_sample=np.full((40, 1), 0.4),
                             window_size=400)
        leaf.on_message(update, sender=9, tick=0)
        # Near the cluster but in a local void: dense sampling
        # neighbourhood, empty counting neighbourhood -> MDEF outlier.
        outlier = np.array([0.45])
        leaf.on_reading(outlier, tick=3)          # within horizon
        flagged_fresh = list(leaf.flagged_ticks)
        leaf.on_reading(outlier, tick=50)         # model long stale
        assert leaf.flagged_ticks == flagged_fresh
        assert 3 in flagged_fresh
        assert 50 not in leaf.flagged_ticks

    def test_leaf_without_horizon_keeps_detecting(self):
        leaf = MGDDLeafNode(0, 9, mgdd_config(warmup=0), 1,
                            DetectionLog(), np.random.default_rng(0))
        update = ModelUpdate(stddev=np.array([0.001]),
                             full_sample=np.full((40, 1), 0.4),
                             window_size=400)
        leaf.on_message(update, sender=9, tick=0)
        leaf.on_reading(np.array([0.45]), tick=50)
        assert 50 in leaf.flagged_ticks

    def test_leader_scales_global_window_by_active_leaves(self):
        root = MGDDLeaderNode(4, parent=None, children=(0, 1),
                              n_children=2, n_leaves_region=8,
                              config=mgdd_config(staleness_horizon=5,
                                                 parent_window="union"),
                              n_dims=1, rng=np.random.default_rng(0),
                              children_leaf_counts={0: 4, 1: 4})
        root.on_message(ValueForward(value=np.array([0.4])),
                        sender=0, tick=100)
        assert root.child_staleness(100) == {0: 0, 1: 101}
        assert root._active_leaves(100) == 4
        assert root._count_window(100) == 101 * 4

    def test_model_update_does_not_mark_sender(self):
        # Downward ModelUpdate traffic comes from the parent, not a
        # child; only upward ValueForward resets child staleness.
        leader = MGDDLeaderNode(4, parent=9, children=(0, 1),
                                n_children=2, n_leaves_region=2,
                                config=mgdd_config(), n_dims=1,
                                rng=np.random.default_rng(0),
                                children_leaf_counts={0: 1, 1: 1})
        leader.on_message(ModelUpdate(stddev=np.array([0.05])),
                          sender=9, tick=5)
        assert leader.child_staleness(5) == {0: 6, 1: 6}
