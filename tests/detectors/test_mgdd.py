"""MGDD multi-granular deviation detection (paper Section 8, Figure 4)."""

from __future__ import annotations

import numpy as np
import pytest

from repro._exceptions import ParameterError
from repro.core.mdef import MDEFSpec
from repro.data.streams import StreamSet
from repro.data.synthetic import make_plateau_streams
from repro.detectors.mgdd import (
    MGDDConfig,
    MGDDLeaderNode,
    MGDDLeafNode,
    build_mgdd_network,
)
from repro.network.simulator import NetworkSimulator
from repro.network.topology import build_hierarchy

SPEC = MDEFSpec(sampling_radius=0.08, counting_radius=0.01, min_mdef=0.8)


def small_config(**overrides):
    defaults = dict(spec=SPEC, window_size=400, sample_size=40,
                    sample_fraction=0.5, warmup=400)
    defaults.update(overrides)
    return MGDDConfig(**defaults)


class TestConfig:
    def test_defaults(self):
        config = MGDDConfig(spec=SPEC)
        assert config.update_policy == "incremental"
        assert config.relay_policy == "bernoulli"
        assert config.effective_bandwidth_cap == pytest.approx(0.02)

    def test_explicit_bandwidth_cap(self):
        config = MGDDConfig(spec=SPEC, bandwidth_cap=0.05)
        assert config.effective_bandwidth_cap == 0.05

    @pytest.mark.parametrize("kwargs", [
        {"update_policy": "sometimes"},
        {"relay_policy": "never"},
        {"parent_window": "elastic"},
        {"lazy_threshold": 0.0},
        {"lazy_check_every": 0},
        {"sample_size": 500, "window_size": 100},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ParameterError):
            MGDDConfig(spec=SPEC, **kwargs)


def run_network(config, n_leaves=4, length=900, seed=0):
    hierarchy = build_hierarchy(n_leaves, 4)
    network = build_mgdd_network(hierarchy, config, 1,
                                 rng=np.random.default_rng(seed))
    streams = StreamSet.from_arrays(
        make_plateau_streams(n_leaves, length, seed=seed + 1))
    sim = NetworkSimulator(hierarchy, network.nodes, streams)
    sim.run()
    return hierarchy, network, sim


class TestGlobalModelDissemination:
    def test_updates_reach_leaves(self):
        hierarchy, network, sim = run_network(small_config())
        assert sim.counter.counts.get("ModelUpdate", 0) > 0
        for leaf in hierarchy.leaf_ids:
            assert network.nodes[leaf].global_copy.model() is not None

    def test_root_counts_updates(self):
        _, network, _ = run_network(small_config())
        assert network.root.updates_sent > 0

    def test_lazy_policy_sends_fewer_floods(self):
        # Stationary stream: the lazy scheme re-broadcasts rarely.
        _, _, sim_inc = run_network(small_config(), seed=3)
        _, _, sim_lazy = run_network(
            small_config(update_policy="lazy", lazy_threshold=0.2), seed=3)
        inc = sim_inc.counter.counts.get("ModelUpdate", 0)
        lazy = sim_lazy.counter.counts.get("ModelUpdate", 0)
        assert lazy < inc / 2

    def test_relay_policies_change_traffic(self):
        _, _, bern = run_network(small_config(relay_policy="bernoulli"),
                                 n_leaves=16, seed=5)
        _, _, incl = run_network(small_config(relay_policy="inclusion"),
                                 n_leaves=16, seed=5)
        # Inclusion gating thins upward traffic at every hop.
        assert incl.counter.counts.get("ValueForward", 0) < \
            bern.counter.counts.get("ValueForward", 0)


class TestDetection:
    def test_gap_arrivals_flagged(self):
        config = small_config(window_size=600, sample_size=60, warmup=600)
        hierarchy = build_hierarchy(4, 4)
        network = build_mgdd_network(hierarchy, config, 1,
                                     rng=np.random.default_rng(7))
        rng = np.random.default_rng(8)
        arrays = make_plateau_streams(4, 1_200, seed=9)
        # Plant a mid-gap value at a known post-warmup tick on leaf 0.
        arrays[0][900] = [0.46]
        streams = StreamSet.from_arrays(arrays)
        NetworkSimulator(hierarchy, network.nodes, streams).run()
        planted = [d for d in network.log.detections
                   if d.tick == 900 and d.origin == 0]
        assert len(planted) == 1

    def test_only_leaves_detect(self):
        _, network, _ = run_network(small_config())
        assert all(d.level == 1 for d in network.log.detections)

    def test_no_detection_before_warmup(self):
        _, network, _ = run_network(small_config(warmup=10_000))
        assert len(network.log) == 0


class TestNodeUnits:
    def test_leaf_applies_model_update(self):
        from repro.network.messages import ModelUpdate
        from repro.network.node import DetectionLog
        leaf = MGDDLeafNode(0, 9, small_config(), 1, DetectionLog(),
                            np.random.default_rng(0))
        assert leaf.global_copy.model() is None
        update = ModelUpdate(stddev=np.array([0.05]),
                             full_sample=np.full((40, 1), 0.4),
                             window_size=400)
        leaf.on_message(update, sender=9, tick=0)
        assert leaf.global_copy.model() is not None

    def test_leader_floods_updates_to_children(self):
        from repro.network.messages import ModelUpdate
        leader = MGDDLeaderNode(4, parent=9, children=(0, 1, 2),
                                n_children=3, n_leaves_region=3,
                                config=small_config(), n_dims=1,
                                rng=np.random.default_rng(0))
        update = ModelUpdate(stddev=np.array([0.05]))
        out = leader.on_message(update, sender=9, tick=0)
        assert sorted(dest for dest, _ in out) == [0, 1, 2]

    def test_root_broadcasts_on_inclusion(self):
        from repro.network.messages import ValueForward
        root = MGDDLeaderNode(4, parent=None, children=(0, 1),
                              n_children=2, n_leaves_region=2,
                              config=small_config(), n_dims=1,
                              rng=np.random.default_rng(0))
        out = root.on_message(ValueForward(value=np.array([0.4])),
                              sender=0, tick=0)
        # The first arrival fills every slot -> an incremental update.
        kinds = {type(msg).__name__ for _, msg in out}
        assert kinds == {"ModelUpdate"}
        assert root.updates_sent == 1

    def test_incremental_update_carries_changed_slots(self):
        from repro.network.messages import ValueForward
        root = MGDDLeaderNode(4, parent=None, children=(0,),
                              n_children=1, n_leaves_region=1,
                              config=small_config(), n_dims=1,
                              rng=np.random.default_rng(0))
        out = root.on_message(ValueForward(value=np.array([0.37])),
                              sender=0, tick=0)
        update = out[0][1]
        assert update.value[0] == pytest.approx(0.37)
        assert len(update.slots) == 40   # first arrival fills all slots


class TestTickScorer:
    """Batched leaves are scored together once per tick (on_tick_start)."""

    BESIDE = np.array([[0.46]])   # just beside the plateau model

    @staticmethod
    def update(sample, stddev=0.08, window_size=400):
        from repro.network.messages import ModelUpdate
        return ModelUpdate(stddev=np.array([stddev]),
                           full_sample=np.asarray(sample).reshape(-1, 1),
                           window_size=window_size)

    def two_leaves(self):
        hierarchy = build_hierarchy(2, 2)
        network = build_mgdd_network(hierarchy, small_config(warmup=0), 1,
                                     rng=np.random.default_rng(0))
        return [network.nodes[leaf] for leaf in hierarchy.leaf_ids]

    def models(self):
        plateau = np.random.default_rng(1).uniform(0.30, 0.42, 40)
        return plateau, np.linspace(0.30, 0.60, 40)

    def test_update_after_scoring_falls_back_to_own_check(self):
        from repro.core.mdef import MDEFOutlierDetector
        plateau, spread = self.models()
        first, second = self.two_leaves()
        for leaf in (first, second):
            leaf.on_message(self.update(plateau), sender=2, tick=0)
            leaf.on_readings(self.BESIDE, start_tick=5)
        first.on_tick_start(5)              # scores both leaves
        assert first.flagged_ticks == [5]
        second.on_message(self.update(spread), sender=2, tick=5)
        # The value beside the plateau is no outlier in the even spread.
        assert not MDEFOutlierDetector(second.global_copy.model(),
                                       SPEC).check(self.BESIDE[0]).is_outlier
        # Scored against the plateau copy, but judged against the copy it
        # holds when its turn comes.
        second.on_tick_start(5)
        assert second.flagged_ticks == []

    def test_byte_equal_copies_share_one_model(self):
        plateau, _ = self.models()
        leaves = self.two_leaves()
        for leaf in leaves:
            leaf.on_message(self.update(plateau), sender=2, tick=0)
            leaf.on_readings(self.BESIDE, start_tick=5)
        assert leaves[0].global_copy.content_key() \
            == leaves[1].global_copy.content_key()
        for leaf in leaves:
            leaf.on_tick_start(5)
        assert [leaf.flagged_ticks for leaf in leaves] == [[5], [5]]
        # One model was derived, by the group's first copy.
        assert leaves[1].global_copy._cached is None

    def test_copies_differing_only_in_stddev_are_scored_apart(self):
        plateau, _ = self.models()
        wide, narrow = self.two_leaves()
        # A narrower bandwidth leaves 0.43 outside the plateau's reach.
        wide.on_message(self.update(plateau, stddev=0.08), sender=2, tick=0)
        narrow.on_message(self.update(plateau, stddev=0.005), sender=2,
                          tick=0)
        for leaf in (wide, narrow):
            leaf.on_readings(np.array([[0.43]]), start_tick=5)
        for leaf in (wide, narrow):
            leaf.on_tick_start(5)
        assert (wide.flagged_ticks, narrow.flagged_ticks) == ([], [5])

    def test_apply_invalidates_the_key(self):
        plateau, spread = self.models()
        leaf = self.two_leaves()[0]
        leaf.on_message(self.update(plateau), sender=2, tick=0)
        key = leaf.global_copy.content_key()
        leaf.on_message(self.update(spread), sender=2, tick=1)
        assert leaf.global_copy.content_key() != key
        leaf.on_message(self.update(plateau), sender=2, tick=2)
        assert leaf.global_copy.content_key() == key
        leaf.on_message(self.update(plateau, window_size=401), sender=2,
                        tick=3)
        assert leaf.global_copy.content_key() != key


class TestRegionalModels:
    """config.model_level: Example 1's "outliers at any level of detail"."""

    def _run_regional(self, model_level, seed=11):
        from repro.data.synthetic import PlateauSpec, make_plateau_stream
        hierarchy = build_hierarchy(8, 4)   # levels: 8 / 2 / 1
        config = small_config(model_level=model_level, sample_size=60,
                              window_size=600, warmup=600)
        network = build_mgdd_network(hierarchy, config, 1,
                                     rng=np.random.default_rng(seed))
        rng = np.random.default_rng(seed + 1)
        # Region A (leaves 0-3) and region B (leaves 4-7) observe
        # *different* plateaus.
        spec_a = PlateauSpec(plateau_a=(0.10, 0.22), plateau_b=(0.30, 0.38),
                             gap=(0.23, 0.29))
        spec_b = PlateauSpec(plateau_a=(0.60, 0.72), plateau_b=(0.80, 0.88),
                             gap=(0.73, 0.79))
        arrays = [make_plateau_stream(1_200, 1, spec=spec_a, rng=rng)
                  for _ in range(4)]
        arrays += [make_plateau_stream(1_200, 1, spec=spec_b, rng=rng)
                   for _ in range(4)]
        streams = StreamSet.from_arrays(arrays)
        NetworkSimulator(hierarchy, network.nodes, streams).run()
        return hierarchy, network

    def test_default_single_source_at_root(self):
        hierarchy, network = self._run_regional(model_level=None)
        sources = network.model_sources
        assert [s.node_id for s in sources] == [hierarchy.root_id]
        assert sources[0].updates_sent > 0

    def test_regional_sources_per_tier(self):
        hierarchy, network = self._run_regional(model_level=2)
        sources = {s.node_id for s in network.model_sources}
        assert sources == set(hierarchy.levels[1])
        # The root receives nothing and never broadcasts.
        assert network.root.updates_sent == 0

    def test_regional_mirrors_reflect_their_region(self):
        hierarchy, network = self._run_regional(model_level=2)
        left = network.nodes[0].global_copy.model()    # region A leaf
        right = network.nodes[4].global_copy.model()   # region B leaf
        assert left is not None and right is not None
        # Region A's model mass sits below 0.5; region B's above.
        assert left.range_probability(0.0, 0.5) > 0.8
        assert right.range_probability(0.5, 1.0) > 0.8

    def test_invalid_model_level_rejected(self):
        hierarchy = build_hierarchy(8, 4)
        config = small_config(model_level=1)
        with pytest.raises(ParameterError):
            build_mgdd_network(hierarchy, config, 1,
                               rng=np.random.default_rng(0))
