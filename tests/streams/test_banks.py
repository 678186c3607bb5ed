"""Lockstep banks vs the per-stream structures they batch.

:class:`~repro.streams.sampling.ChainSampleBank` and
:class:`~repro.streams.variance.EHVarianceBank` keep the state of many
streams as arrays.  Each lane must equal the per-stream class fed the
lane's column -- bucket for bucket, chain for chain, generator state for
generator state -- under any chunking of the arrivals.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro._exceptions import ParameterError, SnapshotError
from repro.streams.sampling import ChainSample, ChainSampleBank
from repro.streams.variance import EHVarianceBank, EHVarianceSketch
from tests.state_equality import assert_same_state


def chunks(rng: np.random.Generator, total: int, largest: int):
    """Random consecutive ``(start, stop)`` splits of ``range(total)``."""
    start = 0
    while start < total:
        stop = min(total, start + int(rng.integers(1, largest + 1)))
        yield start, stop
        start = stop


class TestEHVarianceBank:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=6),
           st.integers(min_value=1, max_value=120),
           st.sampled_from([0.05, 0.2, 0.5]),
           st.integers(min_value=1, max_value=400),
           st.integers(min_value=0, max_value=2 ** 16))
    def test_lanes_equal_per_stream_sketches(self, n_lanes, window, epsilon,
                                             n_values, seed):
        rng = np.random.default_rng(seed)
        scale = rng.choice([1e-3, 1.0, 1e3], size=n_lanes)
        data = rng.normal(size=(n_values, n_lanes)) * scale
        refs = [EHVarianceSketch(window, epsilon) for _ in range(n_lanes)]
        bank = EHVarianceBank(window, epsilon, n_lanes)
        for start, stop in chunks(rng, n_values, 40):
            bank.insert_many(data[start:stop])
            for lane, ref in enumerate(refs):
                ref.insert_many(data[start:stop, lane])
            assert bank.std().tolist() == [ref.std() for ref in refs]
        for lane, ref in enumerate(refs):
            assert_same_state(bank.snapshot_state()["lanes"][lane], ref.snapshot_state())
        assert bank.memory_words().tolist() == \
            [ref.memory_words() for ref in refs]

    def test_one_bucket_branch(self):
        # A window of one keeps a single bucket: no half-weight charge.
        refs = [EHVarianceSketch(1) for _ in range(3)]
        bank = EHVarianceBank(1, 0.2, 3)
        values = np.array([[0.5, -2.0, 7.0], [1.5, 3.0, 7.0]])
        bank.insert_many(values)
        for lane, ref in enumerate(refs):
            ref.insert_many(values[:, lane])
            assert ref.bucket_count == 1
            assert_same_state(bank.snapshot_state()["lanes"][lane],
                              ref.snapshot_state())
        assert bank.std().tolist() == [ref.std() for ref in refs]

    def test_small_window_expires_every_chunk(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(200, 4))
        refs = [EHVarianceSketch(3, 0.5) for _ in range(4)]
        bank = EHVarianceBank(3, 0.5, 4)
        for start in range(0, 200, 5):
            bank.insert_many(data[start:start + 5])
            for lane, ref in enumerate(refs):
                ref.insert_many(data[start:start + 5, lane])
            assert bank.std().tolist() == [ref.std() for ref in refs]
        for lane, ref in enumerate(refs):
            assert_same_state(bank.snapshot_state()["lanes"][lane], ref.snapshot_state())

    def test_capacity_grows_with_bucket_count(self):
        # A tiny epsilon refuses almost every merge, so the bank must
        # grow well past its initial capacity.
        rng = np.random.default_rng(4)
        data = rng.normal(size=(500, 2)) * np.array([1.0, 1e-6])
        refs = [EHVarianceSketch(400, 0.01) for _ in range(2)]
        bank = EHVarianceBank(400, 0.01, 2)
        bank.insert_many(data)
        for lane, ref in enumerate(refs):
            ref.insert_many(data[:, lane])
            assert_same_state(bank.snapshot_state()["lanes"][lane], ref.snapshot_state())
        assert max(ref.bucket_count for ref in refs) > 64

    def test_lane_states_round_trip(self):
        rng = np.random.default_rng(5)
        refs = [EHVarianceSketch(50) for _ in range(3)]
        for ref in refs:
            ref.insert_many(rng.normal(size=77))
        bank = EHVarianceBank.restore_state(
            {"lanes": [ref.snapshot_state() for ref in refs]})
        more = rng.normal(size=(30, 3))
        bank.insert_many(more)
        for lane, ref in enumerate(refs):
            ref.insert_many(more[:, lane])
            assert_same_state(bank.snapshot_state()["lanes"][lane], ref.snapshot_state())

    def test_lanes_out_of_step_refused(self):
        a, b = EHVarianceSketch(50), EHVarianceSketch(50)
        a.insert_many(np.ones(3))
        b.insert_many(np.ones(4))
        with pytest.raises(SnapshotError, match="timestamp"):
            EHVarianceBank.restore_state(
                {"lanes": [a.snapshot_state(), b.snapshot_state()]})

    def test_std_before_any_value_raises(self):
        with pytest.raises(ParameterError, match="no values"):
            EHVarianceBank(10, 0.2, 2).std()

    def test_rejects_bad_values_before_any_change(self):
        bank = EHVarianceBank(10, 0.2, 2)
        bank.insert_many(np.ones((3, 2)))
        before = bank.snapshot_state()
        with pytest.raises(ParameterError, match="finite"):
            bank.insert_many(np.array([[1.0, np.inf]]))
        with pytest.raises(ParameterError, match="shape"):
            bank.insert_many(np.ones((3, 3)))
        assert_same_state(bank.snapshot_state(), before)


class TestChainSampleBank:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=5),
           st.integers(min_value=1, max_value=60),
           st.integers(min_value=1, max_value=12),
           st.integers(min_value=1, max_value=2),
           st.integers(min_value=1, max_value=300),
           st.sampled_from([1, 64, 262_144]),
           st.integers(min_value=0, max_value=2 ** 16))
    def test_lanes_equal_per_stream_samples(self, n_lanes, window, slots,
                                            n_dims, n_values, cells, seed):
        slots = min(slots, window)
        rng = np.random.default_rng(seed)
        seeds = rng.integers(0, 2 ** 32, size=n_lanes).tolist()
        refs = [ChainSample(window, slots, n_dims,
                            rng=np.random.default_rng(s)) for s in seeds]
        bank = ChainSampleBank(window, slots, n_dims,
                               [np.random.default_rng(s) for s in seeds])
        data = rng.normal(size=(n_values, n_lanes, n_dims))
        for start, stop in chunks(rng, n_values, 50):
            bank.offer_many(data[start:stop], cells)
            for lane, ref in enumerate(refs):
                ref.offer_many(data[start:stop, lane])
        # Chains, successor timestamps, counters and the state of every
        # generator (acceptance and per-slot successor streams).
        for lane, ref in enumerate(refs):
            assert_same_state(bank.snapshot_state()["lanes"][lane], ref.snapshot_state())
        assert bank.mutation_counts.tolist() == \
            [ref.mutation_count for ref in refs]
        assert bank.memory_words().tolist() == \
            [ref.memory_words() for ref in refs]
        heads = bank.heads()
        for lane, ref in enumerate(refs):
            assert np.array_equal(heads[lane][bank.active()[lane]],
                                  ref.values())

    def test_lane_states_round_trip(self):
        refs = [ChainSample(20, 4, rng=np.random.default_rng(s))
                for s in range(3)]
        data = np.random.default_rng(9).normal(size=(90, 3, 1))
        for lane, ref in enumerate(refs):
            ref.offer_many(data[:45, lane])
        bank = ChainSampleBank.restore_state(
            {"lanes": [ref.snapshot_state() for ref in refs]})
        bank.offer_many(data[45:], 262_144)
        for lane, ref in enumerate(refs):
            ref.offer_many(data[45:, lane])
            assert_same_state(bank.snapshot_state()["lanes"][lane], ref.snapshot_state())

    def test_rejects_misshapen_values(self):
        bank = ChainSampleBank(20, 4, 1, [np.random.default_rng(0)])
        with pytest.raises(ParameterError, match="shape"):
            bank.offer_many(np.zeros((5, 2, 1)), 262_144)

    def test_lanes_out_of_step_refused(self):
        a = ChainSample(20, 4, rng=np.random.default_rng(0))
        b = ChainSample(20, 4, rng=np.random.default_rng(1))
        a.offer_many(np.zeros(3))
        b.offer_many(np.zeros(5))
        with pytest.raises(SnapshotError, match="timestamp"):
            ChainSampleBank.restore_state(
                {"lanes": [a.snapshot_state(), b.snapshot_state()]})
