"""The multiprocess fleet pilot: sharding invariance plus telemetry.

Most tests drive ``run_fleet_cell(use_processes=False)`` -- the workers
are deterministic and fully isolated through the run directory and the
queue, so the sequential mode produces identical results without spawn
overhead.  One test runs real ``multiprocessing`` spawn workers so the
cross-process path stays covered in the tier-1 suite.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro._exceptions import ParameterError
from repro.eval.fleet import (
    MERGED_TRACE_NAME,
    fleet_workload,
    partition_streams,
    run_fleet_benchmark,
    run_fleet_cell,
    stream_seeds,
)
from repro.eval.regression import check_benchmark, format_benchmark
from repro.obs.distributed import load_spools, load_trace_meta, merge_spools
from repro.obs.lineage import reconstruct

#: Shared faulted-cell parameters: 3 workers, injected loss, one
#: mid-run engine crash per worker -- the worst case the pilot gates.
FAULTED = dict(algorithm="d3", n_workers=3, n_streams=6, n_ticks=160,
               window_size=60, sample_size=24, batch_size=32,
               checkpoint_every=48, loss_rate=0.3, crash_ticks=(80,),
               seed=7, trace=True, use_processes=False)


def _doc(*cells):
    return {"benchmark": "fleet", "cells": list(cells)}


@pytest.fixture(scope="module")
def faulted(tmp_path_factory):
    """One faulted traced cell, its run dir kept for inspection."""
    run = tmp_path_factory.mktemp("fleet")
    cell = run_fleet_cell(run_dir=run, **FAULTED)
    return run, cell


class TestPartitioning:
    def test_slices_are_contiguous_and_cover(self):
        parts = partition_streams(10, 3)
        assert parts[0][0] == 0 and parts[-1][1] == 10
        for (_, hi), (lo, _) in zip(parts, parts[1:]):
            assert hi == lo
        assert sum(hi - lo for lo, hi in parts) == 10

    def test_rejects_bad_worker_counts(self):
        with pytest.raises(ParameterError):
            partition_streams(4, 0)
        with pytest.raises(ParameterError):
            partition_streams(4, 5)

    def test_stream_seeds_deterministic_and_sliceable(self):
        seeds = stream_seeds(7, 8)
        assert seeds == stream_seeds(7, 8)
        assert len(seeds) == 8
        # The partition-invariance hook: a worker's slice of the global
        # list equals the global list sliced.
        assert stream_seeds(7, 8)[2:5] == seeds[2:5]

    def test_fleet_workload_seeded_with_planted_spikes(self):
        data = fleet_workload(120, 4, seed=7)
        assert np.array_equal(data, fleet_workload(120, 4, seed=7))
        assert (np.abs(data) == 8.0).sum() >= 1


class TestFaultedCell:
    def test_detections_bit_identical_under_faults(self, faulted):
        _, cell = faulted
        assert cell["divergence"] == 0
        assert cell["n_flags"] > 0

    def test_every_crash_recovered(self, faulted):
        _, cell = faulted
        assert cell["n_crashes_scheduled"] == 3
        assert cell["n_recoveries"] == 3

    def test_global_conservation_holds(self, faulted):
        _, cell = faulted
        assert cell["conservation_failures"] == []
        assert cell["n_sent"] \
            == cell["n_delivered"] + cell["n_dropped"]
        assert cell["n_dropped"] > 0   # the loss injection actually bit
        assert cell["n_level1_flags"] == cell["n_delivered"]

    def test_merged_trace_schema_valid_and_untorn(self, faulted):
        run, cell = faulted
        assert cell["schema_problems"] == 0
        assert cell["torn_spools"] == 0
        assert (run / MERGED_TRACE_NAME).exists()

    def test_level1_lineage_complete_and_cross_worker(self, faulted):
        _, cell = faulted
        assert cell["n_level1_records"] > 0
        assert cell["n_level1_complete"] == cell["n_level1_records"]
        assert cell["n_cross_worker"] > 0

    def test_lineage_hops_span_two_worker_ids(self, faulted):
        # Satellite (d): reconstructing from the merged trace yields a
        # level-1 record whose hop provenance crosses a process
        # boundary -- send stamped by the worker, deliver by the
        # coordinator (worker 0).
        run, _ = faulted
        merged = merge_spools(load_spools(run))
        level1 = [r for r in reconstruct(merged.events) if r.level == 1]
        assert level1
        crossing = [r for r in level1
                    if len({hop.get("worker_id") for hop in r.hops
                            if hop.get("worker_id") is not None}) >= 2]
        assert crossing
        record = crossing[0]
        hop_events = {hop.get("event") for hop in record.hops}
        assert "message.send" in hop_events
        assert "message.deliver" in hop_events
        assert record.complete

    def test_run_dir_artifacts_on_disk(self, faulted):
        run, _ = faulted
        spools = sorted(p.name for p in run.glob("worker-*.spool.jsonl"))
        assert spools == [f"worker-{w:04d}.spool.jsonl"
                          for w in range(4)]   # coordinator + 3 workers
        assert len(list(run.glob("worker-*.metrics.json"))) == 4
        assert len(list(run.glob("worker-*.detections.npy"))) == 3
        _, meta = load_trace_meta(run)
        assert meta["worker_ids"] == [0, 1, 2, 3]
        assert meta["counter_totals"] is not None

    def test_check_fleet_passes_the_real_cell(self, faulted):
        _, cell = faulted
        assert check_benchmark(_doc(cell)) == []


class TestCleanCell:
    def test_lossless_cell_delivers_everything(self):
        cell = run_fleet_cell(
            algorithm="d3", n_workers=2, n_streams=4, n_ticks=120,
            window_size=60, sample_size=24, batch_size=40,
            checkpoint_every=60, loss_rate=0.0, seed=7, trace=True,
            use_processes=False)
        assert cell["divergence"] == 0
        assert cell["n_dropped"] == 0
        assert cell["n_sent"] == cell["n_delivered"]
        assert cell["conservation_failures"] == []
        assert check_benchmark(_doc(cell)) == []

    def test_untraced_cell_matches_traced_detections(self):
        kwargs = dict(algorithm="d3", n_workers=2, n_streams=4,
                      n_ticks=120, window_size=60, sample_size=24,
                      batch_size=40, checkpoint_every=60,
                      loss_rate=0.2, seed=11, use_processes=False)
        traced = run_fleet_cell(trace=True, **kwargs)
        untraced = run_fleet_cell(trace=False, **kwargs)
        # Tracing must never perturb behaviour: same flags, same
        # message books, no telemetry keys at all when off.
        for key in ("divergence", "n_flags", "n_sent", "n_delivered",
                    "n_dropped"):
            assert traced[key] == untraced[key], key
        assert "merged_events" not in untraced

    def test_rejects_bad_arguments(self):
        with pytest.raises(ParameterError, match="algorithm"):
            run_fleet_cell(algorithm="lof", use_processes=False)
        with pytest.raises(ParameterError, match="loss_rate"):
            run_fleet_cell(loss_rate=1.0, use_processes=False)
        with pytest.raises(ParameterError, match="crash_ticks"):
            run_fleet_cell(n_ticks=100, crash_ticks=(100,),
                           use_processes=False)


class TestMultiprocess:
    def test_spawned_workers_match_single_process(self, tmp_path):
        # The real thing: spawn-context worker processes, a
        # multiprocessing queue, and the coordinator in this process.
        cell = run_fleet_cell(
            algorithm="d3", n_workers=2, n_streams=4, n_ticks=120,
            window_size=60, sample_size=24, batch_size=40,
            checkpoint_every=60, loss_rate=0.25, crash_ticks=(60,),
            seed=7, trace=True, use_processes=True, run_dir=tmp_path)
        assert cell["divergence"] == 0
        assert cell["conservation_failures"] == []
        assert cell["n_recoveries"] == 2
        assert cell["n_cross_worker"] > 0
        assert check_benchmark(_doc(cell)) == []


class TestBenchmarkDoc:
    def test_grid_document_shape(self, tmp_path):
        doc = run_fleet_benchmark(
            workers=(2,), loss_rates=(0.0,), n_streams=4, n_ticks=120,
            window_size=60, sample_size=24, batch_size=40,
            checkpoint_every=60, seed=7, use_processes=False,
            run_dir=tmp_path)
        assert doc["benchmark"] == "fleet"
        assert doc["grid"]["workers"] == [2]
        assert len(doc["cells"]) == 1
        assert "git_sha" in doc["meta"]
        assert (tmp_path / "cell-0" / MERGED_TRACE_NAME).exists()
        assert check_benchmark(doc) == []

    def test_check_fleet_catches_tampering(self, faulted):
        _, cell = faulted
        doc = _doc(copy.deepcopy(cell))
        doc["cells"][0]["divergence"] = 5
        doc["cells"][0]["n_recoveries"] = 0
        doc["cells"][0]["n_cross_worker"] = 0
        doc["cells"][0]["conservation_failures"] = ["leak"]
        problems = check_benchmark(doc)
        assert any("diverged" in p for p in problems)
        assert any("recover" in p for p in problems)
        assert any("worker ids" in p for p in problems)
        assert any("conservation" in p for p in problems)

    def test_format_table_lists_every_cell(self, faulted):
        _, cell = faulted
        table = format_benchmark(_doc(cell))
        assert "xworker" in table.splitlines()[0]
        assert "workers=3 loss=0.3" in table
