"""Bench-regression tracking: summaries, history append, relative gates."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro._exceptions import ParameterError
from repro.eval.regression import (BENCH_KINDS, append_history,
                                   check_benchmark, check_history,
                                   format_benchmark, history_path,
                                   load_history, summarize_benchmark,
                                   write_benchmark)

REPO_ROOT = Path(__file__).resolve().parents[2]
BENCH_DOCS = sorted(REPO_ROOT.glob("BENCH_*.json"))


def _throughput_doc(*, single=6.0, network=2.5, sha="abc123", seed=0):
    return {
        "benchmark": "ingest-throughput",
        "meta": {"git_sha": sha, "seed": seed},
        "single_node": {"speedup": single,
                        "batched_readings_per_sec": 80_000.0},
        "network": {"speedup": network,
                    "batched_readings_per_sec": 50_000.0},
    }


def _resilience_doc(*, faultfree=1.0, faulted=0.9, sha="abc123", seed=7):
    return {
        "benchmark": "resilience",
        "meta": {"git_sha": sha, "seed": seed},
        "cells": [
            {"loss_rate": 0.0, "crash_fraction": 0.0, "recall": faultfree,
             "message_overhead": 1.0},
            {"loss_rate": 0.2, "crash_fraction": 0.1, "recall": faulted,
             "message_overhead": 1.2},
        ],
    }


def _throughput_entry(single, network):
    return {"benchmark": "ingest-throughput",
            "single_node_speedup": single, "network_speedup": network}


def _latency_doc(*, p99=6, n_flags=150, sha="abc123", seed=7):
    return {
        "benchmark": "latency",
        "meta": {"git_sha": sha, "seed": seed},
        "cells": [
            {"algorithm": "d3", "loss_rate": 0.0, "staleness_horizon": 30,
             "n_flags": n_flags, "latency_p50": 0, "latency_p99": 0,
             "latency_max": 0, "words_per_detection": 8.0,
             "recall_level1": 0.7},
            {"algorithm": "d3", "loss_rate": 0.25, "staleness_horizon": 30,
             "n_flags": n_flags, "latency_p50": 0, "latency_p99": p99,
             "latency_max": p99 + 2, "words_per_detection": 12.0,
             "recall_level1": 0.7},
        ],
    }


class TestSummarize:
    def test_throughput_summary(self):
        summary = summarize_benchmark(_throughput_doc())
        assert summary["single_node_speedup"] == 6.0
        assert summary["network_speedup"] == 2.5
        assert summary["meta"]["git_sha"] == "abc123"

    def test_resilience_summary(self):
        summary = summarize_benchmark(_resilience_doc())
        assert summary["min_faultfree_recall"] == 1.0
        assert summary["min_faulted_recall"] == 0.9
        assert summary["max_message_overhead"] == 1.2

    def test_latency_summary(self):
        summary = summarize_benchmark(_latency_doc())
        assert summary["latency_p99_max"] == 6
        assert summary["total_flags"] == 300
        assert summary["mean_words_per_detection"] == 10.0
        assert summary["min_recall_level1"] == 0.7

    def test_unknown_kind_rejected(self):
        with pytest.raises(ParameterError):
            summarize_benchmark({"benchmark": "mystery"})

    def test_committed_bench_documents_summarise(self):
        # The real BENCH_*.json artifacts must stay summarisable -- the
        # CI gate feeds them straight in.
        for name in ("BENCH_throughput.json", "BENCH_resilience.json"):
            doc = json.loads((REPO_ROOT / name).read_text())
            summary = summarize_benchmark(doc)
            assert summary["benchmark"] == doc["benchmark"]


class TestRecords:
    def test_tolerances_in_range(self):
        # The tolerances are constants in the records, not options, so
        # their sanity is asserted here rather than at run time.
        for kind in BENCH_KINDS.values():
            for gate in kind.gates:
                assert gate.direction in ("drop", "rise"), gate
                upper = 1.0 if gate.direction == "drop" else float("inf")
                assert 0.0 < gate.tolerance < upper, gate

    def test_every_committed_artifact_has_a_record(self):
        assert len(BENCH_DOCS) == len(BENCH_KINDS) == 6
        for path in BENCH_DOCS:
            doc = json.loads(path.read_text())
            assert history_path(doc["benchmark"]).name == \
                path.name.replace("BENCH_", "").replace(".json", ".jsonl")

    @pytest.mark.parametrize("path", BENCH_DOCS, ids=lambda p: p.name)
    def test_committed_artifact_passes_gate_and_formats(self, path):
        doc = json.loads(path.read_text())
        assert check_benchmark(doc) == []
        table = format_benchmark(doc)
        rows = BENCH_KINDS[doc["benchmark"]].rows(doc)
        assert len(table.splitlines()) >= len(rows) + 2

    @pytest.mark.parametrize("path", BENCH_DOCS, ids=lambda p: p.name)
    def test_write_format(self, path, tmp_path):
        # The artifact format every bench has always written: indent=2,
        # sorted keys, trailing newline.
        doc = json.loads(path.read_text())
        out = write_benchmark(doc, tmp_path / path.name)
        assert out.read_text() == \
            json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def test_table_prints_missing_values_as_dash(self):
        doc = _latency_doc()
        doc["cells"][0]["words_per_detection"] = None
        del doc["cells"][0]["recall_level1"]
        row = format_benchmark(doc).splitlines()[2]
        assert row.split()[-2:] == ["-", "-"]


class TestHistoryFiles:
    def test_append_and_load_round_trip(self, tmp_path):
        path, summary = append_history(_throughput_doc(), tmp_path)
        assert path == history_path("ingest-throughput", tmp_path)
        entries = load_history(path)
        assert entries == [summary]

    def test_duplicate_sha_seed_skipped(self, tmp_path):
        append_history(_throughput_doc(), tmp_path)
        append_history(_throughput_doc(), tmp_path)   # CI retry
        assert len(load_history(history_path("ingest-throughput",
                                             tmp_path))) == 1

    def test_unknown_sha_never_deduped(self, tmp_path):
        append_history(_throughput_doc(sha="unknown"), tmp_path)
        append_history(_throughput_doc(sha="unknown"), tmp_path)
        assert len(load_history(history_path("ingest-throughput",
                                             tmp_path))) == 2

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "throughput.jsonl"
        path.write_text("{not json}\n")
        with pytest.raises(ParameterError):
            load_history(path)

    def test_missing_file_is_empty(self, tmp_path):
        assert load_history(tmp_path / "nope.jsonl") == []

    def test_unknown_kind_has_no_path(self):
        with pytest.raises(ParameterError):
            history_path("mystery")

    def test_same_sha_seed_other_backend_appended(self, tmp_path):
        # docs/PERFORMANCE.md's sequence: a numpy kernels bench, then a
        # numba one at the same sha and seed.  The numba run is a new
        # entry, not a CI retry; dropping it would let ``gate`` re-check
        # the numpy entry and pass a 90% numba regression.
        def kernels(backend, speedup, sha):
            return {"benchmark": "kernels", "backend": backend,
                    "meta": {"git_sha": sha, "seed": 0, "backend": backend},
                    "cases": [{"case": "range", "gated": True,
                               "reference_s": 1.0, "backend_s": 0.1}],
                    "min_speedup": speedup, "max_abs_err": 0.0}

        append_history(kernels("numba", 40.0, "old"), tmp_path)
        append_history(kernels("numpy", 5.0, "new"), tmp_path)
        path, summary = append_history(kernels("numba", 4.0, "new"),
                                       tmp_path)
        assert summary["min_speedup"] == 4.0
        entries = load_history(path)
        assert [e["backend"] for e in entries] == ["numba", "numpy", "numba"]
        problems = check_history(entries)
        assert any("min_speedup" in p for p in problems), problems
        # A true retry (same sha, seed and backend) is still skipped.
        _, existing = append_history(kernels("numba", 4.1, "new"), tmp_path)
        assert existing == summary
        assert len(load_history(path)) == 3

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_token_rejected(self, tmp_path, token):
        path = tmp_path / "kernels.jsonl"
        path.write_text('{"benchmark": "kernels", "min_speedup": %s}\n'
                        % token)
        with pytest.raises(ParameterError, match="non-finite"):
            load_history(path)


class TestGate:
    def test_fewer_than_two_entries_pass(self):
        assert check_history([]) == []
        assert check_history([_throughput_entry(6.0, 2.5)]) == []

    def test_synthetic_25pct_drop_fails(self):
        # The acceptance criterion: a -25% throughput entry must fail the
        # default 20% gate.
        entries = [_throughput_entry(6.0, 2.5),
                   _throughput_entry(6.0 * 0.75, 2.5 * 0.75)]
        problems = check_history(entries)
        assert len(problems) == 2
        assert "single_node_speedup" in problems[0]

    def test_small_drop_passes(self):
        entries = [_throughput_entry(6.0, 2.5),
                   _throughput_entry(6.0 * 0.9, 2.5 * 0.9)]
        assert check_history(entries) == []

    def test_gate_uses_median_of_priors(self):
        # One freak slow prior must not drag the baseline down.
        entries = [_throughput_entry(6.0, 2.5),
                   _throughput_entry(1.0, 1.0),
                   _throughput_entry(6.2, 2.6),
                   _throughput_entry(5.9, 2.4)]
        assert check_history(entries) == []

    def test_recall_cliff_fails(self):
        entries = [summarize_benchmark(_resilience_doc()),
                   summarize_benchmark(_resilience_doc(faulted=0.05,
                                                       sha="def456"))]
        problems = check_history(entries)
        assert any("cliff" in p for p in problems)

    def test_faultfree_recall_drop_fails(self):
        entries = [summarize_benchmark(_resilience_doc()),
                   summarize_benchmark(_resilience_doc(faultfree=0.5,
                                                       sha="def456"))]
        problems = check_history(entries)
        assert any("min_faultfree_recall" in p for p in problems)

    def test_latency_rise_fails(self):
        entries = [summarize_benchmark(_latency_doc()),
                   summarize_benchmark(_latency_doc(p99=20, sha="def456"))]
        problems = check_history(entries)
        assert any("latency_p99_max" in p for p in problems)
        # A modest rise stays inside the loose default tolerance.
        entries[-1] = summarize_benchmark(_latency_doc(p99=9, sha="eee"))
        assert check_history(entries) == []

    def test_latency_zero_flags_fails(self):
        entries = [summarize_benchmark(_latency_doc()),
                   summarize_benchmark(_latency_doc(n_flags=0,
                                                    sha="def456"))]
        problems = check_history(entries)
        assert any("total_flags" in p for p in problems)

    def test_committed_history_passes(self):
        # The repository's own seeded history must gate green.
        for kind in BENCH_KINDS:
            path = history_path(kind, REPO_ROOT / "benchmarks" / "history")
            assert check_history(load_history(path)) == []

    @pytest.mark.parametrize("kind, field", [
        (kind.name, gate.field)
        for kind in BENCH_KINDS.values() for gate in kind.gates])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_non_finite_latest_figure_fails(self, kind, field, value):
        entries = [{"benchmark": kind, field: 1.0},
                   {"benchmark": kind, field: value}]
        problems = check_history(entries)
        assert any(p.startswith(field) and "finite" in p
                   for p in problems), problems


class TestCliTool:
    def test_gate_mode_end_to_end(self, tmp_path):
        import subprocess
        import sys
        doc_path = tmp_path / "BENCH_throughput.json"
        doc_path.write_text(json.dumps(_throughput_doc(sha="aaa")))
        base = [sys.executable, str(REPO_ROOT / "tools" / "bench_history.py")]
        history = ["--history-dir", str(tmp_path / "history")]
        first = subprocess.run(
            [*base, "gate", str(doc_path), *history],
            capture_output=True, text=True, cwd=REPO_ROOT)
        assert first.returncode == 0, first.stderr
        # A -25% follow-up must be rejected by the default tolerance.
        doc_path.write_text(json.dumps(
            _throughput_doc(single=4.5, network=1.875, sha="bbb")))
        second = subprocess.run(
            [*base, "gate", str(doc_path), *history],
            capture_output=True, text=True, cwd=REPO_ROOT)
        assert second.returncode == 1
        assert "REGRESSION" in second.stderr

    def test_non_finite_history_line_exits_2(self, tmp_path):
        import subprocess
        import sys
        history = tmp_path / "history"
        history.mkdir()
        (history / "throughput.jsonl").write_text(
            '{"benchmark": "ingest-throughput", "single_node_speedup": NaN}\n')
        doc_path = tmp_path / "BENCH_throughput.json"
        doc_path.write_text(json.dumps(_throughput_doc()))
        run = subprocess.run(
            [sys.executable, str(REPO_ROOT / "tools" / "bench_history.py"),
             "check", str(doc_path), "--history-dir", str(history)],
            capture_output=True, text=True, cwd=REPO_ROOT)
        assert run.returncode == 2
        assert "non-finite" in run.stderr


def _fleet_doc(*, divergence=0, conservation=(), flags=40,
               cross_worker=6, rate=12_000.0, sha="abc123", seed=7):
    return {
        "benchmark": "fleet",
        "meta": {"git_sha": sha, "seed": seed},
        "cells": [
            {"n_workers": 2, "loss_rate": 0.0, "divergence": divergence,
             "conservation_failures": list(conservation),
             "n_flags": flags, "n_cross_worker": cross_worker,
             "readings_per_sec": rate},
            {"n_workers": 4, "loss_rate": 0.25, "divergence": 0,
             "conservation_failures": [], "n_flags": flags,
             "n_cross_worker": cross_worker,
             "readings_per_sec": rate * 1.5},
        ],
    }


class TestFleetKind:
    def test_summary_totals(self):
        summary = summarize_benchmark(_fleet_doc())
        assert summary["total_divergence"] == 0
        assert summary["total_conservation_failures"] == 0
        assert summary["total_flags"] == 80
        assert summary["total_cross_worker"] == 12
        assert summary["min_readings_per_sec"] == 12_000.0

    def test_history_path_registered(self, tmp_path):
        assert history_path("fleet", tmp_path).name == "fleet.jsonl"

    def test_divergence_and_conservation_gates_are_absolute(self):
        # Unlike throughput these gates ignore the prior median: any
        # non-zero value in the latest entry fails outright.
        entries = [summarize_benchmark(_fleet_doc()),
                   summarize_benchmark(_fleet_doc(
                       divergence=1, conservation=("leak",),
                       cross_worker=0, sha="def456"))]
        problems = check_history(entries)
        assert any("total_divergence" in p for p in problems)
        assert any("total_conservation_failures" in p for p in problems)
        assert any("total_cross_worker" in p for p in problems)

    def test_zero_flags_fails(self):
        entries = [summarize_benchmark(_fleet_doc()),
                   summarize_benchmark(_fleet_doc(flags=0,
                                                  sha="def456"))]
        problems = check_history(entries)
        assert any("total_flags" in p for p in problems)

    def test_throughput_gate_is_loose(self):
        entries = [summarize_benchmark(_fleet_doc()),
                   summarize_benchmark(_fleet_doc(rate=12_000.0 * 0.4,
                                                  sha="def456"))]
        # -60% passes the deliberately loose 75% fleet tolerance
        # (spawn-bound CI timing is noisy)...
        assert check_history(entries) == []
        entries[-1] = summarize_benchmark(_fleet_doc(rate=12_000.0 * 0.2,
                                                     sha="eee789"))
        # ...and -80% does not.
        problems = check_history(entries)
        assert any("min_readings_per_sec" in p for p in problems)

    def test_fleet_tolerance_validated(self):
        (gate,) = BENCH_KINDS["fleet"].gates
        assert gate == ("min_readings_per_sec", "drop", 0.75, False)

    def test_committed_fleet_artifacts_gate_green(self):
        doc = json.loads((REPO_ROOT / "BENCH_fleet.json").read_text())
        assert summarize_benchmark(doc)["benchmark"] == "fleet"
        path = REPO_ROOT / "benchmarks" / "history" / "fleet.jsonl"
        assert check_history(load_history(path)) == []
