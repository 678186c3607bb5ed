"""Append benchmark results to the history and gate on regressions.

Usage::

    python tools/bench_history.py append BENCH_throughput.json
    python tools/bench_history.py check BENCH_throughput.json
    python tools/bench_history.py gate BENCH_throughput.json

``append`` summarises a ``BENCH_*.json`` document (keeping its
provenance stamp) onto ``benchmarks/history/<stem>.jsonl``; duplicate
git sha + seed + backend entries are skipped so CI retries do not
inflate the history.  ``check`` reports whether the document would
regress against the committed history without touching it; ``gate``
appends and then checks the updated history, exiting 1 on regression
-- the mode the CI bench jobs run.  A malformed document or history
line (including ``NaN``/``Infinity`` tokens) exits 2.

Every kind, its summary figures, gates and tolerances are one record
each in ``BENCH_KINDS`` (:mod:`repro.eval.regression`); the tolerances
are constants there, not options.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

# Allow running as a plain script from the repository root.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro._exceptions import ParameterError  # noqa: E402
from repro.eval.regression import (  # noqa: E402
    append_history,
    check_history,
    history_path,
    load_history,
    summarize_benchmark,
)


def _load_doc(path: str) -> dict:
    with open(path, encoding="utf-8") as source:
        doc = json.load(source)
    if not isinstance(doc, dict) or "benchmark" not in doc:
        raise ParameterError(
            f"{path}: not a BENCH_*.json document (no 'benchmark' key)")
    return doc


def main(argv: "list[str] | None" = None) -> int:
    """Entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="bench_history",
        description="append BENCH_*.json results to benchmarks/history/ "
                    "and gate on the bench-kind records' tolerances")
    parser.add_argument("mode", choices=("append", "check", "gate"),
                        help="append only, check only, or append+check")
    parser.add_argument("bench", help="path to a BENCH_*.json document")
    parser.add_argument("--history-dir", default=None,
                        help="history directory "
                             "(default: benchmarks/history/)")
    args = parser.parse_args(argv)

    try:
        doc = _load_doc(args.bench)
        if args.mode == "append":
            path, summary = append_history(doc, args.history_dir)
            print(f"appended to {path}: {json.dumps(summary, sort_keys=True)}")
            return 0
        if args.mode == "check":
            path = history_path(str(doc["benchmark"]), args.history_dir)
            entries = load_history(path)
            entries.append(summarize_benchmark(doc))
        else:  # gate
            path, _ = append_history(doc, args.history_dir)
            entries = load_history(path)
        problems = check_history(entries)
    except ParameterError as exc:
        print(f"bench_history: {exc}", file=sys.stderr)
        return 2
    for problem in problems:
        print(f"REGRESSION: {problem}", file=sys.stderr)
    if problems:
        print(f"{len(problems)} regression(s) vs {path}", file=sys.stderr)
        return 1
    print(f"no regression vs {path} "
          f"({len(entries)} entr{'y' if len(entries) == 1 else 'ies'})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
