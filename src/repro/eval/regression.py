"""Bench-kind records: every ``BENCH_*.json`` policy in one table.

Each bench kind (``repro bench-<kind>``) is one :class:`BenchKind`
record in :data:`BENCH_KINDS`.  The record is the only place that says,
for its kind:

* which history file it appends to (``benchmarks/history/<stem>.jsonl``);
* which summary figures a history line keeps, and how each is reduced
  over the document's cells;
* which columns the CLI prints;
* the **absolute** gate on a fresh document (the bench CLI exits 1 on
  any failure);
* the **relative** history gates -- a figure may not drop (or rise)
  more than a constant tolerance against the median of the prior
  entries, optionally counting only priors of the same compute backend
  (``repro.core.backend``) -- and the absolute conditions every latest
  history entry must meet (zero divergence, flags > 0, ...).

The shared functions below (:func:`summarize_benchmark`,
:func:`check_benchmark`, :func:`check_history`, :func:`check_baseline`,
:func:`format_benchmark`, :func:`write_benchmark`,
:func:`history_path`) read the record and never branch on the kind
themselves; adding a bench is adding a record.

A history with fewer than two entries always passes (nothing to
regress against), so fresh clones and first runs are never blocked.
``tools/bench_history.py`` is the CLI driving :func:`append_history`
and :func:`check_history` from CI.
"""

from __future__ import annotations

import json
import math
import string
from pathlib import Path
from types import MappingProxyType
from typing import Any, Callable, Mapping, NamedTuple, Sequence

from repro._artifacts import atomic_append_text, atomic_write_text
from repro._exceptions import ParameterError
from repro.eval.reporting import render_table

__all__ = ["BenchKind", "Field", "Gate", "Require", "BENCH_KINDS",
           "bench_kind", "summarize_benchmark", "check_benchmark",
           "check_baseline", "check_history", "format_benchmark",
           "write_benchmark", "history_path", "load_history",
           "append_history"]

#: Default location of the append-only per-benchmark histories.
DEFAULT_HISTORY_DIR = Path("benchmarks") / "history"

#: Tolerance of :func:`check_baseline`, which replaces every relative
#: gate's history tolerance: a reduced-workload CI run compared against
#: the committed full-workload artifact needs more slack than a
#: same-workload history entry.
BASELINE_TOLERANCE = 0.30

Doc = Mapping[str, Any]


class Field(NamedTuple):
    """One summary figure of a history line.

    ``reduce`` folds ``value(row)`` over the document's rows (a
    ``None`` value skips the row); with ``reduce=None``, ``value`` reads
    the whole document instead.  A ``required`` figure that reduces to
    ``None`` rejects the document.
    """

    name: str
    value: Callable[[Doc], Any]
    reduce: "Callable[[list[Any]], Any] | None" = None
    required: bool = False


class Gate(NamedTuple):
    """A relative history gate on one summary figure.

    ``direction`` is ``"drop"`` (the latest figure may not fall more
    than ``tolerance`` below the prior median) or ``"rise"``.
    """

    field: str
    direction: str
    tolerance: float
    same_backend: bool = False


class Require(NamedTuple):
    """An absolute condition on the latest history entry's ``field``."""

    field: str
    ok: Callable[[Any], bool]
    why: str


class BenchKind(NamedTuple):
    """Everything the bench tooling knows about one bench kind."""

    #: The ``"benchmark"`` stamp of the kind's documents.
    name: str
    #: ``benchmarks/history/<stem>.jsonl`` and ``bench.<stem>.*`` metrics.
    stem: str
    #: The document's rows (cells); raises on a malformed document.
    rows: Callable[[Doc], "list[Mapping[str, Any]]"]
    summary: "tuple[Field, ...]"
    #: ``(header, template)``: each template is formatted with a row's
    #: keys; a missing or ``None`` value prints as ``-``.
    columns: "tuple[tuple[str, str], ...]"
    #: Relative history gates on the latest entry.
    gates: "tuple[Gate, ...]"
    #: Absolute history conditions on the latest entry.
    requires: "tuple[Require, ...]" = ()
    #: Absolute gate on a fresh document; ``None`` = no such gate.
    check: "Callable[[Doc], list[str]] | None" = None
    #: Line printed under the table, formatted with the document's keys.
    footer: str = ""


def _median(values: "Sequence[float]") -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float))


# ---------------------------------------------------------------------------
# rows, summary values and reducers


def _listed(doc: Doc, key: str) -> "list[Mapping[str, Any]]":
    value = doc.get(key)
    if not isinstance(value, list) or not value:
        raise ParameterError(f"{doc.get('benchmark')} document lacks {key}")
    return value


def _cells(doc: Doc) -> "list[Mapping[str, Any]]":
    return _listed(doc, "cells")


def _throughput_rows(doc: Doc) -> "list[Mapping[str, Any]]":
    single = doc.get("single_node")
    network = doc.get("network")
    if not (isinstance(single, Mapping) and isinstance(network, Mapping)):
        raise ParameterError(
            "throughput document lacks single_node/network sections")
    return [dict(single, label="single node"),
            dict(network, label="d3 network")]


def _kernel_rows(doc: Doc) -> "list[Mapping[str, Any]]":
    return [dict(case, label=case["case"] + ("" if case["gated"] else " *"),
                 reference_ms=case["reference_s"] * 1e3,
                 backend_ms=case["backend_s"] * 1e3)
            for case in _listed(doc, "cases")]


def _doc_float(*path: str) -> Callable[[Doc], float]:
    def value(doc: Doc) -> float:
        node: Any = doc
        for key in path:
            node = node[key]
        return float(node)
    return value


def _int(key: str) -> Callable[[Doc], int]:
    return lambda row: int(row[key])


def _float(key: str) -> Callable[[Doc], float]:
    return lambda row: float(row[key])


def _optional(key: str, cast: Callable[[Any], Any]) -> Callable[[Doc], Any]:
    def value(row: Doc) -> Any:
        found = row.get(key)
        return cast(found) if _is_number(found) else None
    return value


def _is_faultfree(row: Doc) -> bool:
    return float(row["loss_rate"]) == 0.0 \
        and float(row["crash_fraction"]) == 0.0


def _faultfree(row: Doc) -> "float | None":
    return float(row["recall"]) if _is_faultfree(row) else None


def _faulted(row: Doc) -> "float | None":
    return None if _is_faultfree(row) else float(row["recall"])


def _conservation_failures(row: Doc) -> "int | None":
    failures = row.get("conservation_failures")
    return len(failures) if isinstance(failures, list) else None


def _min(values: "list[Any]") -> Any:
    return min(values, default=None)


def _max(values: "list[Any]") -> Any:
    return max(values, default=None)


def _mean(values: "list[Any]") -> "float | None":
    return sum(values) / len(values) if values else None


def _zero(value: object) -> bool:
    return isinstance(value, int) and value == 0


def _positive(value: object) -> bool:
    return isinstance(value, int) and value > 0


# ---------------------------------------------------------------------------
# absolute document gates


def _check_degradation(results: Doc) -> "list[str]":
    """Assert graceful degradation; return human-readable failures.

    Checks, per algorithm: (1) no recall cliff -- when the fault-free
    cell finds outliers, every faulted cell must still find *some*
    (recall > 0); (2) the conservation identity holds in every cell;
    (3) lossy cells actually exercised the transport (retransmissions
    observed).  Empty list = pass.
    """
    failures: "list[str]" = []
    cells = results["cells"]
    assert isinstance(cells, list)
    baselines = {cell["algorithm"]: cell for cell in cells
                 if cell["loss_rate"] == 0.0
                 and cell["crash_fraction"] == 0.0}
    for cell in cells:
        label = (f"{cell['algorithm']} loss={cell['loss_rate']} "
                 f"crash={cell['crash_fraction']}")
        network = cell["network"]
        assert isinstance(network, dict)
        if network["conservation_failures"]:
            failures.append(
                f"{label}: sent != delivered + dropped for "
                f"{network['conservation_failures']}")
        baseline = baselines.get(cell["algorithm"])
        if baseline is not None and baseline["recall"] > 0.0 \
                and cell["recall"] == 0.0:
            failures.append(
                f"{label}: recall cliffed to zero "
                f"(fault-free recall {baseline['recall']:.2f})")
        if cell["loss_rate"] > 0.0 \
                and network["transport"]["retransmissions"] == 0:
            failures.append(
                f"{label}: lossy link but no retransmissions recorded")
    return failures


def _check_recovery(results: Doc) -> "list[str]":
    """Assert the recovery contract; return human-readable failures.

    Checks, per cell: (1) **zero detection divergence** -- crashes must
    never change what gets flagged; (2) scheduled crashes actually
    fired; (3) replay stayed bounded by the checkpoint cadence (the
    whole point of cadenced checkpoints).  Empty list = pass.
    """
    failures: "list[str]" = []
    cells = results["cells"]
    assert isinstance(cells, list)
    for cell in cells:
        label = (f"{cell['algorithm']} crash_rate={cell['crash_rate']} "
                 f"cadence={cell['checkpoint_every']}")
        if cell["divergence"] != 0:
            failures.append(
                f"{label}: {cell['divergence']} detection(s) diverged from "
                f"the uninterrupted run (must be exactly 0)")
        if cell["n_recoveries"] != cell["n_crashes_scheduled"]:
            failures.append(
                f"{label}: {cell['n_recoveries']} recoveries for "
                f"{cell['n_crashes_scheduled']} scheduled crash(es)")
        if cell["max_replayed_ticks"] >= cell["checkpoint_every"]:
            failures.append(
                f"{label}: replayed {cell['max_replayed_ticks']} ticks in "
                f"one recovery, >= the cadence {cell['checkpoint_every']}")
    return failures


def _check_latency(results: Doc) -> "list[str]":
    """Assert the latency contract; return human-readable failures.

    Checks: (1) every recorded latency statistic is **non-negative** --
    a flag cannot precede its reading; (2) a lossless cell has zero
    worst-case latency (nothing delays a report when nothing is lost);
    (3) the sweep flagged *something* overall -- an all-empty grid
    measures nothing.  Empty list = pass.
    """
    failures: "list[str]" = []
    cells = results["cells"]
    assert isinstance(cells, list)
    total_flags = 0
    for cell in cells:
        label = (f"{cell['algorithm']} loss_rate={cell['loss_rate']} "
                 f"staleness={cell['staleness_horizon']}")
        total_flags += int(cell["n_flags"])
        for key in ("latency_p50", "latency_p99", "latency_max"):
            value = cell[key]
            if value is not None and value < 0:
                failures.append(
                    f"{label}: {key} is {value}, flags cannot precede "
                    f"their readings")
        worst = cell["latency_max"]
        if float(cell["loss_rate"]) == 0.0 \
                and worst is not None and worst != 0:
            failures.append(
                f"{label}: lossless cell reports latency_max={worst}, "
                f"expected 0 (nothing delays a report without loss)")
    if total_flags == 0:
        failures.append(
            "no cell flagged any detection; the sweep measured nothing")
    return failures


def _check_fleet(results: Doc) -> "list[str]":
    """Assert the fleet contract; return human-readable failures.

    Per cell: (1) zero detection divergence vs the single-process run;
    (2) the merged trace validates and balances the summed counters
    exactly; (3) every level-1 lineage record is complete and at least
    one spans >= 2 worker ids; (4) the cell actually flagged something.
    Empty list = pass.
    """
    failures: "list[str]" = []
    cells = results["cells"]
    assert isinstance(cells, list)
    for cell in cells:
        label = (f"workers={cell['n_workers']} "
                 f"loss={cell['loss_rate']}")
        if cell["divergence"] != 0:
            failures.append(
                f"{label}: {cell['divergence']} detection(s) diverged "
                "from the single-process run (must be exactly 0)")
        if cell["n_flags"] == 0:
            failures.append(f"{label}: the cell flagged nothing")
        if cell["n_sent"] != cell["n_delivered"] + cell["n_dropped"]:
            failures.append(
                f"{label}: sent {cell['n_sent']} != delivered "
                f"{cell['n_delivered']} + dropped {cell['n_dropped']}")
        if cell.get("n_crashes_scheduled", 0) != cell.get(
                "n_recoveries", 0):
            failures.append(
                f"{label}: {cell['n_recoveries']} recoveries for "
                f"{cell['n_crashes_scheduled']} scheduled crash(es)")
        if not cell.get("trace"):
            continue
        conservation = cell.get("conservation_failures")
        if conservation:
            failures.append(
                f"{label}: global conservation violated: {conservation}")
        if cell.get("schema_problems", 0) != 0:
            failures.append(
                f"{label}: merged trace has {cell['schema_problems']} "
                "schema problem(s)")
        if cell.get("n_level1_records", 0) != cell.get(
                "n_level1_complete", 0):
            failures.append(
                f"{label}: {cell['n_level1_records']} level-1 lineage "
                f"record(s) but only {cell['n_level1_complete']} complete")
        if cell.get("n_level1_records", 0) > 0 \
                and cell.get("n_cross_worker", 0) == 0:
            failures.append(
                f"{label}: no lineage record spans >= 2 worker ids")
        if cell.get("torn_spools", 0) != 0:
            failures.append(
                f"{label}: {cell['torn_spools']} spool(s) had torn tails")
    return failures


# ---------------------------------------------------------------------------
# the record table

#: The one list of bench kinds, their summaries, tables and gates.
BENCH_KINDS: "Mapping[str, BenchKind]" = MappingProxyType({
    kind.name: kind for kind in (
        BenchKind(
            name="ingest-throughput", stem="throughput", rows=_throughput_rows,
            summary=(
                Field("single_node_speedup", _doc_float("single_node", "speedup")),
                Field("network_speedup", _doc_float("network", "speedup")),
                Field("single_node_readings_per_sec",
                      _doc_float("single_node", "batched_readings_per_sec")),
                Field("network_readings_per_sec",
                      _doc_float("network", "batched_readings_per_sec")),
            ),
            columns=(("workload", "{label}"),
                     ("scalar rd/s", "{scalar_readings_per_sec:,.0f}"),
                     ("batched rd/s", "{batched_readings_per_sec:,.0f}"),
                     ("speedup", "{speedup:.1f}x")),
            gates=(Gate("single_node_speedup", "drop", 0.20, same_backend=True),
                   Gate("network_speedup", "drop", 0.20, same_backend=True)),
        ),
        BenchKind(
            name="resilience", stem="resilience", rows=_cells,
            summary=(
                Field("min_faultfree_recall", _faultfree, _min, required=True),
                Field("min_faulted_recall", _faulted, _min),
                Field("max_message_overhead", _float("message_overhead"), _max),
            ),
            columns=(("cell", "{algorithm} loss={loss_rate} "
                              "crash={crash_fraction}"),
                     ("precision", "{precision:.2f}"),
                     ("recall", "{recall:.2f}"),
                     ("sent", "{network[messages_sent]:,}"),
                     ("overhead", "{message_overhead:.2f}x"),
                     ("retx", "{network[transport][retransmissions]:,}")),
            gates=(Gate("min_faultfree_recall", "drop", 0.15),),
            # Whatever history says, (near) zero recall under faults is the
            # cliff the resilience layer exists to prevent.
            requires=(Require("min_faulted_recall",
                              lambda v: not _is_number(v) or v >= 0.10,
                              "below the recall-cliff floor 0.10"),),
            check=_check_degradation,
        ),
        BenchKind(
            name="kernels", stem="kernels", rows=_kernel_rows,
            summary=(
                Field("backend", lambda doc: str(doc.get("backend", "numpy"))),
                Field("min_speedup", _doc_float("min_speedup")),
                Field("max_abs_err", _doc_float("max_abs_err")),
            ),
            columns=(("case", "{label}"),
                     ("reference ms", "{reference_ms:,.1f}"),
                     ("backend ms", "{backend_ms:,.1f}"),
                     ("speedup", "{speedup:.1f}x"),
                     ("Mcells/s", "{backend_mcells_per_s:,.0f}"),
                     ("max |err|", "{max_abs_err:.1e}")),
            gates=(Gate("min_speedup", "drop", 0.20, same_backend=True),),
            footer="backend: {backend}   gated min speedup: {min_speedup:.1f}x"
                   "   (* = not gated)",
        ),
        BenchKind(
            name="recovery", stem="recovery", rows=_cells,
            summary=(
                Field("total_divergence", _int("divergence"), sum),
                Field("recovery_p99_s", _float("recovery_p99_s"), _max),
                Field("total_replayed_ticks", _int("replayed_ticks"), sum),
                Field("total_recoveries", _int("n_recoveries"), sum),
            ),
            columns=(("cell", "{algorithm} crash_rate={crash_rate} "
                              "cadence={checkpoint_every}"),
                     ("crashes", "{n_recoveries}"),
                     ("diverged", "{divergence}"),
                     ("p99 s", "{recovery_p99_s:.4f}"),
                     ("replayed", "{replayed_ticks}"),
                     ("chk bytes", "{max_checkpoint_bytes:,}")),
            # Loose: CI timing is noisy.  Correctness is the absolute
            # zero-divergence condition, never relative.
            gates=(Gate("recovery_p99_s", "rise", 1.0),),
            requires=(Require("total_divergence", _zero, "must be exactly 0"),),
            check=_check_recovery,
        ),
        BenchKind(
            name="latency", stem="latency", rows=_cells,
            summary=(
                Field("latency_p99_max", _optional("latency_p99", int), _max),
                Field("mean_words_per_detection",
                      _optional("words_per_detection", float), _mean),
                Field("total_flags", _int("n_flags"), sum),
                Field("min_recall_level1", _optional("recall_level1", float),
                      _min),
            ),
            columns=(("cell", "{algorithm} loss_rate={loss_rate} "
                              "staleness={staleness_horizon}"),
                     ("flags", "{n_flags}"),
                     ("p50", "{latency_p50}"),
                     ("p99", "{latency_p99}"),
                     ("max", "{latency_max}"),
                     ("words/flag", "{words_per_detection:.1f}"),
                     ("recall L1", "{recall_level1:.3f}")),
            # Tick latencies are deterministic, but grid tweaks legitimately
            # move them; an all-zero history has nothing to gate against.
            gates=(Gate("latency_p99_max", "rise", 1.0),),
            requires=(Require("total_flags", _positive,
                              "the sweep measured nothing"),),
            check=_check_latency,
        ),
        BenchKind(
            name="fleet", stem="fleet", rows=_cells,
            summary=(
                Field("total_divergence", _int("divergence"), sum),
                Field("total_conservation_failures", _conservation_failures,
                      sum),
                Field("total_flags", _int("n_flags"), sum),
                Field("total_cross_worker", _optional("n_cross_worker", int),
                      sum),
                Field("min_readings_per_sec", _float("readings_per_sec"), _min),
            ),
            columns=(("cell", "workers={n_workers} loss={loss_rate}"),
                     ("flags", "{n_flags}"),
                     ("diverged", "{divergence}"),
                     ("sent", "{n_sent}"),
                     ("dlvr", "{n_delivered}"),
                     ("drop", "{n_dropped}"),
                     ("xworker", "{n_cross_worker}"),
                     ("rd/s", "{readings_per_sec:,.0f}")),
            # Process spawn dominates the small pilot, so readings/sec is
            # gated loosely; the teeth are the absolute conditions.
            gates=(Gate("min_readings_per_sec", "drop", 0.75),),
            requires=(
                Require("total_divergence", _zero, "must be exactly 0"),
                Require("total_conservation_failures", _zero,
                        "must be exactly 0"),
                Require("total_flags", _positive, "the pilot measured nothing"),
                Require("total_cross_worker", _positive,
                        "no lineage record spans two workers"),
            ),
            check=_check_fleet,
        ),
    )})


def bench_kind(name: object) -> BenchKind:
    """The record of bench kind ``name``."""
    kind = BENCH_KINDS.get(name) if isinstance(name, str) else None
    if kind is None:
        raise ParameterError(
            f"unknown benchmark kind {name!r} "
            f"(expected one of {', '.join(map(repr, BENCH_KINDS))})")
    return kind


# ---------------------------------------------------------------------------
# shared functions


def summarize_benchmark(doc: Doc) -> "dict[str, object]":
    """One history line for a ``BENCH_*.json`` document.

    The summary keeps only the gated figures plus the provenance stamp;
    the full document stays in the artifact store, not the history.
    """
    kind = bench_kind(doc.get("benchmark"))
    meta = doc.get("meta")
    summary: "dict[str, object]" = {
        "benchmark": kind.name,
        "meta": dict(meta) if isinstance(meta, Mapping) else {},
    }
    rows = kind.rows(doc)
    for field in kind.summary:
        if field.reduce is None:
            value = field.value(doc)
        else:
            value = field.reduce(
                [v for v in map(field.value, rows) if v is not None])
        if value is None and field.required:
            raise ParameterError(
                f"{kind.name} document has no cells for {field.name}")
        summary[field.name] = value
    return summary


def check_benchmark(doc: Doc) -> "list[str]":
    """The kind's absolute gate on a fresh document; [] = pass."""
    check = bench_kind(doc.get("benchmark")).check
    return check(doc) if check is not None else []


class _RowFormatter(string.Formatter):
    """``str.format`` over a row where missing or ``None`` prints ``-``."""

    def get_value(self, key: "int | str", args: "Sequence[Any]",
                  kwargs: "Mapping[str, Any]") -> Any:
        return kwargs.get(key) if isinstance(key, str) else args[key]

    def format_field(self, value: Any, format_spec: str) -> str:
        return "-" if value is None else format(value, format_spec)


def format_benchmark(doc: Doc) -> str:
    """The document as the kind's aligned text table."""
    kind = bench_kind(doc.get("benchmark"))
    formatter = _RowFormatter()
    table = render_table(
        [header for header, _ in kind.columns],
        [[formatter.vformat(template, (), row)
          for _, template in kind.columns] for row in kind.rows(doc)])
    if kind.footer:
        table += "\n" + formatter.vformat(kind.footer, (), doc)
    return table


def write_benchmark(doc: Doc, path: "str | Path") -> Path:
    """Atomically write the result document as JSON; return the path."""
    return atomic_write_text(
        path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _entry_backend(entry: "Mapping[str, object]") -> str:
    """Compute backend an entry was produced with (pre-backend = numpy)."""
    backend = entry.get("backend")
    if isinstance(backend, str):
        return backend
    meta = entry.get("meta")
    if isinstance(meta, Mapping):
        from_meta = meta.get("backend")
        if isinstance(from_meta, str):
            return from_meta
    return "numpy"


def history_path(kind: str,
                 history_dir: "str | Path | None" = None) -> Path:
    """The history file for benchmark kind ``kind``."""
    base = Path(history_dir) if history_dir is not None \
        else DEFAULT_HISTORY_DIR
    return base / f"{bench_kind(kind).stem}.jsonl"


def _reject_constant(token: str) -> float:
    raise ValueError(f"non-finite number {token}")


def load_history(path: "str | Path") -> "list[dict[str, object]]":
    """All summary lines of a history file (empty when absent).

    ``NaN`` and ``Infinity`` tokens make a line malformed: a
    non-finite prior would silently disable every relative gate.
    """
    history_file = Path(path)
    if not history_file.exists():
        return []
    entries: "list[dict[str, object]]" = []
    for i, line in enumerate(
            history_file.read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        try:
            entry = json.loads(line, parse_constant=_reject_constant)
        except ValueError as exc:
            raise ParameterError(
                f"{history_file}:{i}: malformed history line: {exc}"
            ) from None
        if not isinstance(entry, dict):
            raise ParameterError(
                f"{history_file}:{i}: history line is not an object")
        entries.append(entry)
    return entries


def append_history(doc: Doc, history_dir: "str | Path | None" = None,
                   ) -> "tuple[Path, dict[str, object]]":
    """Summarise ``doc`` and append it to its history file.

    Returns the history path and the appended summary.  Re-appending
    the same git sha + seed + backend is skipped (CI retries must not
    inflate the history), signalled by returning the existing entry.
    """
    summary = summarize_benchmark(doc)
    path = history_path(str(doc["benchmark"]), history_dir)
    existing = load_history(path)
    meta = summary["meta"]
    assert isinstance(meta, dict)
    for entry in existing:
        prior = entry.get("meta")
        if (isinstance(prior, Mapping)
                and prior.get("git_sha") not in (None, "unknown")
                and prior.get("git_sha") == meta.get("git_sha")
                and prior.get("seed") == meta.get("seed")
                and _entry_backend(entry) == _entry_backend(summary)
                and entry.get("benchmark") == summary["benchmark"]):
            return path, entry
    path.parent.mkdir(parents=True, exist_ok=True)
    # Atomic read-modify-replace: a crash mid-append must not leave a
    # torn JSONL tail that poisons every later gate run.
    atomic_append_text(path, json.dumps(summary, sort_keys=True) + "\n")
    return path, summary


def _relative_problems(kind: BenchKind, latest: "Mapping[str, object]",
                       priors: "Sequence[Mapping[str, object]]",
                       tolerance: "float | None" = None) -> "list[str]":
    """Problems of ``kind``'s relative gates, latest vs prior median.

    ``tolerance`` replaces every gate's own tolerance when given.
    """
    problems: "list[str]" = []
    for gate in kind.gates:
        value = latest.get(gate.field)
        if not isinstance(value, (int, float)):
            continue
        if not math.isfinite(value):
            problems.append(f"{gate.field} is {value!r}, not a finite number")
            continue
        pool = [e for e in priors
                if _entry_backend(e) == _entry_backend(latest)] \
            if gate.same_backend else priors
        history = [float(e[gate.field])  # type: ignore[arg-type]
                   for e in pool if _is_number(e.get(gate.field))]
        if not history:
            continue
        baseline = _median(history)
        if baseline <= 0 or not math.isfinite(baseline):
            continue
        limit = gate.tolerance if tolerance is None else tolerance
        change = (value - baseline) / baseline
        if gate.direction == "drop":
            change = -change
        if change > limit:
            verb, sign = ("regressed", "<") if gate.direction == "drop" \
                else ("rose", ">")
            problems.append(
                f"{gate.field} {verb} {change:.1%} vs prior median "
                f"({value:.4g} {sign} {baseline:.4g}, tolerance {limit:.0%})")
    return problems


def check_history(entries: "Sequence[Mapping[str, object]]",
                  ) -> "list[str]":
    """Problems with the latest entry vs the prior median; [] = pass.

    Fewer than two entries always pass: regression is relative by
    definition.
    """
    if len(entries) < 2:
        return []
    latest = entries[-1]
    try:
        kind = bench_kind(latest.get("benchmark"))
    except ParameterError as exc:
        return [f"latest entry: {exc}"]
    problems = [f"{req.field} is {latest.get(req.field)!r}, {req.why}"
                for req in kind.requires if not req.ok(latest.get(req.field))]
    return problems + _relative_problems(kind, latest, entries[:-1])


def check_baseline(current: Doc, baseline: Doc) -> "list[str]":
    """Relative gates of a fresh document vs a committed baseline.

    Both documents are summarised and compared with
    :data:`BASELINE_TOLERANCE`; gates that count only same-backend
    priors skip a baseline from another backend.  [] = pass.
    """
    kind = bench_kind(current.get("benchmark"))
    return _relative_problems(kind, summarize_benchmark(current),
                              [summarize_benchmark(baseline)],
                              BASELINE_TOLERANCE)
