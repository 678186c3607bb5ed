"""Benchmark launcher: ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1``, run from the repository root.

Each run starts fresh interpreters from ``src/`` with BLAS/OpenMP
threads pinned to 1: one set-up-only worker and then the measuring
worker, so ``setup_s`` (interpreter start to the first timed batch) is
the median of two set-ups.  ``--trace 1`` also times ``import repro``
with ``-X importtime`` in one more fresh interpreter.  Human-readable
lines come first; the last line of standard output is the JSON result
whose metric names and units are those declared in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("engine-d3", "network-mgdd", "supervised-d3")
SETUP_ONLY_RUNS = 1
SUBPACKAGES = ("apps", "core", "data", "detectors", "engine", "eval",
               "network", "obs", "streams")
#: Seconds a worker may take before it is killed; the whole run must end
#: within 180 s.
WORKER_TIMEOUT_S = 150


class BenchmarkError(RuntimeError):
    """A worker failed or printed something unexpected."""


def worker_env() -> "dict[str, str]":
    env = dict(os.environ)
    # Bytecode caches stay on, as in an installed program.  Only the
    # first set-up in a fresh checkout pays for compiling.
    for name in ("REPRO_TRACE", "REPRO_TRACE_FILE", "REPRO_SANITIZE",
                 "PYTHONDONTWRITEBYTECODE"):
        env.pop(name, None)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS", "NUMBA_NUM_THREADS"):
        env[name] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(argv: "list[str]", env: "dict[str, str]",
              timeout: float) -> "subprocess.CompletedProcess[str]":
    proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=timeout, check=False)
    if proc.returncode != 0:
        raise BenchmarkError(
            f"{' '.join(argv[1:3])} exited {proc.returncode}:\n"
            f"{proc.stderr[-2000:]}")
    return proc


def run_worker(mode: str, args: argparse.Namespace, env: "dict[str, str]",
               state_root: Path, deadline: float) -> "tuple[dict, float]":
    """Start one worker; return its JSON result and its set-up seconds."""
    argv = [sys.executable, str(HERE / "worker.py"), mode,
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--state-root", str(state_root)]
    started = time.monotonic()
    proc = run_child(argv, env, max(1.0, deadline - started))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, result["ready_monotonic"] - started


def import_breakdown(env: "dict[str, str]",
                     deadline: float) -> "dict[str, float]":
    """Cumulative import seconds of ``repro`` and each subpackage."""
    modules = ["repro"] + [f"repro.{name}" for name in SUBPACKAGES]
    proc = run_child([sys.executable, "-X", "importtime", "-c",
                      "import " + ", ".join(modules)], env,
                     max(1.0, deadline - time.monotonic()))
    cumulative: "dict[str, float]" = {}
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, total, name = (part.strip() for part in
                          line[len("import time:"):].split("|"))
        if name in modules and total.isdigit():
            cumulative[name] = int(total) / 1e6
    return {f"import.{name.rpartition('.')[2]}_s": cumulative.get(name, 0.0)
            for name in modules}


def fs_type(path: Path) -> str:
    """Filesystem type of the mount holding ``path``."""
    best, kind = "", "unknown"
    try:
        with open("/proc/self/mounts", encoding="utf-8") as mounts:
            for line in mounts:
                fields = line.split()
                if len(fields) > 2 and str(path).startswith(fields[1]) \
                        and len(fields[1]) > len(best):
                    best, kind = fields[1], fields[2]
    except OSError:
        pass
    return kind


def declared_metrics() -> "dict[str, dict[str, str]]":
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def quality(check: "dict[str, int]") -> "dict[str, float]":
    """Recall and precision against exact truth on the evaluation prefix."""
    return {
        "detector.recall":
            check["hits"] / check["true"] if check["true"] else 0.0,
        "detector.precision":
            check["hits"] / check["flags"] if check["flags"] else 0.0,
    }


def build_result(args: argparse.Namespace, raw: "dict[str, Any]",
                 setups: "list[float]",
                 imports: "dict[str, float]") -> "dict[str, Any]":
    """Turn worker measurements into the JSON result object."""
    check = raw["check"]
    values = dict(raw["metrics"])
    if args.trace:
        values.update(imports)
        values.update(quality(check))
        units = declared_metrics()["per_layer"]
    else:
        values.update({
            "setup_s": statistics.median(setups),
            "peak_rss_mb": raw["peak_rss_mb"],
            "state_words_per_stream": raw["state_words_per_stream"],
        })
        units = declared_metrics()["end_to_end"]
    if set(values) != set(units):
        raise BenchmarkError(
            f"emitted metrics differ from BENCHMARK.json: "
            f"{sorted(set(values) ^ set(units))}")
    correct = (check["mismatched"] == 0 and check["flags"] > 0
               and check["true"] > 0)
    return {"correct": correct, "attempted": check["compared"],
            "failed": check["mismatched"],
            "metrics": {name: {"value": values[name], "unit": units[name]}
                        for name in sorted(values)}}


def report(args: argparse.Namespace, raw: "dict[str, Any]",
           result: "dict[str, Any]", state_root: Path) -> None:
    check = raw["check"]
    fingerprint = {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": raw["numpy"], "backend": raw["backend"],
        "state_fs": fs_type(state_root), "platform": platform.platform()}
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print(f"# fingerprint {json.dumps(fingerprint, sort_keys=True)}")
    print(f"# timed batches={raw['batches']} readings={raw['readings']}; "
          f"evaluated on the first {raw['eval_batches']} batches: "
          f"flags={check['flags']} true={check['true']} "
          f"hits={check['hits']}")
    print(f"# error_rate={check['mismatched'] / max(1, check['compared'])} "
          f"({check['mismatched']} of {check['compared']} readings differ "
          f"from the reference path)")
    scores = quality(check)
    print(f"# recall={scores['detector.recall']:.4f} "
          f"precision={scores['detector.precision']:.4f}")
    for name, metric in result["metrics"].items():
        print(f"{name:36s} {metric['value']:>16.6g} {metric['unit']}")


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        description="Seeded closed-loop benchmark of the repro pipeline.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no program to benchmark under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + WORKER_TIMEOUT_S
    env = worker_env()
    state_root = ROOT / ".perfbench_state" / str(os.getpid())
    try:
        setups = [run_worker("setup", args, env, state_root, deadline)[1]
                  for _ in range(SETUP_ONLY_RUNS)]
        raw, setup = run_worker("run", args, env, state_root, deadline)
        setups.append(setup)
        imports = import_breakdown(env, deadline) if args.trace else {}
        result = build_result(args, raw, setups, imports)
        report(args, raw, result, state_root)
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        # A worker killed by the timeout leaves its state behind.
        shutil.rmtree(state_root, ignore_errors=True)
        with contextlib.suppress(OSError):
            state_root.parent.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
