#!/usr/bin/env python3
"""Outside-in benchmark of fairnoise (stdlib only).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {certify,sweep,adversary} \\
        --seed N --seconds S --trace {0,1}

A pass runs the workload's fixed item list once in a fresh interpreter
(perfbench/worker.py), one client in a closed loop. The seed makes the
inputs; the same seed gives the same inputs in every pass. Passes repeat
until the next one would end after ``--seconds``; there is always at least
one.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (spawn until
fairnoise and fairnoise.cli are imported and the inputs exist; median over
the passes and a few set-up-only processes), ``wall_s`` (time to finish the
item list after set-up, median over passes), ``peak_rss_mb`` (median peak
resident memory of a pass) and ``passed_ratio`` (items whose output check
passed over items attempted).

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of perfbench/spans.py (medians over traced passes),
``cli.import_s``, the traced ``trace.wall_s`` and ``trace.overhead_s``
(traced minus untraced wall time).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the machine, the versions, the seed and ``host_probe_ms``, the time
of a fixed pure-Python loop after the passes, which shows how fast the host
ran (on shared hosts it drifts by up to 2x over minutes).
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("certify", "sweep", "adversary")
#: set-up-only processes per run, besides the set-up each pass measures
SETUP_PROBES = 9
#: every run must end well inside this many seconds
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def _spawn(args: argparse.Namespace, mode: str, deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = ROOT / ".perfbench_out" / f"{os.getpid()}"
    command = [sys.executable, str(WORKER), args.workload, str(args.seed), mode, str(out)]
    start = time.monotonic()
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - start),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} pass did not finish in time") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{mode} pass exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["setup_done"] - start
    result["elapsed_s"] = time.monotonic() - start
    return result


def _passes(args: argparse.Namespace, modes: tuple[str, ...], start: float) -> list[dict]:
    """Repeat the group of passes in ``modes`` while the next group fits."""
    deadline = start + RUN_LIMIT_S
    results: list[dict] = []
    while True:
        group = [_spawn(args, mode, deadline) for mode in modes]
        results.extend(group)
        if time.monotonic() + sum(r["elapsed_s"] for r in group) > start + args.seconds:
            return results


def _machine(args: argparse.Namespace) -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    # without its own .git, git would report the commit of an enclosing repository
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
            commit = proc.stdout.strip() or None
        except OSError:
            pass
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "host_probe_ms": _host_probe_ms(),
    }


def _host_probe_ms() -> float:
    """Median time of a fixed pure-Python loop, in ms. This host's speed drifts
    over minutes by more than the bounds, so each run records how fast it was."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(1_000_000):
            total += i * i
        times.append((time.perf_counter() - start) * 1000.0)
    return statistics.median(times)


def _counts(runs: list[dict]) -> tuple[int, int]:
    return sum(r["attempted"] for r in runs), sum(r["failed"] for r in runs)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _end_to_end(args: argparse.Namespace, start: float) -> tuple[list[dict], dict]:
    deadline = start + RUN_LIMIT_S
    _spawn(args, "setup", deadline)  # fills the bytecode caches; not counted
    probes = [_spawn(args, "setup", deadline) for _ in range(SETUP_PROBES)]
    runs = _passes(args, ("run",), start)
    attempted, failed = _counts(runs)
    return runs, {
        "setup_s": _metric(statistics.median(r["setup_s"] for r in probes + runs), "s"),
        "wall_s": _metric(statistics.median(r["wall_s"] for r in runs), "s"),
        "peak_rss_mb": _metric(statistics.median(r["peak_rss_mb"] for r in runs), "MB"),
        "passed_ratio": _metric((attempted - failed) / attempted, "ratio"),
    }


def _per_layer(args: argparse.Namespace, start: float) -> tuple[list[dict], dict]:
    _spawn(args, "setup", start + RUN_LIMIT_S)  # fills the bytecode caches; not counted
    runs = _passes(args, ("run", "trace"), start)
    traced = [r for r in runs if "layers" in r]
    untraced = [r for r in runs if "layers" not in r]
    units = {"_s": "s", "cells": "count", "options": "count", "atoms": "count", "bytes": "bytes"}
    metrics = {}
    for name in spans.metric_names() + ["cli.import_s"]:
        unit = next((u for suffix, u in units.items() if name.endswith(suffix)), "count")
        metrics[name] = _metric(statistics.median(r["layers"][name] for r in traced), unit)
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    metrics["trace.wall_s"] = _metric(traced_wall, "s")
    metrics["trace.overhead_s"] = _metric(
        traced_wall - statistics.median(r["wall_s"] for r in untraced), "s"
    )
    return runs, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    start = time.monotonic()
    if not (ROOT / "src" / "fairnoise" / "__init__.py").is_file():
        print(f"perfbench: no fairnoise source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        runs, metrics = (_per_layer if args.trace else _end_to_end)(args, start)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    attempted, failed = _counts(runs)
    print(json.dumps({"info": dict(_machine(args), passes=len(runs))}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
