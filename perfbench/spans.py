"""Outside-in tracing of the fairnoise layers.

The package has no tracing of its own, so the benchmark wraps public
functions from outside. Modules import each other's functions by name
(``attacks`` holds its own reference to ``best_response``, ``calibration``
to ``pair_min_1d``, and so on), so every ``fairnoise.*`` module namespace
that holds an original gets the same wrapper, and ``Tracer.uninstall``
puts every original back.

Spans stay in memory as tuples. A layer's self time is its span's duration
minus the part of that interval its direct child spans cover. Spans opened
in a pool thread have no parent, so a caller's self time includes the time
it waited for the pool.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _cells(args, kwargs, result) -> int:
    return len(_arg(args, kwargs, 0, "stats_a")[0]) * len(_arg(args, kwargs, 2, "stats_b")[0])


def _options(args, kwargs, result) -> int:
    return len(_arg(args, kwargs, 0, "stat_a")) + len(_arg(args, kwargs, 2, "stat_b"))


def _atoms(args, kwargs, result) -> int:
    return len(result.atoms)


def _bytes(args, kwargs, result) -> int:
    return sum(path.stat().st_size for path in result)


# (layer, module, function names, work metric, work counter). A function
# missing from its module is skipped and its layer reports zero calls, so a
# later change may delete a layer without breaking the benchmark.
LAYERS = (
    ("repair.pair_min_2d", "repair", ("pair_min_2d",), "cells", _cells),
    ("repair.pair_min_1d", "repair", ("pair_min_1d",), "options", _options),
    ("repair.best_response", "repair", ("best_response",), None, None),
    ("repair.option_grid", "repair", ("option_grid",), None, None),
    ("repair.witness", "repair", ("dp_repair", "eopp_repair"), None, None),
    ("distributions.mix", "distributions", ("mix",), None, None),
    ("distributions.make_distribution", "distributions", ("make_distribution",), "atoms", _atoms),
    ("classifiers.group_stats", "classifiers", ("group_stats",), None, None),
    ("classifiers.error", "classifiers", ("error",), None, None),
    ("attacks.grid_worst_case", "attacks", ("grid_worst_case",), None, None),
    (
        "attacks.construct", "attacks",
        ("duplicate_flip_attack", "needle_eopp_attack", "tpr_shift_attack"), None, None,
    ),
    (
        "calibration.parity_calibration_attack_certify", "calibration",
        ("parity_calibration_attack_certify",), None, None,
    ),
    ("calibration.parity_calibration_check", "calibration", ("parity_calibration_check",), None, None),
    (
        "calibration.predictive_parity_attack_certify", "calibration",
        ("predictive_parity_attack_certify",), None, None,
    ),
    ("calibration.recalibrate_per_group", "calibration", ("recalibrate_per_group",), None, None),
    (
        "families.build", "families",
        (
            "dp_worked", "eopp_needle", "eodds_duplicate", "calibration_drift",
            "random_dp_instance", "random_eopp_instance", "random_contamination",
            "random_calibrated_instance",
        ),
        None, None,
    ),
    # an instance builder that lives in calibration
    ("families.build", "calibration", ("duplication_instance",), None, None),
    ("harness.run_sweep", "harness", ("run_sweep",), None, None),
    ("harness.fit_loglog", "harness", ("fit_loglog",), None, None),
    ("harness.write_report", "harness", ("write_report",), "bytes", _bytes),
    ("harness.certify_lower_bound", "harness", ("certify_lower_bound",), None, None),
    ("harness.minimax_demo", "harness", ("minimax_demo",), None, None),
)

# grid_worst_case.candidates: the best_response calls a grid_worst_case span
# makes, minus the one that computes the clean optimum
_SEARCH, _RESPONSE = "attacks.grid_worst_case", "repair.best_response"

# span tuple fields
SID, PARENT, NAME, ITEM, T0, T1, WORK = range(7)


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names: dict[str, None] = {}
    for layer, _, _, work, _ in LAYERS:
        for suffix in ("calls", "self_s", work):
            if suffix:
                names[f"{layer}.{suffix}"] = None
    names[f"{_SEARCH}.candidates"] = None
    return list(names)


class Tracer:
    """Patches the fairnoise layers and records one span per call."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.item = "setup"
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        wrappers: dict[int, tuple[object, object]] = {}
        for layer, module_name, functions, _, count in LAYERS:
            module = importlib.import_module(f"fairnoise.{module_name}")
            for fn_name in functions:
                original = getattr(module, fn_name, None)
                if original is not None:
                    wrappers[id(original)] = (original, self._wrap(layer, original, count))
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "fairnoise"]
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self.patched.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self.patched):
            setattr(module, attr, original)
        self.patched.clear()

    def _wrap(self, name: str, fn, count):
        spans, ids, local = self.spans, self._ids, self._local
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans.append((sid, parent, name, self.item, t0, clock(), 0))
                raise
            finally:
                stack.pop()
            t1 = clock()
            spans.append((sid, parent, name, self.item, t0, t1, count(args, kwargs, result) if count else 0))
            return result

        return traced


def covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]].append((span[T0], span[T1]))
    return {
        span[SID]: (span[T1] - span[T0]) - covered(span[T0], span[T1], children.get(span[SID], []))
        for span in spans
    }


def summarize(spans: list[tuple]) -> dict[str, float]:
    """Per-layer calls, summed self time and summed work counts."""
    out: dict[str, float] = {name: 0.0 if name.endswith("_s") else 0 for name in metric_names()}
    work_of = {layer: work for layer, _, _, work, _ in LAYERS if work}
    own = self_times(spans)
    responses: dict[int, int] = defaultdict(int)
    for span in spans:
        name = span[NAME]
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += own[span[SID]]
        if name in work_of:
            out[f"{name}.{work_of[name]}"] += span[WORK]
        if name == _RESPONSE and span[PARENT] is not None:
            responses[span[PARENT]] += 1
    for span in spans:
        if span[NAME] == _SEARCH:
            out[f"{_SEARCH}.candidates"] += responses[span[SID]] - 1
    return out
