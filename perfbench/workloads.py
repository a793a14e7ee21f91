"""The benchmark's workloads: inputs made from a seed, the fixed item list
of one pass, and the check on each item's output.

A failed check or an exception counts as one failed item; the pass goes on.
Checks test the properties the package claims, never golden values, so a
sounder floor may move a number without failing its item.
"""

from __future__ import annotations

import json
import math
import random
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from fairnoise import attacks, distributions, families, harness, repair


class CheckFailed(Exception):
    """An item's output does not have the property the package claims."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Item:
    name: str
    compute: Callable[[Path], object]  # gets a scratch directory of its own
    check: Callable[[object], None]


def run_items(items: list[Item], out: Path, tracer=None) -> tuple[int, int]:
    """Run every item once; return (attempted, failed)."""
    failed = 0
    for index, item in enumerate(items):
        if tracer is not None:
            tracer.item = item.name
        try:
            item.check(item.compute(out / f"item{index}"))
        except Exception:
            failed += 1
            print(f"item {item.name} failed:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
    return len(items), failed


# ---------------------------------------------------------------------------
# certify: the lower-bound run of scripts/certify_bounds.py. The inputs are
# fixed because these alphas are the certified claims; they are copied here
# so that the workload does not change when the script does.
# ---------------------------------------------------------------------------

# (notion, alpha, acceptance threshold on the floor)
CERTIFY = (
    ("eopp", 0.04, 0.09),
    ("eopp", 0.01, 0.04),
    ("eodds", 0.1, 0.44),
    ("predictive_parity", 0.1, 0.2),
    ("parity_calibration", 0.1, 0.2),
)


def _certify_item(notion: str, alpha: float, threshold: float) -> Item:
    def check(result) -> None:
        floor, claimed, ok = result
        _require(ok, f"{notion} floor {floor} fails claim {claimed}")
        _require(floor >= threshold, f"{notion} floor {floor} below {threshold}")

    return Item(
        f"certify:{notion}@{alpha}",
        lambda out: harness.certify_lower_bound(notion, alpha, grid_n=201),
        check,
    )


def _check_minimax(report) -> None:
    _require(report.max_group_error >= 0.45, f"minimax worst group {report.max_group_error} < 0.45")
    _require(report.opt_clean == 0.0, f"minimax opt_clean {report.opt_clean} != 0")


def certify_items(seed: int) -> list[Item]:
    items = [_certify_item(*row) for row in CERTIFY]
    items.append(
        Item(
            "certify:minimax@0.1",
            lambda out: harness.minimax_demo(0.1, gamma=0.1, grid_n=101),
            _check_minimax,
        )
    )
    return items


# ---------------------------------------------------------------------------
# sweep: seeded alpha-sweeps over the four canonical families at grid 41,
# each run serially and on two threads, each report written in all formats.
# ---------------------------------------------------------------------------

# family -> (notion, alpha range of scripts/run_all_sweeps.py, regime verdict)
SWEEP_FAMILIES = {
    "dp_worked": ("dp", 0.01, 0.08, "linear"),
    "calibration_drift": ("calibration", 0.01, 0.08, "linear"),
    "eopp_needle": ("eopp", 0.0025, 0.09, "sqrt"),
    "eodds_duplicate": ("eodds", 0.05, 0.2, "constant"),
}
#: every pass has the same number of sweeps of each length, so the work of a
#: pass does not depend on the seed
SWEEP_LENGTHS = (3, 4, 5)
SWEEP_REPEATS = 5
SWEEP_GRID = 41


def sweep_alphas(rng: random.Random, lo: float, hi: float, k: int) -> tuple[float, ...]:
    """k sorted alphas, log-uniform within [lo, hi], one in each of k equal
    log-width strata. Unstratified draws may all land in one narrow band,
    where the log-log slope of a linear regime is not yet 1 and the verdict
    is legitimately ``unclassified``."""
    width = (math.log(hi) - math.log(lo)) / k
    return tuple(math.exp(math.log(lo) + (i + rng.random()) * width) for i in range(k))


def _report_files(report, out: Path) -> dict[str, bytes]:
    paths = harness.write_report(report, out, ("json", "csv", "svg"))
    return {path.name: path.read_bytes() for path in paths}


def _sweep_item(index: int, family: str, alphas: tuple[float, ...]) -> Item:
    notion, _, _, verdict = SWEEP_FAMILIES[family]
    configs = [
        harness.ExperimentConfig(
            family=family, notion=notion, alphas=alphas, grid_n=SWEEP_GRID, jobs=jobs
        )
        for jobs in (1, 2)
    ]

    def compute(out: Path):
        runs = []
        for config in configs:
            report = harness.run_sweep(config)
            runs.append((report.verdict, _report_files(report, out / f"jobs{config.jobs}")))
        return runs

    def check(runs) -> None:
        (serial_verdict, serial), (parallel_verdict, parallel) = runs
        _require(serial_verdict == verdict, f"{family} verdict {serial_verdict}, expected {verdict}")
        _require(parallel_verdict == verdict, f"{family} jobs=2 verdict {parallel_verdict}")
        _require(serial.keys() == parallel.keys(), "jobs=1 and jobs=2 wrote different files")
        for name in serial:
            if name == "report.json":
                # the config records jobs (and its hash covers it); all else must match
                a, b = json.loads(serial[name]), json.loads(parallel[name])
                for doc in (a, b):
                    doc["config"].pop("jobs")
                    doc.pop("config_sha256")
                _require(a == b, f"{family} report.json differs between jobs=1 and jobs=2")
            else:
                _require(serial[name] == parallel[name], f"{family} {name} differs between jobs=1 and jobs=2")

    return Item(f"sweep:{index}:{family}:{len(alphas)}", compute, check)


def sweep_items(seed: int) -> list[Item]:
    rng = random.Random(seed)
    items = []
    for _ in range(SWEEP_REPEATS):
        for family, (_, lo, hi, _) in SWEEP_FAMILIES.items():
            for k in SWEEP_LENGTHS:
                items.append(_sweep_item(len(items), family, sweep_alphas(rng, lo, hi, k)))
    return items


# ---------------------------------------------------------------------------
# adversary: grid_worst_case on seeded two-group instances. Thousands of tiny
# best responses, so per-call overhead dominates and the 2-D scan never runs.
# ---------------------------------------------------------------------------

#: (notion, atoms): each pass searches one instance of each size per notion,
#: since a search's cost is set by the number of atoms
ADVERSARY_STRATA = tuple((notion, n) for notion in ("eopp", "dp") for n in (7, 9, 11))
ADVERSARY_MAX_ATOMS = 12
ADVERSARY_RESOLUTION = 10
ADVERSARY_GRID = 21


def _instance(rng: np.random.Generator, notion: str, n_atoms: int):
    generate = families.random_eopp_instance if notion == "eopp" else families.random_dp_instance
    for _ in range(1000):
        dist, h = generate(rng, max_atoms=ADVERSARY_MAX_ATOMS)
        if len(dist.atoms) == n_atoms:
            return dist, h
    raise RuntimeError(f"no {notion} instance with {n_atoms} atoms in 1000 draws")


def check_adversary(dist, h, notion: str, alpha: float, result) -> None:
    """The contamination is a distribution on the instance's support, and a
    fresh best response to it reproduces the reported excess exactly."""
    q, excess = result
    _require(q.groups == dist.groups, f"contamination groups {q.groups} != {dist.groups}")
    support = {(g, p) for g, p, _ in dist.support_points()}
    _require(all((a.group, a.point) in support for a in q.atoms), "contamination leaves the support")
    _require(all(a.mass >= 0.0 for a in q.atoms), "negative contamination mass")
    total = math.fsum(a.mass for a in q.atoms)
    _require(abs(total - 1.0) <= distributions.EQ_TOL, f"contamination mass {total} != 1")
    corrupted = distributions.mix(dist, q, alpha)
    response = repair.best_response(corrupted, dist, [h], notion, grid_n=ADVERSARY_GRID)
    opt = repair.best_response(dist, dist, [h], notion, grid_n=ADVERSARY_GRID)
    again = response.error_on_original - opt.error_on_original
    _require(again == excess, f"best response gives excess {again!r}, search reported {excess!r}")


def _adversary_item(index: int, dist, h, notion: str, alpha: float) -> Item:
    return Item(
        f"adversary:{index}:{notion}:{len(dist.atoms)}",
        lambda out: attacks.grid_worst_case(
            dist, alpha, [h], notion, resolution=ADVERSARY_RESOLUTION, grid_n=ADVERSARY_GRID
        ),
        lambda result: check_adversary(dist, h, notion, alpha, result),
    )


def adversary_items(seed: int) -> list[Item]:
    rng = np.random.default_rng(seed)
    items = []
    for notion, n_atoms in ADVERSARY_STRATA:
        dist, h = _instance(rng, notion, n_atoms)
        alpha = float(rng.uniform(0.01, 0.2))
        items.append(_adversary_item(len(items), dist, h, notion, alpha))
    return items


WORKLOADS = {"certify": certify_items, "sweep": sweep_items, "adversary": adversary_items}
