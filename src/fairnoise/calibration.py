"""Binned real-valued predictors, group-wise calibration error, per-group
recalibration, and the calibration-flavored attack certifiers."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .attacks import duplicate_flip_attack
from .classifiers import GAP_TOL, BaseClassifier, error_terms, mass_table
from .distributions import Atom, Distribution, make_distribution
from .errors import InputError
from .repair import option_grid, pair_min_1d


@dataclass(frozen=True)
class BinnedPredictor:
    """Assigns every point to a bin; each bin carries a value in [0, 1].

    Values may be shared across groups or group-specific. Group-specific
    values are what per-group recalibration produces: the same structural
    bin may predict differently for different groups.
    """

    assignment: Mapping[str, int]
    values: Mapping[int, float] = field(default_factory=dict)
    group_values: Mapping[str, Mapping[int, float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for source in [self.values, *self.group_values.values()]:
            for b, v in source.items():
                if not 0.0 <= v <= 1.0:
                    raise InputError(f"bin {b} value {v!r} outside [0, 1]")

    def bin_of(self, point: str) -> int:
        if point not in self.assignment:
            raise InputError(f"point {point!r} has no bin assignment")
        return self.assignment[point]

    def bin_value(self, bin_index: int, group: str) -> float:
        by_group = self.group_values.get(group)
        if by_group is not None and bin_index in by_group:
            return by_group[bin_index]
        if bin_index in self.values:
            return self.values[bin_index]
        raise InputError(f"bin {bin_index} has no value (group {group!r})")

    def value(self, point: str, group: str) -> float:
        return self.bin_value(self.bin_of(point), group)

    def to_json_dict(self) -> dict:
        bins: dict[int, dict] = {}
        for b, v in self.values.items():
            bins.setdefault(b, {"index": b})["value"] = v
        for g, by_bin in sorted(self.group_values.items()):
            for b, v in by_bin.items():
                bins.setdefault(b, {"index": b}).setdefault("values", {})[g] = v
        return {
            "bins": [bins[b] for b in sorted(bins)],
            "assignment": [
                {"point": p, "bin": b} for p, b in sorted(self.assignment.items())
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2)

    @staticmethod
    def from_json_dict(doc: Mapping) -> "BinnedPredictor":
        values: dict[int, float] = {}
        group_values: dict[str, dict[int, float]] = {}
        for rec in doc["bins"]:
            idx = int(rec["index"])
            if "value" in rec:
                values[idx] = float(rec["value"])
            for g, v in rec.get("values", {}).items():
                group_values.setdefault(str(g), {})[idx] = float(v)
        assignment = {str(rec["point"]): int(rec["bin"]) for rec in doc["assignment"]}
        return BinnedPredictor(assignment=assignment, values=values, group_values=group_values)

    @staticmethod
    def from_json(text: str) -> "BinnedPredictor":
        return BinnedPredictor.from_json_dict(json.loads(text))


@dataclass(frozen=True)
class CalibrationReport:
    """Exact occupancy, conditional mean, and gap per (group, bin) cell."""

    occupancy: dict[tuple[str, int], float]  # P[x in bin | group]
    conditional_mean: dict[tuple[str, int], float]
    cell_value: dict[tuple[str, int], float]
    max_gap: float
    max_gap_by_group: dict[str, float]
    weighted_l1_by_group: dict[str, float]
    weighted_l1: float  # joint-mass weighted over all cells


def calibration_report(h: BinnedPredictor, dist: Distribution) -> CalibrationReport:
    """Occupancies and conditional label means per (group, bin).

    Cells with no mass never appear, so they contribute no gap.
    """
    cell_mass: dict[tuple[str, int], float] = {}
    cell_pos: dict[tuple[str, int], float] = {}
    for a in dist.atoms:
        cell = (a.group, h.bin_of(a.point))
        cell_mass[cell] = cell_mass.get(cell, 0.0) + a.mass
        if a.label == 1:
            cell_pos[cell] = cell_pos.get(cell, 0.0) + a.mass

    occupancy: dict[tuple[str, int], float] = {}
    mean: dict[tuple[str, int], float] = {}
    value: dict[tuple[str, int], float] = {}
    gap_by_group = {g: 0.0 for g in dist.groups}
    wl1_by_group = {g: 0.0 for g in dist.groups}
    wl1_total = 0.0
    r = {g: dist.group_mass(g) for g in dist.groups}
    for (g, b), m in sorted(cell_mass.items()):
        occupancy[(g, b)] = m / r[g]
        mean[(g, b)] = cell_pos.get((g, b), 0.0) / m
        value[(g, b)] = h.bin_value(b, g)
        gap = abs(value[(g, b)] - mean[(g, b)])
        gap_by_group[g] = max(gap_by_group[g], gap)
        wl1_by_group[g] += occupancy[(g, b)] * gap
        wl1_total += m * gap
    return CalibrationReport(
        occupancy=occupancy,
        conditional_mean=mean,
        cell_value=value,
        max_gap=max(gap_by_group.values()) if gap_by_group else 0.0,
        max_gap_by_group=gap_by_group,
        weighted_l1_by_group=wl1_by_group,
        weighted_l1=wl1_total,
    )


def recalibrate_per_group(h_star: BinnedPredictor, corrupted: Distribution) -> BinnedPredictor:
    """Re-calibrate each group separately on the corrupted distribution.

    Bin assignments never change; each occupied (group, bin) cell gets the
    cell's conditional label mean as its new value, and empty cells keep
    the original value (no evidence to move them).
    """
    report = calibration_report(h_star, corrupted)
    group_values: dict[str, dict[int, float]] = {g: {} for g in corrupted.groups}
    all_bins = sorted(set(h_star.assignment.values()))
    for g in corrupted.groups:
        for b in all_bins:
            if (g, b) in report.conditional_mean:
                group_values[g][b] = report.conditional_mean[(g, b)]
            else:
                try:
                    group_values[g][b] = h_star.bin_value(b, g)
                except InputError:
                    pass  # bin never valued for this group and never occupied
    return BinnedPredictor(
        assignment=dict(h_star.assignment), values={}, group_values=group_values
    )


def value_shift(h1: BinnedPredictor, h2: BinnedPredictor, dist: Distribution) -> float:
    """Joint-mass weighted L1 distance between two predictors' values."""
    if dict(h1.assignment) != dict(h2.assignment):
        raise InputError("value_shift requires identical bin assignments")
    terms = [
        a.mass * abs(h1.value(a.point, a.group) - h2.value(a.point, a.group))
        for a in dist.atoms
    ]
    return math.fsum(terms)


def l1_error(h: BinnedPredictor, dist: Distribution) -> float:
    """Expected |y - predicted value| over the atoms."""
    return math.fsum(a.mass * abs(a.label - h.value(a.point, a.group)) for a in dist.atoms)


def parity_calibration_check(
    h: BinnedPredictor, dist: Distribution
) -> tuple[bool, float]:
    """(calibrated per group within 1e-9, max per-bin occupancy gap).

    Parity calibration holds iff both numbers are below 1e-9; a single-group
    distribution has occupancy gap 0 by convention.
    """
    report = calibration_report(h, dist)
    is_calibrated = report.max_gap <= GAP_TOL
    if len(dist.groups) < 2:
        return is_calibrated, 0.0
    bins = sorted({b for (_, b) in report.occupancy})
    gap = 0.0
    for b in bins:
        occ = [report.occupancy.get((g, b), 0.0) for g in dist.groups]
        gap = max(gap, max(occ) - min(occ))
    return is_calibrated, gap


# ---------------------------------------------------------------------------
# Attack certifiers
# ---------------------------------------------------------------------------


def balanced_instance(r_b: float) -> tuple[Distribution, BaseClassifier]:
    """Two groups, each half positive, the small one of mass r_b, and the
    perfect base classifier."""
    if not 0.0 < r_b < 1.0:
        raise InputError("r_b must lie in (0, 1)")
    r_a = 1.0 - r_b
    dist = make_distribution(
        [
            Atom("aP", 1, "A", r_a / 2.0),
            Atom("aN", 0, "A", r_a / 2.0),
            Atom("bP", 1, "B", r_b / 2.0),
            Atom("bN", 0, "B", r_b / 2.0),
        ]
    )
    return dist, BaseClassifier.from_table({"aP": 1, "aN": 0, "bP": 1, "bN": 0})


def duplication_instance(
    alpha: float, r_b: float
) -> tuple[Distribution, Distribution, dict[str, int]]:
    """The balanced instance with the small group's labels washed out by
    duplicate-flip; returns (clean, corrupted, perfect-table)."""
    dist, h = balanced_instance(r_b)
    _, corrupted = duplicate_flip_attack(dist, "B", alpha)
    return dist, corrupted, dict(h.table or {})


def predictive_parity_attack_certify(
    alpha: float, r_b: float | None = None, grid_n: int = 41
) -> float:
    """Minimum error on the clean distribution over randomized acceptance
    grids constrained to equal precision across groups.

    On the duplication instance the small group's precision is pinned at
    one half, so matching it forces near-coin-flip behavior on the large
    group. When the budget cannot wash the small group out, the corruption
    degrades to identity and the floor collapses toward zero.
    """
    if not 0.0 < alpha < 1.0:
        raise InputError("alpha must lie in (0, 1)")
    if r_b is None:
        r_b = 0.9 * alpha
    dist, h = balanced_instance(r_b)
    try:
        _, corrupted = duplicate_flip_attack(dist, "B", alpha)
    except InputError:
        corrupted = dist  # no-attack control: budget cannot wash the group out

    dirty, clean = mass_table(h, corrupted), mass_table(h, dist)
    uu, vv = option_grid(grid_n)
    tol = 2.0 / grid_n

    def group_arrays(group: str):
        c1p, c1n, c0p, c0n = dirty[group]
        accepted = uu * (c1p + c1n) + vv * (c0p + c0n)
        accepted_pos = uu * c1p + vv * c0p
        valid = accepted > 0.0  # precision requires some positive predictions
        ppv = np.where(valid, accepted_pos / np.where(valid, accepted, 1.0), np.nan)
        err = sum(error_terms(clean[group], uu, vv))
        return ppv[valid], err[valid]

    ppv_a, err_a = group_arrays("A")
    ppv_b, err_b = group_arrays("B")
    found = pair_min_1d(ppv_a, err_a, ppv_b, err_b, tol)
    if found is None:
        raise InputError("no grid point satisfies predictive parity; grid too coarse")
    return found[0]


def parity_calibration_attack_certify(
    alpha: float, r_b: float | None = None, value_grid_n: int = 11
) -> float:
    """Minimum clean L1 error over binned predictors that satisfy parity
    calibration on the duplication instance within 1e-9.

    Exhaustive over every assignment of the four support points to values on
    a uniform grid (value doubles as bin identity). One array pass over the
    (assignment, group, bin) cell masses keeps the assignments calibrated and
    occupancy-equal within a loose 1e-6, a superset of those passing at 1e-9;
    the exact :func:`parity_calibration_check` then decides each survivor.
    Washed-out labels force the small group into a one-half bin; parity then
    drags the large group into it too.
    """
    if r_b is None:
        r_b = 0.9 * alpha
    dist, corrupted, _ = duplication_instance(alpha, r_b)
    points = sorted({a.point for a in dist.atoms})
    values = np.linspace(0.0, 1.0, value_grid_n)

    groups = corrupted.groups
    mass = np.zeros((len(points), len(groups)))
    pos = np.zeros_like(mass)
    for a in corrupted.atoms:
        k, g = points.index(a.point), groups.index(a.group)
        mass[k, g] += a.mass
        pos[k, g] += a.mass * a.label
    shape = (len(values),) * len(points)
    bins = np.indices(shape).reshape(len(points), math.prod(shape))
    onehot = bins[:, :, None] == np.arange(len(values))  # (point, assignment, bin)
    cell = np.einsum("pnb,pg->ngb", onehot, mass)
    cell_pos = np.einsum("pnb,pg->ngb", onehot, pos)
    near_calibrated = (np.abs(values * cell - cell_pos) <= 1e-6 * cell).all(axis=(1, 2))
    occupancy = cell / np.array([corrupted.group_mass(g) for g in groups])[:, None]
    near_equal = (occupancy.max(axis=1) - occupancy.min(axis=1) <= 1e-6).all(axis=1)
    survivors = np.flatnonzero(near_calibrated & near_equal)

    floor = math.inf
    for n in survivors:
        assigned = bins[:, n]
        predictor = BinnedPredictor(
            assignment={p: int(b) for p, b in zip(points, assigned)},
            values={int(b): float(values[b]) for b in assigned},
        )
        calibrated, occupancy_gap = parity_calibration_check(predictor, corrupted)
        if calibrated and occupancy_gap <= GAP_TOL:
            floor = min(floor, l1_error(predictor, dist))
    if not math.isfinite(floor):
        raise InputError("no predictor on the value grid satisfies parity calibration")
    return floor
