"""Binned real-valued predictors, group-wise calibration error, per-group
recalibration, the parity-calibration check, and the parity-calibration
floor with the binnings and bin values it searches."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Mapping

from .classifiers import GAP_TOL
from .distributions import Distribution
from .errors import InputError


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


@dataclass(frozen=True)
class CalibrationReport:
    """Exact occupancy and conditional mean per (group, bin) cell, and the
    largest gap between a cell's value and its mean."""

    occupancy: dict[tuple[str, int], float]  # P[x in bin | group]
    conditional_mean: dict[tuple[str, int], float]
    max_gap: float


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
    max_gap = 0.0
    r = {g: dist.group_mass(g) for g in dist.groups}
    for (g, b), m in sorted(cell_mass.items()):
        occupancy[(g, b)] = m / r[g]
        mean[(g, b)] = cell_pos.get((g, b), 0.0) / m
        max_gap = max(max_gap, abs(h.bin_value(b, g) - mean[(g, b)]))
    return CalibrationReport(occupancy=occupancy, conditional_mean=mean, max_gap=max_gap)


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


def binnings(n: int) -> Iterator[tuple[int, ...]]:
    """Every binning of n ordered points, one per set partition, as a
    restricted growth string: point k joins a bin opened before it or opens
    the next one. Lazy, so memory stays O(n) however many there are."""
    if n == 0:
        return iter([()])
    return (code + (b,) for code in binnings(n - 1) for b in range(max(code, default=-1) + 2))


def calibrated_value(report: CalibrationReport, groups: tuple[str, ...], b: int, slope: float) -> float | None:
    """Bin b's value: inside [0, 1] and within GAP_TOL of each group's
    corrupted label mean in the bin, at the end of that window that clean
    error (``slope`` per unit of value) prefers, or the means' midpoint at
    slope 0. None when the groups' occupancy of the bin differs by more than
    GAP_TOL or no value fits the window."""
    occupancy = [report.occupancy.get((g, b), 0.0) for g in groups]
    means = [m for (_, c), m in report.conditional_mean.items() if c == b]
    mid = (min(means) + max(means)) / 2.0 if means else 0.5
    if max(occupancy) - min(occupancy) > GAP_TOL or any(abs(mid - m) > GAP_TOL for m in means):
        return None
    ends = (max([0.0, *(m - GAP_TOL for m in means)]), min([1.0, *(m + GAP_TOL for m in means)]))
    v = min((mid, *ends), key=lambda x: slope * x)
    while any(abs(v - m) > GAP_TOL for m in means):  # rounding can leave an end an ulp outside
        v = math.nextafter(v, mid)
    return v


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


#: Most support points parity_calibration_attack_certify enumerates the set
#: partitions of: Bell(10) = 115,975 candidate binnings.
MAX_CALIBRATION_POINTS = 10


def parity_calibration_attack_certify(inst) -> float:
    """Minimum clean L1 error over binned predictors that satisfy parity
    calibration on the corrupted distribution of ``inst`` (a
    :class:`families.Instance`) within GAP_TOL.

    Exact over binned predictors with one value per bin: a binning is a set
    partition of the support points, and every one is enumerated. A bin
    whose per-group occupancy differs by more than GAP_TOL rejects the
    partition. Calibration confines each bin's value to the window within
    GAP_TOL of every group's corrupted label mean there; clean error is
    linear in the value, so the better end of the window is optimal. On
    the duplication instance, washed-out labels give the small group
    one-half means; parity drags the large group into one bin with it,
    valued 1/2. More than MAX_CALIBRATION_POINTS points raise ``InputError``
    before any enumeration.
    """
    dist, corrupted = inst.dist, inst.corrupted
    points = sorted({a.point for a in (*dist.atoms, *corrupted.atoms)})
    if len(points) > MAX_CALIBRATION_POINTS:
        raise InputError(f"{len(points)} points exceed parity calibration's cap of {MAX_CALIBRATION_POINTS}")
    floor = math.inf
    for code in binnings(len(points)):
        assignment = dict(zip(points, code))
        report = calibration_report(BinnedPredictor(assignment, dict.fromkeys(code, 0.0)), corrupted)
        slope = dict.fromkeys(code, 0.0)  # d(clean error) / d(bin value)
        for a in dist.atoms:
            slope[assignment[a.point]] += a.mass * (1 - 2 * a.label)
        values = {b: calibrated_value(report, corrupted.groups, b, slope[b]) for b in slope}
        # calibrated_value enforces both windows, occupancy and calibration,
        # so every candidate it values passes parity_calibration_check
        if None not in values.values():
            floor = min(floor, l1_error(BinnedPredictor(assignment, values), dist))
    if not math.isfinite(floor):
        raise InputError("no predictor satisfies parity calibration on the corrupted distribution")
    return floor
