"""Binned real-valued predictors, group-wise calibration error, per-group
recalibration, the parity-calibration check, and the parity-calibration
floor: the bin values it allows and the subset DP that finds its cheapest
binning."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

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

    Cells with no mass never appear, so they contribute no gap: atoms of
    mass 0 are skipped, and no cell or group is divided by 0.
    """
    cell_mass: dict[tuple[str, int], float] = {}
    cell_pos: dict[tuple[str, int], float] = {}
    for a in (atom for atom in dist.atoms if atom.mass > 0.0):
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


#: Most support points parity_calibration_attack_certify partitions into
#: bins: 2**13 - 1 bins valued and about 3**12 / 2 steps of its subset DP.
MAX_CALIBRATION_POINTS = 13
#: Every finite float is an int times 2**-1074, so clean error summed in
#: these units is exact; every float is below 2**1024, so no sum of fewer
#: than 2**100 of them reaches _INFEASIBLE, the cost of a rejected bin.
_UNIT, _INFEASIBLE = 1 << 1074, 1 << 2200


def parity_calibration_attack_certify(inst) -> tuple[int, int]:
    """Minimum clean L1 error over binned predictors that satisfy parity
    calibration on the corrupted distribution of ``inst`` (a
    :class:`families.Instance`) within GAP_TOL, as an exact (numerator,
    denominator) pair of ints.

    Exact over binned predictors with one value per bin: a binning is a set
    partition of the support points. A bin whose per-group occupancy
    differs by more than GAP_TOL rejects the partition. Calibration confines
    each bin's value to the window within GAP_TOL of every group's
    corrupted label mean there; clean error is linear in the value, so the
    better end of the window is optimal. A bin's acceptance, value and
    clean error read only its own points, so the floor is a min-cost set
    partition, f(S) = min over bins B holding S's first point of cost(B) +
    f(S - B), found by a DP over subsets. Each bin is valued once, on a
    two-bin predictor whose bin 1 holds it, and costs the exact sum, in
    ints, of the float terms of its clean L1 error; so the floor is the
    least such sum, and ``numerator / denominator``, that sum correctly
    rounded, is the least ``math.fsum`` of any partition's terms. On the
    duplication instance, washed-out labels give the small group one-half
    means; parity drags the large group into one bin with it, valued 1/2.
    More than MAX_CALIBRATION_POINTS points raise ``InputError`` before any
    bin is valued.
    """
    points = sorted({a.point for a in (*inst.dist.atoms, *inst.corrupted.atoms)})
    if len(points) > MAX_CALIBRATION_POINTS:
        raise InputError(f"{len(points)} points exceed parity calibration's cap of {MAX_CALIBRATION_POINTS}")
    # least[s], for the set s of the points[k] with bit k set, starts as the
    # cost of s as one bin
    least = [0] + [_INFEASIBLE] * ((1 << len(points)) - 1)
    for s in range(1, len(least)):
        assignment = {p: s >> k & 1 for k, p in enumerate(points)}
        report = calibration_report(BinnedPredictor(assignment, {0: 0.0, 1: 0.0}), inst.corrupted)
        atoms = [a for a in inst.dist.atoms if assignment[a.point]]
        slope = 0.0  # d(clean error) / d(bin value), summed left to right
        for a in atoms:
            slope += a.mass * (1 - 2 * a.label)
        v = calibrated_value(report, inst.corrupted.groups, 1, slope)
        if v is not None:
            least[s] = sum(p * _UNIT // q for p, q in (float.as_integer_ratio(a.mass * abs(a.label - v)) for a in atoms))
    # then, in place, the least cost of a partition of each set without
    # points[0], and of all points: the bin holding a set's first point
    # leaves such a set. A bin without points[0] is read at its own least
    # partition cost, which is no more than its cost as one bin and is a
    # partition's cost, so the minimum stays the same.
    for s in (*range(2, len(least) - 1, 2), len(least) - 1):
        rest = sub = s & (s - 1)  # s without its first point
        for _ in range(1 << rest.bit_count()):  # each subset of rest, as what that point's bin leaves
            least[s] = min(least[s], least[s ^ sub] + least[sub])
            sub = (sub - 1) & rest
    if least[-1] >= _INFEASIBLE:
        raise InputError("no predictor satisfies parity calibration on the corrupted distribution")
    return least[-1], _UNIT
