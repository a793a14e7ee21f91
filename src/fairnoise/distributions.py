"""Exact finite-support joint distributions over (point, label, group).

Everything downstream (classifier statistics, attacks, repairs) is an exact
sum over atoms, so this module is the numerical foundation: masses are
doubles, every reduction uses ``math.fsum`` (compensated summation), and the
atom order is canonical so that equal distributions serialize identically.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from .errors import InputError, label, number, text

#: absolute tolerance for "sums to one" invariants
EQ_TOL = 1e-9
#: how far a caller-supplied total mass may be from 1 before we refuse
MASS_TOL = 1e-6


@dataclass(frozen=True)
class Atom:
    """One support point: a (point, label, group) cell carrying mass.

    Two atoms with the same point id but opposite labels may coexist; this
    is exactly how a duplication attack represents examples that are
    indistinguishable to any classifier.
    """

    point: str
    label: int
    group: str
    mass: float
    feature: float | None = None

    def __post_init__(self) -> None:
        label(self.label, "label")
        if not math.isfinite(self.mass) or self.mass < 0.0:
            raise InputError(f"atom mass must be finite and >= 0, got {self.mass!r}")

    @property
    def key(self) -> tuple[str, str, int]:
        return (self.group, self.point, self.label)


@dataclass(frozen=True)
class Distribution:
    """Immutable, normalized, canonically ordered finite distribution."""

    atoms: tuple[Atom, ...]
    groups: tuple[str, ...]

    @cached_property
    def mass_by_key(self) -> dict[tuple[str, str, int], float]:
        return {a.key: a.mass for a in self.atoms}

    def mass(self, point: str, label: int, group: str) -> float:
        return self.mass_by_key.get((group, point, label), 0.0)

    def group_mass(self, group: str) -> float:
        return math.fsum(a.mass for a in self.atoms if a.group == group)

    def positive_mass(self, group: str) -> float:
        return math.fsum(a.mass for a in self.atoms if a.group == group and a.label == 1)

    def support_points(self) -> list[tuple[str, str, float | None]]:
        """Distinct (group, point, feature) triples in canonical order."""
        seen: dict[tuple[str, str], float | None] = {}
        for a in self.atoms:
            seen.setdefault((a.group, a.point), a.feature)
        return [(g, p, f) for (g, p), f in sorted(seen.items())]

    def to_json_dict(self) -> dict:
        atoms = []
        for a in self.atoms:
            rec: dict = {"point": a.point, "label": a.label, "group": a.group, "mass": a.mass}
            if a.feature is not None:
                rec["feature"] = a.feature
            atoms.append(rec)
        return {"atoms": atoms, "groups": list(self.groups)}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2)

    @staticmethod
    def from_json_dict(doc: Mapping) -> "Distribution":
        atoms = [
            Atom(
                point=text(rec["point"], "atom point"),
                label=label(rec["label"], "atom label"),
                group=text(rec["group"], "atom group"),
                mass=number(rec["mass"], "atom mass"),
                feature=None if rec.get("feature") is None else number(rec["feature"], "atom feature"),
            )
            for rec in doc["atoms"]
        ]
        groups = [text(g, "group") for g in doc["groups"]] if "groups" in doc else None
        return make_distribution(atoms, groups=groups)


def make_distribution(atoms: Iterable[Atom], groups: Iterable[str] | None = None) -> Distribution:
    """Merge, validate, normalize, and canonically order a list of atoms.

    Duplicate (point, label, group) masses are summed. The total mass must
    be within ``MASS_TOL`` of 1; residual drift is renormalized away so the
    result sums to 1 exactly (in fsum arithmetic).
    """
    atoms = list(atoms)
    if not atoms:
        raise InputError("cannot build a distribution from an empty atom list")

    return _merged(((a.key, a.mass, a.feature) for a in atoms), groups)


def _merged(masses: Iterable[tuple], groups: Iterable[str] | None) -> Distribution:
    """The tail of :func:`make_distribution` on (key, mass, feature) triples
    of valid atoms: masses summed in order and the first non-None feature
    kept per (group, point, label) key, then normalized, canonically
    ordered and checked against ``groups``."""
    merged: dict[tuple[str, str, int], float] = {}
    features: dict[tuple[str, str, int], float | None] = {}
    for key, mass, feature in masses:
        merged[key] = merged.get(key, 0.0) + mass
        if features.get(key) is None:
            features[key] = feature

    total = math.fsum(merged.values())
    if abs(total - 1.0) > MASS_TOL:
        raise InputError(f"total mass {total!r} differs from 1 by more than {MASS_TOL}")

    canonical = tuple(
        Atom(point=p, label=y, group=g, mass=m / total, feature=features[(g, p, y)])
        for (g, p, y), m in sorted(merged.items())
    )

    present = sorted({a.group for a in canonical})
    if groups is None:
        group_tuple = tuple(present)
    else:
        group_tuple = tuple(groups)
        if len(set(group_tuple)) != len(group_tuple):
            raise InputError("group list contains duplicates")
        missing = set(present) - set(group_tuple)
        if missing:
            raise InputError(f"atoms reference groups not in group list: {sorted(missing)}")

    # An explicit group list may legitimately include groups the support
    # misses (e.g. a contamination targeting one group of a larger universe).
    return Distribution(atoms=canonical, groups=group_tuple)


def mix(dist: Distribution, contamination: Distribution, alpha: float) -> Distribution:
    """The corrupted distribution (1 - alpha) * dist + alpha * contamination."""
    alpha = number(alpha, "alpha")
    if not 0.0 <= alpha <= 1.0:
        raise InputError(f"alpha must be in [0, 1], got {alpha!r}")
    unknown = set(contamination.groups) - set(dist.groups)
    if unknown:
        raise InputError(f"contamination uses groups outside the base distribution: {sorted(unknown)}")
    # the scaled atoms, base distribution first: each mass is finite and >= 0
    scaled = ((a.key, w * a.mass, a.feature) for w, d in ((1.0 - alpha, dist), (alpha, contamination)) for a in d.atoms)
    return _merged(scaled, dist.groups)
