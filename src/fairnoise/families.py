"""Canonical instance families and seeded random instance generators.

The canonical families are the fixed constructions behind the regime
sweeps: one per accuracy-loss regime (linear, square-root, constant) plus
the calibration-drift family. The random generators build instances whose
fairness statistics are equal across groups by construction (realizability
is exact, not sampled), so the repair preconditions always hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .attacks import duplicate_flip_attack, tpr_shift_attack
from .calibration import BinnedPredictor
from .classifiers import BaseClassifier
from .distributions import Atom, Distribution, make_distribution, mix
from .errors import InputError, number


@dataclass(frozen=True)
class Instance:
    """A clean distribution, its contamination, the mixture, and the fair
    base classifier the instance was built around."""

    dist: Distribution
    contamination: Distribution
    corrupted: Distribution
    h_star: BaseClassifier


def _budget(alpha: object) -> float:
    """``alpha`` as a float in (0, 1)."""
    alpha = number(alpha, "alpha")
    if not 0.0 < alpha < 1.0:
        raise InputError(f"alpha must lie in (0, 1), got {alpha!r}")
    return alpha


def dp_worked(alpha: float) -> Instance:
    """Four equal atoms, two groups, a perfect base classifier, and the
    ``tpr_shift`` "raise" contamination: a point mass of positives on B's
    accepted point, which inflates group B's acceptance rate."""
    alpha = _budget(alpha)
    dist = make_distribution(
        [
            Atom("a1", 1, "A", 0.25),
            Atom("a2", 0, "A", 0.25),
            Atom("b1", 1, "B", 0.25),
            Atom("b2", 0, "B", 0.25),
        ]
    )
    h_star = BaseClassifier.from_table({"a1": 1, "a2": 0, "b1": 1, "b2": 0})
    return Instance(dist, *tpr_shift_attack(dist, h_star, "B", alpha, "raise"), h_star)


def eopp_needle(alpha: float) -> Instance:
    """The four-point square-root-group instance, its perfect base, and the
    needle contamination that forces sqrt(alpha) excess error under equal
    opportunity.

    The small group B holds sqrt(alpha) of the mass; the needle is the
    ``tpr_shift`` "lower" attack, which plants positive mass alpha on B's
    rejected point, where it ends up a
    2 sqrt(alpha) / ((1 - alpha) + 2 sqrt(alpha)) share of B's positives.
    """
    alpha = _budget(alpha)
    s = math.sqrt(alpha)
    dist = make_distribution(
        [
            Atom("x1", 1, "A", (1.0 - s) / 2.0),
            Atom("x2", 0, "A", (1.0 - s) / 2.0),
            Atom("x3", 1, "B", s / 2.0),
            Atom("x4", 0, "B", s / 2.0),
        ]
    )
    h_star = BaseClassifier.from_table({"x1": 1, "x2": 0, "x3": 1, "x4": 0})
    return Instance(dist, *tpr_shift_attack(dist, h_star, "B", alpha, "lower"), h_star)


def balanced_instance(r_b: float) -> tuple[Distribution, BaseClassifier]:
    """Two groups, each half positive, the small one of mass r_b, and the
    perfect base classifier."""
    r_b = number(r_b, "r_b")
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


def eodds_duplicate(alpha: float, r_b: float) -> Instance:
    """The balanced instance with group B's labels washed out by
    duplicate-flip, which needs alpha >= r_b / (1 + r_b)."""
    dist, h_star = balanced_instance(r_b)
    contamination, corrupted = duplicate_flip_attack(dist, "B", alpha)
    return Instance(dist, contamination, corrupted, h_star)


def calibration_drift(alpha: float) -> tuple[Distribution, Distribution, BinnedPredictor]:
    """Family whose recalibration value shift equals alpha exactly.

    Group A is a single all-positive point valued 1; the contamination
    injects the same point with label 0, so the recalibrated value moves by
    exactly alpha in corrupted mass. Group B is untouched padding.
    """
    alpha = _budget(alpha)
    dist = make_distribution(
        [
            Atom("a1", 1, "A", 0.5),
            Atom("b1", 1, "B", 0.25),
            Atom("b2", 0, "B", 0.25),
        ]
    )
    contamination = make_distribution([Atom("a1", 0, "A", 1.0)], groups=dist.groups)
    corrupted = mix(dist, contamination, alpha)
    predictor = BinnedPredictor(
        assignment={"a1": 0, "b1": 1, "b2": 2}, values={0: 1.0, 1: 1.0, 2: 0.0}
    )
    return dist, corrupted, predictor


# ---------------------------------------------------------------------------
# Random instance generators (all exact-realizability by construction)
# ---------------------------------------------------------------------------


def _split(rng: np.random.Generator, total: float, n: int) -> list[float]:
    """Split ``total`` into n random positive parts."""
    w = rng.dirichlet(np.ones(n))
    return [float(total * x) for x in w]


def random_dp_instance(rng: np.random.Generator, max_atoms: int = 32) -> tuple[Distribution, BaseClassifier]:
    """Random two-group distribution plus a base classifier whose
    positive-prediction rate is identical across groups by construction."""
    r_a = float(rng.uniform(0.2, 0.8))
    masses = {"A": r_a, "B": 1.0 - r_a}
    target_rate = float(rng.uniform(0.1, 0.9))
    per_group = max(2, max_atoms // 2)

    atoms: list[Atom] = []
    table: dict[str, int] = {}
    for g, r in masses.items():
        n_acc = int(rng.integers(1, per_group // 2 + 1))
        n_rej = int(rng.integers(1, per_group - n_acc + 1))
        for i, m in enumerate(_split(rng, target_rate * r, n_acc)):
            point = f"{g.lower()}_acc{i}"
            atoms.append(Atom(point, int(rng.integers(0, 2)), g, m))
            table[point] = 1
        for i, m in enumerate(_split(rng, (1.0 - target_rate) * r, n_rej)):
            point = f"{g.lower()}_rej{i}"
            atoms.append(Atom(point, int(rng.integers(0, 2)), g, m))
            table[point] = 0
    return make_distribution(atoms), BaseClassifier.from_table(table)


def random_eopp_instance(rng: np.random.Generator, max_atoms: int = 32) -> tuple[Distribution, BaseClassifier]:
    """Random two-group distribution plus a base classifier whose true
    positive rate is identical across groups by construction.

    Every group keeps strictly positive positive-mass so the corrupted
    mixture also has positives in each group for any alpha < 1. Each group
    needs room for up to four positive atoms plus one negative, so
    ``max_atoms`` must be at least 10.
    """
    if max_atoms < 10:
        raise InputError(f"max_atoms must be at least 10, got {max_atoms}")
    r_a = float(rng.uniform(0.2, 0.8))
    masses = {"A": r_a, "B": 1.0 - r_a}
    target_tpr = float(rng.uniform(0.1, 0.9))
    per_group = max(4, max_atoms // 2)

    atoms: list[Atom] = []
    table: dict[str, int] = {}
    for g, r in masses.items():
        pos_share = float(rng.uniform(0.3, 0.7))
        pos, neg = pos_share * r, (1.0 - pos_share) * r
        n_pa = int(rng.integers(1, 3))  # accepted positives
        n_pr = int(rng.integers(1, 3))  # rejected positives
        n_neg = int(rng.integers(1, per_group - n_pa - n_pr + 1))
        for i, m in enumerate(_split(rng, target_tpr * pos, n_pa)):
            point = f"{g.lower()}_pacc{i}"
            atoms.append(Atom(point, 1, g, m))
            table[point] = 1
        for i, m in enumerate(_split(rng, (1.0 - target_tpr) * pos, n_pr)):
            point = f"{g.lower()}_prej{i}"
            atoms.append(Atom(point, 1, g, m))
            table[point] = 0
        for i, m in enumerate(_split(rng, neg, n_neg)):
            point = f"{g.lower()}_neg{i}"
            atoms.append(Atom(point, 0, g, m))
            table[point] = int(rng.integers(0, 2))
    return make_distribution(atoms), BaseClassifier.from_table(table)

