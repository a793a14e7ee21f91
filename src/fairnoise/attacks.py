"""Corruption strategies, the drift-bound checkers, and a brute-force
worst-case corruption search.

Every attack emits the contamination distribution Q together with the
corrupted mixture (1 - alpha) D + alpha Q, so tests can verify the total
variation budget directly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .classifiers import BaseClassifier, PQClassifier, as_pq, cell_index, error, group_stats, mass_table
from .distributions import Atom, Distribution, make_distribution, mix
from .errors import ContractError, InputError
from .repair import best_response, grid_classifier, grid_responses

IDENTITY_TOL = 1e-9


@dataclass(frozen=True)
class AttackSpec:
    """Serializable description of an adversary strategy."""

    kind: str
    alpha: float
    target_group: str | None = None
    parameters: Mapping[str, object] = field(default_factory=dict)

    KINDS = ("identity", "duplicate_flip", "needle_eopp", "tpr_shift", "grid_worst_case")

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise InputError(f"unknown attack kind {self.kind!r}")
        if not 0.0 <= self.alpha <= 1.0:
            raise InputError(f"alpha must be in [0, 1], got {self.alpha!r}")

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "alpha": self.alpha,
            "target_group": self.target_group,
            "parameters": dict(self.parameters),
        }


@dataclass(frozen=True)
class CorruptionDecomposition:
    """The bookkeeping quantities behind the drift bounds: corrupted mass per
    group, corrupted mass predicted positive, and corrupted positive mass
    predicted positive."""

    alpha: float
    alpha_z: dict[str, float]
    e_z: dict[str, float]
    e_z_plus: dict[str, float]

    def __post_init__(self) -> None:
        total = math.fsum(self.alpha_z.values())
        if abs(total - self.alpha) > IDENTITY_TOL:
            raise ContractError(f"group corruption masses sum to {total}, expected {self.alpha}")
        for g in self.alpha_z:
            if not -IDENTITY_TOL <= self.e_z[g] <= self.alpha_z[g] + IDENTITY_TOL:
                raise ContractError(f"E_{g} out of range")
            if not -IDENTITY_TOL <= self.e_z_plus[g] <= self.alpha_z[g] + IDENTITY_TOL:
                raise ContractError(f"E+_{g} out of range")


def drift_bound_dp(alpha: float, r_z: float) -> float:
    """Worst-case shift of a group's positive-prediction rate."""
    if not 0.0 <= alpha <= 1.0 or not 0.0 <= r_z <= 1.0:
        raise InputError("alpha and r_z must lie in [0, 1]")
    denom = (1.0 - alpha) * r_z + alpha
    return alpha / denom if denom > 0.0 else 0.0


#: The TPR drift bound is the rate bound with r_z+ in place of r_z.
drift_bound_tpr = drift_bound_dp


def duplicate_flip_attack(
    dist: Distribution, target_group: str, alpha: float
) -> tuple[Distribution, Distribution]:
    """Mirror every target-group example with the opposite label.

    In the corrupted mixture each target-group point carries equal mass on
    both labels, so its labels are information-theoretically washed out
    (conditional label mean exactly one half). Leftover budget duplicates
    other groups' atoms with unchanged labels, which adds no information.
    """
    if target_group not in dist.groups:
        raise InputError(f"group {target_group!r} not in {dist.groups}")
    if not 0.0 < alpha < 1.0:
        raise InputError("duplicate_flip needs alpha in (0, 1)")

    pair_mass: dict[str, dict[int, float]] = {}
    feature_of: dict[str, float | None] = {}
    for a in dist.atoms:
        if a.group != target_group:
            continue
        pair_mass.setdefault(a.point, {0: 0.0, 1: 0.0})[a.label] += a.mass
        feature_of.setdefault(a.point, a.feature)

    q_atoms: list[Atom] = []
    needed = 0.0
    for point, by_label in sorted(pair_mass.items()):
        imbalance = by_label[1] - by_label[0]
        if imbalance == 0.0:
            continue
        lighter = 0 if imbalance > 0 else 1
        q_mass = (1.0 - alpha) * abs(imbalance) / alpha
        q_atoms.append(Atom(point, lighter, target_group, q_mass, feature_of[point]))
        needed += q_mass

    if needed > 1.0 + 1e-12:
        total_imbalance = needed * alpha / (1.0 - alpha)
        required = total_imbalance / (1.0 + total_imbalance)
        raise InputError(
            f"corruption budget alpha={alpha} insufficient for duplicate_flip on "
            f"{target_group!r}; need alpha >= {required:.6f}"
        )

    leftover = 1.0 - needed
    if leftover > 1e-15:
        others = [a for a in dist.atoms if a.group != target_group]
        if others:
            other_mass = math.fsum(a.mass for a in others)
            q_atoms.extend(
                Atom(a.point, a.label, a.group, leftover * a.mass / other_mass, a.feature)
                for a in others
            )
        else:
            # single-group corner: pad with balanced pairs so labels stay washed out
            total = math.fsum(sum(m.values()) for m in pair_mass.values())
            for point, by_label in sorted(pair_mass.items()):
                share = leftover * sum(by_label.values()) / total
                q_atoms.append(Atom(point, 0, target_group, share / 2.0, feature_of[point]))
                q_atoms.append(Atom(point, 1, target_group, share / 2.0, feature_of[point]))

    contamination = make_distribution(q_atoms, groups=dist.groups if leftover > 1e-15 else None)
    return contamination, mix(dist, contamination, alpha)


@dataclass(frozen=True)
class NeedleInstance:
    """The four-point construction that forces sqrt(alpha) excess error
    under equal opportunity."""

    dist: Distribution
    contamination: Distribution
    corrupted: Distribution
    alpha: float
    alpha_prime: float


def needle_eopp_attack(alpha: float) -> NeedleInstance:
    """Canonical sqrt(alpha)-group instance plus its needle contamination.

    The small group holds sqrt(alpha) of the mass; the adversary plants
    positive mass alpha on the small group's rejected point, which ends up
    an alpha' = 2 sqrt(alpha) / ((1 - alpha) + 2 sqrt(alpha)) share of that
    group's positives.
    """
    if not 0.0 < alpha < 1.0:
        raise InputError("needle instance needs alpha in (0, 1)")
    s = math.sqrt(alpha)
    dist = make_distribution(
        [
            Atom("x1", 1, "A", (1.0 - s) / 2.0),
            Atom("x2", 0, "A", (1.0 - s) / 2.0),
            Atom("x3", 1, "B", s / 2.0),
            Atom("x4", 0, "B", s / 2.0),
        ]
    )
    contamination = make_distribution([Atom("x4", 1, "B", 1.0)], groups=dist.groups)
    corrupted = mix(dist, contamination, alpha)
    alpha_prime = 2.0 * s / ((1.0 - alpha) + 2.0 * s)
    return NeedleInstance(dist, contamination, corrupted, alpha, alpha_prime)


def tpr_shift_attack(
    dist: Distribution,
    h: BaseClassifier,
    target_group: str,
    alpha: float,
    direction: str,
) -> tuple[Distribution, Distribution]:
    """Point-mass positives planted where the classifier is most exposed.

    direction "raise" places positives at an accepted point of the target
    group, "lower" at a rejected one; either achieves the extremal TPR
    drift alpha / ((1 - alpha) r_z+ + alpha) when the base TPR sits at the
    matching extreme.
    """
    if direction not in ("raise", "lower"):
        raise InputError(f"direction must be 'raise' or 'lower', got {direction!r}")
    if target_group not in dist.groups:
        raise InputError(f"group {target_group!r} not in {dist.groups}")
    if dist.positive_mass(target_group) <= 0.0:
        raise InputError(f"group {target_group!r} has no positives")
    wanted = 1 if direction == "raise" else 0
    eligible = [
        (g, p, f)
        for (g, p, f) in dist.support_points()
        if g == target_group and h.predict(p, g, f) == wanted
    ]
    if not eligible:
        raise InputError(
            f"no point of group {target_group!r} is predicted {wanted} by the classifier"
        )
    g, point, feature = eligible[0]
    contamination = make_distribution([Atom(point, 1, g, 1.0, feature)], groups=dist.groups)
    return contamination, mix(dist, contamination, alpha)


def decompose_corruption(
    dist: Distribution,
    contamination: Distribution,
    alpha: float,
    h: BaseClassifier | PQClassifier,
) -> CorruptionDecomposition:
    """Compute (alpha_z, E_z, E_z+) and re-derive the rate-drift identity.

    The identity ties the corrupted positive-prediction rate to the clean
    one; it is asserted against direct evaluation on the mixture within
    1e-9, which is what makes this a checker rather than a formula.
    """
    pq = as_pq(h)
    table = mass_table(pq, contamination)
    alpha_z: dict[str, float] = {}
    e_z: dict[str, float] = {}
    e_z_plus: dict[str, float] = {}
    for g in dist.groups:
        m1p, m1n, m0p, m0n = table.get(g, (0.0, 0.0, 0.0, 0.0))
        u, v = pq.uv(g)
        alpha_z[g] = alpha * math.fsum((m1p, m1n, m0p, m0n))
        e_z[g] = alpha * math.fsum((u * m1p, u * m1n, v * m0p, v * m0n))
        e_z_plus[g] = alpha * math.fsum((u * m1p, v * m0p))

    corrupted = mix(dist, contamination, alpha)
    clean_stats = group_stats(h, dist)
    dirty_stats = group_stats(h, corrupted)
    for g in dist.groups:
        r = dist.group_mass(g)
        predicted = ((1.0 - alpha) * clean_stats.rate[g] * r + e_z[g]) / (
            (1.0 - alpha) * r + alpha_z[g]
        )
        if abs(predicted - dirty_stats.rate[g]) > IDENTITY_TOL:
            raise ContractError(
                f"drift identity violated for group {g!r}: predicted {predicted}, "
                f"measured {dirty_stats.rate[g]}"
            )
    return CorruptionDecomposition(alpha=alpha, alpha_z=alpha_z, e_z=e_z, e_z_plus=e_z_plus)


def _simplex_weights(k: int, resolution: int):
    """Positive weight vectors of length k on the 1/resolution grid."""
    for cuts in itertools.combinations(range(1, resolution), k - 1):
        edges = (0,) + cuts + (resolution,)
        weights = tuple((edges[i + 1] - edges[i]) / resolution for i in range(k))
        if all(w > 0.0 for w in weights):
            yield weights


#: Candidate contaminations per stacked best-response search: bounds the
#: search's temporaries, which set its peak memory.
_SEARCH_BLOCK = 32


def _contaminations(dist: Distribution, alpha: float, keys: list, resolution: int, max_mix_atoms: int):
    """The candidate contaminations of :func:`grid_worst_case`, in search
    order. Each is (columns of ``keys``, masses, build): the masses are the
    ones ``make_distribution`` normalizes its atoms to, and ``build()`` makes
    the Distribution itself, so that only the winner is ever built."""

    def mixture(combo: tuple[int, ...], weights: tuple[float, ...]):
        total = math.fsum(weights)
        return combo, [w / total for w in weights], lambda: make_distribution(
            [Atom(keys[c][1], keys[c][3], keys[c][0], w, keys[c][2]) for c, w in zip(combo, weights)],
            groups=dist.groups,
        )

    for c in range(len(keys)):
        yield mixture((c,), (1.0,))
    if 0.0 < alpha < 1.0:
        column = {(g, p, y): c for c, (g, p, _, y) in enumerate(keys)}
        for g in dist.groups:
            try:
                q, _ = duplicate_flip_attack(dist, g, alpha)
            except InputError:
                continue
            yield [column[a.key] for a in q.atoms], [a.mass for a in q.atoms], lambda q=q: q
    for k in range(2, min(max_mix_atoms, len(keys)) + 1):
        if len(keys) > 8 and k > 2:
            break  # keep the cubic enumeration desk-scale
        for combo in itertools.combinations(range(len(keys)), k):
            for weights in _simplex_weights(k, resolution):
                yield mixture(combo, weights)


def _cell_layout(h: BaseClassifier, dist: Distribution, keys: list) -> tuple[list[int], list[slice]]:
    """The key columns ordered cell by cell, group by group, and the slice of
    that order each (group, cell) takes. A key's cell is that of its atom in
    any mixture with ``dist``, whose atoms supply the feature where they have
    one."""
    base = as_pq(h).base
    feature = {a.key: a.feature for a in dist.atoms}
    by_cell: list[list[int]] = [[] for _ in range(4 * len(dist.groups))]
    for c, (g, p, f, y) in enumerate(keys):
        x = feature.get((g, p, y))
        by_cell[4 * dist.groups.index(g) + cell_index(base, p, g, f if x is None else x, y)].append(c)
    edges = list(itertools.accumulate((len(cols) for cols in by_cell), initial=0))
    return [c for cols in by_cell for c in cols], [slice(a, b) for a, b in zip(edges, edges[1:])]


def _corrupted_tables(
    dist: Distribution, alpha: float, keys: list, block: list, layouts: list
) -> list[dict[str, np.ndarray]]:
    """Per hypothesis layout, each group's corrupted mass-table cells for a
    block of candidate contaminations, one row each, in the arithmetic of
    ``mix``, ``make_distribution`` and ``mass_table``: per key
    (1 - alpha) m_D + alpha m_Q, divided by the row's fsum, then an fsum per
    cell. The affine mix of the clean and contamination tables is not
    bit-equal to this."""
    clean = np.array([dist.mass(p, y, g) for g, p, _, y in keys])
    contamination = np.zeros((len(block), len(keys)))
    for r, (cols, weights, _) in enumerate(block):
        contamination[r, cols] = weights
    mixed = (1.0 - alpha) * clean + alpha * contamination
    mixed /= np.array([math.fsum(row) for row in mixed.tolist()])[:, None]
    tables = []
    for order, cells in layouts:
        sums = np.array([[math.fsum(row[cell]) for cell in cells] for row in mixed[:, order].tolist()])
        tables.append({g: sums[:, 4 * i : 4 * i + 4] for i, g in enumerate(dist.groups)})
    return tables


def grid_worst_case(
    dist: Distribution,
    alpha: float,
    hypotheses: Sequence[BaseClassifier],
    notion: str,
    resolution: int = 10,
    grid_n: int = 21,
    max_mix_atoms: int = 3,
) -> tuple[Distribution, float]:
    """Search adversary strategies and return the one maximizing the
    learner's excess error under its best response.

    Candidates: every single-atom point mass on support x {0, 1}, the
    duplicate-flip attack per group where the budget suffices, and coarse
    simplex mixtures over up to ``max_mix_atoms`` support atoms. Ties break
    toward the lexicographically smallest contamination encoding.

    Candidates are generated lazily and searched ``_SEARCH_BLOCK`` at a time
    by one :func:`grid_responses` call that shares the clean side; the clean
    error of each distinct winning grid classifier is computed once. The
    result, and the error raised first in candidate order, are those of a
    :func:`best_response` call on each ``mix(dist, q, alpha)`` in turn.
    """
    if len(dist.atoms) > 64:
        raise InputError("grid_worst_case is a desk-scale certifier; use <= 64 atoms")
    if resolution < 2:
        raise InputError("resolution must be at least 2")

    keys = [
        (g, p, f, y) for (g, p, f) in dist.support_points() for y in (0, 1)
    ]
    opt = best_response(dist, dist, hypotheses, notion, grid_n=grid_n).error_on_original
    if not 0.0 <= alpha <= 1.0:
        raise InputError(f"alpha must be in [0, 1], got {alpha!r}")
    layouts = [_cell_layout(h, dist, keys) for h in hypotheses]

    def encode(cols, masses) -> tuple:
        return tuple((keys[c][0], keys[c][1], keys[c][3], round(m, 12)) for c, m in zip(cols, masses))

    errors: dict[tuple[int, int, int], float] = {}  # clean error of each winning grid classifier
    # best: a (columns, masses, build) candidate; best_code is made on its first tie
    best_excess, best, best_code = -math.inf, None, None
    candidates = _contaminations(dist, alpha, keys, resolution, max_mix_atoms)
    for block in iter(lambda: list(itertools.islice(candidates, _SEARCH_BLOCK)), []):
        tables = _corrupted_tables(dist, alpha, keys, block, layouts)
        responses = grid_responses(tables, dist, hypotheses, notion, grid_n)
        for candidate, (_, k, ia, ib) in zip(block, responses):
            if (k, ia, ib) not in errors:
                witness = grid_classifier(hypotheses[k], dist.groups, grid_n, ia, ib)
                errors[k, ia, ib] = error(witness, dist)
            excess = errors[k, ia, ib] - opt
            if excess > best_excess + 1e-12:
                best_excess, best, best_code = excess, candidate, None
            elif abs(excess - best_excess) <= 1e-12:
                if best_code is None:
                    best_code = encode(*best[:2])
                code = encode(*candidate[:2])
                if code < best_code:
                    best_excess, best, best_code = excess, candidate, code
    assert best is not None
    return best[2](), best_excess
