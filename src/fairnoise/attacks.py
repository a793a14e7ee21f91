"""Corruption strategies and a brute-force worst-case corruption search.

Every attack emits the contamination distribution Q together with the
corrupted mixture (1 - alpha) D + alpha Q, so tests can verify the total
variation budget directly.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Sequence

import numpy as np

from .classifiers import BaseClassifier, as_pq, cell_index, error
from .distributions import Atom, Distribution, make_distribution, mix
from .errors import InputError, integer, number
from .repair import best_response, grid_responses, grid_size, option_classifier, statistic_inputs


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
    alpha = number(alpha, "alpha")
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


def _simplex_weights(k: int, resolution: int):
    """Positive weight vectors of length k on the 1/resolution grid: the
    cuts strictly increase, so every weight is at least 1/resolution."""
    for cuts in itertools.combinations(range(1, resolution), k - 1):
        edges = (0,) + cuts + (resolution,)
        yield tuple((edges[i + 1] - edges[i]) / resolution for i in range(k))


#: Most support atoms a simplex-mixture candidate of grid_worst_case spreads
#: its mass over.
MAX_MIX_ATOMS = 3
#: Unseen statistic inputs per stacked best-response search: bounds the
#: search's temporaries, which set its peak memory.
_SEARCH_BLOCK = 32
#: Candidates whose corrupted tables are built together. Each chunk's
#: unseen inputs are all searched before the next chunk is built, so the
#: candidates held between searches stay bounded; a larger chunk leaves
#: fewer part-filled searches but raises peak memory.
_TABLE_CHUNK = 256


def _contaminations(dist: Distribution, alpha: float, keys: list, resolution: int):
    """The candidate contaminations of :func:`grid_worst_case`, in search
    order. Each is (columns of ``keys``, masses, build): the masses are the
    ones ``make_distribution`` normalizes its atoms to, and ``build()`` makes
    the Distribution itself, so that only the winner is ever built."""

    def build(combo: tuple[int, ...], weights: tuple[float, ...]) -> Distribution:
        return make_distribution(
            [Atom(keys[c][1], keys[c][3], keys[c][0], w, keys[c][2]) for c, w in zip(combo, weights)],
            groups=dist.groups,
        )

    for c in range(len(keys)):
        yield (c,), (1.0,), functools.partial(build, (c,), (1.0,))
    if 0.0 < alpha < 1.0:
        column = {(g, p, y): c for c, (g, p, _, y) in enumerate(keys)}
        for g in dist.groups:
            try:
                q, _ = duplicate_flip_attack(dist, g, alpha)
            except InputError:
                continue
            yield [column[a.key] for a in q.atoms], [a.mass for a in q.atoms], lambda q=q: q
    for k in range(2, min(MAX_MIX_ATOMS, len(keys)) + 1):
        if len(keys) > 8 and k > 2:
            break  # keep the cubic enumeration desk-scale
        simplex = [(w, tuple(x / math.fsum(w) for x in w)) for w in _simplex_weights(k, resolution)]
        for combo in itertools.combinations(range(len(keys)), k):
            for weights, masses in simplex:
                yield combo, masses, functools.partial(build, combo, weights)


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
    bit-equal to this. An fsum of no keys is 0.0 and of one key is that key
    plus 0.0 (which turns -0.0 into 0.0), so only wider cells call fsum."""
    clean = np.array([dist.mass(p, y, g) for g, p, _, y in keys])
    contamination = np.zeros((len(block), len(keys)))
    rows = np.repeat(np.arange(len(block)), [len(cols) for cols, _, _ in block])
    contamination[rows, list(itertools.chain.from_iterable(cols for cols, _, _ in block))] = list(
        itertools.chain.from_iterable(weights for _, weights, _ in block)
    )
    mixed = (1.0 - alpha) * clean + alpha * contamination
    mixed /= np.array(list(map(math.fsum, mixed.tolist())))[:, None]
    tables = []
    for order, cells in layouts:
        sums = np.zeros((len(block), len(cells)))
        for i, cell in enumerate(cells):
            cols = order[cell]
            if len(cols) == 1:
                sums[:, i] = mixed[:, cols[0]] + 0.0
            elif cols:
                sums[:, i] = list(map(math.fsum, mixed[:, cols].tolist()))
        tables.append({g: sums[:, 4 * i : 4 * i + 4] for i, g in enumerate(dist.groups)})
    return tables


def grid_worst_case(
    dist: Distribution,
    alpha: float,
    hypotheses: Sequence[BaseClassifier],
    notion: str,
    resolution: int = 10,
    grid_n: int = 21,
) -> tuple[Distribution, float]:
    """Search adversary strategies and return the one maximizing the
    learner's excess error under its best response.

    Candidates: every single-atom point mass on support x {0, 1}, the
    duplicate-flip attack per group where the budget suffices, and coarse
    simplex mixtures over up to ``MAX_MIX_ATOMS`` support atoms. Ties break
    toward the lexicographically smallest contamination encoding.

    Candidates are generated lazily and their corrupted cell tables built
    ``_TABLE_CHUNK`` at a time. The learner sees a corrupted table only
    through the floats its notion's statistics and denominator checks read,
    :func:`repair.statistic_inputs` of each hypothesis and group: per group
    (m1p, m0p) for eopp, the positive, negative and total mass for dp, all
    four cells otherwise. So the search keeps one response per distinct
    statistic input, keyed by its raw bytes (so -0.0 and 0.0 differ), and
    sends each chunk's unseen inputs once each, in order of first
    occurrence, through :func:`grid_responses` calls of up to
    ``_SEARCH_BLOCK`` inputs that share the clean side. A key's first table
    stands for the rest. The clean error of each distinct winning response,
    a hypothesis and its acceptance probabilities x, is computed once. The
    result, and the error raised first in candidate order, are those of a
    :func:`best_response` call on each ``mix(dist, q, alpha)`` in turn: a
    response depends only on its key, :func:`grid_responses` solves each
    row on its own, and a key seen before has not raised. Every response
    is the exact LP minimum; under predictive parity its excess is that of
    the classifier :func:`repair.best_response` returns, within GAP_TOL of
    the infimum. ``grid_n`` is only checked.

    Raises ``InputError`` before any search when ``alpha`` is not a number
    in [0, 1], or ``resolution`` or ``grid_n`` is not an integer (an
    integral float such as 4.0 counts as one), or ``resolution`` is below 2
    or ``grid_n`` outside the range :func:`repair.grid_size` accepts.
    """
    if len(dist.atoms) > 64:
        raise InputError("grid_worst_case is a desk-scale certifier; use <= 64 atoms")
    if not 0.0 <= number(alpha, "alpha") <= 1.0:
        raise InputError(f"alpha must be in [0, 1], got {alpha!r}")
    resolution, grid_n = integer(resolution, "resolution"), grid_size(grid_n)
    if resolution < 2:
        raise InputError("resolution must be at least 2")

    keys = [
        (g, p, f, y) for (g, p, f) in dist.support_points() for y in (0, 1)
    ]
    opt = best_response(dist, dist, hypotheses, notion, grid_n=grid_n).error_on_original
    layouts = [_cell_layout(h, dist, keys) for h in hypotheses]

    def encode(cols, masses) -> tuple:
        return tuple((keys[c][0], keys[c][1], keys[c][3], round(m, 12)) for c, m in zip(cols, masses))

    searched: dict[bytes, tuple] = {}  # response to each statistic input
    errors: dict[tuple, float] = {}  # clean error of each winning (k, x)
    # best: a (columns, masses, build) candidate; best_code is made on its first tie
    best_excess, best, best_code = -math.inf, None, None
    candidates = _contaminations(dist, alpha, keys, resolution)
    for chunk in iter(lambda: list(itertools.islice(candidates, _TABLE_CHUNK)), []):
        tables = _corrupted_tables(dist, alpha, keys, chunk, layouts)
        inputs = np.concatenate([statistic_inputs(t[g], notion) for t in tables for g in dist.groups], axis=1)
        stat_keys = [row.tobytes() for row in inputs]
        fresh: dict[bytes, int] = {}  # each unseen input's first row, in chunk order
        for r, stat_key in enumerate(stat_keys):
            if stat_key not in searched:
                fresh.setdefault(stat_key, r)
        unseen = list(fresh.items())
        for start in range(0, len(unseen), _SEARCH_BLOCK):
            fresh_keys, picked = zip(*unseen[start : start + _SEARCH_BLOCK])
            dirty = [{g: t[g][list(picked)] for g in dist.groups} for t in tables]
            searched.update(zip(fresh_keys, grid_responses(dirty, dist, hypotheses, notion, grid_n)))
        for candidate, stat_key in zip(chunk, stat_keys):
            _, k, x = searched[stat_key]
            if (k, x) not in errors:
                errors[k, x] = error(option_classifier(hypotheses[k], dist.groups, x), dist)
            excess = errors[k, x] - opt
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
