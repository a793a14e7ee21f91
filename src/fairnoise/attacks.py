"""Corruption strategies and a worst-case corruption search over the
learner's cell classes.

Every attack emits the contamination distribution Q together with the
corrupted mixture (1 - alpha) D + alpha Q, so tests can verify the total
variation budget directly.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .classifiers import BaseClassifier, as_pq, cell_index, error_terms, mass_table
from .distributions import Atom, Distribution, make_distribution, mix
from .errors import InputError, integer, number
from .repair import _check_search, _one_row, _solve, _witness, grid_size, statistic_inputs


def duplicate_flip_attack(
    dist: Distribution, target_group: str, alpha: float
) -> tuple[Distribution, Distribution]:
    """Mirror every target-group example with the opposite label.

    In the corrupted mixture each target-group point carries equal mass on
    both labels, so its labels are information-theoretically washed out
    (conditional label mean exactly one half). Leftover budget duplicates
    other groups' atoms with unchanged labels, which adds no information.
    """
    contamination = _duplicate_flip(dist, target_group, alpha)
    return contamination, mix(dist, contamination, alpha)


def _duplicate_flip(dist: Distribution, target_group: str, alpha: float) -> Distribution:
    """The contamination of :func:`duplicate_flip_attack`."""
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

    return make_distribution(q_atoms, groups=dist.groups if leftover > 1e-15 else None)


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


#: Most distinct rows :func:`grid_worst_case` sends to one
#: :func:`repair._solve` stack. The vertex search holds about 5.6 KB per
#: eodds row and hypothesis (60 active sets, two equalities) and 2.6 KB per
#: dp row, and predictive parity's search on segments 0.8 KB, so a
#: one-hypothesis block peaks near 2.9 MB (tracemalloc).
SEARCH_BLOCK = 512
#: Largest ``resolution`` :func:`grid_worst_case` accepts: the two-class
#: mixtures grow with it, C(classes, 2) (resolution - 1) of them.
MAX_RESOLUTION = 100


def grid_worst_case(
    dist: Distribution,
    alpha: float,
    hypotheses: Sequence[BaseClassifier],
    notion: str,
    resolution: int = 10,
    grid_n: int = 21,
) -> tuple[Distribution, float]:
    """Search adversary strategies and return the one maximizing the
    learner's excess error under its best response, with that excess.

    The learner sees a contamination only through each hypothesis's
    corrupted mass table, and the support keys (group, point, label) that
    share a group, a label and every hypothesis's base prediction add to
    the same cells of every table. So the search runs over these classes,
    each stood for by the atom of its first key, which takes that key's
    clean feature where it has one, as any mixture with ``dist`` does. The
    candidates are the rows of one weight matrix over the classes: each
    class's point mass; each group's duplicate-flip attack where the budget
    suffices; and every two-class mixture (i / resolution, 1 - i /
    resolution), 0 < i < resolution. Their tables, (1 - alpha) clean +
    alpha (weights @ class-to-cell map), are stacked under the clean tables.
    The learner reads a table only through :func:`repair.statistic_inputs`,
    so each distinct input, keyed by its raw bytes, is answered once, in
    order of first occurrence, by :func:`repair._solve` stacks of at most
    ``SEARCH_BLOCK`` rows over the clean tables; the clean row's answer is
    the clean optimum. Each hypothesis's clean mass table is read once, and
    each distinct answer (k, x) is scored on hypothesis k's as
    :func:`classifiers.error` scores it. The first candidate within 1e-12
    of the largest excess wins; its Q is built from the class atoms, and
    its excess is measured again as :func:`best_response` measures it on
    ``mix(dist, q, alpha)``, minus the clean optimum, from the mixture's
    mass tables and the same clean tables. The search raises what
    :func:`best_response` raises on the clean distribution, else on the
    first candidate that raises. Its cost is set by the number of classes,
    at most 2**(len(hypotheses) + 1) per group, not by the number of atoms.
    ``grid_n`` is only checked.

    Raises ``InputError`` before any search when ``alpha`` is not a number
    in [0, 1], or ``resolution`` or ``grid_n`` is not an integer (an
    integral float such as 4.0 counts as one), or ``resolution`` is outside
    [2, ``MAX_RESOLUTION``] or ``grid_n`` outside the range
    :func:`repair.grid_size` accepts.
    """
    if not 0.0 <= number(alpha, "alpha") <= 1.0:
        raise InputError(f"alpha must be in [0, 1], got {alpha!r}")
    resolution, grid_n = integer(resolution, "resolution"), grid_size(grid_n)
    if not 2 <= resolution <= MAX_RESOLUTION:
        raise InputError(f"resolution must lie in [2, {MAX_RESOLUTION}], got {resolution}")

    clean_tables = [mass_table(h, dist) for h in hypotheses]
    _check_search(dist.groups, hypotheses, notion)
    bases, groups = [as_pq(h).base for h in hypotheses], dist.groups
    feature = {a.key: a.feature for a in dist.atoms}
    classes: dict[tuple, int] = {}  # (group, cell under each hypothesis) -> class
    atoms: list[Atom] = []  # each class's atom
    class_of: dict[tuple, int] = {}
    for g, p, f in dist.support_points():
        for y in (0, 1):
            x = f if feature.get((g, p, y)) is None else feature[g, p, y]
            cells = tuple(cell_index(b, p, g, x, y) for b in bases)
            c = class_of[g, p, y] = classes.setdefault((g, cells), len(classes))
            if c == len(atoms):
                atoms.append(Atom(p, y, g, 1.0, x))
    n = len(atoms)
    to_cells = np.zeros((n, len(bases), len(groups), 4))
    group_of, cells_of = [[groups.index(g)] for g, _ in classes], [cells for _, cells in classes]
    to_cells[np.arange(n)[:, None], range(len(bases)), group_of, cells_of] = 1.0  # each class's cell in each table

    flips = []  # each duplicate flip's mass on each class
    if 0.0 < alpha < 1.0:
        for g in groups:
            try:
                q = _duplicate_flip(dist, g, alpha)
            except InputError:
                continue
            flips.append(np.bincount([class_of[a.key] for a in q.atoms], [a.mass for a in q.atoms], n))
    # each pair of classes i < j, in the order of np.triu_indices(n, 1)
    pairs = np.array((np.arange(n)[:, None] < np.arange(n)).nonzero()).T[:, None]
    weights = np.zeros((n + len(flips) + len(pairs) * (resolution - 1), n))
    weights[: n + len(flips)] = np.concatenate((np.eye(n), np.reshape(flips, (-1, n))))  # point masses, flips
    mixtures = weights[n + len(flips) :].reshape(len(pairs), resolution - 1, n)  # a view: (pairs, steps, classes)
    share = np.arange(1, resolution)[:, None] / resolution
    steps = np.arange(resolution - 1)[:, None]
    mixtures[np.arange(len(pairs))[:, None, None], steps, pairs] = np.hstack((share, 1.0 - share))

    clean = np.reshape([[table[g] for g in groups] for table in clean_tables], to_cells.shape[1:])
    moved = np.dot(weights, to_cells.reshape(n, -1)).reshape((len(weights),) + clean.shape)  # as np.tensordot
    tables = np.concatenate((clean[None], (1.0 - alpha) * clean + alpha * moved))
    # rows keyed by the raw bytes of their statistic inputs, so -0.0 and 0.0 differ
    inputs = np.ascontiguousarray(statistic_inputs(tables, notion)).reshape(len(tables), -1)
    keys = inputs.view(np.dtype((np.void, inputs.itemsize * inputs.shape[1]))).ravel().tolist()
    distinct: dict[bytes, int] = {}  # each distinct input's index, in order of first occurrence
    which = np.array([distinct.setdefault(key, len(distinct)) for key in keys])
    # each distinct input's first row, where the largest index so far first reaches it
    order, responses = np.maximum.accumulate(which).searchsorted(np.arange(len(distinct))), []
    for start in range(0, len(order), SEARCH_BLOCK):  # rows are independent, so blocks move no bit
        solved, error, _ = _solve(tables[order[start : start + SEARCH_BLOCK]], clean[None], groups, notion)
        if error is not None:
            raise error
        responses += [(k, x) for _, k, x, _ in solved]
    ga, gb = groups
    score = {  # each distinct (k, x), as classifiers.error scores it
        (k, x): math.fsum(error_terms(clean_tables[k][ga], *x[:2]) + error_terms(clean_tables[k][gb], *x[2:]))
        for k, x in set(responses)
    }
    opt = score[responses[0]]  # row 0 is the clean optimum
    excess = np.array([score[response] for response in responses])[which[1:]] - opt
    win = weights[np.argmax(excess >= excess.max() - 1e-12)]
    q_atoms = [Atom(a.point, a.label, a.group, w, a.feature) for a, w in zip(atoms, win.tolist()) if w > 0.0]
    q = make_distribution(q_atoms, groups=groups)
    corrupted = mix(dist, q, alpha)
    mixed = [mass_table(h, corrupted) for h in hypotheses]
    _, k, x, _ = _one_row(mixed, clean_tables, groups, notion)
    return q, _witness(hypotheses[k], groups, x, notion, mixed[k], clean_tables[k], opt, None).excess_error_on_original
