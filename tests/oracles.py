"""Reference implementations of the certifier's exhaustive searches.

These are the straightforward versions the package's pruned searches must
agree with. ``class_worst_case`` is one ``mix`` plus ``best_response`` per
candidate of ``class_candidates``, the class search that the package's
``grid_worst_case`` must equal exactly; ``grid_worst_case`` here is the
older search over mixtures of up to three support atoms, a floor that the
package's excess must not fall below by more than 1e-12. ``lp_floor`` is
the exact reference for ``best_response`` under dp, eopp and eodds: it
solves every 4-subset of the LP's constraints and scores each vertex in
Fractions, from masses summed over atoms, so the package's float vertex
search must agree with it up to rounding, and the package's certified
floor exactly. ``certified_floor`` reaches the floor by an independent
route, in Fractions: each active set's full 4 x 4 stationarity system, its
triangle multipliers all >= 0, and the set's vertex checked exactly, in
the order of the float vertex enumeration, on the float masses
(``float_cells``). The package proves the floor on the set's face, with
at most a 2 x 2 system and a corner bound in place of the triangle
multipliers, and must equal it exactly. Both take predictive parity at a
given common precision (``precision_rows``); ``precision_range`` gives
the ends of the range where both groups' precisions meet, where the
package proves that floor.
``lapack_vertices`` is the vertex enumeration ``repair._lp_vertices``
replaced: each active set's 4 x 4 system goes to LAPACK, so the package's
closed-form kernel must give the same feasible vertices up to rounding.
``active_sets`` derives ``repair._active_sets``' tables with numpy array
operations, and the package's Python-built tables must equal them bit for
bit. ``polyfit_loglog`` is ``harness.fit_loglog`` by ``np.polyfit``, which
the package's closed-form fit must match to 1e-12.
``predictive_parity_scan`` is the reference for ``best_response`` under
predictive parity: it scores only option pairs that meet the constraint,
on a dense scan of the common precision, so the package's infimum must
never lie above it and must come within the scan's resolution of it.
``parity_calibration_partitions`` is the enumeration that
``calibration.parity_calibration_attack_certify``'s subset DP replaced:
every set partition of the support points is one binned predictor,
scored by ``l1_error``, and the DP's floor must equal its least error bit
for bit, or raise the same ``InputError``. The full enumeration of every
value-grid assignment, ``parity_calibration_attack_certify`` here, is the
reference that the package's partition floor must not exceed: its values
are a subset of those a bin may take.
``group_stats``, ``error`` and ``corruption_masses`` sum over atoms instead
of reading the mass table, so the package's versions must agree with them up
to rounding.

The test-side helpers at the end (total variation distance, Monte Carlo
sampling of a randomized classifier, and two seeded random generators) are
references on package code; the acceptance corpora draw their instances
from the generators, so their draws must not change. Nor must those of
``random_binned_instance``, whose seeds pin a floor.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from fairnoise import families
from fairnoise.attacks import duplicate_flip_attack
from fairnoise.calibration import BinnedPredictor, calibrated_value, calibration_report, parity_calibration_check
from fairnoise.classifiers import GAP_TOL, GroupStats, PQClassifier, as_pq, cell_index, error_terms, mass_table
from fairnoise.distributions import Atom, Distribution, make_distribution, mix
from fairnoise.errors import InputError
from fairnoise.families import _split
from fairnoise.repair import _denominators, _equalities, _lp_vertices, best_response, statistic_inputs

#: Each group's triangle 0 <= v <= u <= 1 of options as rows of G x <= h
#: over x = (u_A, v_A, u_B, v_B): -v <= 0, v - u <= 0 and u <= 1, A first.
_TRIANGLE = np.array([[0, -1, 0, 0], [-1, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, -1, 1], [0, 0, 1, 0]])
_BOUND = np.array([0, 0, 1, 0, 0, 1])


def _solve(rows, rhs):
    """x with rows x = rhs in Fractions by Gaussian elimination, or None
    when the system is singular. Every entry becomes a Fraction first, so
    rows of ints are solved exactly too."""
    m = [[Fraction(x) for x in r] + [Fraction(b)] for r, b in zip(rows, rhs)]
    n = len(m)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        for r in range(col + 1, n):
            f = m[r][col] / m[col][col]
            m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    x = [Fraction(0)] * n
    for r in reversed(range(n)):
        x[r] = (m[r][n] - sum(m[r][c] * x[c] for c in range(r + 1, n))) / m[r][r]
    return x


def lapack_vertices(eq, cells):
    """``repair._lp_vertices`` as a batched LU solve: every 4-subset of the
    equality and triangle rows is one 4 x 4 system, singular where
    ``np.linalg.det`` is exactly 0 and solved by ``np.linalg.solve``
    otherwise; a vertex that misses a constraint by more than 1e-12 is
    infeasible, and the others are clamped to the triangles. Same return
    value."""
    rows, n_eq, _ = eq.shape
    subsets = np.array(list(itertools.combinations(range(n_eq + 6), 4)))
    a = np.concatenate((eq, np.broadcast_to(_TRIANGLE, (rows, 6, 4))), axis=1)
    b = np.concatenate((np.zeros(n_eq), _BOUND))
    systems = a[:, subsets]
    singular = np.linalg.det(systems) == 0.0
    x = np.linalg.solve(np.where(singular[..., None, None], np.eye(4), systems), b[subsets][..., None])[..., 0]
    x = np.where(singular[..., None], np.nan, x)
    miss = sum(a[:, None, :, j] * x[:, :, None, j] for j in range(4)) - b  # (rows, subsets, rows of a)
    feasible = (np.abs(miss[..., :n_eq]) <= 1e-12).all(axis=2) & (miss[..., n_eq:] <= 1e-12).all(axis=2)
    u = np.clip(x[..., ::2], 0.0, 1.0) + 0.0
    v = np.clip(x[..., 1::2], 0.0, u) + 0.0
    err = sum(sum(error_terms(table[:, 0], u[..., i], v[..., i])) for i, table in enumerate(cells))
    return np.where(feasible, err, np.inf), np.stack((u, v), axis=-1).reshape(x.shape), subsets


def active_sets(n_eq):
    """``repair._active_sets`` derived with numpy array operations (einsum,
    cumsum, broadcast_to and where) instead of built in Python: the same
    subsets, x0, D, distinct columns and table indices, which the package's
    tables must equal in shape, dtype, value and sign bit."""
    whole = [set(range(n_eq + 3 * g, n_eq + 3 * g + 3)) for g in (0, 1)]  # each group's v = 0, v = u and u = 1
    subsets = np.array([s for s in itertools.combinations(range(n_eq + 6), 4) if not any(w <= set(s) for w in whole)])
    # per subset and group, whether it holds v = 0, v = u and u = 1
    v0, vu, u1 = (subsets[:, :, None] == n_eq + np.arange(6)).any(axis=1).reshape(-1, 2, 3).transpose(2, 0, 1)
    k = (subsets < n_eq).sum(axis=1)
    free = np.stack((~(u1 | v0 & vu), ~(v0 | vu)), axis=2).reshape(-1, 4)  # of u_A, v_A, u_B, v_B
    steps = np.broadcast_to(np.eye(4), (len(subsets), 4, 4)).copy()
    steps[:, (0, 2), (1, 3)] = vu
    column = ((np.cumsum(free, axis=1) - 1)[..., None] == np.arange(n_eq)) & free[..., None]
    d = np.einsum("sfc,sfj->jcs", column, steps)
    x0 = np.stack((u1, vu & u1), axis=2).reshape(-1, 4).T.astype(float)
    distinct = {}  # each distinct column of D and 0 - x0, in order of first occurrence
    columns = zip(*np.concatenate((d, 0.0 - x0[:, None]), axis=1).reshape(4, -1).tolist())
    kind = np.array([distinct.setdefault(column, len(distinct)) for column in columns])
    # each entry's table row: its equality, or for a padded slot 1 on its diagonal and 0 elsewhere
    real = np.arange(n_eq)[:, None, None] < k  # (slot, 1, subsets)
    rows = np.where(real, subsets[:, :n_eq].T[:, None], n_eq + (np.eye(n_eq, n_eq + 1)[..., None] == 1))
    kinds = kind.reshape(1, n_eq + 1, -1).repeat(n_eq, axis=0)  # (slot, column of D | 0 - x0, subsets)
    entries = [0, 1] if n_eq == 1 else [0, 2, 0, 1, 1, 2, 4, 4, 5, 3, 5, 3]
    at = rows.reshape(-1, len(subsets))[entries], kinds.reshape(-1, len(subsets))[entries]
    return subsets, x0[..., None], d[..., None], np.array(list(distinct)).T[:, None, :, None], at


def polyfit_loglog(points):
    """``harness.fit_loglog`` on points it accepts, by ``np.polyfit``'s
    least squares on the logs: (slope, intercept, R^2), R^2 = 1 when the
    total sum of squares is <= 1e-20."""
    x, y = np.log([a for a, _ in points]), np.log([b for _, b in points])
    slope, intercept = np.polyfit(x, y, 1)
    residuals, centered = y - (slope * x + intercept), y - y.mean()
    ss_res, ss_tot = float(np.dot(residuals, residuals)), float(np.dot(centered, centered))
    return float(slope), float(intercept), 1.0 if ss_tot <= 1e-20 else 1.0 - ss_res / ss_tot


def exact_error(cells, u, v):
    """Misclassified mass of a group's four cells at option (u, v), in
    Fractions when they are: ``classifiers.error_terms``' 1.0 - u would
    round to a float."""
    m1p, m1n, m0p, m0n = cells
    return (1 - u) * m1p + u * m1n + (1 - v) * m0p + v * m0n


def exact_cells(dist, h, g):
    """Group g's (m1p, m1n, m0p, m0n) under h's base, in Fractions, summed
    over atoms."""
    base, m = as_pq(h).base, [Fraction(0)] * 4
    for a in dist.atoms:
        if a.group == g:
            m[cell_index(base, a.point, g, a.feature, a.label)] += Fraction(a.mass)
    return m


def precision_rows(cells, precision):
    """Predictive parity's two equalities at a common precision pi, from
    both groups' corrupted cells (m1p, m1n, m0p, m0n) in Fractions: each
    group's row (c1p - pi m1, c0p - pi m0) over its own (u, v), A's
    first."""
    rows = [[m1p - precision * (m1p + m1n), m0p - precision * (m0p + m0n)] for m1p, m1n, m0p, m0n in cells]
    return [rows[0] + [0, 0], [0, 0] + rows[1]]


def float_cells(dist, h, groups):
    """Each group's cells of h's mass table on dist: the float masses the
    package proves its floors on, as Fractions."""
    table = mass_table(h, dist)
    return [list(map(Fraction, table[g])) for g in groups]


def precision_range(cells):
    """(lo, hi), where both groups' precision ranges meet, from their
    corrupted cells in Fractions: each group's options (1, w), 0 <= w <= 1,
    have precision from c1p / m1 (or the w = 1 value when m1 = 0) to
    (c1p + c0p) / (m1 + m0)."""
    ends = []
    for m1p, m1n, m0p, m0n in cells:
        whole = (m1p + m0p) / (m1p + m1n + m0p + m0n)
        ends.append(sorted((m1p / (m1p + m1n) if m1p + m1n else whole, whole)))
    return max(e[0] for e in ends), min(e[1] for e in ends)


def lp_floor(corrupted, clean, h, notion, precision=None):
    """Least clean error over (u_A, v_A, u_B, v_B) in both triangles
    0 <= v <= u <= 1 whose corrupted statistics meet the notion, exactly:
    every 4-subset of the equalities and triangle rows is solved, and the
    cheapest vertex that meets every constraint exactly wins. Predictive
    parity is solved at the common ``precision`` given."""

    def statistics(m):
        """Each equated statistic (u a + v b) / d as (a, b, d)."""
        m1p, m1n, m0p, m0n = m
        tpr, fpr = (m1p, m0p, m1p + m0p), (m1n, m0n, m1n + m0n)
        return {"dp": [(m1p + m1n, m0p + m0n, sum(m))], "eopp": [tpr], "eodds": [tpr, fpr]}[notion]

    ga, gb = clean.groups
    if notion == "predictive_parity":
        equalities = precision_rows([exact_cells(corrupted, h, g) for g in (ga, gb)], precision)
    else:
        equalities = [
            [a / d, b / d, -e / f, -g / f]
            for (a, b, d), (e, g, f) in zip(*(statistics(exact_cells(corrupted, h, group)) for group in (ga, gb)))
        ]
    # (row, bound) of -v <= 0, v - u <= 0 and u <= 1 for each group
    triangle = []
    for off in (0, 2):
        for coeffs, bound in (((0, -1), 0), ((-1, 1), 0), ((1, 0), 1)):
            row = [0, 0, 0, 0]
            row[off : off + 2] = coeffs
            triangle.append((row, bound))
    constraints = [(row, 0, True) for row in equalities] + [(row, b, False) for row, b in triangle]

    best = None
    for subset in itertools.combinations(constraints, 4):
        x = _solve([row for row, _, _ in subset], [b for _, b, _ in subset])
        if x is None:
            continue
        values = [(sum(c * xi for c, xi in zip(row, x)), b, eq) for row, b, eq in constraints]
        if all(v == b if eq else v <= b for v, b, eq in values):
            err = sum(exact_error(exact_cells(clean, h, g), x[i], x[i + 1]) for i, g in zip((0, 2), (ga, gb)))
            best = err if best is None else min(best, err)
    return best


def certified_floor(corrupted, clean, h, notion, precision=None):
    """The LP floor by the KKT conditions of a whole active set, in
    Fractions: the float vertex enumeration of ``repair._lp_vertices``
    orders the active sets, and the first whose vertex meets every
    constraint exactly and whose multipliers solve the 4 x 4 stationarity
    system y^T A_active = -c with every triangle multiplier >= 0 gives the
    floor c_0 - y^T h_active, as a Fraction. Predictive parity is solved
    at the common ``precision`` given."""
    dirty, table = mass_table(h, corrupted), mass_table(h, clean)
    clean_cells = np.array([table[g] for g in clean.groups])[..., None]
    if notion == "predictive_parity":
        rows = np.array(precision_rows(float_cells(corrupted, h, clean.groups), precision), dtype=object)
        eq = rows.astype(float)[None]
    else:
        inputs = statistic_inputs(np.array([[dirty[g] for g in clean.groups]]), notion)
        eq = _equalities(inputs, notion, _denominators(inputs, notion))
        exact = np.array([[list(map(Fraction, dirty[g])) for g in clean.groups]], dtype=object)
        exact = statistic_inputs(exact, notion)
        rows = _equalities(exact, notion, _denominators(exact, notion))[0]
    totals, _, subsets = _lp_vertices(eq, clean_cells)
    a = np.concatenate((rows, _TRIANGLE))
    n_eq = len(a) - 6
    bound = [0] * n_eq + _BOUND.tolist()
    # clean error is const + c . x, and stationarity asks y^T A_active = target = -c
    cells = [list(map(Fraction, table[g])) for g in clean.groups]
    const = sum(m1p + m0p for m1p, _, m0p, _ in cells)
    target = [t for m1p, m1n, m0p, m0n in cells for t in (m1p - m1n, m0p - m0n)]
    for s in np.argsort(totals[0], kind="stable")[: np.isfinite(totals[0]).sum()]:
        active = subsets[s].tolist()
        basis = a[active]
        y, x = _solve(basis.T.tolist(), target), _solve(basis.tolist(), [bound[i] for i in active])
        if (
            y is not None
            and list(np.array(y, dtype=object) @ basis) == target
            and all(m >= 0 for m, i in zip(y, active) if i >= n_eq)
            and all(v == 0 if i < n_eq else v <= bound[i] for i, v in enumerate(a @ np.array(x, dtype=object)))
        ):
            return const - sum(m * int(_BOUND[i - n_eq]) for m, i in zip(y, active) if i >= n_eq)
    return None


def _encode(q):
    return tuple((a.group, a.point, a.label, round(a.mass, 12)) for a in q.atoms)


def _simplex_weights(k, resolution):
    """Positive weight vectors of length k on the 1/resolution grid: the
    cuts strictly increase, so every weight is at least 1/resolution."""
    for cuts in itertools.combinations(range(1, resolution), k - 1):
        edges = (0,) + cuts + (resolution,)
        yield tuple((edges[i + 1] - edges[i]) / resolution for i in range(k))


def grid_worst_case(dist, alpha, hypotheses, notion, resolution=10, grid_n=21, max_mix_atoms=3):
    """The atom search: every support atom's point mass, the duplicate-flip
    attack per group, and mixtures of up to three atoms (two past 8 keys)
    on the simplex grid; one best response per corrupted mixture, in
    candidate order, ties broken toward the smallest encoding."""
    keys = [(g, p, f, y) for (g, p, f) in dist.support_points() for y in (0, 1)]
    candidates = []
    for g, p, f, y in keys:
        candidates.append(make_distribution([Atom(p, y, g, 1.0, f)], groups=dist.groups))
    if 0.0 < alpha < 1.0:
        for g in dist.groups:
            try:
                q, _ = duplicate_flip_attack(dist, g, alpha)
                candidates.append(q)
            except InputError:
                pass
    for k in range(2, min(max_mix_atoms, len(keys)) + 1):
        if len(keys) > 8 and k > 2:
            break
        for combo in itertools.combinations(keys, k):
            for weights in _simplex_weights(k, resolution):
                atoms = [Atom(p, y, g, w, f) for (g, p, f, y), w in zip(combo, weights)]
                candidates.append(make_distribution(atoms, groups=dist.groups))

    opt = best_response(dist, dist, hypotheses, notion, grid_n=grid_n).error_on_original

    best_q = None
    best_excess = -math.inf
    for q in candidates:
        corrupted = mix(dist, q, alpha)
        response = best_response(corrupted, dist, hypotheses, notion, grid_n=grid_n)
        excess = response.error_on_original - opt
        if excess > best_excess + 1e-12 or (
            abs(excess - best_excess) <= 1e-12
            and best_q is not None
            and _encode(q) < _encode(best_q)
        ):
            best_q, best_excess = q, excess
    return best_q, best_excess


def class_candidates(dist, alpha, hypotheses, resolution=10):
    """The class search's contaminations, in its order. A class is the
    keys (group, point, label) with one group, one label and one base
    prediction under every hypothesis, predicted at the key's own clean
    feature where it has one; its first key's atom stands for it. The
    candidates are each class's point mass, each group's duplicate-flip
    attack where the budget suffices, moved onto the class atoms, and every
    two-class mixture (i / resolution, 1 - i / resolution)."""
    atoms, class_of = {}, {}
    for g, p, f in dist.support_points():
        for y in (0, 1):
            own = [a.feature for a in dist.atoms if a.key == (g, p, y) and a.feature is not None]
            x = own[0] if own else f
            c = (g, y) + tuple(as_pq(h).base.predict(p, g, x) for h in hypotheses)
            class_of[g, p, y] = c
            atoms.setdefault(c, (p, y, g, x))

    def build(weights):
        return make_distribution(
            [Atom(*atoms[c][:3], w, atoms[c][3]) for c, w in weights.items() if w > 0.0], groups=dist.groups
        )

    candidates = [build({c: 1.0}) for c in atoms]
    if 0.0 < alpha < 1.0:
        for g in dist.groups:
            try:
                q, _ = duplicate_flip_attack(dist, g, alpha)
            except InputError:
                continue
            weights = dict.fromkeys(atoms, 0.0)
            for a in q.atoms:
                weights[class_of[a.key]] += a.mass
            candidates.append(build(weights))
    for c, d in itertools.combinations(atoms, 2):
        for i in range(1, resolution):
            candidates.append(build({c: i / resolution, d: 1.0 - i / resolution}))
    return candidates


def class_worst_case(dist, alpha, hypotheses, notion, resolution=10, grid_n=21):
    """The class search as one ``mix`` plus ``best_response`` per candidate
    of :func:`class_candidates`: the first candidate within 1e-12 of the
    largest excess, with its excess. Raises what the first candidate that
    raises raises."""
    opt = best_response(dist, dist, hypotheses, notion, grid_n=grid_n).error_on_original
    candidates = class_candidates(dist, alpha, hypotheses, resolution)
    excess = [
        best_response(mix(dist, q, alpha), dist, hypotheses, notion, grid_n=grid_n).error_on_original - opt
        for q in candidates
    ]
    return next((q, e) for q, e in zip(candidates, excess) if e >= max(excess) - 1e-12)


def parity_calibration_attack_certify(alpha, r_b=None, value_grid_n=11):
    """Checks every assignment of the support points to grid values."""
    if r_b is None:
        r_b = 0.9 * alpha
    inst = families.eodds_duplicate(alpha, r_b)
    dist, corrupted = inst.dist, inst.corrupted
    points = sorted({a.point for a in dist.atoms})
    values = np.linspace(0.0, 1.0, value_grid_n)
    bin_of_value = {float(v): i for i, v in enumerate(values)}

    floor = math.inf
    for assigned in itertools.product(values, repeat=len(points)):
        assignment = {p: bin_of_value[float(v)] for p, v in zip(points, assigned)}
        predictor = BinnedPredictor(
            assignment=assignment,
            values={bin_of_value[float(v)]: float(v) for v in assigned},
        )
        calibrated, occupancy_gap = parity_calibration_check(predictor, corrupted)
        if calibrated and occupancy_gap <= GAP_TOL:
            floor = min(floor, l1_error(predictor, dist))
    if not math.isfinite(floor):
        raise InputError("no predictor on the value grid satisfies parity calibration")
    return floor


def l1_error(h, dist):
    """Expected |y - predicted value| over the atoms."""
    return math.fsum(a.mass * abs(a.label - h.value(a.point, a.group)) for a in dist.atoms)


def binnings(n):
    """Every binning of n ordered points, one per set partition, as a
    restricted growth string: point k joins a bin opened before it or opens
    the next one. Lazy, so memory stays O(n) however many there are."""
    if n == 0:
        return iter([()])
    return (code + (b,) for code in binnings(n - 1) for b in range(max(code, default=-1) + 2))


def parity_calibration_partitions(inst):
    """``calibration.parity_calibration_attack_certify`` by enumeration:
    every set partition of the support points is one binned predictor,
    valued by ``calibration_report`` and ``calibrated_value`` on the whole
    partition and scored by :func:`l1_error`; the least error wins."""
    dist, corrupted = inst.dist, inst.corrupted
    points = sorted({a.point for a in (*dist.atoms, *corrupted.atoms)})
    floor = math.inf
    for code in binnings(len(points)):
        assignment = dict(zip(points, code))
        report = calibration_report(BinnedPredictor(assignment, dict.fromkeys(code, 0.0)), corrupted)
        slope = dict.fromkeys(code, 0.0)  # d(clean error) / d(bin value)
        for a in dist.atoms:
            slope[assignment[a.point]] += a.mass * (1 - 2 * a.label)
        values = {b: calibrated_value(report, corrupted.groups, b, slope[b]) for b in slope}
        if None not in values.values():
            floor = min(floor, l1_error(BinnedPredictor(assignment, values), dist))
    if not math.isfinite(floor):
        raise InputError("no predictor satisfies parity calibration on the corrupted distribution")
    return floor


def random_binned_instance(rng, n_points):
    """A random two-group instance on ``n_points`` points for the
    parity-calibration floor. Each corrupted point lies in both groups, or
    in one as half of a pair of points, one per group, with one weight; a
    weight is 1..3, and the two groups' weights sum alike. Each point has a
    positive share in quarters, which group B moves by up to 1.5 GAP_TOL
    for some points and by 1/4 for a few, so that many bins meet parity
    calibration and some do not. The clean distribution puts random masses
    and labels on all but maybe the last point, which is then found only
    in the corrupted distribution. The base classifier is unused."""
    points = [f"x{k}" for k in range(n_points)]
    member = []
    while len(member) < n_points:
        member += [("A",), ("B",)] if len(member) + 1 < n_points and rng.random() < 0.3 else [("A", "B")]
    weight, share = rng.integers(1, 4, n_points), rng.integers(0, 5, n_points) / 4.0
    for k in range(1, n_points):
        if member[k] == ("B",):
            weight[k], share[k] = weight[k - 1], share[k - 1]
    shift = np.where(rng.random(n_points) < 0.15, 0.25, rng.uniform(-1.5, 1.5, n_points) * GAP_TOL)
    moved = np.clip(share + shift * (rng.random(n_points) < 0.4), 0.0, 1.0)
    total = 2 * sum(w for w, m in zip(weight, member) if "A" in m)
    atoms = []
    for p, m, w, share_a, share_b in zip(points, member, weight, share, moved):
        for g in m:
            mass, positive = float(w / total), float(share_a if g == "A" else share_b)
            atoms += [Atom(p, 1, g, mass * positive), Atom(p, 0, g, mass * (1.0 - positive))]
    corrupted = make_distribution(atoms, groups=("A", "B"))
    clean_points = points[: n_points - int(rng.integers(0, 2))] or points
    masses = _split(rng, 1.0, 2 * len(clean_points))
    dist = make_distribution(
        [Atom(p, y, "AB"[int(rng.integers(0, 2))], masses[2 * k + y]) for k, p in enumerate(clean_points) for y in (0, 1)],
        groups=("A", "B"),
    )
    return families.Instance(dist, corrupted, corrupted, None)


def predictive_parity_instance(alpha, r_b=None):
    """(clean, perfect base, corrupted) of the balanced instance whose group
    B, of mass r_b (0.9 alpha unless given), duplicate-flip washes out."""
    if not 0.0 < alpha < 1.0:
        raise InputError("alpha must lie in (0, 1)")
    if r_b is None:
        r_b = 0.9 * alpha
    dist, h = families.balanced_instance(r_b)
    try:
        _, corrupted = duplicate_flip_attack(dist, "B", alpha)
    except InputError:
        corrupted = dist  # no-attack control: budget cannot wash the group out
    return dist, h, corrupted


def predictive_parity_scan(corrupted, clean, h, n=1_000_001, t_min=1e-9):
    """Least clean error over a dense scan of option pairs with one common
    corrupted precision pi. At each pi, each group's options with precision
    pi are t (1, w), with w in [0, 1] solving the precision equation; they
    accept some mass, so every scored pair is feasible. Clean error is
    linear in t, so each group scores the cheaper of t = t_min and t = 1.
    The scan is pi on n even points of [0, 1] plus each group's precisions
    at w = 0 and w = 1. Masses are summed over atoms. Returns +inf when no
    scanned pi is feasible for both groups. Each group's precision must
    vary with w: a group whose options all have one precision meets its
    equation at every w, which this scan does not model."""
    base = as_pq(h).base

    def cells(dist, g):
        m = [[], [], [], []]
        for a in dist.atoms:
            if a.group == g:
                m[cell_index(base, a.point, g, a.feature, a.label)].append(a.mass)
        return [math.fsum(c) for c in m]

    dirty = {g: cells(corrupted, g) for g in clean.groups}
    extremes = [
        (c1p + w * c0p) / (c1p + c1n + w * (c0p + c0n)) for c1p, c1n, c0p, c0n in dirty.values() for w in (0, 1)
    ]
    if extremes[0] == extremes[1] or extremes[2] == extremes[3]:
        raise ValueError("a group's precision does not vary with w")
    pis = np.concatenate((np.linspace(0.0, 1.0, n), extremes))
    total = np.zeros(len(pis))
    for g in clean.groups:
        c1p, c1n, c0p, c0n = dirty[g]
        k1p, k1n, k0p, k0n = cells(clean, g)
        with np.errstate(divide="ignore", invalid="ignore"):
            w = (pis * (c1p + c1n) - c1p) / (c0p - pis * (c0p + c0n))
        feasible = (w >= -1e-12) & (w <= 1.0 + 1e-12)
        w = np.clip(np.where(feasible, w, 0.0), 0.0, 1.0)
        # clean error of t (1, w): positives, plus t times the change of accepting
        slope = (k1n - k1p) + w * (k0n - k0p)
        best = k1p + k0p + np.minimum(t_min * slope, slope)
        total += np.where(feasible, best, np.inf)
    return float(total.min())


def error(h, dist):
    """Misclassification probability as one sum over atoms."""
    pq = as_pq(h)
    terms = []
    for a in dist.atoms:
        acc = pq.accept_prob(a.point, a.group, a.feature)
        terms.append(a.mass * ((1.0 - acc) if a.label == 1 else acc))
    return math.fsum(terms)


def group_stats(h, dist):
    """Per-group rates, each a sum over the group's atoms."""
    pq = as_pq(h)
    acc_of = {a.key: pq.accept_prob(a.point, a.group, a.feature) for a in dist.atoms}

    rate, tpr, fpr, ppv = {}, {}, {}, {}
    for g in dist.groups:
        atoms = [a for a in dist.atoms if a.group == g]
        r = math.fsum(a.mass for a in atoms)
        pos = math.fsum(a.mass for a in atoms if a.label == 1)
        neg = math.fsum(a.mass for a in atoms if a.label == 0)
        acc_mass = math.fsum(a.mass * acc_of[a.key] for a in atoms)
        acc_pos = math.fsum(a.mass * acc_of[a.key] for a in atoms if a.label == 1)
        acc_neg = math.fsum(a.mass * acc_of[a.key] for a in atoms if a.label == 0)
        rate[g] = acc_mass / r
        tpr[g] = acc_pos / pos if pos > 0.0 else None
        fpr[g] = acc_neg / neg if neg > 0.0 else None
        # precision at (u, v) / max(u, v), which accepts the same share of positives
        top = max(pq.uv(g)) or 1.0
        scaled = math.fsum(a.mass * (acc_of[a.key] / top) for a in atoms)
        scaled_pos = math.fsum(a.mass * (acc_of[a.key] / top) for a in atoms if a.label == 1)
        ppv[g] = scaled_pos / scaled if scaled > 0.0 else None
    return GroupStats(rate=rate, tpr=tpr, fpr=fpr, ppv=ppv)


def corruption_masses(contamination, alpha, h, groups):
    """Per group, the corrupted mass alpha_z = alpha Q(z), the part of it the
    classifier accepts E_z, and the accepted positive part E_z+, as sums over
    the contamination's atoms."""
    pq = as_pq(h)
    alpha_z, e_z, e_z_plus = {}, {}, {}
    for g in groups:
        atoms = [a for a in contamination.atoms if a.group == g]
        accepted = [(a, a.mass * pq.accept_prob(a.point, g, a.feature)) for a in atoms]
        alpha_z[g] = alpha * math.fsum(a.mass for a in atoms)
        e_z[g] = alpha * math.fsum(m for _, m in accepted)
        e_z_plus[g] = alpha * math.fsum(m for a, m in accepted if a.label == 1)
    return alpha_z, e_z, e_z_plus


def tv_distance(d: Distribution, e: Distribution) -> float:
    """Total variation distance: half the L1 gap over the union of supports."""
    keys = set(d.mass_by_key) | set(e.mass_by_key)
    return 0.5 * math.fsum(abs(d.mass_by_key.get(k, 0.0) - e.mass_by_key.get(k, 0.0)) for k in keys)


def sample_predictions(h: PQClassifier, atom: Atom, n: int, rng) -> int:
    """Number of positive outputs in n executed draws at a fixed atom.

    Smoke-test helper; the evaluation path never samples.
    """
    u, v = h.uv(atom.group)
    base = h.base.predict(atom.point, atom.group, atom.feature)
    return int(rng.binomial(n, u if base == 1 else v))


def random_contamination(rng: np.random.Generator, dist: Distribution, max_atoms: int = 4) -> Distribution:
    """Random contamination supported on the instance's own points with
    adversary-chosen labels."""
    support = dist.support_points()
    n = int(rng.integers(1, max_atoms + 1))
    picks = rng.choice(len(support), size=min(n, len(support)), replace=False)
    atoms = []
    for w, idx in zip(_split(rng, 1.0, len(picks)), picks):
        g, p, f = support[int(idx)]
        atoms.append(Atom(p, int(rng.integers(0, 2)), g, w, f))
    return make_distribution(atoms, groups=dist.groups)


def random_calibrated_instance(
    rng: np.random.Generator, max_bins: int = 4
) -> tuple[Distribution, BinnedPredictor]:
    """Random two-group binned instance, calibrated per group exactly: each
    (group, bin) cell is one point carrying value * cell mass positives."""
    r_a = float(rng.uniform(0.2, 0.8))
    masses = {"A": r_a, "B": 1.0 - r_a}
    n_bins = int(rng.integers(2, max_bins + 1))

    atoms: list[Atom] = []
    assignment: dict[str, int] = {}
    group_values: dict[str, dict[int, float]] = {"A": {}, "B": {}}
    for g, r in masses.items():
        occupancy = _split(rng, r, n_bins)
        for b, cell in enumerate(occupancy):
            v = float(rng.uniform(0.0, 1.0))
            point = f"{g.lower()}_b{b}"
            assignment[point] = b
            group_values[g][b] = v
            pos = v * cell
            if pos > 0.0:
                atoms.append(Atom(point, 1, g, pos))
            if cell - pos > 0.0:
                atoms.append(Atom(point, 0, g, cell - pos))
    predictor = BinnedPredictor(assignment=assignment, group_values=group_values)
    return make_distribution(atoms), predictor
