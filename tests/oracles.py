"""Reference implementations of the certifier's exhaustive searches.

These are the straightforward versions the package's pruned searches must
agree with exactly: a sliding-window deque for one row of ``pair_min_1d``, a
chunked brute force over every pair for ``pair_min_2d``, the full
enumeration of every value-grid assignment for
``parity_calibration_attack_certify``, a private precision grid for
``predictive_parity_attack_certify``, and one ``mix`` plus ``best_response``
per candidate for ``grid_worst_case``.
``group_stats``, ``error`` and ``corruption_masses`` sum over atoms instead
of reading the mass table, so the package's versions must agree with them up
to rounding.
"""

from __future__ import annotations

import itertools
import math
from collections import deque

import numpy as np

from fairnoise import families
from fairnoise.attacks import _simplex_weights, duplicate_flip_attack
from fairnoise.calibration import BinnedPredictor, l1_error, parity_calibration_check
from fairnoise.classifiers import GAP_TOL, GroupStats, as_pq, error_terms, mass_table
from fairnoise.distributions import Atom, make_distribution, mix
from fairnoise.errors import InputError
from fairnoise.repair import best_response, option_grid


def pair_min_1d(stat_a, err_a, stat_b, err_b, tol):
    """Sliding-window minimum over both sides sorted by statistic."""
    order_a = np.argsort(stat_a, kind="stable")
    sa = stat_a[order_a]
    ea = err_a[order_a]
    order_b = np.argsort(stat_b, kind="stable")

    best = None
    lo = hi = 0
    window: deque[int] = deque()  # indices into sorted a, err increasing
    for jb in order_b:
        s = stat_b[jb]
        while hi < len(sa) and sa[hi] <= s + tol:
            while window and ea[window[-1]] >= ea[hi]:
                window.pop()
            window.append(hi)
            hi += 1
        while lo < hi and sa[lo] < s - tol:
            if window and window[0] == lo:
                window.popleft()
            lo += 1
        if window:
            ia = window[0]
            total = float(ea[ia] + err_b[jb])
            if best is None or total < best[0]:
                best = (total, int(order_a[ia]), int(jb))
    return best


def pair_min_2d(stats_a, err_a, stats_b, err_b, tol, chunk=512):
    """Chunked brute force over every (a, b) pair."""
    ta, fa = stats_a
    tb, fb = stats_b
    best = None
    for start in range(0, len(tb), chunk):
        sl = slice(start, min(start + chunk, len(tb)))
        mask = (np.abs(ta[None, :] - tb[sl, None]) <= tol) & (
            np.abs(fa[None, :] - fb[sl, None]) <= tol
        )
        if not mask.any():
            continue
        totals = np.where(mask, err_a[None, :] + err_b[sl, None], np.inf)
        flat = int(np.argmin(totals))
        ib, ia = divmod(flat, totals.shape[1])
        val = float(totals[ib, ia])
        if math.isfinite(val) and (best is None or val < best[0]):
            best = (val, ia, start + ib)
    return best


def _encode(q):
    return tuple((a.group, a.point, a.label, round(a.mass, 12)) for a in q.atoms)


def grid_worst_case(dist, alpha, hypotheses, notion, resolution=10, grid_n=21, max_mix_atoms=3):
    """Builds every candidate contamination, then runs one best response per
    corrupted mixture, in candidate order."""
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


def predictive_parity_attack_certify(alpha, r_b=None, grid_n=41):
    """Equal-precision pairs of grid options that accept some mass."""
    if not 0.0 < alpha < 1.0:
        raise InputError("alpha must lie in (0, 1)")
    if r_b is None:
        r_b = 0.9 * alpha
    dist, h = families.balanced_instance(r_b)
    try:
        _, corrupted = duplicate_flip_attack(dist, "B", alpha)
    except InputError:
        corrupted = dist  # no-attack control: budget cannot wash the group out

    dirty, clean = mass_table(h, corrupted), mass_table(h, dist)
    uu, vv = option_grid(grid_n)
    tol = 2.0 / grid_n

    def group_arrays(group):
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

    rate, tpr, fpr, ppv, group_error = {}, {}, {}, {}, {}
    err_terms = []
    for g in dist.groups:
        atoms = [a for a in dist.atoms if a.group == g]
        r = math.fsum(a.mass for a in atoms)
        pos = math.fsum(a.mass for a in atoms if a.label == 1)
        neg = math.fsum(a.mass for a in atoms if a.label == 0)
        acc_mass = math.fsum(a.mass * acc_of[a.key] for a in atoms)
        acc_pos = math.fsum(a.mass * acc_of[a.key] for a in atoms if a.label == 1)
        acc_neg = acc_mass - acc_pos
        err = math.fsum(
            a.mass * ((1.0 - acc_of[a.key]) if a.label == 1 else acc_of[a.key]) for a in atoms
        )
        rate[g] = acc_mass / r
        tpr[g] = acc_pos / pos if pos > 0.0 else None
        fpr[g] = acc_neg / neg if neg > 0.0 else None
        ppv[g] = acc_pos / acc_mass if acc_mass > 0.0 else None
        group_error[g] = err / r
        err_terms.append(err)
    return GroupStats(
        rate=rate,
        tpr=tpr,
        fpr=fpr,
        ppv=ppv,
        group_error=group_error,
        overall_error=math.fsum(err_terms),
    )


def corruption_masses(contamination, alpha, h, groups):
    """(alpha_z, E_z, E_z+) of ``decompose_corruption``, as sums over the
    contamination's atoms."""
    pq = as_pq(h)
    alpha_z, e_z, e_z_plus = {}, {}, {}
    for g in groups:
        atoms = [a for a in contamination.atoms if a.group == g]
        accepted = [(a, a.mass * pq.accept_prob(a.point, g, a.feature)) for a in atoms]
        alpha_z[g] = alpha * math.fsum(a.mass for a in atoms)
        e_z[g] = alpha * math.fsum(m for _, m in accepted)
        e_z_plus[g] = alpha * math.fsum(m for a, m in accepted if a.label == 1)
    return alpha_z, e_z, e_z_plus
