"""Reference implementations of the certifier's exhaustive searches.

These are the straightforward versions the package's pruned searches must
agree with exactly: a sliding-window deque for ``pair_min_1d``, a chunked
brute force over every pair for ``pair_min_2d``, and the full enumeration
of every value-grid assignment for ``parity_calibration_attack_certify``.
"""

from __future__ import annotations

import itertools
import math
from collections import deque

import numpy as np

from fairnoise.calibration import (
    BinnedPredictor,
    duplication_instance,
    l1_error,
    parity_calibration_check,
)
from fairnoise.classifiers import GAP_TOL
from fairnoise.errors import InputError


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


def parity_calibration_attack_certify(alpha, r_b=None, value_grid_n=11):
    """Checks every assignment of the support points to grid values."""
    if r_b is None:
        r_b = 0.9 * alpha
    dist, corrupted, _ = duplication_instance(alpha, r_b)
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
