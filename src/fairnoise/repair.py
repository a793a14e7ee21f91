"""Randomized-classifier repairs and the brute-force best-response learner.

Two kinds of object live here. The witness constructors (``dp_repair``,
``eopp_repair``) are omniscient: they see both the clean and the corrupted
distribution and build an explicit randomized classifier whose fairness gap
on the corrupted distribution is zero by construction. ``best_response`` is
the learner-side procedure: it sees only the corrupted distribution and
exhaustively searches per-group acceptance-probability grids. The harness
uses the witnesses to certify upper bounds and the learner to certify lower
bounds (its grid minimum is what any repair strategy could achieve).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .classifiers import (
    GAP_TOL,
    BaseClassifier,
    PQClassifier,
    as_pq,
    error,
    error_terms,
    fairness_gap,
    group_stats,
    mass_table,
)
from .distributions import Distribution
from .errors import ContractError, InfeasibleError, InputError, integer


@dataclass(frozen=True)
class RepairWitness:
    """A repaired classifier plus its certification record."""

    classifier: PQClassifier
    notion: str
    gap_on_corrupted: float
    error_on_original: float
    excess_error_on_original: float
    candidate_label: str
    alpha: float | None = None

    def to_json_dict(self) -> dict:
        return {
            "classifier": self.classifier.to_json_dict(),
            "certification": {
                "notion": self.notion,
                "gap": self.gap_on_corrupted,
                "excess": self.excess_error_on_original,
                "error": self.error_on_original,
                "candidate": self.candidate_label,
                "alpha": self.alpha,
            },
        }


def _match_params(current: float, target: float) -> tuple[float, float]:
    """(p, q) moving a group's corrupted statistic from ``current`` to ``target``.

    The two branches are the raise (q=1) and lower (q=0) overrides; the 0/0
    corner (statistic already pinned at the target) collapses to p=0.
    """
    if target >= current:
        denom = 1.0 - current
        p = (target - current) / denom if denom > 0.0 else 0.0
        return (min(max(p, 0.0), 1.0), 1.0)
    p = (current - target) / current if current > 0.0 else 0.0
    return (min(max(p, 0.0), 1.0), 0.0)


def _match_candidates(
    h_star: BaseClassifier | PQClassifier, dist: Distribution, corrupted: Distribution,
    notion: str, current: dict[str, float], candidates: Sequence[tuple[str, dict[str, float]]],
    alpha: float | None,
) -> RepairWitness:
    """The rate-matching loop of both repairs. Per (label, per-group target)
    candidate, move each group's corrupted statistic from ``current`` to its
    target; keep the candidate cheapest on the clean distribution, the first
    one on ties."""
    reference = error(h_star, dist)
    best: RepairWitness | None = None
    for label, target in candidates:
        params = {g: _match_params(current[g], target[g]) for g in dist.groups}
        repaired = PQClassifier(base=as_pq(h_star).base, params=_compose(h_star, params))
        gap = fairness_gap(group_stats(repaired, corrupted), notion)
        if gap > GAP_TOL:
            who = f"{notion} repair" if label == "direct" else f"{notion} candidate {label}"
            raise ContractError(f"{who} failed its gap contract: {gap:.3e}")
        err = error(repaired, dist)
        if best is None or err < best.error_on_original:
            best = RepairWitness(repaired, notion, gap, err, err - reference, label, alpha)
    assert best is not None
    return best


def _realizable(h_star: BaseClassifier | PQClassifier, dist: Distribution, notion: str, name: str):
    """The base's clean group statistics, once its fairness gap is checked."""
    clean = group_stats(h_star, dist)
    gap = fairness_gap(clean, notion)
    if gap > GAP_TOL:
        raise InputError(
            f"realizability violated: base classifier has {name} gap {gap:.3e} on the clean distribution"
        )
    return clean


def dp_repair(
    h_star: BaseClassifier | PQClassifier,
    dist: Distribution,
    corrupted: Distribution,
    alpha: float | None = None,
) -> RepairWitness:
    """Repair demographic parity after corruption.

    Per group, the randomization moves the corrupted positive-prediction
    rate back to the clean rate of ``h_star``; since the clean rates agree
    across groups (realizability), so do the repaired corrupted rates. The
    excess error on the clean distribution is at most 2 alpha / (1 - alpha).
    """
    clean = _realizable(h_star, dist, "dp", "DP")
    dirty = group_stats(h_star, corrupted)
    return _match_candidates(h_star, dist, corrupted, "dp", dirty.rate, [("direct", clean.rate)], alpha)


def eopp_repair(
    h_star: BaseClassifier | PQClassifier,
    dist: Distribution,
    corrupted: Distribution,
    alpha: float | None = None,
) -> RepairWitness:
    """Repair equal opportunity after corruption.

    Builds one candidate per group: candidate i drags every group's
    corrupted TPR to group i's corrupted TPR (randomization is label-blind,
    which leaves the TPR algebra intact), then keeps whichever candidate is
    cheaper on the clean distribution. Ties go to the first group in
    canonical order.
    """
    _realizable(h_star, dist, "eopp", "EOpp")
    for g in corrupted.groups:
        if corrupted.positive_mass(g) <= 0.0:
            raise InputError(f"group {g!r} has no positives in the corrupted distribution")
    tpr = group_stats(h_star, corrupted).tpr
    candidates = [(f"match_{i}", {g: tpr[i] for g in dist.groups}) for i in dist.groups]
    return _match_candidates(h_star, dist, corrupted, "eopp", tpr, candidates, alpha)  # type: ignore[arg-type]


def _compose(h: BaseClassifier | PQClassifier, params: dict[str, tuple[float, float]]) -> dict:
    """Layer new per-group overrides on top of any the base already carries."""
    pq = as_pq(h)
    if not pq.params:
        return params
    composed = {}
    for g, (p, q) in params.items():
        p0, q0 = pq.params.get(g, (0.0, 0.0))
        # acceptance after both coins: (1-p)*[(1-p0) b + p0 q0] + p q
        pc = p + p0 - p * p0
        qc = (p * q + (1.0 - p) * p0 * q0) / pc if pc > 0.0 else 0.0
        composed[g] = (min(max(pc, 0.0), 1.0), min(max(qc, 0.0), 1.0))
    return composed


# ---------------------------------------------------------------------------
# Grid search over the randomized family
# ---------------------------------------------------------------------------


#: Largest accepted grid resolution; the option arrays grow as grid_n ** 2.
MAX_GRID_N = 1001


def grid_size(grid_n: object, low: int = 11) -> int:
    """``grid_n`` as an int in [low, MAX_GRID_N]. An integral float such as
    41.0 reads as 41; bools, fractions, strings and sizes out of range raise
    ``InputError``."""
    n = integer(grid_n, "grid_n")
    if not low <= n <= MAX_GRID_N:
        raise InputError(f"grid_n must lie in [{low}, {MAX_GRID_N}], got {n}")
    return n


def option_grid(grid_n: int) -> tuple[np.ndarray, np.ndarray]:
    """All (u, v) acceptance pairs with 0 <= v <= u <= 1 on a grid_n grid,
    for any grid_n that :func:`grid_size` reads with ``low=2``.

    u is the acceptance probability on base-positive points, v on
    base-negative points; the randomized family (p, q) maps onto exactly
    this triangle via u = 1 - p + p q, v = p q.
    """
    return _option_grid(grid_size(grid_n, low=2))


@functools.lru_cache(maxsize=4)
def _option_grid(grid_n: int) -> tuple[np.ndarray, np.ndarray]:
    g = np.linspace(0.0, 1.0, grid_n)
    rows, cols = np.triu_indices(grid_n)
    u, v = g[cols], g[rows]  # v <= u
    u.flags.writeable = v.flags.writeable = False  # shared by every caller
    return u, v


def params_from_uv(u: float, v: float) -> tuple[float, float]:
    p = 1.0 - (u - v)
    q = v / p if p > 1e-15 else 0.0
    return (min(max(p, 0.0), 1.0), min(max(q, 0.0), 1.0))


#: Most B options in one span block of the 2-D scan, which bounds its
#: temporaries when many options share a first statistic.
_PAIR_CHUNK = 512
#: Far above the rounding of statistics in [0, 1], so the 2-D prefilter can
#: only over-include.
_PAIR_PAD = 1e-9


def pair_min_1d(
    stat_a: np.ndarray,
    err_a: np.ndarray,
    stat_b: np.ndarray,
    err_b: np.ndarray,
    tol: float,
) -> list[tuple[float, int, int] | None]:
    """Per row r, the min of err_a[i] + err_b[j] over
    |stat_a[r, i] - stat_b[r, j]| <= tol.

    The statistics are stacked (rows, n) arrays; each error array is either
    shared by every row, shape (n,), or given per row. Exact and O(n log n)
    per row. With both sides sorted by statistic, the A options within tol
    of each B option form one window of sorted A, found by binary search
    with the same comparisons a sliding window makes, and a sparse table
    gives each window's minimum. NaN statistics sort last and pair with
    nothing. The first B option in sorted order with the smallest total
    wins, paired with the last minimum of its window; a row whose feasible
    totals are all +inf keeps its first feasible B option. Returns, per row,
    (total, i, j) in the original indexing, or None.
    """
    rows, n = stat_a.shape
    if not n or not stat_b.shape[1]:
        return [None] * rows
    each = np.arange(rows)
    row = each[:, None]

    def by_row(values: np.ndarray, order: np.ndarray) -> np.ndarray:
        return values[order] if values.ndim == 1 else values[row, order]

    order_a = np.argsort(stat_a, axis=1, kind="stable")
    sa, ea = stat_a[row, order_a], by_row(err_a, order_a)
    order_b = np.argsort(stat_b, axis=1, kind="stable")
    sb, eb = stat_b[row, order_b], by_row(err_b, order_b)

    hi = np.empty(sb.shape, dtype=np.intp)  # first sa > s + tol
    lo = np.empty(sb.shape, dtype=np.intp)  # first sa >= s - tol
    for r in range(rows):
        hi[r] = np.searchsorted(sa[r], sb[r] + tol, side="right")
        lo[r] = np.searchsorted(sa[r], sb[r] - tol, side="left")
    np.minimum(lo, hi, out=lo)
    feasible = (lo < hi) & ~np.isnan(sb)  # a NaN statistic is within tol of nothing

    # table[k, r, i]: min of ea[r] over [i, i + 2**k); entries past n - 2**k are never read.
    table = np.full((n.bit_length(), rows, n), np.inf)
    table[0] = ea
    for k in range(1, len(table)):
        w = 2 ** (k - 1)
        np.minimum(table[k - 1, :, :-w], table[k - 1, :, w:], out=table[k, :, :-w])

    # floor(log2(hi - lo)), exact for integer lengths; 0 for empty windows
    level = np.maximum(np.frexp(hi - lo)[1] - 1, 0)
    start = np.minimum(lo, n - 1)  # infeasible windows may start at n
    window_min = np.minimum(table[level, row, start], table[level, row, hi - 2**level])
    totals = np.where(feasible, window_min + eb, np.inf)

    first = np.argmin(totals, axis=1)
    best = totals[each, first]
    stuck = best == np.inf
    if stuck.any():
        first[stuck] = np.argmax(feasible[stuck], axis=1)
    lo, hi, low = lo[each, first], hi[each, first], window_min[each, first]
    # the sliding window keeps the last of tied minima
    pos = np.arange(n)
    tied = (pos >= lo[:, None]) & (pos < hi[:, None]) & (ea == low[:, None])
    ia = n - 1 - np.argmax(tied[:, ::-1], axis=1)
    found = zip(
        feasible.any(axis=1).tolist(),
        best.tolist(),
        order_a[each, ia].tolist(),
        order_b[each, first].tolist(),
    )
    return [(total, i, j) if hit else None for hit, total, i, j in found]


def pair_min_2d(
    stats_a: tuple[np.ndarray, np.ndarray],
    err_a: np.ndarray,
    stats_b: tuple[np.ndarray, np.ndarray],
    err_b: np.ndarray,
    tol: float,
) -> tuple[float, int, int] | None:
    """Min of err_a[i] + err_b[j] over |ta[i] - tb[j]| <= tol and
    |fa[i] - fb[j]| <= tol, the two-constraint variant of :func:`pair_min_1d`.

    Exact. B is sorted by its first statistic and cut into span blocks: a
    block closes once that statistic has moved by 2 (tol + pad) from the
    block's first option, or once it holds ``_PAIR_CHUNK`` options. Each
    block meets only the A options within tol and a small pad of the
    block's range of both statistics, so this prefilter can only
    over-include; the elementwise test above then decides feasibility. Ties
    go to the lowest j, then the lowest i. Returns (total, i, j), or None.
    """
    ta, fa = stats_a
    tb, fb = stats_b
    order_a = np.argsort(ta, kind="stable")
    sorted_ta = ta[order_a]
    order_b = np.argsort(tb, kind="stable")
    sorted_tb = tb[order_b]
    reach = tol + _PAIR_PAD

    best: tuple[float, int, int] | None = None  # (total, j, i)
    start = 0
    while start < len(order_b):
        # the span ends before the first option past it; a NaN span ends only
        # at the cap, and every block holds at least one option
        span = np.searchsorted(sorted_tb, sorted_tb[start] + 2.0 * reach, side="right")
        stop = max(min(int(span), start + _PAIR_CHUNK), start + 1)
        jb = order_b[start:stop]
        t, f = sorted_tb[start:stop], fb[jb]
        start = stop
        lo = np.searchsorted(sorted_ta, t[0] - reach, side="left")
        hi = np.searchsorted(sorted_ta, t[-1] + reach, side="right")
        ia = order_a[lo:hi]
        # fmin / fmax skip NaN, which is within tol of nothing
        ia = ia[(fa[ia] >= np.fmin.reduce(f) - reach) & (fa[ia] <= np.fmax.reduce(f) + reach)]
        if not len(ia):
            continue
        mask = (np.abs(ta[None, ia] - t[:, None]) <= tol) & (
            np.abs(fa[None, ia] - f[:, None]) <= tol
        )
        totals = np.where(mask, err_a[None, ia] + err_b[jb, None], np.inf)
        val = float(totals.min())
        if not math.isfinite(val) or (best is not None and val > best[0]):
            continue
        rows, cols = np.nonzero(totals == val)
        j = int(jb[rows].min())
        i = int(ia[cols][jb[rows] == j].min())
        if best is None or (val, j, i) < best:
            best = (val, j, i)
    return None if best is None else (best[0], best[2], best[1])


def statistic_inputs(cells: np.ndarray, notion: str) -> np.ndarray:
    """The floats of stacked mass tables (rows of m1p, m1n, m0p, m0n) that
    the notion's option statistics and denominator checks read, one row per
    table: (m1p + m1n, m0p + m0n, m1p + m1n + m0p + m0n) for dp, (m1p, m0p)
    for eopp, all four cells otherwise. Sums run left to right, as in the
    statistics. A grid response depends on a table only through these."""
    if notion == "dp":
        pos = cells[:, 0] + cells[:, 1]
        return np.stack((pos, cells[:, 2] + cells[:, 3], pos + cells[:, 2] + cells[:, 3]), axis=1)
    if notion == "eopp":
        return cells[:, (0, 2)]
    return cells


#: What each notion divides a group's option statistics by, in the order it
#: is checked: (what a group lacks when it is zero, columns of
#: :func:`statistic_inputs`). Masses are >= 0, so a sum is zero only when
#: every cell in it is.
_DENOMINATORS = {
    "dp": (("mass", (2,)),),
    "predictive_parity": (("mass", (0, 1, 2, 3)),),
    "eopp": (("positives", (0, 1)),),
    "eodds": (("positives", (0, 2)), ("negatives", (1, 3))),
}


def _grid_options(
    inputs: np.ndarray, err: np.ndarray, notion: str, uu: np.ndarray, vv: np.ndarray
) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """The notion's corrupted statistics of every (u, v) option, one row per
    row of :func:`statistic_inputs`, and the options' clean error ``err``.
    The caller has checked the denominators. Precision needs accepted mass:
    an option accepting none has error +inf."""
    columns = [inputs[:, i, None] for i in range(inputs.shape[1])]
    if notion == "dp":
        pos, neg, mass = columns
        return ((uu * pos + vv * neg) / mass,), err
    if notion == "eopp":
        c1p, c0p = columns
        return ((uu * c1p + vv * c0p) / (c1p + c0p),), err
    c1p, c1n, c0p, c0n = columns
    if notion == "predictive_parity":
        accepted = uu * (c1p + c1n) + vv * (c0p + c0n)
        valid = accepted > 0.0
        ppv = np.where(valid, (uu * c1p + vv * c0p) / np.where(valid, accepted, 1.0), np.nan)
        return (ppv,), np.where(valid, err, np.inf)
    return ((uu * c1p + vv * c0p) / (c1p + c0p), (uu * c1n + vv * c0n) / (c1n + c0n)), err


def grid_responses(
    dirty: Sequence[Mapping[str, np.ndarray]],
    clean: Distribution,
    hypotheses: Sequence[BaseClassifier | PQClassifier],
    notion: str,
    grid_n: int,
) -> list[tuple[float, int, int, int]]:
    """The grid search of :func:`best_response`, for a stack of corrupted
    distributions sharing one clean side.

    ``dirty[k][g]`` holds, one row per corrupted distribution, group g's
    corrupted mass-table cells under hypothesis k, as a (rows, 4) array.
    Returns per row the minimum clean-error feasible pair as (total, k, ia,
    ib); equal totals go to the lowest k, then to the pair search's own
    tie-break. Raises ``InputError`` first for a ``grid_n`` that
    :func:`grid_size` rejects. For the first row that has one, raises the
    error :func:`best_response` raises on that row alone:
    ``InputError`` when a group lacks the mass the notion divides by,
    ``InfeasibleError`` when no grid pair meets the tolerance.
    """
    grid_n = grid_size(grid_n)
    if len(clean.groups) != 2:
        raise InputError("best_response searches exactly two groups")
    if not hypotheses:
        raise InputError("hypothesis list is empty")
    if notion not in _DENOMINATORS:
        raise InputError(f"best_response does not support notion {notion!r}")

    ga, gb = clean.groups
    tol = 2.0 / grid_n
    uu, vv = option_grid(grid_n)

    inputs = [{g: statistic_inputs(t[g], notion) for g in (ga, gb)} for t in dirty]
    # zero[c, r]: row r fails check c; a group's mass does not depend on the hypothesis
    checks = [(g, what, cols) for g in (ga, gb) for what, cols in _DENOMINATORS[notion]]
    zero = np.array([inputs[0][g][:, cols].sum(axis=1) <= 0.0 for g, _, cols in checks])
    bad = zero.any(axis=0)
    rows = int(bad.argmax()) if bad.any() else len(bad)  # the rows before the first bad one

    best: list[tuple[float, int, int, int] | None] = [None] * rows
    for k, h in enumerate(hypotheses):
        clean_table = mass_table(h, clean)
        (stats_a, err_a), (stats_b, err_b) = (
            _grid_options(inputs[k][g][:rows], sum(error_terms(clean_table[g], uu, vv)), notion, uu, vv)
            for g in (ga, gb)
        )
        if len(stats_a) == 1:
            found = pair_min_1d(stats_a[0], err_a, stats_b[0], err_b, tol)
        else:
            found = [
                pair_min_2d((ta, fa), err_a, (tb, fb), err_b, tol)
                for ta, fa, tb, fb in zip(*stats_a, *stats_b)
            ]
        for r, hit in enumerate(found):
            if hit is not None and math.isfinite(hit[0]):
                candidate = (hit[0], k, hit[1], hit[2])
                if best[r] is None or candidate < best[r]:
                    best[r] = candidate

    if None in best:
        raise InfeasibleError(
            f"no grid point satisfies {notion} within tolerance {tol:.4g} at grid_n={grid_n}"
        )
    if rows < len(bad):
        g, what, _ = checks[int(zero[:, rows].argmax())]
        raise InputError(f"group {g!r} has no {what} on the corrupted distribution")
    return best  # type: ignore[return-value]


def grid_classifier(
    h: BaseClassifier | PQClassifier, groups: Sequence[str], grid_n: int, ia: int, ib: int
) -> PQClassifier:
    """The randomized classifier taking grid option ``ia`` on the first
    group and ``ib`` on the second."""
    uu, vv = option_grid(grid_n)
    ga, gb = groups
    return PQClassifier(
        base=as_pq(h).base,
        params={
            ga: params_from_uv(float(uu[ia]), float(vv[ia])),
            gb: params_from_uv(float(uu[ib]), float(vv[ib])),
        },
    )


def best_response(
    corrupted: Distribution,
    clean: Distribution,
    hypotheses: Sequence[BaseClassifier | PQClassifier],
    notion: str,
    grid_n: int = 41,
    reference_error: float = 0.0,
    alpha: float | None = None,
) -> RepairWitness:
    """Minimum-error grid point satisfying the fairness notion (dp, eopp,
    eodds or predictive_parity) on the corrupted distribution, with error
    reported on the clean one.

    The fairness tolerance is 2 / grid_n; a pair with a non-finite total is
    infeasible. Raises ``InfeasibleError`` when no grid point meets it; the
    tolerance is never silently relaxed. This is the one-row case of
    :func:`grid_responses`.
    """
    dirty = [
        {g: np.array([cells]) for g, cells in mass_table(h, corrupted).items()} for h in hypotheses
    ]
    ((_, k, ia, ib),) = grid_responses(dirty, clean, hypotheses, notion, grid_n)
    repaired = grid_classifier(hypotheses[k], clean.groups, grid_n, ia, ib)
    gap = fairness_gap(group_stats(repaired, corrupted), notion)
    err = error(repaired, clean)
    return RepairWitness(
        classifier=repaired,
        notion=notion,
        gap_on_corrupted=gap,
        error_on_original=err,
        excess_error_on_original=err - reference_error,
        candidate_label="direct",
        alpha=alpha,
    )
