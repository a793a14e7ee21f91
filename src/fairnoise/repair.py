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

import math
from dataclasses import dataclass
from typing import Sequence

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
from .errors import ContractError, InfeasibleError, InputError


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


def option_grid(grid_n: int) -> tuple[np.ndarray, np.ndarray]:
    """All (u, v) acceptance pairs with 0 <= v <= u <= 1 on a grid_n grid.

    u is the acceptance probability on base-positive points, v on
    base-negative points; the randomized family (p, q) maps onto exactly
    this triangle via u = 1 - p + p q, v = p q.
    """
    if grid_n < 2:
        raise InputError("grid_n must be at least 2")
    if grid_n > MAX_GRID_N:
        raise InputError(f"grid_n must be at most {MAX_GRID_N}")
    g = np.linspace(0.0, 1.0, grid_n)
    rows, cols = np.triu_indices(grid_n)
    return g[cols], g[rows]  # u, v with v <= u


def params_from_uv(u: float, v: float) -> tuple[float, float]:
    p = 1.0 - (u - v)
    q = v / p if p > 1e-15 else 0.0
    return (min(max(p, 0.0), 1.0), min(max(q, 0.0), 1.0))


#: B options per block of the 2-D scan, which bounds its temporaries.
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
) -> tuple[float, int, int] | None:
    """Min of err_a[i] + err_b[j] over |stat_a[i] - stat_b[j]| <= tol.

    Exact and O(n log n). With both sides sorted by statistic, the A options
    within tol of each B option form one window of sorted A, found by binary
    search with the same comparisons a sliding window makes, and a sparse
    table gives each window's minimum. The first B option in sorted order
    with the smallest total wins, paired with the last minimum of its window.
    Returns (total, i, j) in the original indexing, or None.
    """
    order_a = np.argsort(stat_a, kind="stable")
    sa = stat_a[order_a]
    ea = err_a[order_a]
    order_b = np.argsort(stat_b, kind="stable")
    sb = stat_b[order_b]

    hi = np.searchsorted(sa, sb + tol, side="right")  # first sa > s + tol
    lo = np.minimum(np.searchsorted(sa, sb - tol, side="left"), hi)  # first sa >= s - tol
    js = np.flatnonzero(lo < hi)
    if not len(js):
        return None
    lo, hi = lo[js], hi[js]

    # table[k, i]: min of ea over [i, i + 2**k); entries past n - 2**k are never read.
    n = len(ea)
    table = np.full((n.bit_length(), n), np.inf)
    table[0] = ea
    for k in range(1, len(table)):
        w = 2 ** (k - 1)
        np.minimum(table[k - 1, :-w], table[k - 1, w:], out=table[k, :-w])

    length = hi - lo
    level = np.zeros_like(length)
    for k in range(1, len(table)):
        level += length >= 2**k
    window_min = np.minimum(table[level, lo], table[level, hi - 2**level])
    totals = window_min + err_b[order_b[js]]
    first = int(np.argmin(totals))
    # the sliding window keeps the last of tied minima
    ia = hi[first] - 1 - int(np.argmin(ea[lo[first] : hi[first]][::-1]))
    return float(totals[first]), int(order_a[ia]), int(order_b[js[first]])


def pair_min_2d(
    stats_a: tuple[np.ndarray, np.ndarray],
    err_a: np.ndarray,
    stats_b: tuple[np.ndarray, np.ndarray],
    err_b: np.ndarray,
    tol: float,
) -> tuple[float, int, int] | None:
    """Min of err_a[i] + err_b[j] over |ta[i] - tb[j]| <= tol and
    |fa[i] - fb[j]| <= tol, the two-constraint variant of :func:`pair_min_1d`.

    Exact. B is scanned in blocks sorted by its first statistic. Each block
    meets only the A options inside the block's range of both statistics,
    widened by tol and a small pad, so this prefilter can only over-include;
    the elementwise test above then decides feasibility. Ties go to the
    lowest j, then the lowest i. Returns (total, i, j), or None.
    """
    ta, fa = stats_a
    tb, fb = stats_b
    order_a = np.argsort(ta, kind="stable")
    sorted_ta = ta[order_a]
    order_b = np.argsort(tb, kind="stable")
    reach = tol + _PAIR_PAD

    best: tuple[float, int, int] | None = None  # (total, j, i)
    for start in range(0, len(order_b), _PAIR_CHUNK):
        jb = order_b[start : start + _PAIR_CHUNK]
        t, f = tb[jb], fb[jb]
        lo = np.searchsorted(sorted_ta, t[0] - reach, side="left")
        hi = np.searchsorted(sorted_ta, t[-1] + reach, side="right")
        ia = order_a[lo:hi]
        ia = ia[(fa[ia] >= f.min() - reach) & (fa[ia] <= f.max() + reach)]
        if not len(ia):
            continue
        mask = (np.abs(ta[None, ia] - t[:, None]) <= tol) & (
            np.abs(fa[None, ia] - f[:, None]) <= tol
        )
        totals = np.where(mask, err_a[None, ia] + err_b[jb, None], np.inf)
        val = float(totals.min())
        if not math.isfinite(val):
            continue
        rows, cols = np.nonzero(totals == val)
        j = int(jb[rows].min())
        i = int(ia[cols][jb[rows] == j].min())
        if best is None or (val, j, i) < best:
            best = (val, j, i)
    return None if best is None else (best[0], best[2], best[1])


def _grid_options(
    group: str,
    dirty: tuple[float, ...],
    clean: tuple[float, ...],
    notion: str,
    uu: np.ndarray,
    vv: np.ndarray,
) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """The notion's corrupted statistics and the clean error of every (u, v)
    option, from the group's corrupted and clean mass-table cells. Precision
    needs accepted mass: an option accepting none has error +inf."""
    c1p, c1n, c0p, c0n = dirty
    stats: list[np.ndarray] = []
    err = sum(error_terms(clean, uu, vv))
    accepted = uu * (c1p + c1n) + vv * (c0p + c0n)
    if notion == "dp":
        stats.append(accepted / sum(dirty))
    elif notion == "predictive_parity":
        valid = accepted > 0.0
        stats.append(np.where(valid, (uu * c1p + vv * c0p) / np.where(valid, accepted, 1.0), np.nan))
        err = np.where(valid, err, np.inf)
    elif notion in ("eopp", "eodds"):
        pos = c1p + c0p
        if pos <= 0.0:
            raise InputError(f"group {group!r} has no positives on the corrupted distribution")
        stats.append((uu * c1p + vv * c0p) / pos)
        if notion == "eodds":
            neg = c1n + c0n
            if neg <= 0.0:
                raise InputError(f"group {group!r} has no negatives on the corrupted distribution")
            stats.append((uu * c1n + vv * c0n) / neg)
    else:
        raise InputError(f"best_response does not support notion {notion!r}")
    return tuple(stats), err


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
    tolerance is never silently relaxed.
    """
    if grid_n < 11:
        raise InputError("grid_n must be at least 11")
    if len(clean.groups) != 2:
        raise InputError("best_response searches exactly two groups")
    if not hypotheses:
        raise InputError("hypothesis list is empty")

    ga, gb = clean.groups
    tol = 2.0 / grid_n
    uu, vv = option_grid(grid_n)

    best: tuple[float, int, int, int] | None = None  # (total err, base idx, ia, ib)
    for k, h in enumerate(hypotheses):
        dirty_table, clean_table = mass_table(h, corrupted), mass_table(h, clean)
        (stats_a, err_a), (stats_b, err_b) = (
            _grid_options(g, dirty_table[g], clean_table[g], notion, uu, vv) for g in (ga, gb)
        )
        if len(stats_a) == 1:
            found = pair_min_1d(stats_a[0], err_a, stats_b[0], err_b, tol)
        else:
            found = pair_min_2d(stats_a, err_a, stats_b, err_b, tol)
        if found is None or not math.isfinite(found[0]):
            continue
        total, ia, ib = found
        if best is None or (total, k, ia, ib) < best:
            best = (total, k, ia, ib)

    if best is None:
        raise InfeasibleError(
            f"no grid point satisfies {notion} within tolerance {tol:.4g} at grid_n={grid_n}"
        )

    _, k, ia, ib = best
    base = as_pq(hypotheses[k]).base
    repaired = PQClassifier(
        base=base,
        params={
            ga: params_from_uv(float(uu[ia]), float(vv[ia])),
            gb: params_from_uv(float(uu[ib]), float(vv[ib])),
        },
    )
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
