"""Randomized-classifier repairs and the exact best-response learner.

Two kinds of object live here. The witness constructors (``dp_repair``,
``eopp_repair``) are omniscient: they see both the clean and the corrupted
distribution and build an explicit randomized classifier whose fairness gap
on the corrupted distribution is zero by construction. ``best_response`` is
the learner-side procedure: it sees only the corrupted distribution and
minimizes clean error over per-group acceptance probabilities, exactly by
an LP for dp, eopp and eodds and on a grid for predictive parity. The
harness uses the witnesses to certify upper bounds and the learner, with
``certified_floor``'s dual certificate, to certify lower bounds (its
minimum is what any repair strategy could achieve).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

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

if TYPE_CHECKING:  # fractions imports decimal; only certified_floor needs it
    from fractions import Fraction


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
# Best response over the randomized family: an LP, or a grid for predictive
# parity
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


def statistic_inputs(cells: np.ndarray, notion: str) -> np.ndarray:
    """The floats of stacked mass tables (rows of m1p, m1n, m0p, m0n) that
    the notion's option statistics and denominator checks read, one row per
    table: (m1p + m1n, m0p + m0n, m1p + m1n + m0p + m0n) for dp, (m1p, m0p)
    for eopp, all four cells otherwise. Sums run left to right, as in the
    statistics. A best response depends on a table only through these."""
    if notion == "dp":
        pos = cells[:, 0] + cells[:, 1]
        return np.stack((pos, cells[:, 2] + cells[:, 3], pos + cells[:, 2] + cells[:, 3]), axis=1)
    if notion == "eopp":
        return cells[:, (0, 2)]
    return cells


#: What each notion divides a group's option statistics by, in the order it
#: is checked: (what a group lacks when it is zero, columns of
#: :func:`statistic_inputs` summing to it, ...). Masses are >= 0, so a sum
#: is zero only when every cell in it is. For dp, eopp and eodds each entry
#: is a statistic the notion equates across groups, (u a + v b) / d for
#: option (u, v), and ends with the columns holding a and b: the rate for
#: dp, the true positive rate for eopp, and for eodds it and the false
#: positive rate.
_DENOMINATORS = {
    "dp": (("mass", (2,), (0, 1)),),
    "predictive_parity": (("mass", (0, 1, 2, 3), None),),
    "eopp": (("positives", (0, 1), (0, 1)),),
    "eodds": (("positives", (0, 2), (0, 2)), ("negatives", (1, 3), (1, 3))),
}


def _grid_options(
    inputs: np.ndarray, err: np.ndarray, uu: np.ndarray, vv: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The corrupted precision of every (u, v) option, one row per row of
    :func:`statistic_inputs`, and the options' clean error ``err``. The
    caller has checked the denominators. Precision needs accepted mass: an
    option accepting none has no precision (NaN) and error +inf."""
    c1p, c1n, c0p, c0n = (inputs[:, i, None] for i in range(4))
    accepted = uu * (c1p + c1n) + vv * (c0p + c0n)
    valid = accepted > 0.0
    ppv = np.where(valid, (uu * c1p + vv * c0p) / np.where(valid, accepted, 1.0), np.nan)
    return ppv, np.where(valid, err, np.inf)


def _equalities(inputs_a: np.ndarray, inputs_b: np.ndarray, notion: str) -> np.ndarray:
    """Per row of both groups' :func:`statistic_inputs`, the coefficients
    over x = (u_A, v_A, u_B, v_B) of each equality s_A - s_B = 0 of the
    notion, as a (rows, equalities, 4) array, from ``_DENOMINATORS``; exact
    on an object array of Fractions."""
    rows = []
    for _, summed, (i, j) in _DENOMINATORS[notion]:
        d_a, d_b = (sum(x[:, k] for k in summed) for x in (inputs_a, inputs_b))
        a, b = inputs_a / d_a[:, None], inputs_b / d_b[:, None]
        rows.append(np.stack((a[:, i], a[:, j], -b[:, i], -b[:, j]), axis=-1))
    return np.stack(rows, axis=1)


#: Each group's triangle 0 <= v <= u <= 1 of options as rows of G x <= h
#: over x = (u_A, v_A, u_B, v_B): -v <= 0, v - u <= 0 and u <= 1, A first.
_TRIANGLE = np.array([[0, -1, 0, 0], [-1, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, -1, 1], [0, 0, 1, 0]])
_BOUND = np.array([0, 0, 1, 0, 0, 1])
#: How far a vertex may miss a constraint and still count as feasible.
_LP_TOL = 1e-12


def _vertices(systems: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """The solution of each 4 x 4 system of a stack, NaN where it is
    singular. numpy factors each system on its own, so its solution does
    not depend on the rest of the stack."""
    singular = np.linalg.det(systems) == 0.0
    x = np.linalg.solve(np.where(singular[..., None, None], np.eye(4), systems), bounds[..., None])
    return np.where(singular[..., None], np.nan, x[..., 0])


@functools.lru_cache(maxsize=2)
def _active_sets(n_eq: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every 4-subset of n_eq equality rows followed by the six triangle
    rows, in ``itertools.combinations`` order; which subsets hold an
    equality; and the vertex of each of the others, which does not depend
    on the instance."""
    subsets = np.array(list(itertools.combinations(range(n_eq + 6), 4)))
    mixed = subsets.min(axis=1) < n_eq
    triangle = subsets[~mixed] - n_eq
    return subsets, mixed, _vertices(_TRIANGLE[triangle].astype(float), _BOUND[triangle].astype(float))


def _lp_vertices(
    eq: np.ndarray, clean_table: Mapping[str, tuple[float, ...]], groups: Sequence[str]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every vertex of the LP that minimizes clean error over both groups'
    triangles subject to the equalities ``eq`` of :func:`_equalities`, per
    row: (clean error, +inf where infeasible; x; the active sets), where
    the first two are indexed by row and active set.

    Clean error is linear in x, so a vertex attains the minimum: a point
    where four independent constraints hold with equality. Every 4-subset
    is solved; a vertex that misses a constraint by more than ``_LP_TOL`` is
    infeasible, and the others are clamped to the triangles. Accepting
    everything meets every equality, so a row always has a feasible vertex.
    No step reduces across rows, so each row gets the same bits in any
    stack."""
    rows, n_eq, _ = eq.shape
    subsets, mixed, fixed = _active_sets(n_eq)
    a = np.concatenate((eq, np.broadcast_to(_TRIANGLE, (rows, 6, 4))), axis=1)
    b = np.concatenate((np.zeros(n_eq), _BOUND))
    x = np.empty((rows, len(subsets), 4))
    x[:, ~mixed] = fixed
    x[:, mixed] = _vertices(a[:, subsets[mixed]], b[subsets[mixed]])
    miss = sum(a[:, None, :, j] * x[:, :, None, j] for j in range(4)) - b  # (rows, subsets, rows of a)
    feasible = (np.abs(miss[..., :n_eq]) <= _LP_TOL).all(axis=2) & (miss[..., n_eq:] <= _LP_TOL).all(axis=2)
    u = np.clip(x[..., ::2], 0.0, 1.0) + 0.0  # + 0.0 turns -0.0 into 0.0
    v = np.clip(x[..., 1::2], 0.0, u) + 0.0
    err = sum(sum(error_terms(clean_table[g], u[..., i], v[..., i])) for i, g in enumerate(groups))
    return np.where(feasible, err, np.inf), np.stack((u, v), axis=-1).reshape(x.shape), subsets


def grid_responses(
    dirty: Sequence[Mapping[str, np.ndarray]],
    clean: Distribution,
    hypotheses: Sequence[BaseClassifier | PQClassifier],
    notion: str,
    grid_n: int,
) -> list[tuple[float, int, tuple[float, ...]]]:
    """The search of :func:`best_response`, for a stack of corrupted
    distributions sharing one clean side.

    ``dirty[k][g]`` holds, one row per corrupted distribution, group g's
    corrupted mass-table cells under hypothesis k, as a (rows, 4) array.
    Returns per row the minimum clean error as (total, k, x): x is (u_A,
    v_A, u_B, v_B), the acceptance probabilities of each group's
    base-positive and base-negative points. dp, eopp and eodds take the
    first cheapest of the exact LP's vertices (:func:`_lp_vertices`) in
    active-set order, row by row. Predictive parity pairs the options of a
    grid_n grid within 2 / grid_n with :func:`pair_min_1d`. Equal totals go
    to the lowest k. Raises ``InputError`` first for a ``grid_n`` that
    :func:`grid_size` rejects, although only predictive parity reads it.
    For the first row that has one, raises the error :func:`best_response`
    raises on that row alone:
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
    inputs = [{g: statistic_inputs(t[g], notion) for g in (ga, gb)} for t in dirty]
    # zero[c, r]: row r fails check c; a group's mass does not depend on the hypothesis
    checks = [(g, what, cols) for g in (ga, gb) for what, cols, _ in _DENOMINATORS[notion]]
    zero = np.array([inputs[0][g][:, cols].sum(axis=1) <= 0.0 for g, _, cols in checks])
    bad = zero.any(axis=0)
    rows = int(bad.argmax()) if bad.any() else len(bad)  # the rows before the first bad one

    best: list = [None] * rows
    for k, h in enumerate(hypotheses):
        clean_table = mass_table(h, clean)
        a, b = (inputs[k][g][:rows] for g in (ga, gb))
        if notion == "predictive_parity":
            uu, vv = option_grid(grid_n)
            (ppv_a, err_a), (ppv_b, err_b) = (
                _grid_options(side, sum(error_terms(clean_table[g], uu, vv)), uu, vv)
                for g, side in ((ga, a), (gb, b))
            )
            found = [
                hit and (hit[0], (float(uu[hit[1]]), float(vv[hit[1]]), float(uu[hit[2]]), float(vv[hit[2]])))
                for hit in pair_min_1d(ppv_a, err_a, ppv_b, err_b, 2.0 / grid_n)
            ]
        else:
            totals, xs, _ = _lp_vertices(_equalities(a, b, notion), clean_table, clean.groups)
            pick, each = np.argmin(totals, axis=1), np.arange(rows)  # the first cheapest vertex
            found = list(zip(totals[each, pick].tolist(), map(tuple, xs[each, pick].tolist())))
        for r, hit in enumerate(found):
            if hit and math.isfinite(hit[0]) and (best[r] is None or hit[0] < best[r][0]):
                best[r] = (hit[0], k, hit[1])

    if None in best:
        raise InfeasibleError(
            f"no grid point satisfies {notion} within tolerance {2.0 / grid_n:.4g} at grid_n={grid_n}"
        )
    if rows < len(bad):
        g, what, _ = checks[int(zero[:, rows].argmax())]
        raise InputError(f"group {g!r} has no {what} on the corrupted distribution")
    return best


def option_classifier(
    h: BaseClassifier | PQClassifier, groups: Sequence[str], x: Sequence[float]
) -> PQClassifier:
    """The randomization of ``h`` that accepts the base-positive and
    base-negative points of the first group with probabilities x[0] and
    x[1], and those of the second group with x[2] and x[3]."""
    ga, gb = groups
    return PQClassifier(base=as_pq(h).base, params={ga: params_from_uv(*x[:2]), gb: params_from_uv(*x[2:])})


def _solve_exact(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """y with matrix y = rhs, by Gauss-Jordan elimination in exact
    arithmetic; None when the matrix is singular."""
    n = len(rhs)
    rows = [row + [r] for row, r in zip(matrix, rhs)]
    for col in range(n):
        k = next((k for k in range(col, n) if rows[k][col]), None)
        if k is None:
            return None
        rows[col], rows[k] = rows[k], rows[col]
        pivot = rows[col]
        for r, row in enumerate(rows):
            if r != col and row[col]:
                f = row[col] / pivot[col]
                rows[r] = [x - f * y for x, y in zip(row, pivot)]
    return [row[n] / row[i] for i, row in enumerate(rows)]


def certified_floor(
    corrupted: Distribution, clean: Distribution, h: BaseClassifier | PQClassifier, notion: str
) -> Fraction:
    """The least clean error of any randomization of ``h`` that meets dp,
    eopp or eodds on ``corrupted``, as an exact Fraction proved by a dual
    certificate.

    The float masses are exact binary rationals, and the certificate is
    checked on them in Fractions. For an active set of a cheapest vertex,
    the multipliers y solve stationarity, y^T A_active = -c for the clean
    error's gradient c; that equation must then hold exactly, and every
    triangle row's multiplier must be >= 0. By weak duality no classifier
    in the class then errs less than the dual value c_0 - y^T h_active.
    Active sets are tried in order of their vertex's float clean error,
    then in active-set order, since at a degenerate vertex only some of
    them have such multipliers. The first that does gives the floor, which
    must lie within ``GAP_TOL`` of :func:`best_response`'s error.
    ``ContractError`` when none does; the input errors of
    :func:`best_response`.
    """
    from fractions import Fraction  # imports decimal, which only this needs

    if notion not in ("dp", "eopp", "eodds"):
        raise InputError(f"certified_floor supports dp, eopp and eodds, got {notion!r}")
    primal = best_response(corrupted, clean, [h], notion).error_on_original
    dirty, table = mass_table(h, corrupted), mass_table(h, clean)
    inputs = [statistic_inputs(np.array([dirty[g]]), notion) for g in clean.groups]
    totals, _, subsets = _lp_vertices(_equalities(*inputs, notion), table, clean.groups)

    exact = (np.array([list(map(Fraction, dirty[g]))], dtype=object) for g in clean.groups)
    a = np.concatenate((_equalities(*(statistic_inputs(t, notion) for t in exact), notion)[0], _TRIANGLE))
    n_eq = len(a) - 6
    # clean error is const + c . x, and stationarity asks y^T A_active = target = -c
    cells = [list(map(Fraction, table[g])) for g in clean.groups]
    const = sum(m1p + m0p for m1p, _, m0p, _ in cells)
    target = [t for m1p, m1n, m0p, m0n in cells for t in (m1p - m1n, m0p - m0n)]
    for s in np.argsort(totals[0], kind="stable")[: np.isfinite(totals[0]).sum()]:
        active = subsets[s].tolist()
        basis = a[active]
        y = _solve_exact(basis.T.tolist(), target)
        if y is not None and list(np.array(y, dtype=object) @ basis) == target and all(
            m >= 0 for m, i in zip(y, active) if i >= n_eq
        ):
            floor = const - sum(m * int(_BOUND[i - n_eq]) for m, i in zip(y, active) if i >= n_eq)
            if abs(float(floor) - primal) > GAP_TOL:
                raise ContractError(f"dual floor {float(floor)!r} is not the best response's {primal!r}")
            return floor
    raise ContractError(f"no active set of a cheapest {notion} vertex has a dual certificate")


def best_response(
    corrupted: Distribution,
    clean: Distribution,
    hypotheses: Sequence[BaseClassifier | PQClassifier],
    notion: str,
    grid_n: int = 41,
    reference_error: float = 0.0,
    alpha: float | None = None,
) -> RepairWitness:
    """The minimum-error randomization of the hypotheses satisfying the
    fairness notion (dp, eopp, eodds or predictive_parity) on the corrupted
    distribution, with error reported on the clean one.

    For dp, eopp and eodds the minimum is exact: an LP over each group's
    triangle 0 <= v <= u <= 1 of acceptance probabilities, solved by vertex
    enumeration, whose equalities hold to 1e-12 before the vertex is
    clamped to the triangles; ``grid_n`` is only checked. Predictive parity searches a grid_n grid with fairness
    tolerance 2 / grid_n, where a pair with a non-finite total is
    infeasible; it raises ``InfeasibleError`` when no grid pair meets the
    tolerance, which is never silently relaxed. This is the one-row case of
    :func:`grid_responses`.
    """
    dirty = [
        {g: np.array([cells]) for g, cells in mass_table(h, corrupted).items()} for h in hypotheses
    ]
    ((_, k, x),) = grid_responses(dirty, clean, hypotheses, notion, grid_n)
    repaired = option_classifier(hypotheses[k], clean.groups, x)
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
