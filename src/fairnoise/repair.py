"""Randomized-classifier repairs and the LP best-response learner.

Two kinds of object live here. The witness constructors (``dp_repair``,
``eopp_repair``) are omniscient: they see both the clean and the corrupted
distribution and build an explicit randomized classifier whose fairness gap
on the corrupted distribution is zero by construction. ``best_response`` is
the learner-side procedure: it sees only the corrupted distribution and
minimizes clean error over per-group acceptance probabilities by one LP.
For dp, eopp and eodds it is solved in floats with its equalities held to
``_LP_TOL``. For predictive parity the LP falls apart by group at each
common precision, and one closed form in ints, ``_segments``, gives its
minimum at a few candidate precisions. The harness uses the witnesses to
certify upper bounds. Its lower bounds are the exact LP's:
``certified_floor`` proves the dp, eopp and eodds minimum on one active
set's face, with multipliers whose corner bound meets the face's vertex,
and predictive parity's by the same closed form, in Python ints on the
float masses, and calls no numpy routine. For it the float core is only a
fast search, which may lie below the exact minimum by the slack
``_LP_TOL`` lets an equality miss.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .classifiers import (GAP_TOL, READS, STATISTICS, BaseClassifier, PQClassifier, _table_error, _table_stats, as_pq,
                          fairness_gap, mass_table)
from .distributions import Distribution
from .errors import ContractError, FairnoiseError, InfeasibleError, InputError, integer


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
    """The override coin (p, q) moving a group's corrupted statistic from
    ``current`` to ``target``: with probability p the output is replaced
    by a Bernoulli(q) draw.

    The two branches are the raise (q=1) and lower (q=0) overrides; the 0/0
    corner (statistic already pinned at the target) collapses to p=0.
    """
    if target >= current:
        denom = 1.0 - current
        p = (target - current) / denom if denom > 0.0 else 0.0
        return (min(max(p, 0.0), 1.0), 1.0)
    p = (current - target) / current if current > 0.0 else 0.0
    return (min(max(p, 0.0), 1.0), 0.0)


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
    return _repair(h_star, mass_table(h_star, dist), mass_table(h_star, corrupted), "dp", alpha)


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
    return _repair(h_star, mass_table(h_star, dist), mass_table(h_star, corrupted), "eopp", alpha)


def _repair(h_star: BaseClassifier | PQClassifier, clean: Mapping, dirty: Mapping, notion: str, alpha) -> RepairWitness:
    """:func:`dp_repair` or :func:`eopp_repair` on h_star's clean and
    corrupted mass tables: once the base is fair on the clean table, per
    (label, per-group target) candidate, move each group's corrupted
    statistic to its target with the override coins of
    :func:`_match_params`, each acceptance probability a becoming
    (1 - p) a + p q, and keep the candidate cheapest on the clean table,
    the first one on ties."""
    pq = as_pq(h_star)
    stats = _table_stats(pq, clean, notion)
    gap = fairness_gap(stats, notion)
    if gap > GAP_TOL:
        name = {"dp": "DP", "eopp": "EOpp"}[notion]
        raise InputError(f"realizability violated: base classifier has {name} gap {gap:.3e} on the clean distribution")
    _same_groups(dirty, clean)
    if notion == "eopp" and (empty := [g for g, (m1p, _, m0p, _) in dirty.items() if m1p + m0p <= 0.0]):
        raise InputError(f"group {empty[0]!r} has no positives in the corrupted distribution")
    statistic = READS[notion][0]
    current = getattr(_table_stats(pq, dirty, notion), statistic)
    matches = [(f"match_{i}", dict.fromkeys(clean, current[i])) for i in clean]
    candidates = [("direct", getattr(stats, statistic))] if notion == "dp" else matches
    reference, best = _table_error(pq, clean), None
    for label, target in candidates:
        coins = {g: _match_params(current[g], target[g]) for g in clean}
        params = {g: tuple((1.0 - p) * a + p * q for a in pq.uv(g)) for g, (p, q) in coins.items()}
        repaired = PQClassifier(base=pq.base, params=params)
        gap = fairness_gap(_table_stats(repaired, dirty, notion), notion)
        if gap > GAP_TOL:
            who = f"{notion} repair" if label == "direct" else f"{notion} candidate {label}"
            raise ContractError(f"{who} failed its gap contract: {gap:.3e}")
        err = _table_error(repaired, clean)
        if best is None or err < best.error_on_original:
            best = RepairWitness(repaired, notion, gap, err, err - reference, label, alpha)
    return best


# ---------------------------------------------------------------------------
# Best response over the randomized family: one LP, solved at its vertices,
# or on each group's segment for predictive parity
# ---------------------------------------------------------------------------


#: Largest accepted ``grid_n``. No search reads it; the entry points still
#: take it and check its range.
MAX_GRID_N = 1001


def grid_size(grid_n: object) -> int:
    """``grid_n`` as an int in [11, MAX_GRID_N]. An integral float such as
    41.0 reads as 41; bools, fractions, strings and sizes out of range raise
    ``InputError``."""
    n = integer(grid_n, "grid_n")
    if not 11 <= n <= MAX_GRID_N:
        raise InputError(f"grid_n must lie in [11, {MAX_GRID_N}], got {n}")
    return n


def statistic_inputs(cells: np.ndarray, notion: str) -> np.ndarray:
    """The floats of stacked mass tables (m1p, m1n, m0p, m0n on the last
    axis) that the notion's option statistics and denominator checks read,
    one row per table: (m1p + m1n, m0p + m0n, m1p + m1n + m0p + m0n) for
    dp, (m1p, m0p) for eopp, all four cells otherwise. Sums run left to
    right, as in the statistics. A best response depends on a table only
    through these."""
    if notion == "dp":
        out = np.empty(cells.shape[:-1] + (3,), cells.dtype)
        np.add(cells[..., ::2], cells[..., 1::2], out=out[..., :2])
        np.add(out[..., 0] + cells[..., 2], cells[..., 3], out=out[..., 2])
        return out
    if notion == "eopp":
        return cells[..., (0, 2)]
    return cells


#: ``STATISTICS``, and precision's accepted mass, which some option makes
#: positive exactly where the group has mass, as the rate's.
_DIVIDES = {**STATISTICS, "ppv": STATISTICS["rate"]}
#: Per notion, the columns of :func:`statistic_inputs` summing to each d
#: of ``READS[notion]`` and holding each a and b; and the sign of each
#: group's d in the equalities.
_SUMMED = {"dp": [[2]], "eopp": [[0, 1]], "eodds": [[0, 2], [1, 3]], "predictive_parity": [[0, 1, 2, 3]]}
_COLUMNS = {"dp": [[0, 1]], "eopp": [[0, 1]], "eodds": [[0, 2], [1, 3]]}
_SIGNS = np.array([[1], [-1]])


def _denominators(inputs: np.ndarray, notion: str) -> np.ndarray:
    """Each d of ``_SUMMED[notion]``, summed over its columns of
    :func:`statistic_inputs`, on the last axis in place of the columns. A
    sum of one or two columns is the left-to-right sum to the bit, up to
    the sign of a zero; predictive parity's sum of four is only tested for
    zero."""
    return np.add.reduce(inputs[..., _SUMMED[notion]], axis=-1)


def _equalities(inputs: np.ndarray, notion: str, denominators: np.ndarray) -> np.ndarray:
    """Per row of :func:`statistic_inputs` stacked over both groups, (...,
    groups, columns), the coefficients over x = (u_A, v_A, u_B, v_B) of each
    equality s_A - s_B = 0 of the notion, as an (..., equalities, 4) array,
    from ``_COLUMNS``: group A's columns over d_A, then group B's over
    -d_B, which is -(b / d_B) to the bit, in one division.
    ``denominators`` holds :func:`_denominators` of ``inputs``."""
    columns = _COLUMNS[notion]
    eq = np.empty(inputs.shape[:-2] + (len(columns), 4), inputs.dtype)
    quotients = eq.reshape(eq.shape[:-1] + (2, 2)).swapaxes(-3, -2)  # a view: (..., groups, equalities, 2)
    np.divide(inputs[..., columns], (denominators * _SIGNS)[..., None], out=quotients)
    return eq


def _integers(*cells: Sequence[float]) -> tuple[int, list[list[int]]]:
    """Float masses, which are exact binary rationals, times one common
    power of two: (that power, the ints, one list per sequence of
    ``cells``)."""
    ratios = [[m.as_integer_ratio() for m in c] for c in cells]
    scale = max(q for r in ratios for _, q in r)
    return scale, [[p * (scale // q) for p, q in r] for r in ratios]


#: Orders fractions (numerator, denominator > 0) of ints by value.
_BY_VALUE = functools.cmp_to_key(lambda p, q: p[0] * q[1] - q[0] * p[1])
#: Predictive parity's ``InfeasibleError`` message.
_NEVER_MEET = "no classifier meets predictive_parity: the groups' precision ranges never meet"


def _precisions(dirty: Sequence[Sequence[int]], clean: Sequence[Sequence[int]]) -> tuple | None:
    """Where predictive parity's floor can lie, from both groups' corrupted
    and clean mass-table cells in ints: (lo, hi, root), the ends of the
    range of common precisions, each a reduced (numerator, denominator > 0)
    of the ints, and the local minimum of s_A + s_B strictly inside (lo,
    hi), where both s_g < 0, as a float, or None; or None when the groups'
    precision ranges do not meet.

    An option t (1, w) of a group, 0 < t <= 1 and 0 <= w <= 1, has
    precision (c1p + w c0p) / (m1 + w m0), with m1 = c1p + c1n and
    m0 = c0p + c0n, whatever t is. So precision pi is the homogeneous row
    (c1p - pi m1, c0p - pi m0) over the group's (u, v) (Charnes & Cooper),
    met by a segment from the origin, and the LP with both groups' rows
    gives the floor at pi. The origin accepts nothing and has no precision,
    but it is the segment's limit, so the floor is an infimum. Outside a
    group's range [lo_g, hi_g], the precisions of its ends w = 0 and 1,
    only the origin meets the row, so pi stays in [lo, hi], where both
    ranges meet. There each group errs on its clean positives plus
    min(0, s), where s, the clean error its whole segment adds, is
    linear-fractional in pi with its pole outside the range, so monotone
    on it. min(0, s) then only bends down, where s crosses 0, and no
    minimum lies at such a bend: the floor is least at lo, hi or a local
    minimum of s_A + s_B in [low, high], where both s_g < 0: [lo, hi] cut
    at each s_g's zero, a ratio of the ints. There s_A' + s_B' = k_A /
    D_A^2 + k_B / D_B^2, D_g = m0_g pi - c0p_g, goes from negative to
    positive, and so does the quadratic k_A D_B^2 + k_B D_A^2 with int
    coefficients. It is monotone between low, its turning point, when that
    lies between, and high, so its signs there, in ints, decide whether it
    does; its root there is irrational in general."""
    ranges, slopes = [], []
    for (c1p, c1n, c0p, c0n), (e1p, e1n, e0p, e0n) in zip(dirty, clean):
        m1, m0, c_u, c_v = c1p + c1n, c0p + c0n, e1n - e1p, e0n - e0p
        whole = (c1p + c0p, m1 + m0)  # the precision at w = 1, and at w = 0 too when m1 = 0
        ranges.append(sorted(((c1p, m1) if m1 else whole, whole), key=_BY_VALUE))
        # s = (n0 + n1 pi) / (c0p - m0 pi), and s' = k / (m0 pi - c0p)^2
        slopes.append((c_v * (m1 * c0p - c1p * m0), m0, c0p, c_u * c0p - c_v * c1p, c_v * m1 - c_u * m0))
    lo, hi = max((r[0] for r in ranges), key=_BY_VALUE), min((r[1] for r in ranges), key=_BY_VALUE)
    if _BY_VALUE(lo) > _BY_VALUE(hi):
        return None
    lo, hi = ((p // math.gcd(p, q), q // math.gcd(p, q)) for p, q in (lo, hi))
    low, high = lo, hi  # narrowed to where both s < 0
    for _, m0, c0p, n0, n1 in slopes:
        side = c0p * hi[1] - m0 * hi[0]  # the sign s's denominator keeps on [lo, hi], if lo < hi
        r0, r1 = n0 * side, n1 * side  # s < 0 where r0 + r1 pi < 0; (-r0, 0) is -inf, +inf or 0 / 0 to _BY_VALUE
        if r1 >= 0:
            high = min(high, (-r0, r1), key=_BY_VALUE)
        else:
            low = max(low, (r0, -r1), key=_BY_VALUE)
    (k_a, m_a, c_a, *_), (k_b, m_b, c_b, *_) = slopes
    a, b, c = k_a * m_b**2 + k_b * m_a**2, -2 * (k_a * m_b * c_b + k_b * m_a * c_a), k_a * c_b**2 + k_b * c_a**2
    turn = (-b, 2 * a) if a > 0 else (b, -2 * a)
    points = [low, turn, high] if a and _BY_VALUE(low) < _BY_VALUE(turn) < _BY_VALUE(high) else [low, high]
    signs = [a * p * p + b * p * q + c * q * q for p, q in points]  # q^2 times the quadratic
    if _BY_VALUE(low) >= _BY_VALUE(high) or not any(s < 0 < t for s, t in zip(signs, signs[1:])):
        return lo, hi, None
    # the root where it rises, (d - b) / 2a = 2c / (-b - d) with d = sqrt(b^2 - 4ac), in the form that
    # cancels nothing (b > 0 when a = 0), from d times 2^64 rounded down
    d = math.isqrt((b * b - 4 * a * c) << 128)
    return lo, hi, (c << 65) / -((b << 64) + d) if b > 0 else (d - (b << 64)) / (a << 65)


def _segments(dirty: Sequence[Sequence[int]], clean: Sequence[Sequence[int]], p: int, q: int) -> tuple:
    """Predictive parity's floor at the common precision pi = p / q, from
    both groups' corrupted and clean mass-table cells in ints, with pi in
    the range where their precisions meet (:func:`_precisions`): the floor
    as (numerator, denominator > 0) over the cells' scale, and per group
    the end (1, w) of its segment, as (whether the group takes it, w as a
    float).

    At pi a group's options are the (u, v) of its triangle on its row
    q (c1p - pi m1, c0p - pi m0) = (a, b). Where b != 0 they form the
    segment t (1, w), 0 <= t <= 1, w = -a / b in [0, 1], along which the
    group errs t s more than accepting nothing, s = c_u + c_v w for its
    clean error's slopes c_u = c1n - c1p and c_v = c0n - c0p: it takes the
    end when s < 0. Where b = 0, a = 0 too, since pi lies in the group's
    range, and every option has precision pi: the group takes its best
    corner, nothing, (1, 0) or (1, 1), the first on ties, with w = 1 for
    nothing. The groups' rows share no coordinate, so the floor is the
    clean error of accepting nothing plus each group's min(0, s)."""
    num, den, ends = sum(e1p + e0p for e1p, _, e0p, _ in clean), 1, []
    for (c1p, c1n, c0p, c0n), (e1p, e1n, e0p, e0n) in zip(dirty, clean):
        a, b = q * c1p - p * (c1p + c1n), q * c0p - p * (c0p + c0n)
        a, b = (a, b) if b >= 0 else (-a, -b)
        c_u, c_v = e1n - e1p, e0n - e0p
        if b:
            s, w, d = c_u * b - c_v * a, -a / b, b
        else:  # nothing, (1, 0) or (1, 1)
            (s, w), d = min((0, 1.0), (c_u, 0.0), (c_u + c_v, 1.0), key=lambda corner: corner[0]), 1
        num, den = num * d + min(s, 0) * den, den * d
        ends.append((s < 0, w))
    return (num, den), ends


#: How far a vertex may miss a constraint and still count as feasible.
_LP_TOL = 1e-12


@functools.lru_cache(maxsize=3)
def _faces(n_eq: int) -> tuple[tuple, ...]:
    """Every 4-subset of n_eq equality rows followed by the six triangle
    rows that can hold a vertex, in ``itertools.combinations`` order, with
    the face of both triangles its triangle rows pin x to, in ints: per
    subset (its rows, x0, D's columns).

    A group's rows v = 0, v = u and u = 1 never hold together (the first
    two give u = 0), so a subset that holds all three rows of one group has
    no vertex and is dropped: 8 of 35 subsets for one equality, 10 of 70
    for two. In the others a group's rows pin it to a corner, an edge or
    the whole of its triangle. Its u is fixed when u = 1 holds, or v = 0
    and v = u do; its v is fixed when v = 0 holds, or v = u and u = 1 do;
    otherwise v = u ties v to u. Each other coordinate is free, with a
    parameter of its own, so the subset's points are x0 + D t: x0 is a
    corner of the face, in {0, 1}^4, and D's column for a free u also steps
    a tied v. There are as many parameters, and columns of D, as
    equalities the subset holds, k of them, and each coordinate moves with
    at most one parameter, so x0 + D t is exact. The subset's equalities E
    give the k x k system (E D) t = E (0 - x0). :func:`certified_floor`
    walks these faces, and :func:`_active_sets` makes them the float
    core's arrays."""
    # per group and the triangle rows v = 0, v = u and u = 1 it holds: its entries of x0, and D's columns
    # for its coordinates that are free, a free u also stepping a tied v
    faces = [{}, {}]
    for g, (v0, vu, u1) in itertools.product((0, 1), itertools.product((False, True), repeat=3)):
        u, v = [0] * 4, [0] * 4
        u[2 * g], u[2 * g + 1], v[2 * g + 1] = 1, int(vu), 1
        free = (tuple(u),) * (not (u1 or v0 and vu)) + (tuple(v),) * (not (v0 or vu))
        faces[g][v0, vu, u1] = (int(u1), int(vu and u1)), free
    kept = []
    for s in itertools.combinations(range(n_eq + 6), 4):
        held = tuple(n_eq + i in s for i in range(6))
        if not (all(held[:3]) or all(held[3:])):
            (corner_a, free_a), (corner_b, free_b) = faces[0][held[:3]], faces[1][held[3:]]
            kept.append((s, corner_a + corner_b, free_a + free_b))
    return tuple(kept)


@functools.lru_cache(maxsize=2)
def _active_sets(n_eq: int) -> tuple[np.ndarray, ...]:
    """The faces of :func:`_faces` as the float core's arrays.

    Returns the subsets; x0 and D, as (4, subsets, 1) and (4, n_eq,
    subsets, 1) arrays in {0, 1}, D padded with 0 columns to n_eq; the
    distinct columns of D and 0 - x0, as a (4, 1, columns, 1) array; and,
    as an (entries, subsets) pair of row and column indices, where each
    entry of (E D | E (0 - x0)) lies in a table whose row i < n_eq is
    equality i times each distinct column, row n_eq is 0 and row n_eq + 1
    is 1: a subset holding k < n_eq equalities pads E with unit rows that
    make its last parameters 0. The entries are (E D, E (0 - x0)) for one
    equality and the six products of Cramer's rule for two: a f, r f, a s,
    b c, b s and r c, for E D = ((a, b), (c, f)) and E (0 - x0) = (r, s).
    The tables are built in Python and each made one float array at the
    end, so building them touches no numpy routine beyond array creation,
    reshape and transpose."""
    subsets, corners, frees = zip(*_faces(n_eq))
    # per slot each subset's column of D, padded with 0s, or of 0 - x0 in the last
    slots = [[(f + ((0,) * 4,) * n_eq)[i] for f in frees] for i in range(n_eq)]
    slots.append([tuple(-x for x in corner) for corner in corners])
    distinct: dict[tuple, int] = {}  # each distinct column of D and 0 - x0, in order of first occurrence
    kind = [[distinct.setdefault(c, len(distinct)) for c in slot] for slot in slots]
    # each entry's (slot i, column j) of (E D | E (0 - x0)): its table row is the subset's equality i, or for
    # a padded slot 1 where j == i and 0 elsewhere; its distinct column is that of column j
    entries = [divmod(e, n_eq + 1) for e in ((0, 1) if n_eq == 1 else (0, 2, 0, 1, 1, 2, 4, 4, 5, 3, 5, 3))]
    at_row = np.array([[r if r < n_eq else n_eq + (i == j) for r in (s[i] for s in subsets)] for i, j in entries])
    at_col = np.array([kind[j] for _, j in entries])
    d = np.array(slots[:n_eq], dtype=float).transpose(2, 0, 1)[..., None]  # (4, n_eq, subsets, 1)
    x0 = np.array(corners, dtype=float).T[..., None]
    return np.array(subsets), x0, d, np.array(list(distinct), dtype=float).T[:, None, :, None], (at_row, at_col)


def _lp_vertices(eq: np.ndarray, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every vertex of the LP that minimizes clean error over both groups'
    triangles subject to the equalities ``eq``, per row: (clean error,
    +inf where infeasible; x; the active sets), where the first two are
    indexed by row and active set. ``eq`` is that of :func:`_equalities`.
    ``cells`` holds both groups' four clean
    cells as (groups, 4, rows), or (groups, 4, 1) for every row alike.

    Clean error is linear in x, so a vertex attains the minimum: a point
    where four independent constraints hold with equality. Each active
    set's triangle rows pin x to x0 + D t (:func:`_active_sets`), and its
    equalities E give (E D) t = E (0 - x0). Every entry of both sides is an
    equality row times one of a few distinct columns, so each such product
    is taken once per row and gathered per set. The system is solved in
    closed form: one division for one equality, Cramer's rule for two,
    where a padded parameter's unit row leaves the one division's bits. A
    zero pivot or determinant makes the set singular, with no vertex. So
    every vertex meets its triangle rows exactly. A vertex that misses a
    constraint by more than ``_LP_TOL`` is infeasible, which a running
    maximum of its misses decides; every vertex is clamped to the
    triangles in place. The equalities are homogeneous, so accepting
    nothing meets them all, and a row always has a feasible vertex.

    No step stacks terms, misses or Cramer entries. Every sum is
    accumulated in place, in the order numpy's reduce over a non-inner
    axis adds: each sum over the four coordinates is coordinate 0, then
    + 1, + 2 and + 3, one product at a time; Cramer's rule takes its
    entries a pair at a time; and a group's error is (1 - u) m1p + u m1n
    + (1 - v) m0p + v m0n, in that order, then group A's plus group B's. A
    maximum is exact, so the misses' order does not matter. So each work
    array holds a few (subsets, rows) slices: the system's det and t, x's
    four coordinates, and each group's largest miss or error term; numpy's
    inner loops run over the rows. Each cell multiplies only its own row's
    terms, and no step reduces across rows, so each row gets the same bits
    in any stack, whatever the other rows' tables. A sum here differs from
    numpy's reduce, which begins at 0, and a sum of negated terms from the
    negated sum, only in the sign of a zero, which the ``det == 0.0`` test
    ignores and x0 + D t erases: x0 is +0.0 or 1.0, so no entry of x, and
    so none of its clamps, is -0.0. An error term is then -0.0 only at a
    -0.0 cell, which no mass table holds."""
    rows, n_eq, _ = eq.shape
    subsets, x0, d, distinct, (at_row, at_col) = _active_sets(n_eq)
    columns = np.ascontiguousarray(eq.transpose(2, 1, 0))[:, :, None]  # (4, equalities, 1, rows)
    # each equality times each distinct column of D and 0 - x0, then a row of 0s and a row of 1s
    table = np.empty((n_eq + 2, distinct.shape[2], rows))
    table[n_eq], table[n_eq + 1] = 0.0, 1.0
    np.multiply(columns[0], distinct[0], out=table[:n_eq])
    for k in range(1, 4):
        table[:n_eq] += columns[k] * distinct[k]
    # per set (det, t): (E D, E (0 - x0)), or Cramer's a f - b c, r f - b s and a s - r c, with the entries
    # gathered a pair at a time from the table's rows
    if n_eq == 1:
        system = table[at_row, at_col]
    else:
        products, at = table.reshape(len(table) * table.shape[1], rows), at_row * table.shape[1] + at_col
        system = np.empty((3, len(subsets), rows))
        for j, out in enumerate(system):
            np.multiply(products[at[j]], products[at[j + 6]], out=out)
            out -= products[at[j + 3]] * products[at[j + 9]]
    det, t = system[0], system[1:]
    x = np.empty((4, len(subsets), rows))
    u, v = x[::2], x[1::2]
    with np.errstate(over="ignore", invalid="ignore"):  # a near-singular subset may overflow; it is infeasible
        # a singular subset's t is NaN, and so is each entry of its x, since 0 * NaN is NaN
        det[det == 0.0] = np.nan
        t /= det
        np.multiply(d[:, 0], t[0], out=x)  # x0 + D t
        if n_eq == 2:
            for x_k, d_k in zip(x, d[:, 1]):
                x_k += d_k * t[1]
        x += x0
        # per group, the largest of how far a vertex misses -v <= 0, v - u <= 0 and u <= 1, and in group A's
        # each equality too; the spent system's first two rows hold the next misses, and later the next error terms
        worst, term = np.negative(v), system[:2]
        np.maximum(worst, np.subtract(v, u, out=term), out=worst)
        np.maximum(worst, np.subtract(u, 1.0, out=term), out=worst)
        for i in range(n_eq):
            miss = np.multiply(columns[0, i], x[0], out=term[0])
            for k in range(1, 4):
                miss += columns[k, i] * x[k]
            np.maximum(worst[0], np.abs(miss, out=miss), out=worst[0])
    feasible = np.maximum(worst[0], worst[1], out=worst[0]) <= _LP_TOL
    np.maximum(x, 0.0, out=x)
    np.minimum(u, 1.0, out=u)
    np.minimum(v, u, out=v)
    # each group's (1 - u) m1p + u m1n + (1 - v) m0p + v m0n, term by term, then group A's plus group B's
    m1p, m1n, m0p, m0n = cells.transpose(1, 0, 2)[:, :, None]  # each (groups, 1, rows)
    err = np.multiply(np.subtract(1.0, u, out=worst), m1p, out=worst)
    err += np.multiply(u, m1n, out=term)
    err += np.multiply(np.subtract(1.0, v, out=term), m0p, out=term)
    err += np.multiply(v, m0n, out=term)
    err = err[0] + err[1]
    err[~feasible] = np.inf
    return err.T, x.T, subsets


def _lacking(groups: Sequence[str], denominators: Sequence[Sequence], notion: str) -> InputError | None:
    """The ``InputError`` of the first group, in order, that lacks a mass
    the notion divides by, or None when none does. ``denominators`` holds
    each group's d of each statistic of ``READS[notion]``, checked in order;
    masses are >= 0, so a sum lacks its mass when it is not positive."""
    for g, sums in zip(groups, denominators):
        for s, d in zip(READS[notion], sums):
            if d <= 0:
                return InputError(f"group {g!r} has no {_DIVIDES[s][3]} on the corrupted distribution")
    return None


def _check_search(groups: Sequence[str], hypotheses: Sequence, notion: str) -> None:
    """The argument checks of a best response, in its order."""
    if len(groups) != 2:
        raise InputError("best_response searches exactly two groups")
    if not hypotheses:
        raise InputError("hypothesis list is empty")
    if notion not in READS:
        raise InputError(f"best_response does not support notion {notion!r}")


def _solve(dirty: np.ndarray, clean: np.ndarray, groups: Sequence[str], notion: str) -> tuple:
    """The search of :func:`best_response` for a stack of rows, on mass
    tables: the solver core under every best response, search and sweep.

    ``dirty[r, k, i]`` holds row r's corrupted mass-table cells under
    hypothesis k in group i of ``groups``; ``clean`` holds the clean cells
    the same way and broadcasts against it: (1, hypotheses, 2, 4) for one
    clean distribution, or one table per row. Each row's statistic inputs
    and denominators are built once, into arrays, for the empty check,
    which looks for the first empty row only when some denominator is not
    positive, and for the equalities, one division for the whole stack.
    For dp, eopp and eodds each (row, hypothesis) is one row of one
    :func:`_lp_vertices` stack; predictive parity's rows are solved one by
    one by :func:`_parity_search`. Returns per row, up to the first that
    cannot be solved, the minimum clean error as (total, k, x, s): x is
    (u_A, v_A, u_B, v_B), the acceptance probabilities of each group's
    base-positive and base-negative points, and s the index of the winning
    active set among those :func:`_active_sets` keeps, None for predictive
    parity. dp, eopp and eodds take the first cheapest of the LP's feasible
    vertices, row by row, in active-set order. Equal totals go to the
    lowest k. Also returns, without raising, the error of the first row
    that cannot be solved, or None: ``InputError`` when a group lacks the
    mass the notion divides by, ``InfeasibleError`` when the groups'
    precision ranges do not meet; and for dp, eopp and eodds every vertex's
    total per solved row and hypothesis, as (rows, hypotheses, vertices),
    +inf where a vertex is infeasible, None for predictive parity."""
    inputs = statistic_inputs(dirty, notion)
    denominators = _denominators(inputs, notion)  # (rows, hypotheses, groups, entries)
    rows, error = len(dirty), None
    if not (denominators > 0.0).all():  # a group's mass does not depend on the hypothesis
        rows = int((denominators[:, 0] <= 0.0).any(axis=(1, 2)).argmax())
        error = _lacking(groups, denominators[rows, 0].tolist(), notion)
    if notion == "predictive_parity":
        solved, infeasible = _parity_search(dirty[:rows].tolist(), clean.tolist())
        return solved, infeasible or error, None
    hypotheses = dirty.shape[1]
    # each LP row's clean table, each row's hypotheses in order; one shared table stays one, which broadcasts
    tables = (clean.repeat(rows, axis=0) if hypotheses > 1 and len(clean) < rows else clean[:rows]).reshape(-1, 2, 4)
    eq = _equalities(inputs[:rows], notion, denominators[:rows])
    totals, xs, subsets = _lp_vertices(eq.reshape(-1, *eq.shape[2:]), tables.transpose(1, 2, 0))
    # a row's first cheapest vertex over its hypotheses in order: the lowest k on equal totals
    flat, at = totals.reshape(rows, hypotheses * len(subsets)), np.arange(rows)
    pick = flat.argmin(axis=1)
    k, s = pick // len(subsets), pick % len(subsets)
    best, xs = flat[at, pick], xs.reshape(rows, hypotheses * len(subsets), 4)[at, pick]
    solved = zip(best.tolist(), k.tolist(), map(tuple, xs.tolist()), s.tolist())
    return list(solved), error, flat.reshape(rows, hypotheses, len(subsets))


def _parity_search(dirty: Sequence, clean: Sequence) -> tuple[list, InfeasibleError | None]:
    """:func:`_solve` for predictive parity, on its rows as nested lists,
    ``clean`` with one row for every row alike: the solved rows, up to the
    first row whose groups' precision ranges do not meet under every
    hypothesis, and that row's ``InfeasibleError``, or None.

    Per hypothesis, :func:`_precisions` gives the range [lo, hi] of common
    precisions in ints and the local minimum inside, and :func:`_segments`
    the floor at lo, at hi and at that minimum, as the float nearest it,
    pulled into [lo, hi]. A row takes the least floor exactly, the lowest k
    and then the first candidate on ties, as the float nearest it. Its
    minimum is an infimum: a group that does best to accept nothing, which
    has no precision, accepts a GAP_TOL / 2 sliver of its segment instead,
    (t, t w), so it errs at most GAP_TOL more."""
    solved, t = [], GAP_TOL / 2.0
    for row, tables in zip(dirty, itertools.cycle(clean)):
        best = None
        for k, (cells, table) in enumerate(zip(row, tables)):
            scale, ints = _integers(*cells, *table)
            if (found := _precisions(ints[:2], ints[2:])) is None:
                continue
            *pis, root = found
            if root is not None:  # the float nearest the minimum, pulled into [lo, hi]
                pis.append(min(max(root.as_integer_ratio(), pis[0], key=_BY_VALUE), pis[1], key=_BY_VALUE))
            for p, q in dict.fromkeys(pis):
                (num, den), ends = _segments(ints[:2], ints[2:], p, q)
                if best is None or _BY_VALUE((num, scale * den)) < _BY_VALUE(best[0]):
                    best = (num, scale * den), k, ends
        if best is None:
            return solved, InfeasibleError(_NEVER_MEET)
        (num, den), k, ends = best
        x = [c for takes, w in ends for c in ((1.0, w) if takes else (t, t * w))]
        solved.append((num / den, k, tuple(x), None))
    return solved, None


def _same_groups(dirty: Mapping, clean: Mapping) -> None:
    """``InputError`` unless a corrupted and a clean mass table hold the
    same groups; their order may differ."""
    if set(dirty) != set(clean):
        raise InputError(f"the corrupted distribution's groups {list(dirty)} differ from the clean one's {list(clean)}")


def _one_row(dirty: Sequence[Mapping], clean: Sequence[Mapping], groups: Sequence[str], notion: str) -> tuple:
    """:func:`_solve` on one row, given as one corrupted and one clean mass
    table per hypothesis, after :func:`best_response`'s checks: the row's
    (total, k, x, s), or its error raised."""
    _check_search(groups, dirty, notion)
    _same_groups(dirty[0], clean[0])
    sides = (np.array([[[t[g] for g in groups] for t in side]]) for side in (dirty, clean))
    solved, error, _ = _solve(*sides, groups, notion)
    if error is not None:
        raise error
    return solved[0]


def _witness(h, groups: Sequence[str], x: Sequence, notion: str, dirty: Mapping, clean: Mapping, reference, alpha):
    """The witness of :func:`best_response` for the core's answer x under
    h, scored on h's corrupted and clean mass tables."""
    repaired = option_classifier(h, groups, x)
    gap, err = fairness_gap(_table_stats(repaired, dirty, notion), notion), _table_error(repaired, clean)
    return RepairWitness(repaired, notion, gap, err, err - reference, "direct", alpha)


def _sweep_responses(rows: Sequence[tuple], notion: str) -> tuple[list[RepairWitness], FairnoiseError | None]:
    """For each (alpha, h, corrupted table, clean table) of ``rows``, the
    witness ``best_response(corrupted, clean, [h], notion,
    reference_error=error(h, clean), alpha=alpha)`` returns, all from one
    :func:`_solve` stack with a clean table per row. The witnesses stop
    before the first row that cannot be solved, whose error comes with
    them, or None."""
    groups = tuple(rows[0][3])
    sides = (np.array([[[row[i][g] for g in groups]] for row in rows]) for i in (2, 3))
    solved, error, _ = _solve(*sides, groups, notion)
    return [
        _witness(h, groups, x, notion, dirty, clean, _table_error(as_pq(h), clean), alpha)
        for (_, _, x, _), (alpha, h, dirty, clean) in zip(solved, rows)
    ], error


def option_classifier(
    h: BaseClassifier | PQClassifier, groups: Sequence[str], x: Sequence[float]
) -> PQClassifier:
    """The randomization of ``h`` that accepts the base-positive and
    base-negative points of the first group with probabilities x[0] and
    x[1], and those of the second group with x[2] and x[3]."""
    ga, gb = groups
    return PQClassifier(base=as_pq(h).base, params={ga: tuple(x[:2]), gb: tuple(x[2:])})


def _dot(p: Sequence[int], q: Sequence[int]) -> int:
    """The dot product p . q of ints; ``int.__mul__`` refuses a float, so
    none can enter a proof."""
    return sum(map(int.__mul__, p, q))


def _step(scale: int, x: Sequence[int], coefficients: Sequence[int], vectors: Sequence[Sequence[int]]) -> list[int]:
    """scale x + sum_j coefficients[j] vectors[j], in ints."""
    return [scale * v + _dot(coefficients, w) for v, *w in zip(x, *vectors)]


def _adjugate(m: Sequence[Sequence[int]]) -> tuple[int, list[list[int]]]:
    """(|det m|, adj m times the sign of det m) for a k x k matrix of ints,
    k <= 2, so that m adj = |det m| I: Cramer's rule with no division."""
    if len(m) < 2:
        return (abs(m[0][0]), [[1 if m[0][0] > 0 else -1]]) if m else (1, [])
    (a, b), (c, d) = m
    sign = 1 if a * d >= b * c else -1
    return sign * (a * d - b * c), [[sign * d, -sign * b], [-sign * c, sign * a]]


def _face_floor(eq: Sequence[Sequence[int]], const: int, c: Sequence[int], notion: str) -> tuple[int, int]:
    """The least of const + c . x over x in both triangles with eq x = 0, as
    (numerator, denominator > 0) of ints, proved on the face of the first
    active set of :func:`_faces` whose vertex meets every constraint and
    its corner bound; see :func:`certified_floor`. No row of ``eq`` is 0s:
    a row of dp, eopp or eodds is 0s only where a denominator is 0, which
    :func:`_lacking` rejects first."""
    for s, corner, free in _faces(len(eq)):
        held = [eq[i] for i in s if i < len(eq)]  # the k equalities E the set holds
        det, adj = _adjugate([[_dot(e, f) for f in free] for e in held])
        # det times the vertex; a singular set has none
        x = _step(det, corner, [_dot(row, [-_dot(e, corner) for e in held]) for row in adj], free) if det else None
        if x and all(0 <= v <= u <= det for u, v in zip(x[::2], x[1::2])) and not any(_dot(e, x) for e in eq):
            lam = _step(det, c, [_dot(col, [-_dot(f, c) for f in free]) for col in zip(*adj)], held)  # det lambda
            bound = const * det + sum(min(0, u, u + v) for u, v in zip(lam[::2], lam[1::2]))
            if const * det + _dot(c, x) == bound:
                return bound, det
    raise ContractError(f"no active set of a {notion} vertex has a dual certificate")


def certified_floor(corrupted: Distribution, clean: Distribution, h: BaseClassifier | PQClassifier,
                    notion: str) -> tuple[int, int]:
    """The least clean error of any randomization of ``h`` that meets
    ``notion`` (dp, eopp, eodds or predictive_parity) on ``corrupted``, as
    an exact fraction (numerator, denominator > 0) of ints, with no float
    solve: for dp, eopp and eodds proved on the face of one active set.

    The float masses are exact binary rationals: times one common power of
    two they are ints, and so is each equality times d_A d_B, whose right
    side is 0; clean error is then (c_0 + c . x) / scale. An active set's
    triangle rows pin x to its face x0 + D t (:func:`_faces`), with one
    column of D per equality it holds, k <= 2 of them, the rows E. On the
    face the set is the k x k system M t = -E x0, M = E D, which Cramer's
    rule solves with no division (:func:`_adjugate`): with det = |det M|
    > 0, det x = det x0 - D adj(M) E x0 is the set's vertex, and det y =
    -adj(M)^T D^T c solves M^T y = -D^T c, so lambda = c + E^T y is flat
    along the face. Every classifier of the class meets E x = 0, so it
    errs c_0 + lambda . x, which is linear on each group's triangle and so
    at least its value at the best corner, (0, 0), (1, 0) or (1, 1): the
    corner bound c_0 + sum_g min(0, lambda_u, lambda_u + lambda_v). When
    the vertex meets every equality and both triangles exactly, in ints,
    and errs the corner bound, no classifier errs less: the floor is (det
    times the bound, scale det). Active sets are tried in active-set
    order. An optimal basis is both primal and dual feasible, so one of
    them passes, and any set that passes proves the same value; at a
    degenerate vertex only some of them do.

    Predictive parity is the LP at a common precision pi with each group's
    homogeneous row (c1p - pi m1, c0p - pi m0) over its (u, v), whose
    floor is an infimum over pi in [lo, hi], where the groups' precision
    ranges meet (:func:`_precisions`). At pi the rows share no coordinate,
    each group's options form one segment from the origin, and
    :func:`_segments` gives the floor in closed form, exact in ints at
    pi = p / q. lo and hi are reduced ratios of the ints, each a
    candidate, one when they are equal, and the floor is the lesser of
    the two. A local minimum strictly inside (lo, hi), where both s_g < 0,
    is irrational in general, so it is not certified: ``ContractError``
    names it.

    The errors of :func:`best_response`, in its order: ``InputError`` when
    there are not two groups, when the two distributions' groups differ or
    when a group lacks the mass the notion divides by, and
    ``InfeasibleError`` when the precision ranges do not meet.
    ``ContractError`` when no active set passes.
    """
    groups, tables = clean.groups, [mass_table(h, corrupted), mass_table(h, clean)]
    _check_search(groups, tables[:1], notion)
    _same_groups(*tables)
    scale, (*dirty, cells_a, cells_b) = _integers(*(t[g] for t in tables for g in groups))
    # per group, each statistic's (a, b, d) in ints
    stats = [[[sum(cells[i] for i in part) for part in _DIVIDES[s][:3]] for s in READS[notion]] for cells in dirty]
    if error := _lacking(groups, [[d for *_, d in group] for group in stats], notion):
        raise error
    if notion == "predictive_parity":
        if (found := _precisions(dirty, (cells_a, cells_b))) is None:
            raise InfeasibleError(_NEVER_MEET)
        *ends, root = found
        if root is not None:
            raise ContractError(f"{notion}'s floor may lie at the uncertified stationary precision {root!r}")
        num, den = min((_segments(dirty, (cells_a, cells_b), p, q)[0] for p, q in {*ends}), key=_BY_VALUE)
    else:  # the rows of _equalities, each times d_A d_B instead of divided
        const = sum(m1p + m0p for m1p, _, m0p, _ in (cells_a, cells_b))
        c = [t for m1p, m1n, m0p, m0n in (cells_a, cells_b) for t in (m1n - m1p, m0n - m0p)]
        eq = [[a * d_b, b * d_b, -a_b * d_a, -b_b * d_a] for (a, b, d_a), (a_b, b_b, d_b) in zip(*stats)]
        num, den = _face_floor(eq, const, c, notion)
    return num, scale * den


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

    The minimum is that of an LP over each group's triangle
    0 <= v <= u <= 1 of acceptance probabilities, solved in floats by
    vertex enumeration for dp, eopp and eodds. A vertex counts as feasible when it misses each
    equality by at most ``_LP_TOL`` = 1e-12, before it is clamped to the
    triangles, so the minimum may lie below the exact LP's that
    :func:`certified_floor` proves: on the EOpp needle at alpha = 1e-30 it
    is 0.0, at a vertex whose true positive rates differ by 2e-15, where
    the exact minimum is 5e-16. For predictive parity the LP falls apart by
    group at each common precision, and :func:`_segments` gives its exact
    minimum there in ints, as for :func:`certified_floor`, at the ends of
    the range where the groups' precisions meet and at the local minimum
    inside, which :func:`_precisions` finds. The least is reported as the
    float nearest it, so where :func:`certified_floor` proves a floor it is
    that floor, rounded. It is an infimum: where a group does best to
    accept nothing, which has no precision, it accepts a GAP_TOL / 2 sliver
    at that precision instead, within GAP_TOL of the infimum.
    ``InfeasibleError`` when the groups' precision ranges do not meet, as
    :func:`certified_floor` decides; ``InputError`` when the two
    distributions' groups differ.
    ``grid_n`` is only checked. Each hypothesis's two mass tables are read
    once, and this is one row of :func:`_solve`; the witness's gap and
    error are scored on the same tables.
    """
    dirty, tables = ([mass_table(h, d) for h in hypotheses] for d in (corrupted, clean))  # each read once
    grid_size(grid_n)
    _, k, x, _ = _one_row(dirty, tables, clean.groups, notion)
    return _witness(hypotheses[k], clean.groups, x, notion, dirty[k], tables[k], reference_error, alpha)
