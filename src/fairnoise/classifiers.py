"""Base hypotheses, their per-group randomized expansion, and exact group
statistics.

Randomization is never executed while evaluating: every statistic is a
closed-form expectation over acceptance probabilities, so bound
certification carries no sampling noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

from .distributions import Distribution
from .errors import InputError, label, number

GAP_TOL = 1e-9

#: Each linear statistic of a group's option (u, v), (u a + v b) / d: the
#: mass-table cells summing to a, b and d, and what a group lacks if d is 0.
STATISTICS = {
    "rate": ((0, 1), (2, 3), (0, 1, 2, 3), "mass"),
    "tpr": ((0,), (2,), (0, 2), "positives"),
    "fpr": ((1,), (3,), (1, 3), "negatives"),
}
#: The statistics each notion equates across groups (``ppv`` is not linear).
READS = {"dp": ("rate",), "eopp": ("tpr",), "eodds": ("tpr", "fpr"), "predictive_parity": ("ppv",)}
NOTIONS = tuple(READS)


@dataclass(frozen=True)
class BaseClassifier:
    """A deterministic, possibly group-aware binary hypothesis.

    kind "table" maps point ids to labels and must be total over any support
    it is evaluated on; "threshold" compares the feature against a global or
    per-group cut; "constant" always answers the same label.
    """

    kind: str
    table: Mapping[str, int] | None = None
    threshold: float | Mapping[str, float] | None = None
    direction: str = "above"
    constant: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("table", "threshold", "constant"):
            raise InputError(f"unknown classifier kind {self.kind!r}")
        if self.kind == "table":
            if not self.table:
                raise InputError("table classifier needs a non-empty table")
            for point, value in self.table.items():
                label(value, f"table value at point {point!r}")
        if self.kind == "threshold" and self.threshold is None:
            raise InputError("threshold classifier needs a threshold")
        if self.kind == "threshold" and self.direction not in ("above", "below"):
            raise InputError(f"direction must be 'above' or 'below', got {self.direction!r}")
        if self.kind == "constant":
            label(self.constant, "constant")

    @staticmethod
    def from_table(table: Mapping[str, int]) -> "BaseClassifier":
        return BaseClassifier(kind="table", table=dict(table))

    @staticmethod
    def from_threshold(
        threshold: float | Mapping[str, float], direction: str = "above"
    ) -> "BaseClassifier":
        return BaseClassifier(kind="threshold", threshold=threshold, direction=direction)

    @staticmethod
    def from_constant(value: int) -> "BaseClassifier":
        return BaseClassifier(kind="constant", constant=value)

    def predict(self, point: str, group: str, feature: float | None = None) -> int:
        if self.kind == "constant":
            return int(self.constant)  # type: ignore[arg-type]
        if self.kind == "table":
            assert self.table is not None
            if point not in self.table:
                raise InputError(f"table classifier undefined at point {point!r}")
            return int(self.table[point])
        assert self.threshold is not None
        if feature is None:
            raise InputError(f"threshold classifier needs a feature at point {point!r}")
        if isinstance(self.threshold, Mapping):
            if group not in self.threshold:
                raise InputError(f"no threshold for group {group!r}")
            cut = float(self.threshold[group])
        else:
            cut = float(self.threshold)
        hit = feature >= cut
        return int(hit if self.direction == "above" else not hit)

    def to_json_dict(self) -> dict:
        doc: dict = {"kind": self.kind}
        if self.kind == "table":
            doc["table"] = dict(self.table or {})
        elif self.kind == "threshold":
            doc["threshold"] = (
                dict(self.threshold) if isinstance(self.threshold, Mapping) else self.threshold
            )
            doc["direction"] = self.direction
        else:
            doc["constant"] = self.constant
        return doc

    @staticmethod
    def from_json_dict(doc: Mapping) -> "BaseClassifier":
        kind = doc["kind"]
        if kind == "table":
            return BaseClassifier.from_table({str(k): v for k, v in doc["table"].items()})
        if kind == "threshold":
            t = doc["threshold"]
            threshold = (
                {str(k): number(v, f"threshold of group {k!r}") for k, v in t.items()}
                if isinstance(t, Mapping)
                else number(t, "threshold")
            )
            return BaseClassifier.from_threshold(threshold, direction=doc.get("direction", "above"))
        if kind == "constant":
            return BaseClassifier.from_constant(doc["constant"])
        raise InputError(f"unknown classifier kind {kind!r}")


@dataclass(frozen=True)
class PQClassifier:
    """A base classifier randomized per group.

    ``params[z] = (u, v)`` accepts group z's base-positive points with
    probability u and its base-negative points with probability v; a group
    without an entry behaves as the base, (u, v) = (1, 0).
    """

    base: BaseClassifier
    params: Mapping[str, tuple[float, float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for group, (u, v) in self.params.items():
            if not (0.0 <= u <= 1.0 and 0.0 <= v <= 1.0):
                raise InputError(f"(u, v) for group {group!r} must lie in [0, 1]^2, got {(u, v)}")

    def uv(self, group: str) -> tuple[float, float]:
        """Acceptance probabilities (u, v) of the group's base-positive and
        base-negative points."""
        return self.params.get(group, (1.0, 0.0))

    def accept_prob(self, point: str, group: str, feature: float | None = None) -> float:
        u, v = self.uv(group)
        return u if self.base.predict(point, group, feature) == 1 else v

    def to_json_dict(self) -> dict:
        return {
            "base": self.base.to_json_dict(),
            "params": {g: {"u": u, "v": v} for g, (u, v) in sorted(self.params.items())},
        }

    @staticmethod
    def from_json_dict(doc: Mapping) -> "PQClassifier":
        return PQClassifier(
            base=BaseClassifier.from_json_dict(doc["base"]),
            params={
                str(g): (number(uv["u"], f"u of group {g!r}"), number(uv["v"], f"v of group {g!r}"))
                for g, uv in doc.get("params", {}).items()
            },
        )


def as_pq(h: BaseClassifier | PQClassifier) -> PQClassifier:
    return h if isinstance(h, PQClassifier) else PQClassifier(base=h)


@dataclass(frozen=True)
class GroupStats:
    """Exact per-group rates of a (randomized) classifier on a distribution.

    Conditionals that do not exist (no positives, no expected positive
    predictions) are None, never silently zero.
    """

    rate: dict[str, float]  # positive-prediction rate F_z
    tpr: dict[str, float | None]
    fpr: dict[str, float | None]
    ppv: dict[str, float | None]


def mass_table(
    h: BaseClassifier | PQClassifier, dist: Distribution
) -> dict[str, tuple[float, ...]]:
    """Per group, the mass of each (base prediction, label) cell, ordered
    (m1p, m1n, m0p, m0n): base-positive positives, base-positive negatives,
    base-negative positives, base-negative negatives.

    Every statistic of a per-group (u, v) classifier is linear or
    linear-fractional in this table, and ``mix`` acts on it linearly.
    """
    base = as_pq(h).base
    cells: dict[str, tuple[list[float], ...]] = {g: ([], [], [], []) for g in dist.groups}
    for a in dist.atoms:
        cells[a.group][cell_index(base, a.point, a.group, a.feature, a.label)].append(a.mass)
    return {g: tuple(math.fsum(c) for c in by_cell) for g, by_cell in cells.items()}


def cell_index(base: BaseClassifier, point: str, group: str, feature: float | None, label: int) -> int:
    """Position of an example's (base prediction, label) cell in the
    (m1p, m1n, m0p, m0n) order of ``mass_table``."""
    return 2 * (1 - base.predict(point, group, feature)) + (1 - label)


def error_terms(cells, u, v):
    """Misclassified mass of each cell when base-positive points are accepted
    with probability u and base-negative ones with v; u and v may be arrays."""
    m1p, m1n, m0p, m0n = cells
    return (1.0 - u) * m1p, u * m1n, (1.0 - v) * m0p, v * m0n


def error(h: BaseClassifier | PQClassifier, dist: Distribution) -> float:
    """Exact misclassification probability."""
    return _table_error(as_pq(h), mass_table(h, dist))


def _table_error(pq: PQClassifier, table: Mapping[str, tuple[float, ...]]) -> float:
    """:func:`error` of ``pq`` on the distribution whose mass table under
    pq's base is ``table``."""
    return math.fsum(t for g, cells in table.items() for t in error_terms(cells, *pq.uv(g)))


def group_stats(h: BaseClassifier | PQClassifier, dist: Distribution) -> GroupStats:
    pq = as_pq(h)
    return _table_stats(pq, mass_table(pq, dist))


def _table_stats(pq: PQClassifier, table: Mapping[str, tuple[float, ...]], notion: str | None = None) -> GroupStats:
    """:func:`group_stats` of ``pq`` on the distribution whose mass table
    under pq's base is ``table``, so a caller that holds the table reads
    the atoms once. With a ``notion``, only the statistics ``READS`` names
    are computed; the others stay empty. Rate, TPR and FPR are
    ``STATISTICS`` written out, which is faster than a loop over it."""
    reads = READS.get(notion, ("rate", "tpr", "fpr", "ppv"))
    stats = GroupStats(rate={}, tpr={}, fpr={}, ppv={})
    for g, cells in table.items():
        m1p, m1n, m0p, m0n = cells
        u, v = pq.uv(g)
        r = math.fsum(cells)
        if r <= 0.0:
            raise InputError(f"group {g!r} has no mass")
        if "rate" in reads:
            stats.rate[g] = math.fsum((u * m1p, u * m1n, v * m0p, v * m0n)) / r
        if "tpr" in reads:
            pos = math.fsum((m1p, m0p))
            stats.tpr[g] = math.fsum((u * m1p, v * m0p)) / pos if pos > 0.0 else None
        if "fpr" in reads:
            neg = math.fsum((m1n, m0n))
            stats.fpr[g] = math.fsum((u * m1n, v * m0n)) / neg if neg > 0.0 else None
        if "ppv" in reads:
            # precision is unchanged by scaling (u, v), and at max(u, v) = 1 no
            # accepted mass underflows
            top = max(u, v) or 1.0
            us, vs = u / top, v / top
            acc_scaled = math.fsum((us * m1p, us * m1n, vs * m0p, vs * m0n))
            stats.ppv[g] = math.fsum((us * m1p, vs * m0p)) / acc_scaled if acc_scaled > 0.0 else None
    return stats


def _pairwise_gap(values: dict[str, float | None], notion: str) -> float:
    for g, v in values.items():
        if v is None:
            raise InputError(f"fairness gap for {notion!r} undefined: group {g!r} conditional absent")
    vals = list(values.values())
    return max(abs(a - b) for a in vals for b in vals) if len(vals) > 1 else 0.0


def fairness_gap(stats: GroupStats, notion: str) -> float:
    """Max pairwise difference of the statistics the notion equates."""
    if notion not in READS:
        raise InputError(f"unknown fairness notion {notion!r}; expected one of {NOTIONS}")
    return max(_pairwise_gap(getattr(stats, s), notion) for s in READS[notion])

