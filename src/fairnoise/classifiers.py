"""Base hypotheses, their per-group randomized expansion, and exact group
statistics.

Randomization is never executed while evaluating: every statistic is a
closed-form expectation over acceptance probabilities, so bound
certification carries no sampling noise. ``sample_predictions`` exists only
for the Monte Carlo smoke test.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Mapping

from .distributions import Atom, Distribution
from .errors import InputError

GAP_TOL = 1e-9

NOTIONS = ("dp", "eopp", "eodds", "predictive_parity", "error_parity")


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
        if self.kind == "table" and not self.table:
            raise InputError("table classifier needs a non-empty table")
        if self.kind == "threshold" and self.threshold is None:
            raise InputError("threshold classifier needs a threshold")
        if self.kind == "threshold" and self.direction not in ("above", "below"):
            raise InputError(f"direction must be 'above' or 'below', got {self.direction!r}")
        if self.kind == "constant" and self.constant not in (0, 1):
            raise InputError("constant classifier needs constant in {0, 1}")

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
            return BaseClassifier.from_table({str(k): int(v) for k, v in doc["table"].items()})
        if kind == "threshold":
            t = doc["threshold"]
            threshold = {str(k): float(v) for k, v in t.items()} if isinstance(t, Mapping) else float(t)
            return BaseClassifier.from_threshold(threshold, direction=doc.get("direction", "above"))
        return BaseClassifier.from_constant(int(doc["constant"]))


@dataclass(frozen=True)
class PQClassifier:
    """A base classifier overridden, per group, by an independent coin.

    With probability ``p_z`` the base output is ignored and replaced by a
    Bernoulli(``q_z``) draw; a group without parameters behaves as the base.
    """

    base: BaseClassifier
    params: Mapping[str, tuple[float, float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for group, (p, q) in self.params.items():
            if not (0.0 <= p <= 1.0 and 0.0 <= q <= 1.0):
                raise InputError(f"(p, q) for group {group!r} must lie in [0, 1]^2, got {(p, q)}")

    def uv(self, group: str) -> tuple[float, float]:
        """Acceptance probabilities (u, v) = (1 - p + p q, p q) of the
        group's base-positive and base-negative points."""
        p, q = self.params.get(group, (0.0, 0.0))
        return 1.0 - p + p * q, p * q

    def accept_prob(self, point: str, group: str, feature: float | None = None) -> float:
        u, v = self.uv(group)
        return u if self.base.predict(point, group, feature) == 1 else v

    def to_json_dict(self) -> dict:
        return {
            "base": self.base.to_json_dict(),
            "params": {g: {"p": p, "q": q} for g, (p, q) in sorted(self.params.items())},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2)

    @staticmethod
    def from_json_dict(doc: Mapping) -> "PQClassifier":
        return PQClassifier(
            base=BaseClassifier.from_json_dict(doc["base"]),
            params={
                str(g): (float(pq["p"]), float(pq["q"])) for g, pq in doc.get("params", {}).items()
            },
        )

    @staticmethod
    def from_json(text: str) -> "PQClassifier":
        return PQClassifier.from_json_dict(json.loads(text))


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
    group_error: dict[str, float]
    overall_error: float


def mass_table(
    h: BaseClassifier | PQClassifier, dist: Distribution
) -> dict[str, tuple[float, ...]]:
    """Per group, the mass of each (base prediction, label) cell, ordered
    (m1p, m1n, m0p, m0n): base-positive positives, base-positive negatives,
    base-negative positives, base-negative negatives.

    Every statistic of a per-group (p, q) classifier is linear or
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
    pq = as_pq(h)
    table = mass_table(pq, dist)
    return math.fsum(t for g, cells in table.items() for t in error_terms(cells, *pq.uv(g)))


def group_stats(h: BaseClassifier | PQClassifier, dist: Distribution) -> GroupStats:
    pq = as_pq(h)
    rate: dict[str, float] = {}
    tpr: dict[str, float | None] = {}
    fpr: dict[str, float | None] = {}
    ppv: dict[str, float | None] = {}
    group_error: dict[str, float] = {}
    err_terms = []
    for g, cells in mass_table(pq, dist).items():
        m1p, m1n, m0p, m0n = cells
        u, v = pq.uv(g)
        r = math.fsum(cells)
        if r <= 0.0:
            raise InputError(f"group {g!r} has no mass")
        pos = math.fsum((m1p, m0p))
        neg = math.fsum((m1n, m0n))
        acc_mass = math.fsum((u * m1p, u * m1n, v * m0p, v * m0n))
        acc_pos = math.fsum((u * m1p, v * m0p))
        acc_neg = acc_mass - acc_pos
        err = math.fsum(error_terms(cells, u, v))
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


def _pairwise_gap(values: dict[str, float | None], notion: str) -> float:
    for g, v in values.items():
        if v is None:
            raise InputError(f"fairness gap for {notion!r} undefined: group {g!r} conditional absent")
    vals = list(values.values())
    return max(abs(a - b) for a in vals for b in vals) if len(vals) > 1 else 0.0


def fairness_gap(stats: GroupStats, notion: str) -> float:
    """Max pairwise statistic difference for the given fairness notion."""
    if notion == "dp":
        return _pairwise_gap(dict(stats.rate), notion)
    if notion == "eopp":
        return _pairwise_gap(stats.tpr, notion)
    if notion == "eodds":
        return max(_pairwise_gap(stats.tpr, notion), _pairwise_gap(stats.fpr, notion))
    if notion == "predictive_parity":
        return _pairwise_gap(stats.ppv, notion)
    if notion == "error_parity":
        return _pairwise_gap(dict(stats.group_error), notion)
    raise InputError(f"unknown fairness notion {notion!r}; expected one of {NOTIONS}")


def sample_predictions(h: PQClassifier, atom: Atom, n: int, rng) -> int:
    """Number of positive outputs in n executed draws at a fixed atom.

    Smoke-test helper; the evaluation path never samples.
    """
    p, q = h.params.get(atom.group, (0.0, 0.0))
    base = h.base.predict(atom.point, atom.group, atom.feature)
    override = rng.binomial(n, p)
    positives = rng.binomial(override, q)
    if base == 1:
        positives += n - override
    return int(positives)
