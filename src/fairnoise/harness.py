"""Experiment orchestration: alpha sweeps over the canonical families,
log-log scaling fits with regime verdicts, numeric lower-bound certification,
the minimax-fairness demonstration, and deterministic report emission."""

from __future__ import annotations

import hashlib
import json
import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import families
from .attacks import AttackSpec, duplicate_flip_attack
from .calibration import (
    BinnedPredictor,
    calibration_report,
    l1_error,
    parity_calibration_check,
    recalibrate_per_group,
    value_shift,
)
from .classifiers import GAP_TOL, error, error_terms, mass_table
from .errors import ContractError, InputError
from .repair import MAX_GRID_N, best_response, dp_repair, eopp_repair, option_grid

#: Sweep family -> (the one notion it sweeps, attack kind, defaults of its
#: family_params). The families function of the same name builds each
#: instance; calibration_drift has a sweep point of its own. The eodds
#: family's r_b = 0.045 suits every alpha >= 0.05, so the forced error floor
#: is flat across the sweep.
SWEEP_FAMILIES = {
    "dp_worked": ("dp", "tpr_shift", {}),
    "eopp_needle": ("eopp", "needle_eopp", {}),
    "eodds_duplicate": ("eodds", "duplicate_flip", {"r_b": 0.045}),
    "calibration_drift": ("calibration", None, {}),
}

#: smallest beta still considered "bounded away from zero" for a constant verdict
CONSTANT_FLOOR = 1e-3


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce a sweep byte-for-byte."""

    family: str
    notion: str
    alphas: tuple[float, ...]
    grid_n: int = 41
    seed: int = 0
    jobs: int = 1
    family_params: Mapping[str, float] = field(default_factory=dict)
    out_dir: str | None = None

    def __post_init__(self) -> None:
        if self.family not in SWEEP_FAMILIES:
            raise InputError(
                f"unknown family {self.family!r}; expected one of {tuple(SWEEP_FAMILIES)}"
            )
        if not self.alphas:
            raise InputError("alpha grid is empty")
        notion = SWEEP_FAMILIES[self.family][0]
        if self.notion != notion:
            raise InputError(f"family {self.family!r} sweeps notion {notion!r}, got {self.notion!r}")
        if any(a >= b for a, b in zip(self.alphas, self.alphas[1:])):
            raise InputError("alpha grid must be strictly increasing")
        for a in self.alphas:
            if not 0.0 < a < 1.0:
                raise InputError(f"alpha {a!r} outside (0, 1)")
        if self.jobs < 1:
            raise InputError("jobs must be >= 1")
        if not 11 <= self.grid_n <= MAX_GRID_N:
            raise InputError(f"grid_n must lie in [11, {MAX_GRID_N}], got {self.grid_n}")

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "notion": self.notion,
            "alphas": list(self.alphas),
            "grid_n": self.grid_n,
            "seed": self.seed,
            "jobs": self.jobs,
            "family_params": dict(self.family_params),
            "out_dir": self.out_dir,
        }

    @staticmethod
    def from_json_dict(doc: Mapping) -> "ExperimentConfig":
        return ExperimentConfig(
            family=str(doc["family"]),
            notion=str(doc["notion"]),
            alphas=tuple(float(a) for a in doc["alphas"]),
            grid_n=int(doc.get("grid_n", 41)),
            seed=int(doc.get("seed", 0)),
            jobs=int(doc.get("jobs", 1)),
            family_params={str(k): float(v) for k, v in doc.get("family_params", {}).items()},
            out_dir=doc.get("out_dir"),
        )

    def sha256(self) -> str:
        blob = json.dumps(self.to_json_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


@dataclass(frozen=True)
class SweepPoint:
    alpha: float
    notion: str
    gap_corrupted: float
    beta: float  # witness excess error on the clean distribution
    excess_oracle: float  # best grid response excess on the clean distribution
    attack: dict
    witness: dict
    dist: dict
    contamination: dict

    def to_json_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "notion": self.notion,
            "gap_corrupted": self.gap_corrupted,
            "beta": self.beta,
            "excess_oracle": self.excess_oracle,
            "attack": self.attack,
            "witness": self.witness,
            "dist": self.dist,
            "contamination": self.contamination,
        }


@dataclass(frozen=True)
class RobustnessReport:
    config: ExperimentConfig
    points: tuple[SweepPoint, ...]
    slope: float
    intercept: float
    r_squared: float
    verdict: str
    beta_over_sqrt_alpha_max: float

    def to_json_dict(self) -> dict:
        return {
            "config": self.config.to_json_dict(),
            "config_sha256": self.config.sha256(),
            "seed": self.config.seed,
            "points": [p.to_json_dict() for p in self.points],
            "fit": {
                "slope": self.slope,
                "intercept": self.intercept,
                "r_squared": self.r_squared,
            },
            "verdict": self.verdict,
            "beta_over_sqrt_alpha_max": self.beta_over_sqrt_alpha_max,
        }


@dataclass(frozen=True)
class MinimaxReport:
    alpha: float
    epsilon: dict[str, float]  # per-group error on the corrupted distribution
    max_group_error: float
    opt_clean: float
    gamma: float | None
    gamma_feasible: bool | None

    def to_json_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "epsilon": dict(sorted(self.epsilon.items())),
            "max_group_error": self.max_group_error,
            "opt_clean": self.opt_clean,
            "gamma": self.gamma,
            "gamma_feasible": self.gamma_feasible,
        }


# ---------------------------------------------------------------------------
# Fits and verdicts
# ---------------------------------------------------------------------------


def fit_loglog(points: Sequence[tuple[float, float]]) -> tuple[float, float, float]:
    """OLS fit of ln(beta) on ln(alpha); returns (slope, intercept, R^2).

    Points with beta <= 0 are excluded with a warning; fewer than three
    usable points is an error rather than a garbage fit.
    """
    usable = [(a, b) for a, b in points if b > 0.0]
    if len(usable) < len(points):
        warnings.warn(f"excluded {len(points) - len(usable)} non-positive beta point(s) from fit")
    if len(usable) < 3:
        raise InputError(f"need >= 3 positive points for a log-log fit, have {len(usable)}")
    x = np.log([a for a, _ in usable])
    y = np.log([b for _, b in usable])
    slope, intercept = np.polyfit(x, y, 1)
    residuals = y - (slope * x + intercept)
    ss_res = float(np.dot(residuals, residuals))
    centered = y - y.mean()
    ss_tot = float(np.dot(centered, centered))
    r_squared = 1.0 if ss_tot <= 1e-20 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r_squared


def regime_verdict(slope: float, betas: Sequence[float]) -> str:
    """Classify the fitted exponent into the paperized regime bands."""
    if 0.85 <= slope <= 1.15:
        return "linear"
    if 0.4 <= slope <= 0.6:
        return "sqrt"
    if abs(slope) <= 0.1 and min(betas) >= CONSTANT_FLOOR:
        return "constant"
    return "unclassified"


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def _sweep_point(config: ExperimentConfig, alpha: float) -> SweepPoint:
    if config.family == "calibration_drift":
        return _calibration_sweep_point(alpha)
    notion, kind, defaults = SWEEP_FAMILIES[config.family]
    params = {k: config.family_params.get(k, v) for k, v in defaults.items()}
    inst = getattr(families, config.family)(alpha, **params)
    slack = 2.0 / config.grid_n + 1e-9
    oracle = best_response(
        inst.corrupted, inst.dist, [inst.h_star], notion, grid_n=config.grid_n,
        reference_error=error(inst.h_star, inst.dist), alpha=alpha,
    )
    # no analytic repair exists in the constant regime: the oracle is the witness
    analytic = {"dp": dp_repair, "eopp": eopp_repair}.get(notion)
    witness = analytic(inst.h_star, inst.dist, inst.corrupted, alpha=alpha) if analytic else oracle
    attack = AttackSpec(kind=kind, alpha=alpha, target_group="B", parameters=params)

    # Analytic witnesses are exact; the grid best response (used as the
    # "witness" in the constant regime) only promises the grid tolerance.
    gap_tol = slack if witness is oracle else GAP_TOL
    if witness.gap_on_corrupted > gap_tol:
        raise ContractError(
            f"witness gap {witness.gap_on_corrupted:.3e} exceeds {gap_tol} at alpha={alpha}"
        )
    if oracle.error_on_original > witness.error_on_original + slack:
        raise ContractError(
            f"grid best response ({oracle.error_on_original:.6f}) worse than the analytic "
            f"witness ({witness.error_on_original:.6f}) beyond grid slack at alpha={alpha}"
        )
    return SweepPoint(
        alpha=alpha,
        notion=witness.notion,
        gap_corrupted=witness.gap_on_corrupted,
        beta=witness.excess_error_on_original,
        excess_oracle=oracle.excess_error_on_original,
        attack=attack.to_json_dict(),
        witness=witness.to_json_dict(),
        dist=inst.dist.to_json_dict(),
        contamination=inst.contamination.to_json_dict(),
    )


def _calibration_sweep_point(alpha: float) -> SweepPoint:
    dist, corrupted, predictor = families.calibration_drift(alpha)
    repaired = recalibrate_per_group(predictor, corrupted)
    gap = calibration_report(repaired, corrupted).max_gap
    if gap > GAP_TOL:
        raise ContractError(f"recalibration gap {gap:.3e} exceeds {GAP_TOL} at alpha={alpha}")
    shift = value_shift(predictor, repaired, corrupted)
    attack = AttackSpec(kind="identity", alpha=alpha, target_group="A")
    return SweepPoint(
        alpha=alpha,
        notion="calibration",
        gap_corrupted=gap,
        beta=shift,
        excess_oracle=shift,
        attack=attack.to_json_dict(),
        witness=repaired.to_json_dict(),
        dist=dist.to_json_dict(),
        contamination={},
    )


def run_sweep(config: ExperimentConfig) -> RobustnessReport:
    """Run every alpha in the config, fit the scaling exponent, and classify
    the regime. A witness violating its gap contract aborts the sweep."""
    if config.jobs == 1:
        points = [_sweep_point(config, a) for a in config.alphas]
    else:
        with ThreadPoolExecutor(max_workers=config.jobs) as pool:
            points = list(pool.map(lambda a: _sweep_point(config, a), config.alphas))

    betas = [p.beta for p in points]
    slope, intercept, r_squared = fit_loglog([(p.alpha, p.beta) for p in points])
    verdict = regime_verdict(slope, betas)
    k_max = max(p.beta / math.sqrt(p.alpha) for p in points)
    return RobustnessReport(
        config=config,
        points=tuple(points),
        slope=slope,
        intercept=intercept,
        r_squared=r_squared,
        verdict=verdict,
        beta_over_sqrt_alpha_max=k_max,
    )


# ---------------------------------------------------------------------------
# Lower-bound certification
# ---------------------------------------------------------------------------

def _r_b(alpha: float, r_b: float | None = None) -> float:
    """Group B's mass in the certifier's duplication instances: 0.9 alpha
    unless given, so the budget washes the group out."""
    return 0.9 * alpha if r_b is None else r_b


def _learner_floor(inst: families.Instance, notion: str, grid_n: int) -> float:
    """The clean error of the learner's grid best response on the instance."""
    return best_response(
        inst.corrupted, inst.dist, [inst.h_star], notion, grid_n=grid_n
    ).error_on_original


def predictive_parity_attack_certify(
    alpha: float, r_b: float | None = None, grid_n: int = 41
) -> float:
    """The learner's minimum clean error under predictive parity on the
    duplication instance.

    The small group's precision is pinned at one half, so matching it forces
    near-coin-flip behavior on the large group. When the budget cannot wash
    the small group out, the corruption degrades to identity and the floor
    collapses toward zero.
    """
    if not 0.0 < alpha < 1.0:
        raise InputError("alpha must lie in (0, 1)")
    dist, h = families.balanced_instance(_r_b(alpha, r_b))
    try:
        _, corrupted = duplicate_flip_attack(dist, "B", alpha)
    except InputError:
        corrupted = dist  # no-attack control: budget cannot wash the group out
    return best_response(corrupted, dist, [h], "predictive_parity", grid_n=grid_n).error_on_original


def parity_calibration_attack_certify(
    alpha: float, r_b: float | None = None, value_grid_n: int = 11
) -> float:
    """Minimum clean L1 error over binned predictors that satisfy parity
    calibration on the duplication instance within 1e-9.

    Exhaustive over every assignment of the four support points to values on
    a uniform grid (value doubles as bin identity). One array pass over the
    (assignment, group, bin) cell masses keeps the assignments calibrated and
    occupancy-equal within a loose 1e-6, a superset of those passing at 1e-9;
    the exact :func:`parity_calibration_check` then decides each survivor.
    Washed-out labels force the small group into a one-half bin; parity then
    drags the large group into it too.
    """
    inst = families.eodds_duplicate(alpha, _r_b(alpha, r_b))
    dist, corrupted = inst.dist, inst.corrupted
    points = sorted({a.point for a in dist.atoms})
    values = np.linspace(0.0, 1.0, value_grid_n)

    groups = corrupted.groups
    mass = np.zeros((len(points), len(groups)))
    pos = np.zeros_like(mass)
    for a in corrupted.atoms:
        k, g = points.index(a.point), groups.index(a.group)
        mass[k, g] += a.mass
        pos[k, g] += a.mass * a.label
    shape = (len(values),) * len(points)
    bins = np.indices(shape).reshape(len(points), math.prod(shape))
    onehot = bins[:, :, None] == np.arange(len(values))  # (point, assignment, bin)
    cell = np.einsum("pnb,pg->ngb", onehot, mass)
    cell_pos = np.einsum("pnb,pg->ngb", onehot, pos)
    near_calibrated = (np.abs(values * cell - cell_pos) <= 1e-6 * cell).all(axis=(1, 2))
    occupancy = cell / np.array([corrupted.group_mass(g) for g in groups])[:, None]
    near_equal = (occupancy.max(axis=1) - occupancy.min(axis=1) <= 1e-6).all(axis=1)
    survivors = np.flatnonzero(near_calibrated & near_equal)

    floor = math.inf
    for n in survivors:
        assigned = bins[:, n]
        predictor = BinnedPredictor(
            assignment={p: int(b) for p, b in zip(points, assigned)},
            values={int(b): float(values[b]) for b in assigned},
        )
        calibrated, occupancy_gap = parity_calibration_check(predictor, corrupted)
        if calibrated and occupancy_gap <= GAP_TOL:
            floor = min(floor, l1_error(predictor, dist))
    if not math.isfinite(floor):
        raise InputError("no predictor on the value grid satisfies parity calibration")
    return floor


#: Certified notion -> (the learner's floor at (alpha, grid_n), claimed floor at alpha).
_CERTIFY = {
    "eopp": (
        lambda a, n: _learner_floor(families.eopp_needle(a), "eopp", n),
        lambda a: math.sqrt(a) / 2.0,
    ),
    "eodds": (
        lambda a, n: _learner_floor(families.eodds_duplicate(a, _r_b(a)), "eodds", n),
        lambda a: (1.0 - a) * (1.0 - _r_b(a)) / 2.0,
    ),
    "predictive_parity": (lambda a, n: predictive_parity_attack_certify(a, grid_n=n), lambda a: 0.2),
    "parity_calibration": (lambda a, n: parity_calibration_attack_certify(a), lambda a: 0.2),
}
CERT_NOTIONS = tuple(_CERTIFY)


def certify_lower_bound(
    notion: str, alpha: float, grid_n: int = 201
) -> tuple[float, float, bool]:
    """(floor, claimed, pass) for the canonical hard instance of a notion.

    The floor is the exhaustive grid minimum of the learner's clean error;
    pass means floor >= claimed - grid slack (2 / grid_n). Claims: EOpp ->
    sqrt(alpha)/2; EOdds -> (1 - alpha) * r_A / 2; Predictive Parity and
    Parity Calibration -> the fixed 0.2 floor.
    """
    notion = notion.lower()
    if notion not in _CERTIFY:
        raise InputError(f"certify_lower_bound supports {CERT_NOTIONS}, got {notion!r}")
    if not 0.0 < alpha < 1.0:
        raise InputError("alpha must lie in (0, 1)")
    if not 11 <= grid_n <= MAX_GRID_N:
        raise InputError(f"grid_n must lie in [11, {MAX_GRID_N}], got {grid_n}")
    learner_floor, claim = _CERTIFY[notion]
    floor, claimed = learner_floor(alpha, grid_n), claim(alpha)
    return floor, claimed, floor >= claimed - 2.0 / grid_n


# ---------------------------------------------------------------------------
# Minimax demonstration
# ---------------------------------------------------------------------------


def minimax_demo(
    alpha: float, gamma: float | None = None, grid_n: int = 101, r_b: float | None = None
) -> MinimaxReport:
    """Minimize the worst per-group error on the corrupted distribution.

    On the duplication instance the washed-out group is stuck at one-half
    error no matter the classifier, while the clean optimum is zero: the
    adversary drives minimax fairness infeasible for any gamma below 1/2.
    The per-group randomization makes the game separable, so the minimax
    value is the max over groups of each group's own grid minimum.
    """
    if not 0.0 <= alpha < 1.0:
        raise InputError("alpha must lie in [0, 1)")
    if gamma is not None and (
        isinstance(gamma, bool) or not isinstance(gamma, (int, float)) or not 0.0 <= gamma <= 1.0
    ):
        raise InputError(f"gamma must be a number in [0, 1], got {gamma!r}")
    dist, h = families.balanced_instance(_r_b(alpha, r_b) if alpha > 0.0 or r_b is not None else 0.1)
    corrupted = duplicate_flip_attack(dist, "B", alpha)[1] if alpha > 0.0 else dist

    uu, vv = option_grid(grid_n)
    dirty, clean = mass_table(h, corrupted), mass_table(h, dist)
    epsilon: dict[str, float] = {}
    opt_terms = []
    for g in dist.groups:
        epsilon[g] = float((sum(error_terms(dirty[g], uu, vv)) / sum(dirty[g])).min())
        opt_terms.append(float(sum(error_terms(clean[g], uu, vv)).min()))

    max_err = max(epsilon.values())
    feasible = None if gamma is None else bool(max_err <= gamma + GAP_TOL)
    return MinimaxReport(
        alpha=alpha,
        epsilon=epsilon,
        max_group_error=max_err,
        opt_clean=math.fsum(opt_terms),
        gamma=gamma,
        gamma_feasible=feasible,
    )


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

CSV_HEADER = "alpha,notion,gap_corrupted,beta,excess_oracle,verdict"


def report_csv(report: RobustnessReport) -> str:
    lines = [CSV_HEADER]
    for p in report.points:
        lines.append(
            f"{p.alpha!r},{p.notion},{p.gap_corrupted!r},{p.beta!r},"
            f"{p.excess_oracle!r},{report.verdict}"
        )
    return "\n".join(lines) + "\n"


def report_json(report: RobustnessReport) -> str:
    return json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n"


def report_svg(report: RobustnessReport, width: int = 480, height: int = 360) -> str:
    """Log-log polyline of (alpha, beta); hand-rolled so output bytes depend
    only on the report contents."""
    pts = [(p.alpha, p.beta) for p in report.points if p.beta > 0.0]
    margin = 40.0
    body: list[str] = []
    if pts:
        xs = [math.log10(a) for a, _ in pts]
        ys = [math.log10(b) for _, b in pts]
        x0, x1 = min(xs), max(xs)
        y0, y1 = min(ys), max(ys)
        xs_span = (x1 - x0) or 1.0
        ys_span = (y1 - y0) or 1.0

        def sx(x: float) -> float:
            return margin + (x - x0) / xs_span * (width - 2 * margin)

        def sy(y: float) -> float:
            return height - margin - (y - y0) / ys_span * (height - 2 * margin)

        coords = " ".join(f"{sx(x):.3f},{sy(y):.3f}" for x, y in zip(xs, ys))
        body.append(
            f'<polyline points="{coords}" fill="none" stroke="black" stroke-width="1.5"/>'
        )
        for x, y in zip(xs, ys):
            body.append(f'<circle cx="{sx(x):.3f}" cy="{sy(y):.3f}" r="3" fill="black"/>')
    body.append(
        f'<text x="{margin}" y="20" font-size="12">'
        f"{report.config.family} / {report.config.notion} "
        f"slope={report.slope:.4f} verdict={report.verdict}</text>"
    )
    inner = "\n".join(body)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n{inner}\n</svg>\n'
    )


def report_from_json_dict(doc: Mapping) -> RobustnessReport:
    """Rebuild a report from its serialized form (for re-rendering)."""
    config = ExperimentConfig.from_json_dict(doc["config"])
    points = tuple(
        SweepPoint(
            alpha=float(p["alpha"]),
            notion=str(p["notion"]),
            gap_corrupted=float(p["gap_corrupted"]),
            beta=float(p["beta"]),
            excess_oracle=float(p["excess_oracle"]),
            attack=dict(p["attack"]),
            witness=dict(p["witness"]),
            dist=dict(p["dist"]),
            contamination=dict(p["contamination"]),
        )
        for p in doc["points"]
    )
    return RobustnessReport(
        config=config,
        points=points,
        slope=float(doc["fit"]["slope"]),
        intercept=float(doc["fit"]["intercept"]),
        r_squared=float(doc["fit"]["r_squared"]),
        verdict=str(doc["verdict"]),
        beta_over_sqrt_alpha_max=float(doc["beta_over_sqrt_alpha_max"]),
    )


def write_report(
    report: RobustnessReport, out_dir: str | Path, formats: Sequence[str] = ("json", "csv")
) -> list[Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    renderers = {"json": report_json, "csv": report_csv, "svg": report_svg}
    suffixes = {"json": "report.json", "csv": "report.csv", "svg": "sweep.svg"}
    for fmt in formats:
        if fmt not in renderers:
            raise InputError(f"unknown report format {fmt!r}; expected json/csv/svg")
        path = out / suffixes[fmt]
        path.write_text(renderers[fmt](report))
        written.append(path)
    return written
