"""Experiment orchestration: alpha sweeps over the canonical families,
log-log scaling fits with regime verdicts, numeric lower-bound certification,
the minimax-fairness demonstration, and deterministic report emission."""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field, fields
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import Mapping, Sequence

from . import families
from .calibration import calibration_report, parity_calibration_attack_certify, recalibrate_per_group, value_shift
from .classifiers import GAP_TOL, error_terms, mass_table
from .errors import ContractError, InputError, integer, number, text
from .repair import _repair, _sweep_responses, certified_floor, grid_size

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


def _fields(record) -> dict:
    """A dataclass record's fields by name. Shallow: ``dataclasses.asdict``
    would deep-copy the nested dicts, which costs about as much as writing
    the JSON."""
    return {f.name: getattr(record, f.name) for f in fields(record)}


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
        if text(self.family, "family") not in SWEEP_FAMILIES:
            raise InputError(
                f"unknown family {self.family!r}; expected one of {tuple(SWEEP_FAMILIES)}"
            )
        notion, _, defaults = SWEEP_FAMILIES[self.family]
        if text(self.notion, "notion") != notion:
            raise InputError(f"family {self.family!r} sweeps notion {notion!r}, got {self.notion!r}")
        # Each field goes through its reader here, so a config built in code
        # is checked exactly as one read from JSON.
        for name, value in (
            ("alphas", tuple(number(a, "alpha") for a in self.alphas)),
            ("grid_n", grid_size(self.grid_n)),
            ("seed", integer(self.seed, "seed")),
            ("jobs", integer(self.jobs, "jobs")),
            ("family_params", {k: number(v, f"family param {k!r}") for k, v in self.family_params.items()}),
            ("out_dir", None if self.out_dir is None else text(self.out_dir, "out_dir")),
        ):
            object.__setattr__(self, name, value)
        if not self.alphas:
            raise InputError("alpha grid is empty")
        if any(a >= b for a, b in zip(self.alphas, self.alphas[1:])):
            raise InputError("alpha grid must be strictly increasing")
        for a in self.alphas:
            if not 0.0 < a < 1.0:
                raise InputError(f"alpha {a!r} outside (0, 1)")
        unknown = sorted(set(self.family_params) - set(defaults))
        if unknown:
            raise InputError(f"family {self.family!r} takes no family_params {unknown}")
        if self.jobs < 1:
            raise InputError("jobs must be >= 1")

    def to_json_dict(self) -> dict:
        return {
            **_fields(self),
            "alphas": list(self.alphas),
            "family_params": dict(self.family_params),
        }

    @staticmethod
    def from_json_dict(doc: Mapping) -> "ExperimentConfig":
        optional = {k: doc[k] for k in ("grid_n", "seed", "jobs", "family_params", "out_dir") if k in doc}
        return ExperimentConfig(family=doc["family"], notion=doc["notion"], alphas=doc["alphas"], **optional)

    def sha256(self) -> str:
        # CPython's builtin SHA-256 gives the same digest as hashlib's, which
        # loads OpenSSL's libcrypto (about 3.4 MB resident) for this one hash
        try:
            from _sha256 import sha256  # CPython 3.10-3.11
        except ImportError:
            try:
                from _sha2 import sha256  # CPython 3.12+
            except ImportError:
                from hashlib import sha256

        blob = json.dumps(self.to_json_dict(), sort_keys=True).encode()
        return sha256(blob).hexdigest()


@dataclass(frozen=True)
class SweepPoint:
    alpha: float
    notion: str
    gap_corrupted: float
    beta: float  # witness excess error on the clean distribution
    excess_oracle: float  # best response excess on the clean distribution (float LP minimum, equalities to 1e-12)
    attack: dict
    witness: dict
    dist: dict
    contamination: dict

    def to_json_dict(self) -> dict:
        return _fields(self)


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
        return {**_fields(self), "epsilon": dict(sorted(self.epsilon.items()))}


# ---------------------------------------------------------------------------
# Fits and verdicts
# ---------------------------------------------------------------------------


def fit_loglog(points: Sequence[tuple[float, float]]) -> tuple[float, float, float]:
    """OLS fit of ln(beta) on ln(alpha); returns (slope, intercept, R^2).

    The fit is closed form: slope = sum(dx dy) / sum(dx^2) over the centred
    logs, intercept = mean(ln beta) - slope mean(ln alpha), and R^2 = 1 -
    ss_res / ss_tot, or 1 when ss_tot <= 1e-20; every sum is ``math.fsum``.
    Points with a finite beta <= 0 are excluded with a warning. A
    non-number, an alpha that is not finite and positive, a beta that is
    NaN or infinite, fewer than three usable points, or usable points that
    share one ln(alpha) raise ``InputError`` rather than give a garbage fit.
    """
    points = [(number(a, "alpha"), number(b, "beta")) for a, b in points]
    for a, b in points:
        if not (math.isfinite(a) and a > 0.0):
            raise InputError(f"alpha {a!r} of a log-log fit must be a finite positive number")
        if not math.isfinite(b):
            raise InputError(f"beta {b!r} of a log-log fit must be finite")
    usable = [(a, b) for a, b in points if b > 0.0]
    if len(usable) < len(points):
        warnings.warn(f"excluded {len(points) - len(usable)} non-positive beta point(s) from fit")
    if len(usable) < 3:
        raise InputError(f"need >= 3 positive points for a log-log fit, have {len(usable)}")
    xs = [math.log(a) for a, _ in usable]
    ys = [math.log(b) for _, b in usable]
    x_mean, y_mean = math.fsum(xs) / len(xs), math.fsum(ys) / len(ys)
    dx, dy = [x - x_mean for x in xs], [y - y_mean for y in ys]
    ss_x = math.fsum(d * d for d in dx)
    if ss_x == 0.0:
        raise InputError("a log-log fit needs points at two or more distinct alphas")
    slope = math.fsum(p * q for p, q in zip(dx, dy)) / ss_x
    intercept = y_mean - slope * x_mean
    ss_res = math.fsum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    ss_tot = math.fsum(d * d for d in dy)
    r_squared = 1.0 if ss_tot <= 1e-20 else 1.0 - ss_res / ss_tot
    return slope, intercept, r_squared


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


def _lp_sweep_points(config: ExperimentConfig) -> list[SweepPoint]:
    notion, kind, defaults = SWEEP_FAMILIES[config.family]
    params = {k: config.family_params.get(k, v) for k, v in defaults.items()}
    instances = [getattr(families, config.family)(alpha, **params) for alpha in config.alphas]
    # each instance's two mass tables, read once for the stack and the witness
    rows = [(a, i.h_star, mass_table(i.h_star, i.corrupted), mass_table(i.h_star, i.dist))
            for a, i in zip(config.alphas, instances)]
    oracles, error = _sweep_responses(rows, notion)
    points = []
    for (alpha, h, dirty, clean), inst, oracle in zip(rows, instances, oracles):
        # no analytic repair exists in the constant regime: the oracle is the witness
        witness = oracle if notion == "eodds" else _repair(h, clean, dirty, notion, alpha)
        # The analytic witnesses are exact, and the best response is the
        # float LP minimum, whose equalities hold to repair._LP_TOL, so it
        # lies above the exact minimum by rounding at most: no witness may
        # beat it by GAP_TOL.
        if witness.gap_on_corrupted > GAP_TOL:
            raise ContractError(f"witness gap {witness.gap_on_corrupted:.3e} exceeds {GAP_TOL} at alpha={alpha}")
        if oracle.error_on_original > witness.error_on_original + GAP_TOL:
            raise ContractError(
                f"best response ({oracle.error_on_original:.6f}) worse than the analytic "
                f"witness ({witness.error_on_original:.6f}) at alpha={alpha}"
            )
        attack = {"kind": kind, "alpha": alpha, "target_group": "B", "parameters": params}
        points.append(SweepPoint(
            alpha, witness.notion, witness.gap_on_corrupted, witness.excess_error_on_original,
            oracle.excess_error_on_original, attack, witness.to_json_dict(), inst.dist.to_json_dict(),
            inst.contamination.to_json_dict(),
        ))
    if error is not None:
        raise error
    return points


def _calibration_sweep_point(alpha: float) -> SweepPoint:
    dist, corrupted, predictor = families.calibration_drift(alpha)
    repaired = recalibrate_per_group(predictor, corrupted)
    gap = calibration_report(repaired, corrupted).max_gap
    if gap > GAP_TOL:
        raise ContractError(f"recalibration gap {gap:.3e} exceeds {GAP_TOL} at alpha={alpha}")
    shift = value_shift(predictor, repaired, corrupted)
    attack = {"kind": "identity", "alpha": alpha, "target_group": "A", "parameters": {}}
    return SweepPoint(alpha, "calibration", gap, shift, shift, attack, repaired.to_json_dict(), dist.to_json_dict(), {})


def run_sweep(config: ExperimentConfig) -> RobustnessReport:
    """Run every alpha in the config, fit the scaling exponent, and classify
    the regime. Each point's ``excess_oracle`` is the best response, the
    minimum of the float LP whose equalities hold to ``repair._LP_TOL`` =
    1e-12, which may lie below the exact LP minimum that
    ``repair.certified_floor`` proves; no grid is searched,
    so ``config.grid_n`` is only checked and recorded. A witness violating
    its gap contract, or beating the best response, aborts the sweep.

    An LP family builds every alpha's instance and reads its clean and
    corrupted mass tables once. All alphas are then the rows of one solver
    stack (:func:`repair._solve`), each with its own clean table, and the
    analytic witness does its rate matching on the same two tables. The
    sweep raises what the first alpha to fail raises, as if the points ran
    one by one. A family's build fails only for an alpha below its budget
    (eodds_duplicate's duplicate flip), and the alphas increase, so a
    failing build is the first alpha's and raises before any solve. The
    stack reports its first row that cannot be solved; the points before it
    are checked in alpha order, and then that row's error is raised.
    Everything runs in the caller's thread, whatever ``config.jobs`` holds,
    which is only recorded in the report."""
    calibration = config.family == "calibration_drift"
    points = [_calibration_sweep_point(a) for a in config.alphas] if calibration else _lp_sweep_points(config)

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

def _duplication(alpha: float) -> families.Instance:
    """The duplication instance of every certified notion but EOpp: group B
    of mass 0.9 alpha, which the budget washes out."""
    return families.eodds_duplicate(alpha, 0.9 * alpha)


#: Certified notion -> (its hard instance at alpha, claimed floor at alpha).
#: Builders are looked up in ``families`` per call, so a wrapper installed
#: there sees every build.
_CERTIFY = {
    "eopp": (lambda a: families.eopp_needle(a), lambda a: math.sqrt(a) / 2.0),
    "eodds": (_duplication, lambda a: (1.0 - a) * (1.0 - 0.9 * a) / 2.0),
    "predictive_parity": (_duplication, lambda a: 0.2),
    "parity_calibration": (_duplication, lambda a: 0.2),
}
CERT_NOTIONS = tuple(_CERTIFY)


def certify_lower_bound(
    notion: str, alpha: float, grid_n: int = 201
) -> tuple[float, float, bool]:
    """(floor, claimed, pass) for the canonical hard instance of a notion.

    Every floor is exact, and pass means floor >= claimed, compared as
    fractions of ints with no slack; the floor returned is that fraction
    correctly rounded to a float. For EOpp, EOdds and predictive parity the
    floor is the LP minimum of clean error, over the common precision for
    predictive parity, in ints by :func:`repair.certified_floor`: a dual
    certificate for EOpp and EOdds, and for predictive parity the closed
    form on each group's segment; parity calibration's is
    :func:`calibration.parity_calibration_attack_certify`'s exact minimum
    over every binned predictor. No floor calls a numpy routine.
    ``grid_n`` is only checked. Claims: EOpp ->
    sqrt(alpha)/2, which is the exact floor only for alpha <= 7 - 4 sqrt(3)
    (about 0.0718) and lies above it beyond; EOdds -> (1 - alpha) * r_A / 2;
    Predictive Parity and Parity Calibration -> the fixed 0.2 floor.
    """
    notion = text(notion, "notion").lower()
    if notion not in _CERTIFY:
        raise InputError(f"certify_lower_bound supports {CERT_NOTIONS}, got {notion!r}")
    alpha = number(alpha, "alpha")
    if not 0.0 < alpha < 1.0:
        raise InputError("alpha must lie in (0, 1)")
    grid_size(grid_n)
    instance, claim = _CERTIFY[notion]
    inst, claimed = instance(alpha), claim(alpha)
    if notion == "parity_calibration":
        num, den = parity_calibration_attack_certify(inst)
    else:
        num, den = certified_floor(inst.corrupted, inst.dist, inst.h_star, notion)
    p, q = claimed.as_integer_ratio()
    return num / den, claimed, num * q >= p * den


# ---------------------------------------------------------------------------
# Minimax demonstration
# ---------------------------------------------------------------------------


def minimax_demo(alpha: float, gamma: float | None = None, grid_n: int = 101) -> MinimaxReport:
    """Minimize the worst per-group error on the corrupted distribution.

    On the duplication instance the washed-out group is stuck at one-half
    error no matter the classifier, while the clean optimum is zero: the
    adversary drives minimax fairness infeasible for any gamma below 1/2.
    At alpha = 0 the balanced instance with group B of mass 0.1 stands
    uncorrupted. The per-group randomization makes the game separable, so
    the minimax value is the max over groups of each group's own minimum.
    Error is linear over a group's triangle 0 <= v <= u <= 1 of options,
    so that minimum is exact at one of its vertices (0, 0), (1, 0) and
    (1, 1). ``grid_n`` is only checked.
    """
    alpha = number(alpha, "alpha")
    if not 0.0 <= alpha < 1.0:
        raise InputError("alpha must lie in [0, 1)")
    if gamma is not None:
        gamma = number(gamma, "gamma")
        if not 0.0 <= gamma <= 1.0:
            raise InputError(f"gamma must be a number in [0, 1], got {gamma!r}")
    grid_size(grid_n)
    if alpha > 0.0:
        inst = _duplication(alpha)
        dist, h, corrupted = inst.dist, inst.h_star, inst.corrupted
    else:
        dist, h = families.balanced_instance(0.1)
        corrupted = dist

    vertices = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0))
    dirty, clean = mass_table(h, corrupted), mass_table(h, dist)
    epsilon = {g: min(sum(error_terms(dirty[g], u, v)) / sum(dirty[g]) for u, v in vertices) for g in dist.groups}
    opt_clean = math.fsum(min(sum(error_terms(clean[g], u, v)) for u, v in vertices) for g in dist.groups)

    max_err = max(epsilon.values())
    feasible = None if gamma is None else bool(max_err <= gamma + GAP_TOL)
    return MinimaxReport(alpha=alpha, epsilon=epsilon, max_group_error=max_err, opt_clean=opt_clean, gamma=gamma,
                         gamma_feasible=feasible)


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
    """The report as ``json.dumps(doc, sort_keys=True, indent=2)`` writes
    it, with a final newline, rendered by :func:`_render`."""
    return _render(report.to_json_dict()) + "\n"


def _render(doc: object, indent: str = "\n") -> str:
    """``json.dumps(doc, sort_keys=True, indent=2)``, byte for byte, for a
    document whose dict keys are strings, in one recursive pass; ``indent``
    is a newline and the current level's indentation. With an indent, json
    runs its pure-Python encoder, which passes every chunk up through a
    generator per level of nesting; here each value is one string, and
    leaves are written by the functions json itself uses."""
    kind = type(doc)
    if kind is float and math.isfinite(doc) or kind is int:
        return repr(doc)
    if isinstance(doc, str):
        return _quote(doc)
    inner = indent + "  "
    if isinstance(doc, dict) and doc:
        items, ends = [_quote(k) + ": " + _render(v, inner) for k, v in sorted(doc.items())], "{}"
    elif isinstance(doc, (list, tuple)) and doc:
        items, ends = [_render(v, inner) for v in doc], "[]"
    else:  # bools, None, inf, NaN, float subclasses such as np.float64, {} and []
        return json.dumps(doc)
    return ends[0] + inner + ("," + inner).join(items) + indent + ends[1]


def report_svg(report: RobustnessReport) -> str:
    """Log-log polyline of (alpha, beta) on a 480 x 360 canvas; hand-rolled so
    output bytes depend only on the report contents."""
    pts = [(p.alpha, p.beta) for p in report.points if p.beta > 0.0]
    width, height, margin = 480, 360, 40.0
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


#: Reader of each SweepPoint field, by its annotation; a JSON object field
#: stays a dict.
_POINT_READERS = {"float": number, "str": text, "dict": lambda value, what: dict(value)}


def report_from_json_dict(doc: Mapping) -> RobustnessReport:
    """Rebuild a report from its serialized form (for re-rendering).
    Numbers and strings are read, never converted: ``"0.5"`` or ``true``
    for a number raises ``InputError``."""
    config = ExperimentConfig.from_json_dict(doc["config"])
    points = tuple(
        SweepPoint(**{f.name: _POINT_READERS[f.type](p[f.name], f.name) for f in fields(SweepPoint)})
        for p in doc["points"]
    )
    fit = doc["fit"]
    return RobustnessReport(
        config=config,
        points=points,
        slope=number(fit["slope"], "slope"),
        intercept=number(fit["intercept"], "intercept"),
        r_squared=number(fit["r_squared"], "r_squared"),
        verdict=text(doc["verdict"], "verdict"),
        beta_over_sqrt_alpha_max=number(doc["beta_over_sqrt_alpha_max"], "beta_over_sqrt_alpha_max"),
    )


def write_report(
    report: RobustnessReport, out_dir: str | Path, formats: Sequence[str] = ("json", "csv")
) -> list[Path]:
    """Write ``report`` to ``out_dir`` in each of ``formats`` and return the
    paths written. An unknown format raises ``InputError`` before the
    directory or any file is made."""
    renderers = {"json": report_json, "csv": report_csv, "svg": report_svg}
    suffixes = {"json": "report.json", "csv": "report.csv", "svg": "sweep.svg"}
    for fmt in formats:
        if fmt not in renderers:
            raise InputError(f"unknown report format {fmt!r}; expected json/csv/svg")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = [out / suffixes[fmt] for fmt in formats]
    for fmt, path in zip(formats, written):
        path.write_text(renderers[fmt](report))
    return written
