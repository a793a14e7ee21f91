"""Acceptance gate: the eleven certified claims, one pass/fail line each.

Each test prints a single `[ n] PASS/FAIL <claim>` line (visible with
pytest -s or in the captured output on failure) and asserts the claim at
its stated tolerance. Everything is exact arithmetic on finite supports;
no tolerances hide sampling noise.
"""

import math

import numpy as np
import pytest

import oracles
from fairnoise import families, harness
from fairnoise.calibration import calibration_report, recalibrate_per_group, value_shift
from fairnoise.classifiers import group_stats
from fairnoise.distributions import mix
from fairnoise.repair import best_response, dp_repair, eopp_repair

N_RANDOM = 200
SEED = 20260823


def _verdict(n: int, claim: str, ok: bool) -> None:
    print(f"[{n:2d}] {'PASS' if ok else 'FAIL'} {claim}")
    assert ok, f"acceptance criterion {n} failed: {claim}"


def _random_repair_run(kind: str):
    """Shared corpus for criteria 1-3: instance, attack, repair, stats."""
    rng = np.random.default_rng(SEED)
    runs = []
    for _ in range(N_RANDOM):
        alpha = float(rng.uniform(0.01, 0.2))
        if kind == "dp":
            dist, h = families.random_dp_instance(rng)
        else:
            dist, h = families.random_eopp_instance(rng)
        q = oracles.random_contamination(rng, dist)
        corrupted = mix(dist, q, alpha)
        runs.append((alpha, dist, h, corrupted))
    return runs


@pytest.fixture(scope="module")
def dp_runs():
    return _random_repair_run("dp")


@pytest.fixture(scope="module")
def eopp_runs():
    return _random_repair_run("eopp")


def test_01_dp_upper_bound(dp_runs):
    ok = True
    for alpha, dist, h, corrupted in dp_runs:
        w = dp_repair(h, dist, corrupted, alpha=alpha)
        bound = 2.0 * alpha / (1.0 - alpha)
        if w.gap_on_corrupted > 1e-9 or w.excess_error_on_original > bound + 1e-9:
            ok = False
            break
    _verdict(1, f"DP repair: gap<=1e-9 and excess<=2a/(1-a) on {N_RANDOM} random instances", ok)


def test_02_dp_drift_bound(dp_runs):
    ok = abs(0.1 / ((1.0 - 0.1) * 0.5 + 0.1) - 0.18181818181818182) <= 1e-12
    for alpha, dist, h, corrupted in dp_runs:
        clean, dirty = group_stats(h, dist), group_stats(h, corrupted)
        for g in dist.groups:
            bound = alpha / ((1.0 - alpha) * dist.group_mass(g) + alpha)
            if abs(dirty.rate[g] - clean.rate[g]) > bound + 1e-9:
                ok = False
    _verdict(2, "rate drift <= a/((1-a)r+a) on all instances; spot value 0.181818", ok)


def test_03_tpr_drift_bound(eopp_runs):
    ok = True
    for alpha, dist, h, corrupted in eopp_runs:
        clean, dirty = group_stats(h, dist), group_stats(h, corrupted)
        for g in dist.groups:
            if clean.tpr[g] is None or dirty.tpr[g] is None:
                continue
            bound = alpha / ((1.0 - alpha) * dist.positive_mass(g) + alpha)
            if abs(dirty.tpr[g] - clean.tpr[g]) > bound + 1e-9:
                ok = False
    _verdict(3, "TPR drift <= a/((1-a)r+ + a) on all instances", ok)


def test_04_eopp_upper_bound(eopp_runs):
    ok = True
    for alpha, dist, h, corrupted in eopp_runs:
        w = eopp_repair(h, dist, corrupted, alpha=alpha)
        if w.gap_on_corrupted > 1e-9:
            ok = False
            break
    report = harness.run_sweep(
        harness.ExperimentConfig(
            family="eopp_needle", notion="eopp", alphas=(0.0025, 0.01, 0.04, 0.09), seed=SEED
        )
    )
    ok = ok and 0.4 <= report.slope <= 0.6 and report.r_squared >= 0.95
    _verdict(4, "EOpp repair gap<=1e-9; needle sweep slope in [0.4,0.6], R2>=0.95", ok)


def test_05_eopp_lower_bound():
    f1, c1, p1 = harness.certify_lower_bound("eopp", 0.04, grid_n=201)
    f2, c2, p2 = harness.certify_lower_bound("eopp", 0.01, grid_n=201)
    ok = p1 and f1 >= 0.09 and abs(c1 - 0.1) < 1e-12 and p2 and f2 >= 0.04
    _verdict(5, "EOpp floors: 0.09 at a=0.04 (claimed 0.1), 0.04 at a=0.01 (claimed 0.05)", ok)


def test_06_eodds_constant():
    inst = families.eodds_duplicate(0.1, r_b=0.09)
    w = best_response(inst.corrupted, inst.dist, [inst.h_star], "eodds", grid_n=201)
    report = harness.run_sweep(
        harness.ExperimentConfig(
            family="eodds_duplicate", notion="eodds", alphas=(0.05, 0.1, 0.2), seed=SEED
        )
    )
    ok = w.error_on_original >= 0.44 and report.verdict == "constant" and abs(report.slope) <= 0.1
    _verdict(6, "EOdds: forced error >= 0.44 at a=0.1, r_B=0.09; flat verdict across sweep", ok)


def test_07_predictive_parity_floor():
    floor, claimed, passed = harness.certify_lower_bound("predictive_parity", 0.1, grid_n=201)
    ok = passed and floor >= 0.2
    _verdict(7, "Predictive Parity floor >= 0.2 at a=0.1 (accept mass > 0 enforced)", ok)


def test_08_calibration_linear():
    rng = np.random.default_rng(SEED)
    ok = True
    for _ in range(N_RANDOM):
        alpha = float(rng.uniform(0.01, 0.2))
        dist, predictor = oracles.random_calibrated_instance(rng)
        q = oracles.random_contamination(rng, dist)
        corrupted = mix(dist, q, alpha)
        repaired = recalibrate_per_group(predictor, corrupted)
        gap = calibration_report(repaired, corrupted).max_gap
        shift = value_shift(predictor, repaired, corrupted)
        if gap > 1e-9 or shift > alpha + 1e-9:
            ok = False
            break
    report = harness.run_sweep(
        harness.ExperimentConfig(
            family="calibration_drift", notion="calibration",
            alphas=(0.01, 0.02, 0.04, 0.08), seed=SEED,
        )
    )
    ok = ok and 0.85 <= report.slope <= 1.15
    _verdict(8, f"recalibration: gap<=1e-9, shift<=a on {N_RANDOM} instances; slope in [0.85,1.15]", ok)


def test_09_parity_calibration_floor():
    floor, claimed, passed = harness.certify_lower_bound("parity_calibration", 0.1)
    ok = passed and floor >= 0.2
    _verdict(9, "Parity Calibration: every passing predictor errs >= 0.2 on clean D", ok)


def test_10_minimax():
    report = harness.minimax_demo(0.1, grid_n=101)
    ok = report.max_group_error >= 0.45 and abs(report.opt_clean) <= 1e-12
    _verdict(10, "minimax at a=0.1: worst-group error >= 0.45 while clean OPT = 0", ok)


def test_11_determinism(tmp_path):
    configs = [
        harness.ExperimentConfig(family="dp_worked", notion="dp",
                                 alphas=(0.01, 0.02, 0.04, 0.08), seed=SEED),
        harness.ExperimentConfig(family="eopp_needle", notion="eopp",
                                 alphas=(0.0025, 0.01, 0.04, 0.09), seed=SEED),
        harness.ExperimentConfig(family="eodds_duplicate", notion="eodds",
                                 alphas=(0.05, 0.1, 0.2), seed=SEED),
        harness.ExperimentConfig(family="calibration_drift", notion="calibration",
                                 alphas=(0.01, 0.02, 0.04, 0.08), seed=SEED),
    ]
    ok = True
    for i, config in enumerate(configs):
        d1, d2 = tmp_path / f"a{i}", tmp_path / f"b{i}"
        harness.write_report(harness.run_sweep(config), d1, ("json", "csv"))
        harness.write_report(harness.run_sweep(config), d2, ("json", "csv"))
        for name in ("report.json", "report.csv"):
            if (d1 / name).read_bytes() != (d2 / name).read_bytes():
                ok = False
    _verdict(11, "same seed twice: byte-identical report JSON and CSV for every family", ok)
