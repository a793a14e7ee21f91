"""Desk-scale simulation laboratory for fairness-constrained learning under
malicious corruption of the training distribution.

Everything is exact: distributions have finite support, classifiers are
randomized per group with closed-form acceptance probabilities, and both
the adversary's attacks and the learner's repairs are evaluated as exact
expectations, so the accuracy-loss regimes (linear, square-root, constant
in the corruption budget) are certified rather than estimated.
"""

from .distributions import Atom, Distribution, make_distribution, mix
from .classifiers import BaseClassifier, PQClassifier, error, fairness_gap, group_stats
from .repair import RepairWitness, best_response, dp_repair, eopp_repair
from .attacks import duplicate_flip_attack
from .calibration import (
    BinnedPredictor,
    calibration_report,
    parity_calibration_check,
    recalibrate_per_group,
)
from .harness import (
    ExperimentConfig,
    MinimaxReport,
    RobustnessReport,
    certify_lower_bound,
    fit_loglog,
    minimax_demo,
    run_sweep,
    write_report,
)

__version__ = "0.1.0"

__all__ = [
    "Atom",
    "BaseClassifier",
    "BinnedPredictor",
    "Distribution",
    "ExperimentConfig",
    "MinimaxReport",
    "PQClassifier",
    "RepairWitness",
    "RobustnessReport",
    "best_response",
    "calibration_report",
    "certify_lower_bound",
    "dp_repair",
    "duplicate_flip_attack",
    "eopp_repair",
    "error",
    "fairness_gap",
    "fit_loglog",
    "group_stats",
    "make_distribution",
    "minimax_demo",
    "mix",
    "parity_calibration_check",
    "recalibrate_per_group",
    "run_sweep",
    "write_report",
]
