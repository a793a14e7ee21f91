#!/usr/bin/env python3
"""Certify the numeric lower-bound floors and the minimax demonstration.

Usage: python scripts/certify_bounds.py
Exits nonzero if any certification fails.
"""

import argparse
import sys

from fairnoise import harness

CERTIFICATIONS = [
    ("eopp", 0.04),
    ("eopp", 0.01),
    ("eodds", 0.1),
    ("predictive_parity", 0.1),
    ("parity_calibration", 0.1),
]


def main() -> int:
    argparse.ArgumentParser(description=__doc__).parse_args()

    failed = False
    for notion, alpha in CERTIFICATIONS:
        floor, claimed, ok = harness.certify_lower_bound(notion, alpha)
        failed |= not ok
        print(
            f"{notion:20s} alpha={alpha:<6g} floor={floor:.6f} "
            f"claimed={claimed:.6f} pass={ok}"
        )

    report = harness.minimax_demo(0.1, gamma=0.1)
    print(
        f"{'minimax':20s} alpha=0.1    worst-group={report.max_group_error:.6f} "
        f"opt_clean={report.opt_clean:.6f} gamma=0.1 feasible={report.gamma_feasible}"
    )
    failed |= report.max_group_error < 0.45

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
