import math

import numpy as np
import pytest
from hypothesis import strategies as st

from fairnoise.calibration import parity_calibration_attack_certify
from fairnoise.distributions import Atom, make_distribution


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


@st.composite
def distributions(draw, max_atoms: int = 8, groups: tuple[str, ...] = ("A", "B")):
    """Random finite-support distributions with every group inhabited."""
    n = draw(st.integers(min_value=len(groups), max_value=max_atoms))
    weights = draw(
        st.lists(st.integers(min_value=1, max_value=100), min_size=n, max_size=n)
    )
    labels = draw(st.lists(st.integers(min_value=0, max_value=1), min_size=n, max_size=n))
    total = float(sum(weights))
    atoms = []
    for i, (w, y) in enumerate(zip(weights, labels)):
        g = groups[i % len(groups)]  # guarantees every group has mass
        atoms.append(Atom(f"x{i}", y, g, w / total))
    return make_distribution(atoms, groups=groups)


@st.composite
def alphas(draw, lo: float = 0.01, hi: float = 0.3):
    return draw(st.floats(min_value=lo, max_value=hi, allow_nan=False))


def assert_close(actual: float, expected: float, tol: float = 1e-9):
    assert math.isfinite(actual)
    assert abs(actual - expected) <= tol, f"{actual} != {expected} (tol {tol})"


def calibration_floor(inst) -> float:
    """The parity-calibration floor of ``inst``, its exact pair correctly rounded."""
    num, den = parity_calibration_attack_certify(inst)
    return num / den
