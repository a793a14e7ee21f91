"""The pruned exhaustive searches return exactly what the reference
implementations in ``oracles`` return: same totals, same winning indices,
same errors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fairnoise import families, repair
from fairnoise.calibration import parity_calibration_attack_certify
from fairnoise.errors import InputError
from fairnoise.repair import _group_grid, option_grid, pair_min_1d, pair_min_2d

QUANTA = (10, 21, 41, 201)


@st.composite
def pair_cases(draw, dims: int, max_size: int = 40):
    """Statistics on multiples of 1/q, so many pairs sit exactly tol apart,
    and errors on a few levels, so totals tie."""
    q = draw(st.sampled_from(QUANTA))
    tol = draw(st.sampled_from((0.0, 1.0 / q, 2.0 / q, 2.0 / 21, 2.0 / 41, 2.0 / 201)))

    def side():
        n = draw(st.integers(0, max_size))
        grid = st.lists(st.integers(0, q), min_size=n, max_size=n)
        stats = tuple(np.array(draw(grid), dtype=float) / q for _ in range(dims))
        levels = st.lists(st.integers(0, 4), min_size=n, max_size=n)
        return stats, np.array(draw(levels), dtype=float) / 7.0

    (stats_a, err_a), (stats_b, err_b) = side(), side()
    return stats_a, err_a, stats_b, err_b, tol


class TestPairMin1d:
    @settings(max_examples=300, deadline=None)
    @given(pair_cases(dims=1))
    def test_matches_reference(self, case):
        (sa,), ea, (sb,), eb, tol = case
        assert pair_min_1d(sa, ea, sb, eb, tol) == oracles.pair_min_1d(sa, ea, sb, eb, tol)

    def test_nothing_feasible(self):
        sa, sb = np.linspace(0.0, 0.4, 9), np.linspace(0.6, 1.0, 9)
        ea, eb = np.zeros(9), np.zeros(9)
        assert oracles.pair_min_1d(sa, ea, sb, eb, 0.1) is None
        assert pair_min_1d(sa, ea, sb, eb, 0.1) is None
        assert pair_min_1d(sa[:0], ea[:0], sb, eb, 0.1) is None

    @pytest.mark.parametrize("alpha", (0.0025, 0.04, 0.09))
    def test_matches_reference_on_needle_grids(self, alpha):
        inst, _ = families.eopp_needle(alpha)
        uu, vv = option_grid(101)
        ga, gb = (
            _group_grid(inst.h_star, g, inst.corrupted, inst.dist, "eopp", uu, vv)
            for g in inst.dist.groups
        )
        args = (ga.stats[0], ga.err_on_clean, gb.stats[0], gb.err_on_clean, 2.0 / 101)
        assert pair_min_1d(*args) == oracles.pair_min_1d(*args)


class TestPairMin2d:
    @settings(max_examples=200, deadline=None)
    @given(pair_cases(dims=2), st.sampled_from((1, 7, 512)))
    def test_matches_reference(self, case, chunk):
        stats_a, ea, stats_b, eb, tol = case
        expected = oracles.pair_min_2d(stats_a, ea, stats_b, eb, tol)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(repair, "_PAIR_CHUNK", chunk)
            assert pair_min_2d(stats_a, ea, stats_b, eb, tol) == expected

    def test_nothing_feasible(self):
        near, far = np.linspace(0.0, 0.4, 9), np.linspace(0.6, 1.0, 9)
        ea, eb = np.zeros(9), np.zeros(9)
        # each statistic alone is satisfiable; both together never are
        args = ((near, far), ea, (near, near), eb, 0.1)
        assert oracles.pair_min_2d(*args) is None
        assert pair_min_2d(*args) is None

    @pytest.mark.parametrize("alpha", (0.05, 0.1, 0.2))
    def test_matches_reference_on_duplication_grids(self, alpha):
        inst = families.eodds_duplicate(alpha, r_b=0.9 * alpha)
        uu, vv = option_grid(41)
        ga, gb = (
            _group_grid(inst.h_star, g, inst.corrupted, inst.dist, "eodds", uu, vv)
            for g in inst.dist.groups
        )
        args = (ga.stats, ga.err_on_clean, gb.stats, gb.err_on_clean, 2.0 / 41)
        assert pair_min_2d(*args) == oracles.pair_min_2d(*args)


def _outcome(certify, *args):
    try:
        return certify(*args)
    except InputError as exc:
        return ("InputError", str(exc))


@pytest.mark.parametrize(
    "alpha, r_b, value_grid_n",
    [
        (0.1, None, 11),
        (0.1, None, 13),
        (0.3, 0.1, 11),
        (0.2, 0.05, 5),
        (0.05, None, 3),
        (0.1, None, 4),  # no one-half value: nothing is parity calibrated
        (0.1, 0.0, 11),  # r_b outside (0, 1)
        (0.01, 0.5, 3),  # budget too small to wash the small group out
    ],
)
def test_parity_calibration_matches_reference(alpha, r_b, value_grid_n):
    expected = _outcome(oracles.parity_calibration_attack_certify, alpha, r_b, value_grid_n)
    assert _outcome(parity_calibration_attack_certify, alpha, r_b, value_grid_n) == expected
