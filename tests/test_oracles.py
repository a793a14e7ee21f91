"""The pruned exhaustive searches return exactly what the reference
implementations in ``oracles`` return: same totals, same winning indices,
same errors. The mass-table statistics match the atom sums up to rounding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fairnoise import families, repair
from fairnoise.attacks import decompose_corruption
from fairnoise.classifiers import PQClassifier, error, error_terms, group_stats, mass_table
from fairnoise.distributions import EQ_TOL, mix
from fairnoise.errors import InputError
from fairnoise.harness import parity_calibration_attack_certify, predictive_parity_attack_certify
from fairnoise.repair import _grid_options, option_grid, pair_min_1d, pair_min_2d

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


@st.composite
def stacked_pair_cases(draw, max_rows: int = 5, max_size: int = 40):
    """Stacks of 1-5 rows of ``pair_cases`` statistics, with some errors
    +inf. Each side's errors are shared by the rows, or given per row with
    predictive parity's undefined options: a NaN statistic with error +inf."""
    q = draw(st.sampled_from(QUANTA))
    tol = draw(st.sampled_from((0.0, 1.0 / q, 2.0 / q, 2.0 / 21, 2.0 / 41, 2.0 / 201)))
    rows = draw(st.integers(1, max_rows))

    def side():
        n = draw(st.integers(0, max_size))
        grid = st.lists(st.integers(0, q), min_size=rows * n, max_size=rows * n)
        stats = np.array(draw(grid), dtype=float).reshape(rows, n) / q
        levels = st.lists(st.integers(0, 5), min_size=n, max_size=n)
        err = np.array(draw(levels), dtype=float) / 7.0
        err[err > 4.0 / 7.0] = np.inf
        if draw(st.booleans()):
            undefined = np.array(
                draw(st.lists(st.booleans(), min_size=rows * n, max_size=rows * n)), dtype=bool
            ).reshape(rows, n)
            stats[undefined] = np.nan
            err = np.where(undefined, np.inf, err)
        return stats, err

    (stat_a, err_a), (stat_b, err_b) = side(), side()
    return stat_a, err_a, stat_b, err_b, tol


def reference_rows(stat_a, err_a, stat_b, err_b, tol):
    """The oracle applied to each row of a stacked case."""
    errs_a, errs_b = np.broadcast_to(err_a, stat_a.shape), np.broadcast_to(err_b, stat_b.shape)
    return [
        oracles.pair_min_1d(sa, ea, sb, eb, tol)
        for sa, ea, sb, eb in zip(stat_a, errs_a, stat_b, errs_b)
    ]


def grid_options(inst, notion, grid_n):
    """Both groups' one-row (statistics, clean error) option arrays, as
    best_response builds them."""
    uu, vv = option_grid(grid_n)
    dirty, clean = mass_table(inst.h_star, inst.corrupted), mass_table(inst.h_star, inst.dist)
    return [
        _grid_options(np.array([dirty[g]]), sum(error_terms(clean[g], uu, vv)), notion, uu, vv)
        for g in inst.dist.groups
    ]


class TestPairMin1d:
    @settings(max_examples=300, deadline=None)
    @given(stacked_pair_cases())
    def test_matches_reference(self, case):
        assert pair_min_1d(*case) == reference_rows(*case)

    def test_nothing_feasible(self):
        sa, sb = np.linspace(0.0, 0.4, 9), np.linspace(0.6, 1.0, 9)
        ea, eb = np.zeros(9), np.zeros(9)
        assert oracles.pair_min_1d(sa, ea, sb, eb, 0.1) is None
        # the second row is the first shifted into reach
        stack_a, stack_b = np.stack([sa, sa]), np.stack([sb, sb - 0.2])
        assert pair_min_1d(stack_a, ea, stack_b, eb, 0.1) == reference_rows(stack_a, ea, stack_b, eb, 0.1)
        assert pair_min_1d(stack_a, ea, stack_b, eb, 0.1)[0] is None
        assert pair_min_1d(stack_a[:, :0], ea[:0], stack_b, eb, 0.1) == [None, None]

    def test_undefined_options_pair_with_nothing(self):
        # only the options without a precision are within tol of each other
        sa, sb = np.array([[1.0, np.nan]]), np.array([[0.0, np.nan]])
        ea = eb = np.array([[0.0, np.inf]])
        assert pair_min_1d(sa, ea, sb, eb, 0.1) == [None]
        assert oracles.pair_min_1d(sa[0], ea[0], sb[0], eb[0], 0.1) is None

    @pytest.mark.parametrize("alpha", (0.0025, 0.04, 0.09))
    def test_matches_reference_on_needle_grids(self, alpha):
        inst = families.eopp_needle(alpha)
        ((sa,), ea), ((sb,), eb) = grid_options(inst, "eopp", 101)
        assert pair_min_1d(sa, ea, sb, eb, 2.0 / 101) == reference_rows(sa, ea, sb, eb, 2.0 / 101)


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
        (stats_a, ea), (stats_b, eb) = grid_options(inst, "eodds", 41)
        args = (tuple(s[0] for s in stats_a), ea, tuple(s[0] for s in stats_b), eb, 2.0 / 41)
        assert pair_min_2d(*args) == oracles.pair_min_2d(*args)


unit = st.floats(0.0, 1.0)


class TestMassTable:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from((families.random_dp_instance, families.random_eopp_instance)),
        unit,
        st.tuples(unit, unit, unit, unit),
    )
    def test_statistics_match_atom_sums(self, seed, generate, alpha, pq):
        rng = np.random.default_rng(seed)
        dist, h = generate(rng, max_atoms=16)
        q = families.random_contamination(rng, dist)
        corrupted = mix(dist, q, alpha)
        h = PQClassifier(h, {"A": pq[:2], "B": pq[2:]})
        table_d, table_q, table_mix = (mass_table(h, x) for x in (dist, q, corrupted))
        for g in dist.groups:
            for m, md, mq in zip(table_mix[g], table_d[g], table_q[g]):
                assert abs(m - ((1.0 - alpha) * md + alpha * mq)) <= EQ_TOL

        for d in (dist, corrupted):
            got, want = (_stats_or_error(stats, h, d) for stats in (group_stats, oracles.group_stats))
            if want is ZeroDivisionError:
                # at alpha = 1 a group the contamination misses has no mass
                assert got is InputError
                return
            for g in d.groups:
                # Rates are mass ratios and fpr's numerator is a difference, so
                # a rounding-level change in a mass moves a rate by that change
                # over the denominator: compare the masses.
                r, pos = d.group_mass(g), d.positive_mass(g)
                denominator = {
                    "rate": r, "tpr": pos, "fpr": r - pos, "ppv": want.rate[g] * r, "group_error": r,
                }
                for name, mass in denominator.items():
                    value, expected = getattr(got, name)[g], getattr(want, name)[g]
                    assert (value is None) == (expected is None), (name, g)
                    if expected is not None:
                        assert abs(value - expected) * mass <= 1e-12, (name, g, value, expected)
            assert abs(got.overall_error - want.overall_error) <= 1e-12
            assert abs(error(h, d) - oracles.error(h, d)) <= 1e-12

        decomposition = decompose_corruption(dist, q, alpha, h)
        expected = oracles.corruption_masses(q, alpha, h, dist.groups)
        for masses, reference in zip(
            (decomposition.alpha_z, decomposition.e_z, decomposition.e_z_plus), expected
        ):
            for g in dist.groups:
                assert abs(masses[g] - reference[g]) <= 1e-12


def _stats_or_error(stats, h, dist):
    try:
        return stats(h, dist)
    except ZeroDivisionError:
        return ZeroDivisionError
    except InputError:
        return InputError


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


PP_ALPHAS = (0.01, 0.02, 0.04, 0.05, 0.08, 0.1, 0.15, 0.2, 0.25, 1.0 / 3.0, 0.4, 0.5)


@pytest.mark.parametrize("r_b", (None, 0.05, 0.3, 0.5))  # 0.5: no budget below alpha 1/3
@pytest.mark.parametrize("grid_n", (11, 21, 41, 101, 201))
def test_predictive_parity_matches_reference(grid_n, r_b):
    for alpha in PP_ALPHAS:
        expected = oracles.predictive_parity_attack_certify(alpha, r_b, grid_n)
        assert predictive_parity_attack_certify(alpha, r_b, grid_n) == expected, alpha
