"""The pruned exhaustive searches return exactly what the reference
implementations in ``oracles`` return: same totals, same winning indices,
same errors. The exact best response and its certified floor match the
Fraction vertex enumeration up to rounding. The parity-calibration floor
never exceeds the reference's value-grid floor. The mass-table statistics
match the atom sums up to rounding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fairnoise import families
from fairnoise.classifiers import PQClassifier, error, error_terms, group_stats, mass_table
from fairnoise.distributions import EQ_TOL, mix
from fairnoise.errors import InputError
from fairnoise.harness import parity_calibration_attack_certify
from fairnoise.repair import best_response, certified_floor, dp_repair, eopp_repair, option_grid, pair_min_1d

QUANTA = (10, 21, 41, 201)


@st.composite
def stacked_pair_cases(draw, max_rows: int = 5, max_size: int = 40):
    """Stacks of 1-5 rows of statistics on multiples of 1/q, so many pairs
    sit exactly tol apart, and errors on a few levels, so totals tie, some
    of them +inf. Each side's errors are shared by the rows, or given per
    row with predictive parity's undefined options: a NaN statistic with
    error +inf."""
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


def needle_options(alpha, grid_n):
    """Both groups' one-row (true positive rate, clean error) arrays of
    the options of a grid_n grid on the needle instance."""
    inst = families.eopp_needle(alpha)
    uu, vv = option_grid(grid_n)
    dirty, clean = mass_table(inst.h_star, inst.corrupted), mass_table(inst.h_star, inst.dist)
    options = []
    for g in inst.dist.groups:
        c1p, _, c0p, _ = dirty[g]
        options.append((((uu * c1p + vv * c0p) / (c1p + c0p))[None], sum(error_terms(clean[g], uu, vv))))
    return options


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
        (sa, ea), (sb, eb) = needle_options(alpha, 101)
        assert pair_min_1d(sa, ea, sb, eb, 2.0 / 101) == reference_rows(sa, ea, sb, eb, 2.0 / 101)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize(
    "notion, generate, repair",
    [
        ("dp", families.random_dp_instance, dp_repair),
        ("eopp", families.random_eopp_instance, eopp_repair),
        ("eodds", families.random_eopp_instance, None),
    ],
    ids=("dp", "eopp", "eodds"),
)
def test_exact_best_response_matches_reference(notion, generate, repair, seed):
    rng = np.random.default_rng(seed)
    dist, h = generate(rng, max_atoms=12)
    q = oracles.random_contamination(rng, dist)
    corrupted = mix(dist, q, float(rng.uniform(0.01, 0.3)))
    exact = oracles.lp_floor(corrupted, dist, h, notion)
    found = best_response(corrupted, dist, [h], notion).error_on_original
    assert abs(found - exact) <= 1e-12
    assert abs(certified_floor(corrupted, dist, h, notion) - exact) <= 1e-12
    if repair is not None:
        # the analytic witness is one classifier of the class
        assert found <= repair(h, dist, corrupted).error_on_original + 1e-12


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
        q = oracles.random_contamination(rng, dist)
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
                denominator = {"rate": r, "tpr": pos, "fpr": r - pos, "ppv": want.rate[g] * r}
                for name, mass in denominator.items():
                    value, expected = getattr(got, name)[g], getattr(want, name)[g]
                    assert (value is None) == (expected is None), (name, g)
                    if expected is not None:
                        assert abs(value - expected) * mass <= 1e-12, (name, g, value, expected)
            assert abs(error(h, d) - oracles.error(h, d)) <= 1e-12


def _stats_or_error(stats, h, dist):
    try:
        return stats(h, dist)
    except ZeroDivisionError:
        return ZeroDivisionError
    except InputError:
        return InputError


@pytest.mark.parametrize("alpha", (0.05, 0.1, 0.3))
def test_parity_calibration_matches_reference(alpha):
    inst = families.eodds_duplicate(alpha, 0.9 * alpha)
    assert parity_calibration_attack_certify(inst) == oracles.parity_calibration_attack_certify(alpha)


@pytest.mark.parametrize("alpha", (0.05, 0.1, 0.3))
@pytest.mark.parametrize("r_b_share", (0.3, 1.0))
def test_parity_calibration_floor_is_at_most_the_grid_floor(alpha, r_b_share):
    # the grid's values are a subset of every value a bin may take, so the
    # partition floor can only lie at or below the grid's; at these
    # (alpha, r_b) the grid finds a predictor
    r_b = r_b_share * alpha
    floor = parity_calibration_attack_certify(families.eodds_duplicate(alpha, r_b))
    assert floor <= oracles.parity_calibration_attack_certify(alpha, r_b)


@pytest.mark.parametrize("alpha", (0.01, 0.05, 0.1, 0.3, 0.5))
def test_parity_calibration_floor_on_washed_out_instance_is_one_half(alpha):
    # one bin of every point, valued 1/2: group B's washed-out mean
    inst = families.eodds_duplicate(alpha, 0.9 * alpha)
    assert parity_calibration_attack_certify(inst) == 0.5


PP_ALPHAS = (0.01, 0.02, 0.04, 0.05, 0.08, 0.1, 0.15, 0.2, 0.25, 1.0 / 3.0, 0.4, 0.5)


@pytest.mark.parametrize("r_b", (None, 0.05, 0.3, 0.5))  # 0.5: no budget below alpha 1/3
@pytest.mark.parametrize("grid_n", (11, 21, 41, 101, 201))
def test_predictive_parity_matches_reference(grid_n, r_b):
    for alpha in PP_ALPHAS:
        dist, h, corrupted = oracles.predictive_parity_instance(alpha, r_b)
        found = best_response(corrupted, dist, [h], "predictive_parity", grid_n=grid_n)
        expected = oracles.predictive_parity_attack_certify(alpha, r_b, grid_n)
        assert found.error_on_original == expected, alpha
