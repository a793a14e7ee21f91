"""The exact best response and its certified floor match the Fraction
vertex enumeration up to rounding, and the floor equals the Fraction dual
certificate exactly. Under predictive parity the best
response is never above the dense precision scan and comes within its
resolution. The parity-calibration floor never exceeds the reference's
value-grid floor. The mass-table statistics match the atom sums up to
rounding. The active-set tables equal their numpy derivation bit for bit,
and the closed-form log-log fit matches ``np.polyfit`` to 1e-12."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import calibration_floor
from fairnoise import families, harness, repair
from fairnoise.classifiers import GAP_TOL, PQClassifier, error, group_stats, mass_table
from fairnoise.distributions import EQ_TOL, mix
from fairnoise.errors import InfeasibleError, InputError
from fairnoise.repair import best_response, certified_floor, dp_repair, eopp_repair


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
    floor = Fraction(*certified_floor(corrupted, dist, h, notion))
    assert abs(floor - exact) <= 1e-12
    assert floor == oracles.certified_floor(corrupted, dist, h, notion)
    if repair is not None:
        # the analytic witness is one classifier of the class
        assert found <= repair(h, dist, corrupted).error_on_original + 1e-12


#: Each LP notion's closed-form family at alpha: the dp worked example, the
#: EOpp needle and the EOdds duplication at r_B = 0.9 alpha.
FAMILIES = (
    ("dp", families.dp_worked),
    ("eopp", families.eopp_needle),
    ("eodds", lambda a: families.eodds_duplicate(a, 0.9 * a)),
)


@pytest.mark.parametrize("alpha", (1e-300, 1e-200, 1e-30, 0.5, 0.9, 0.99))
@pytest.mark.parametrize("notion, build", FAMILIES, ids=[n for n, _ in FAMILIES])
def test_floor_at_an_extreme_alpha_is_the_exact_minimum(notion, build, alpha):
    # at a tiny alpha a vertex that misses the equality by about alpha
    # passes a float check with 1e-12 slack, and its dual value lies below
    # the minimum; at a large one only faces whose system has a negative
    # determinant prove the dp floor, so the proof must flip its sign
    inst = build(alpha)
    floor = Fraction(*certified_floor(inst.corrupted, inst.dist, inst.h_star, notion))
    assert floor >= 0
    assert floor == oracles.lp_floor(inst.corrupted, inst.dist, inst.h_star, notion)
    assert floor == oracles.certified_floor(inst.corrupted, inst.dist, inst.h_star, notion)


#: The corpus's alphas for every closed-form family, down to 1e-300.
CORPUS_ALPHAS = (1e-300, 1e-200, 1e-30, 1e-12, 0.01, 0.05, 0.0718, 0.2, 0.5, 0.9)

#: The largest gap each way between the float core's least error (one
#: ``repair._one_row``) and the proved floor over :func:`floor_corpus`.
#: The float core solves a relaxed LP: it counts a vertex feasible when it
#: misses an equality by up to ``repair._LP_TOL`` = 1e-12. So it lies below
#: the proof where the best such vertex misses by a hair, by up to half the
#: miss here. On ``dp_worked`` at alpha = 1e-12 the perfect classifier's
#: rates differ by 9.9998e-13: the core reads 0.0 and the proof 5.0e-13. On
#: the EOpp needle at alpha = 1e-30, B's true positive rate is 1 - 2e-15
#: after the adversary's 1e-30 of base-negative positives: the core reads
#: 0.0 and the proof 5e-16. Above the proof the core lies by rounding only.
FLOAT_BELOW_PROOF, FLOAT_ABOVE_PROOF = 5.00002816926247e-13, 5.5467355721356666e-17


def floor_corpus():
    """(label, corrupted, clean, base, notion): the three LP families and
    predictive parity on the EOdds duplication instance at every
    ``CORPUS_ALPHAS``, then 25 seeded random instances per notion, alpha
    drawn from U(0.001, 0.3), U(0, 1) or 10^-U(1, 300)."""
    for notion, build in FAMILIES + (("predictive_parity", FAMILIES[2][1]),):
        for alpha in CORPUS_ALPHAS:
            inst = build(alpha)
            yield f"{notion}@{alpha}", inst.corrupted, inst.dist, inst.h_star, notion
    for notion in ("dp", "eopp", "eodds", "predictive_parity"):
        for seed in range(25):
            rng = np.random.default_rng([2026, seed])
            dp = notion == "dp" or notion == "predictive_parity" and seed % 2
            dist, h = (families.random_dp_instance if dp else families.random_eopp_instance)(rng, max_atoms=12)
            q = oracles.random_contamination(rng, dist)
            alpha = (rng.uniform(0.001, 0.3), rng.uniform(0.0, 1.0), 10.0 ** -rng.uniform(1, 300))[seed % 3]
            if 0.0 < alpha < 1.0:
                yield f"{notion}-{seed}", mix(dist, q, float(alpha)), dist, h, notion


def test_certified_floors_match_the_oracle_and_the_float_core():
    # Every floor equals the Fraction KKT route exactly (for predictive
    # parity, the lesser of its floors at both ends of the precision range),
    # and the float core's relaxed minimum within GAP_TOL; the largest gaps
    # each way are pinned. A predictive parity instance whose precision
    # ranges do not meet is infeasible exactly.
    gaps, infeasible = [], 0
    for label, corrupted, clean, h, notion in floor_corpus():
        cells = oracles.float_cells(corrupted, h, clean.groups)
        try:
            floor = Fraction(*certified_floor(corrupted, clean, h, notion))
        except InfeasibleError:
            lo, hi = oracles.precision_range(cells)
            assert notion == "predictive_parity" and lo > hi, label
            infeasible += 1
            continue
        if notion == "predictive_parity":
            lo, hi = oracles.precision_range(cells)
            oracle = min(oracles.certified_floor(corrupted, clean, h, notion, pi) for pi in (lo, hi))
        else:
            oracle = oracles.certified_floor(corrupted, clean, h, notion)
        assert floor == oracle, label
        tables = ([mass_table(h, d)] for d in (corrupted, clean))
        total, *_ = repair._one_row(*tables, clean.groups, notion)
        gaps.append(Fraction(total) - floor)
        assert abs(gaps[-1]) <= GAP_TOL, label
    assert (len(gaps), infeasible) == (127, 13)
    assert (float(-min(gaps)), float(max(gaps))) == (FLOAT_BELOW_PROOF, FLOAT_ABOVE_PROOF)


def test_predictive_parity_search_total_is_the_proved_floor():
    # the search and the proof take one closed form at the same precisions,
    # so wherever the proof certifies, the search's total is the float
    # nearest its floor
    certified = 0
    for label, corrupted, clean, h, notion in floor_corpus():
        if notion != "predictive_parity":
            continue
        try:
            num, den = certified_floor(corrupted, clean, h, notion)
        except InfeasibleError:
            continue
        tables = ([mass_table(h, d)] for d in (corrupted, clean))
        total, *_ = repair._one_row(*tables, clean.groups, notion)
        assert total == num / den, label
        certified += 1
    assert certified == 22


unit = st.floats(0.0, 1.0)


class TestMassTable:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from((families.random_dp_instance, families.random_eopp_instance)),
        unit,
        st.tuples(unit, unit, unit, unit),
    )
    # A accepts 5e-324 of its mass, which underflowed to a precision of 0
    # or none in the package and to none in the atom sums
    @example(6912, families.random_eopp_instance, 0.5, (0.0, 5e-324, 0.0, 0.0))
    @example(6912, families.random_eopp_instance, 0.5, (5e-324, 5e-324, 0.0, 0.0))
    def test_statistics_match_atom_sums(self, seed, generate, alpha, uv):
        rng = np.random.default_rng(seed)
        dist, h = generate(rng, max_atoms=16)
        q = oracles.random_contamination(rng, dist)
        corrupted = mix(dist, q, alpha)
        h = PQClassifier(h, {"A": uv[:2], "B": uv[2:]})
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
                # over the denominator: compare the masses. Precision divides
                # by the mass accepted at (u, v) / max(u, v).
                r, pos = d.group_mass(g), d.positive_mass(g)
                u, v = (x / (max(h.uv(g)) or 1.0) for x in h.uv(g))
                m1p, m1n, m0p, m0n = mass_table(h, d)[g]
                accepted = u * (m1p + m1n) + v * (m0p + m0n)
                denominator = {"rate": r, "tpr": pos, "fpr": r - pos, "ppv": accepted}
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
    assert calibration_floor(inst) == oracles.parity_calibration_attack_certify(alpha)


@pytest.mark.parametrize("alpha", (0.05, 0.1, 0.3))
@pytest.mark.parametrize("r_b_share", (0.3, 1.0))
def test_parity_calibration_floor_is_at_most_the_grid_floor(alpha, r_b_share):
    # the grid's values are a subset of every value a bin may take, so the
    # partition floor can only lie at or below the grid's; at these
    # (alpha, r_b) the grid finds a predictor
    r_b = r_b_share * alpha
    floor = calibration_floor(families.eodds_duplicate(alpha, r_b))
    assert floor <= oracles.parity_calibration_attack_certify(alpha, r_b)


@pytest.mark.parametrize("alpha", (0.01, 0.05, 0.1, 0.3, 0.5))
def test_parity_calibration_floor_on_washed_out_instance_is_one_half(alpha):
    # one bin of every point, valued 1/2: group B's washed-out mean
    inst = families.eodds_duplicate(alpha, 0.9 * alpha)
    assert calibration_floor(inst) == 0.5


PP_ALPHAS = (0.01, 0.02, 0.04, 0.05, 0.08, 0.1, 0.15, 0.2, 0.25, 1.0 / 3.0, 0.4, 0.5)


@pytest.mark.parametrize("alpha", PP_ALPHAS)
@pytest.mark.parametrize("r_b", (None, 0.05, 0.3, 0.5))  # 0.5: no budget below alpha 1/3
def test_predictive_parity_closed_form(r_b, alpha):
    # washed out, group B has precision 1/2 at every option that accepts
    # some mass, which pins the common precision and leaves A's (1 - r_B)/2;
    # without the budget the perfect base stands
    dist, h, corrupted = oracles.predictive_parity_instance(alpha, r_b)
    r_b = 0.9 * alpha if r_b is None else r_b
    expected = 0.0 if corrupted is dist else (1.0 - r_b) / 2.0
    found = best_response(corrupted, dist, [h], "predictive_parity")
    assert abs(found.error_on_original - expected) <= 1e-12
    assert found.gap_on_corrupted <= GAP_TOL


@pytest.mark.parametrize("seed", range(12))
def test_predictive_parity_matches_scan(seed):
    # the exact infimum is never above a feasible pair of the dense scan and
    # comes within its resolution; where the groups' precision ranges do
    # not meet, the scan finds no pair either
    rng = np.random.default_rng(seed)
    generate = families.random_dp_instance if seed % 2 else families.random_eopp_instance
    dist, h = generate(rng, max_atoms=12)
    corrupted = mix(dist, oracles.random_contamination(rng, dist), float(rng.uniform(0.01, 0.5)))
    scan = oracles.predictive_parity_scan(corrupted, dist, h)
    try:
        found = best_response(corrupted, dist, [h], "predictive_parity")
    except InfeasibleError:
        assert scan == np.inf
        return
    tables = ([mass_table(h, d)] for d in (corrupted, dist))
    floor, *_ = repair._one_row(*tables, dist.groups, "predictive_parity")
    assert floor <= scan + 1e-12
    assert scan - floor <= 1e-6
    assert found.gap_on_corrupted <= GAP_TOL
    assert -1e-12 <= found.error_on_original - floor <= GAP_TOL


@pytest.mark.parametrize("n_eq", (1, 2))
def test_active_sets_equal_the_array_derivation(n_eq):
    got, ref = repair._active_sets(n_eq), oracles.active_sets(n_eq)
    got, ref = (*got[:4], *got[4]), (*ref[:4], *ref[4])
    assert len(got) == len(ref) == 6
    for a, b in zip(got, ref):
        assert (a.shape, a.dtype) == (b.shape, b.dtype)
        assert (a == b).all() and (np.signbit(a) == np.signbit(b)).all()


@pytest.mark.parametrize("seed", range(6))
def test_fit_loglog_matches_polyfit(seed):
    rng = np.random.default_rng(seed)
    for _ in range(100):
        n = int(rng.integers(3, 9))
        alphas = np.sort(rng.uniform(1e-4, 0.5, n))
        slope = float(rng.choice([0.0, 0.5, 1.0, rng.uniform(-1.0, 2.0)]))
        noise = rng.normal(0.0, float(rng.choice([0.0, 0.01, 0.3])), n)
        betas = float(rng.uniform(0.01, 2.0)) * alphas**slope * np.exp(noise)
        points = list(zip(alphas.tolist(), betas.tolist()))
        got, ref = harness.fit_loglog(points), oracles.polyfit_loglog(points)
        assert max(abs(g - r) for g, r in zip(got, ref)) <= 1e-12, points
