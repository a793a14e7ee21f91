import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fairnoise import attacks, families
from fairnoise.attacks import (
    AttackSpec,
    decompose_corruption,
    drift_bound_dp,
    drift_bound_tpr,
    duplicate_flip_attack,
    grid_worst_case,
    needle_eopp_attack,
    tpr_shift_attack,
)
from fairnoise.classifiers import BaseClassifier, group_stats, mass_table
from fairnoise.distributions import Atom, make_distribution, mix, tv_distance
from fairnoise.errors import FairnoiseError, InputError

from conftest import alphas, assert_close, distributions


def balanced_two_group(r_b=0.2):
    r_a = 1.0 - r_b
    return make_distribution(
        [
            Atom("a1", 1, "A", r_a / 2),
            Atom("a2", 0, "A", r_a / 2),
            Atom("b1", 1, "B", r_b / 2),
            Atom("b2", 0, "B", r_b / 2),
        ]
    )


class TestAttackSpec:
    def test_validates(self):
        with pytest.raises(InputError):
            AttackSpec(kind="meteor", alpha=0.1)
        with pytest.raises(InputError):
            AttackSpec(kind="identity", alpha=1.5)

    def test_serializes(self):
        spec = AttackSpec(kind="duplicate_flip", alpha=0.1, target_group="B")
        assert spec.to_json_dict()["kind"] == "duplicate_flip"


class TestDriftBounds:
    def test_spot_value(self):
        # alpha=0.1, r=0.5 -> 0.1 / (0.9*0.5 + 0.1) = 2/11
        assert_close(drift_bound_dp(0.1, 0.5), 0.18181818181818182)
        assert_close(drift_bound_tpr(0.1, 0.5), 0.18181818181818182)

    def test_monotone_in_alpha(self):
        assert drift_bound_dp(0.05, 0.3) < drift_bound_dp(0.2, 0.3)

    def test_degenerate_zero_denominator(self):
        assert drift_bound_dp(0.0, 0.0) == 0.0

    def test_rejects_out_of_range(self):
        with pytest.raises(InputError):
            drift_bound_dp(-0.1, 0.5)

    @settings(max_examples=80, deadline=None)
    @given(distributions(), distributions(), alphas())
    def test_rate_drift_bounded_for_any_attack(self, dist, q, alpha):
        h = BaseClassifier.from_constant(1)
        corrupted = mix(dist, q, alpha)
        clean, dirty = group_stats(h, dist), group_stats(h, corrupted)
        for g in dist.groups:
            bound = drift_bound_dp(alpha, dist.group_mass(g))
            assert abs(dirty.rate[g] - clean.rate[g]) <= bound + 1e-9

    @settings(max_examples=80, deadline=None)
    @given(distributions(), distributions(), alphas())
    def test_tpr_drift_bounded_for_any_attack(self, dist, q, alpha):
        h = BaseClassifier.from_constant(1)
        corrupted = mix(dist, q, alpha)
        clean, dirty = group_stats(h, dist), group_stats(h, corrupted)
        for g in dist.groups:
            if clean.tpr[g] is None or dirty.tpr[g] is None:
                continue
            bound = drift_bound_tpr(alpha, dist.positive_mass(g))
            assert abs(dirty.tpr[g] - clean.tpr[g]) <= bound + 1e-9


class TestDuplicateFlip:
    def test_washes_out_labels(self):
        dist = balanced_two_group(r_b=0.09)
        q, corrupted = duplicate_flip_attack(dist, "B", 0.1)
        # every B point carries equal mass on both labels in the mixture
        for point in ("b1", "b2"):
            pos = corrupted.mass(point, 1, "B")
            neg = corrupted.mass(point, 0, "B")
            assert_close(pos, neg, 1e-12)
        assert tv_distance(dist, corrupted) <= 0.1 + 1e-9

    def test_leftover_budget_duplicates_other_group(self):
        dist = balanced_two_group(r_b=0.05)
        q, corrupted = duplicate_flip_attack(dist, "B", 0.2)
        # duplicated A atoms keep their labels: conditional stats unchanged
        clean = group_stats(BaseClassifier.from_table({"a1": 1, "a2": 0, "b1": 1, "b2": 0}), dist)
        dirty = group_stats(BaseClassifier.from_table({"a1": 1, "a2": 0, "b1": 1, "b2": 0}), corrupted)
        assert_close(dirty.tpr["A"], clean.tpr["A"], 1e-12)
        assert_close(dirty.fpr["A"], clean.fpr["A"], 1e-12)

    def test_insufficient_budget_raises(self):
        dist = balanced_two_group(r_b=0.5)
        with pytest.raises(InputError, match="need alpha >="):
            duplicate_flip_attack(dist, "B", 0.05)

    def test_single_group_padding(self):
        dist = make_distribution([Atom("x", 1, "A", 0.6), Atom("y", 0, "A", 0.4)])
        q, corrupted = duplicate_flip_attack(dist, "A", 0.5)
        assert_close(corrupted.mass("x", 1, "A"), corrupted.mass("x", 0, "A"), 1e-12)
        assert_close(corrupted.total_mass(), 1.0)

    def test_unknown_group(self):
        with pytest.raises(InputError):
            duplicate_flip_attack(balanced_two_group(), "Z", 0.1)


class TestNeedle:
    def test_structure_and_alpha_prime(self):
        needle = needle_eopp_attack(0.04)
        s = 0.2  # sqrt(0.04)
        assert_close(needle.dist.mass("x1", 1, "A"), (1 - s) / 2)
        assert_close(needle.dist.mass("x3", 1, "B"), s / 2)
        assert_close(needle.alpha_prime, 2 * s / ((1 - 0.04) + 2 * s))
        assert_close(needle.alpha_prime, 0.29411764705882354)
        # contamination is a single positive point mass on B's rejected point
        assert needle.contamination.atoms[0].key == ("B", "x4", 1)
        assert_close(needle.corrupted.total_mass(), 1.0)

    def test_rejects_degenerate_alpha(self):
        with pytest.raises(InputError):
            needle_eopp_attack(0.0)


class TestTprShift:
    def test_raise_increases_tpr(self):
        dist = make_distribution(
            [
                Atom("a1", 1, "A", 0.4),
                Atom("a2", 1, "A", 0.4),  # rejected positive: TPR starts below 1
                Atom("b1", 1, "B", 0.1),
                Atom("b2", 0, "B", 0.1),
            ]
        )
        h = BaseClassifier.from_table({"a1": 1, "a2": 0, "b1": 0, "b2": 0})
        q, corrupted = tpr_shift_attack(dist, h, "A", 0.1, "raise")
        clean, dirty = group_stats(h, dist), group_stats(h, corrupted)
        assert dirty.tpr["A"] > clean.tpr["A"]

    def test_lower_decreases_tpr(self):
        dist = balanced_two_group()
        h = BaseClassifier.from_table({"a1": 1, "a2": 0, "b1": 1, "b2": 0})
        q, corrupted = tpr_shift_attack(dist, h, "A", 0.1, "lower")
        clean, dirty = group_stats(h, dist), group_stats(h, corrupted)
        assert dirty.tpr["A"] < clean.tpr["A"]

    def test_extremal_base_attains_drift_bound(self):
        # TPR = 1 and a "lower" attack: the drift bound is met with equality
        dist = balanced_two_group()
        h = BaseClassifier.from_table({"a1": 1, "a2": 0, "b1": 1, "b2": 1})
        alpha = 0.1
        q, corrupted = tpr_shift_attack(dist, h, "A", alpha, "lower")
        clean, dirty = group_stats(h, dist), group_stats(h, corrupted)
        bound = drift_bound_tpr(alpha, dist.positive_mass("A"))
        assert_close(abs(dirty.tpr["A"] - clean.tpr["A"]), bound, 1e-12)

    def test_no_eligible_point(self):
        dist = balanced_two_group()
        h = BaseClassifier.from_constant(0)
        with pytest.raises(InputError):
            tpr_shift_attack(dist, h, "A", 0.1, "raise")


class TestDecomposition:
    def test_identity_holds_on_needle(self):
        needle = needle_eopp_attack(0.04)
        h = BaseClassifier.from_table({"x1": 1, "x2": 0, "x3": 1, "x4": 0})
        decomp = decompose_corruption(needle.dist, needle.contamination, 0.04, h)
        assert_close(math.fsum(decomp.alpha_z.values()), 0.04, 1e-12)
        assert decomp.e_z["A"] == 0.0  # contamination lives entirely on B

    @settings(max_examples=50, deadline=None)
    @given(distributions(), distributions(), alphas())
    def test_identity_holds_generically(self, dist, q, alpha):
        # decompose_corruption raises ContractError internally if the
        # rate-drift identity fails; reaching here is the assertion
        decompose_corruption(dist, q, alpha, BaseClassifier.from_constant(1))


class TestGridWorstCase:
    def test_finds_nontrivial_attack(self):
        dist = balanced_two_group(r_b=0.2)
        h = BaseClassifier.from_table({"a1": 1, "a2": 0, "b1": 1, "b2": 0})
        q, excess = grid_worst_case(dist, 0.3, [h], "dp", resolution=4, grid_n=21)
        assert excess >= 0.0
        assert_close(q.total_mass(), 1.0)

    def test_rejects_large_supports(self):
        atoms = [Atom(f"x{i}", i % 2, "A", 1 / 70) for i in range(70)]
        dist = make_distribution(atoms)
        with pytest.raises(InputError):
            grid_worst_case(dist, 0.1, [BaseClassifier.from_constant(1)], "dp")


def _search(search, *args, **kwargs):
    try:
        return search(*args, **kwargs)
    except FairnoiseError as exc:
        return type(exc)


#: (notion, instance generator, max_atoms): at four atoms the search also
#: enumerates three-atom mixtures
SEARCH_CASES = [
    ("dp", families.random_dp_instance, 4),
    ("dp", families.random_dp_instance, 8),
    ("eopp", families.random_eopp_instance, 10),
    ("predictive_parity", families.random_dp_instance, 4),
    ("predictive_parity", families.random_dp_instance, 8),
]


class TestGridWorstCaseMatchesReference:
    """The blocked search returns the (q, excess) of one best response per
    candidate mixture, or raises the class that loop raises first."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("notion, generate, max_atoms", SEARCH_CASES)
    def test_seeded_instances(self, notion, generate, max_atoms, seed):
        rng = np.random.default_rng(seed)
        dist, h = generate(rng, max_atoms=max_atoms)
        args = (dist, float(rng.uniform(0.01, 0.2)), [h], notion)
        found = _search(grid_worst_case, *args, resolution=4)
        assert found == _search(oracles.grid_worst_case, *args, resolution=4)
        if notion != "predictive_parity":
            assert isinstance(found, tuple)

    @pytest.mark.parametrize("alpha", (0.05, 0.2, 1.0))
    @pytest.mark.parametrize("r_b", (0.1, 0.5))
    def test_predictive_parity_on_balanced_instances(self, r_b, alpha):
        dist, h = families.balanced_instance(r_b)
        args = (dist, alpha, [h], "predictive_parity")
        found = _search(grid_worst_case, *args, resolution=4)
        assert found == _search(oracles.grid_worst_case, *args, resolution=4)

    @pytest.mark.parametrize("notion", ("dp", "eopp"))
    def test_two_hypotheses(self, notion):
        rng = np.random.default_rng(11)
        dist, h = families.random_eopp_instance(rng, max_atoms=10)
        args = (dist, 0.1, [BaseClassifier.from_constant(0), h], notion)
        found = grid_worst_case(*args, resolution=3)
        assert found == oracles.grid_worst_case(*args, resolution=3)

    @pytest.mark.parametrize("alpha", (0.0, 1e-6, 1.0))
    @pytest.mark.parametrize("notion, generate, max_atoms", SEARCH_CASES[::2])
    def test_budget_extremes(self, notion, generate, max_atoms, alpha):
        dist, h = generate(np.random.default_rng(5), max_atoms=max_atoms)
        args = (dist, alpha, [h], notion)
        assert _search(grid_worst_case, *args, resolution=3) == _search(
            oracles.grid_worst_case, *args, resolution=3
        )

    @pytest.mark.parametrize("block", (1, 7))
    def test_block_size_does_not_matter(self, monkeypatch, block):
        dist, h = families.random_dp_instance(np.random.default_rng(3), max_atoms=4)
        expected = oracles.grid_worst_case(dist, 0.15, [h], "dp", resolution=4)
        monkeypatch.setattr(attacks, "_SEARCH_BLOCK", block)
        assert grid_worst_case(dist, 0.15, [h], "dp", resolution=4) == expected

    def test_cells_use_each_labels_own_feature(self):
        # a1's two labels sit on opposite sides of the threshold, and b2 has
        # one label only: a contamination's b2 positive takes b2's feature
        dist = make_distribution(
            [
                Atom("a1", 0, "A", 0.2, 0.3),
                Atom("a1", 1, "A", 0.2, 0.8),
                Atom("a2", 1, "A", 0.1, 0.6),
                Atom("b1", 1, "B", 0.3, 0.9),
                Atom("b2", 0, "B", 0.2, 0.55),
            ]
        )
        h = BaseClassifier.from_threshold(0.5)
        for notion in ("dp", "eopp"):
            args = (dist, 0.2, [h], notion)
            assert grid_worst_case(*args, resolution=4) == oracles.grid_worst_case(*args, resolution=4)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from((0.0, 1e-6, 0.1, 0.37, 1.0 - 2.0**-53, 1.0)),
        st.sampled_from((families.random_dp_instance, families.random_eopp_instance)),
    )
    def test_corrupted_tables_are_bit_equal_to_mix(self, seed, alpha, generate):
        rng = np.random.default_rng(seed)
        dist, h = generate(rng, max_atoms=int(rng.integers(10, 17)))
        keys = [(g, p, f, y) for (g, p, f) in dist.support_points() for y in (0, 1)]
        candidates = list(attacks._contaminations(dist, alpha, keys, 10, 3))
        block = [candidates[int(i)] for i in rng.choice(len(candidates), size=20)]
        (tables,) = attacks._corrupted_tables(dist, alpha, keys, block, [attacks._cell_layout(h, dist, keys)])
        for r, (_, _, build) in enumerate(block):
            expected = mass_table(h, mix(dist, build(), alpha))
            for g in dist.groups:
                assert tuple(tables[g][r].tolist()) == expected[g]

    def test_whole_budget_names_the_group_left_empty(self):
        dist, h = families.random_dp_instance(np.random.default_rng(1), max_atoms=8)
        # the first candidate is a point mass on group A
        with pytest.raises(InputError, match="group 'B' has no mass on the corrupted distribution"):
            grid_worst_case(dist, 1.0, [h], "dp", resolution=3)
