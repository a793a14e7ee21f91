import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fairnoise import attacks, families, repair
from fairnoise.attacks import duplicate_flip_attack, grid_worst_case, tpr_shift_attack
from fairnoise.classifiers import BaseClassifier, group_stats, mass_table
from fairnoise.distributions import Atom, make_distribution, mix
from fairnoise.repair import _solve, best_response, option_classifier, statistic_inputs
from fairnoise.errors import FairnoiseError, InfeasibleError, InputError

from conftest import alphas, assert_close, distributions
from test_scripts import load_script


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


class TestDriftBounds:
    @settings(max_examples=80, deadline=None)
    @given(distributions(), distributions(), alphas())
    def test_rate_drift_bounded_for_any_attack(self, dist, q, alpha):
        h = BaseClassifier.from_constant(1)
        corrupted = mix(dist, q, alpha)
        clean, dirty = group_stats(h, dist), group_stats(h, corrupted)
        for g in dist.groups:
            bound = alpha / ((1 - alpha) * dist.group_mass(g) + alpha)
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
            bound = alpha / ((1 - alpha) * dist.positive_mass(g) + alpha)
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
        assert oracles.tv_distance(dist, corrupted) <= 0.1 + 1e-9

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
        assert_close(math.fsum(a.mass for a in corrupted.atoms), 1.0)

    def test_unknown_group(self):
        with pytest.raises(InputError):
            duplicate_flip_attack(balanced_two_group(), "Z", 0.1)


class TestNeedle:
    def test_structure_and_alpha_prime(self):
        needle = families.eopp_needle(0.04)
        s = 0.2  # sqrt(0.04)
        assert_close(needle.dist.mass("x1", 1, "A"), (1 - s) / 2)
        assert_close(needle.dist.mass("x3", 1, "B"), s / 2)
        # contamination is a single positive point mass on B's rejected point
        assert needle.contamination.atoms[0].key == ("B", "x4", 1)
        corrupted = needle.corrupted
        assert_close(math.fsum(a.mass for a in corrupted.atoms), 1.0)
        # the needle's share alpha' of B's corrupted positives, measured
        share = corrupted.mass("x4", 1, "B") / corrupted.positive_mass("B")
        assert_close(share, 2 * s / ((1 - 0.04) + 2 * s))
        assert_close(share, 0.29411764705882354)

    def test_rejects_degenerate_alpha(self):
        with pytest.raises(InputError):
            families.eopp_needle(0.0)


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
        bound = alpha / ((1 - alpha) * dist.positive_mass("A") + alpha)
        assert_close(abs(dirty.tpr["A"] - clean.tpr["A"]), bound, 1e-12)

    def test_no_eligible_point(self):
        dist = balanced_two_group()
        h = BaseClassifier.from_constant(0)
        with pytest.raises(InputError):
            tpr_shift_attack(dist, h, "A", 0.1, "raise")


def assert_drift_identity(dist, q, alpha, h):
    """Each group's corrupted positive-prediction rate, rebuilt from its clean
    rate and the corrupted masses (alpha_z, E_z, E_z+), is the rate measured
    on the mixture; returns the masses."""
    alpha_z, e_z, e_z_plus = oracles.corruption_masses(q, alpha, h, dist.groups)
    assert abs(math.fsum(alpha_z.values()) - alpha) <= 1e-9
    clean, dirty = group_stats(h, dist), group_stats(h, mix(dist, q, alpha))
    for g in dist.groups:
        assert -1e-9 <= e_z[g] <= alpha_z[g] + 1e-9
        assert -1e-9 <= e_z_plus[g] <= alpha_z[g] + 1e-9
        r = dist.group_mass(g)
        predicted = ((1 - alpha) * clean.rate[g] * r + e_z[g]) / ((1 - alpha) * r + alpha_z[g])
        assert abs(predicted - dirty.rate[g]) <= 1e-9
    return alpha_z, e_z, e_z_plus


class TestDecomposition:
    def test_identity_holds_on_needle(self):
        needle = families.eopp_needle(0.04)
        alpha_z, e_z, _ = assert_drift_identity(needle.dist, needle.contamination, 0.04, needle.h_star)
        assert_close(math.fsum(alpha_z.values()), 0.04, 1e-12)
        assert e_z["A"] == 0.0  # contamination lives entirely on B

    @settings(max_examples=50, deadline=None)
    @given(distributions(), distributions(), alphas())
    def test_identity_holds_generically(self, dist, q, alpha):
        assert_drift_identity(dist, q, alpha, BaseClassifier.from_constant(1))


class TestGridWorstCase:
    def test_finds_nontrivial_attack(self):
        dist = balanced_two_group(r_b=0.2)
        h = BaseClassifier.from_table({"a1": 1, "a2": 0, "b1": 1, "b2": 0})
        q, excess = grid_worst_case(dist, 0.3, [h], "dp", resolution=4, grid_n=21)
        assert excess >= 0.0
        assert_close(math.fsum(a.mass for a in q.atoms), 1.0)

    def test_searches_past_64_atoms(self):
        # 96 atoms in two groups: the search finds the excess of the six-atom
        # instance whose points they split
        dist, h = shared_table_instance()
        big, big_h = split_points(dist, h, 16)
        assert len(big.atoms) == 96
        found = grid_worst_case(big, 0.25, [big_h], "dp", resolution=4)
        assert found == oracles.class_worst_case(big, 0.25, [big_h], "dp", resolution=4)
        assert found[1] == grid_worst_case(dist, 0.25, [h], "dp", resolution=4)[1]

    @pytest.mark.parametrize(
        "name, value",
        [
            ("resolution", 2.5),
            ("resolution", 1),
            ("resolution", attacks.MAX_RESOLUTION + 1),
            ("grid_n", 21.5),
            ("grid_n", "21"),
            ("alpha", True),
            ("alpha", "0.1"),
            ("alpha", 1.5),
            ("alpha", math.nan),
        ],
    )
    def test_rejects_bad_arguments_before_any_search(self, monkeypatch, name, value):
        def no_search(*args, **kwargs):
            raise AssertionError("searched before validating the arguments")

        monkeypatch.setattr(attacks, "_one_row", no_search)
        monkeypatch.setattr(attacks, "_solve", no_search)
        dist, h = families.random_dp_instance(np.random.default_rng(1), max_atoms=4)
        args = {"dist": dist, "alpha": 0.1, "hypotheses": [h], "notion": "dp", name: value}
        with pytest.raises(InputError, match=name):
            grid_worst_case(**args)

    def test_resolution_is_capped(self):
        # the cap's mixtures include every one at resolution 10, so the
        # search finds at least that excess; one step above it is refused
        dist, h = families.random_dp_instance(np.random.default_rng(1), max_atoms=4)
        _, coarse = grid_worst_case(dist, 0.1, [h], "dp", resolution=10)
        _, excess = grid_worst_case(dist, 0.1, [h], "dp", resolution=attacks.MAX_RESOLUTION)
        assert excess >= coarse - 1e-12
        above = attacks.MAX_RESOLUTION + 1
        with pytest.raises(InputError, match=rf"resolution must lie in \[2, {above - 1}\], got {above}"):
            grid_worst_case(dist, 0.1, [h], "dp", resolution=above)

    def test_integral_floats_are_integers(self):
        dist, h = families.random_dp_instance(np.random.default_rng(1), max_atoms=4)
        args = (dist, 0.1, [h], "dp")
        expected = grid_worst_case(*args, resolution=4, grid_n=21)
        assert grid_worst_case(*args, resolution=4.0, grid_n=21.0) == expected


def _search(search, *args, **kwargs):
    try:
        return search(*args, **kwargs)
    except FairnoiseError as exc:
        return type(exc)


def assert_matches_references(*args, **kwargs):
    """The search equals ``oracles.class_worst_case`` exactly, in (q, excess)
    or in error class. The atom search ``oracles.grid_worst_case`` is a
    floor: where it returns, the search's excess is no more than 1e-12 below
    its excess, and where it raises, the search raises the same class.
    Returns the search's result."""
    found = _search(grid_worst_case, *args, **kwargs)
    assert found == _search(oracles.class_worst_case, *args, **kwargs)
    floor = _search(oracles.grid_worst_case, *args, **kwargs)
    if isinstance(floor, tuple):
        assert isinstance(found, tuple) and found[1] >= floor[1] - 1e-12
    else:
        assert found == floor
    return found


#: (notion, instance generator, max_atoms): at four atoms the atom search
#: also enumerates three-atom mixtures
SEARCH_CASES = [
    ("dp", families.random_dp_instance, 4),
    ("dp", families.random_dp_instance, 8),
    ("eopp", families.random_eopp_instance, 10),
    ("predictive_parity", families.random_dp_instance, 4),
    ("predictive_parity", families.random_dp_instance, 8),
]


def shared_table_instance():
    """Dyadic masses, so every mixture at alpha = 1/4 is exact: each pair of
    points with the same group, prediction and label gives candidates that
    share one corrupted table."""
    dist = make_distribution(
        [
            Atom("a1", 1, "A", 1 / 8),
            Atom("a2", 1, "A", 1 / 8),
            Atom("a3", 0, "A", 1 / 4),
            Atom("b1", 1, "B", 1 / 8),
            Atom("b2", 1, "B", 1 / 8),
            Atom("b3", 0, "B", 1 / 4),
        ]
    )
    h = BaseClassifier.from_table({"a1": 1, "a2": 1, "a3": 0, "b1": 1, "b2": 1, "b3": 0})
    return dist, h


def split_points(dist, h, n):
    """``dist`` with each point split into n points that share its labels
    and 1/n of each of its masses, and the table classifier ``h`` extended
    to predict each of them as it predicts the point."""
    atoms = [Atom(f"{a.point}_{i}", a.label, a.group, a.mass / n, a.feature) for a in dist.atoms for i in range(n)]
    table = {f"{p}_{i}": y for p, y in h.table.items() for i in range(n)}
    return make_distribution(atoms, groups=dist.groups), BaseClassifier.from_table(table)


def _table_and_input(dist, h, q, alpha, notion):
    """The corrupted mass table of ``mix(dist, q, alpha)`` and the bytes of
    its statistic inputs, built one mixture at a time."""
    table = mass_table(h, mix(dist, q, alpha))
    return (
        tuple(table[g] for g in dist.groups),
        b"".join(statistic_inputs(np.array([table[g]]), notion).tobytes() for g in dist.groups),
    )


def _count_searched_inputs(monkeypatch, dist, notion):
    """Patch the search's ``_solve`` to record the statistic inputs of
    every row it receives; returns the list they are appended to."""
    received = []

    def counted(dirty, *args):
        received.extend(
            b"".join(statistic_inputs(row[k, i][None], notion).tobytes() for k in range(len(row)) for i in range(2))
            for row in dirty
        )
        return _solve(dirty, *args)

    monkeypatch.setattr(attacks, "_solve", counted)
    return received


class TestGridWorstCaseMatchesReference:
    """The class search returns the (q, excess) of one best response per
    candidate mixture, or raises the class that loop raises first, and it
    finds no less than the atom search."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("notion, generate, max_atoms", SEARCH_CASES)
    def test_seeded_instances(self, notion, generate, max_atoms, seed):
        rng = np.random.default_rng(seed)
        dist, h = generate(rng, max_atoms=max_atoms)
        found = assert_matches_references(dist, float(rng.uniform(0.01, 0.2)), [h], notion, resolution=4)
        if notion != "predictive_parity":
            assert isinstance(found, tuple)

    @pytest.mark.parametrize("alpha", (0.05, 0.2, 1.0))
    @pytest.mark.parametrize("r_b", (0.1, 0.5))
    def test_predictive_parity_on_balanced_instances(self, r_b, alpha):
        dist, h = families.balanced_instance(r_b)
        assert_matches_references(dist, alpha, [h], "predictive_parity", resolution=4)

    @pytest.mark.parametrize("alpha", (0.01, 0.05, 0.15))
    @pytest.mark.parametrize("max_atoms, seed", [(4, 6), (4, 10), (4, 27), (8, 0), (8, 22), (8, 38)])
    def test_predictive_parity_feasible_on_the_clean_distribution(self, max_atoms, seed, alpha):
        # random DP instances whose groups' precision ranges meet on the
        # clean distribution and on every candidate mixture
        dist, h = families.random_dp_instance(np.random.default_rng(seed), max_atoms=max_atoms)
        best_response(dist, dist, [h], "predictive_parity")
        found = assert_matches_references(dist, alpha, [h], "predictive_parity", resolution=4)
        assert isinstance(found, tuple)

    @pytest.mark.parametrize("notion", ("dp", "eopp"))
    def test_two_hypotheses(self, notion):
        rng = np.random.default_rng(11)
        dist, h = families.random_eopp_instance(rng, max_atoms=10)
        found = assert_matches_references(dist, 0.1, [BaseClassifier.from_constant(0), h], notion, resolution=3)
        assert isinstance(found, tuple)

    @pytest.mark.parametrize("alpha", (0.0, 1e-6, 1.0))
    @pytest.mark.parametrize("notion, generate, max_atoms", SEARCH_CASES[::2])
    def test_budget_extremes(self, notion, generate, max_atoms, alpha):
        dist, h = generate(np.random.default_rng(5), max_atoms=max_atoms)
        assert_matches_references(dist, alpha, [h], notion, resolution=3)

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
            assert isinstance(assert_matches_references(dist, 0.2, [h], notion, resolution=4), tuple)

    @pytest.mark.parametrize("seed", (1, 2, 3))
    def test_adversary_strata(self, seed):
        # the benchmark's adversary instances, at its resolution
        for dist, alpha, hypotheses, notion, kwargs in load_script("adversary_probe").strata_searches([seed]):
            assert isinstance(assert_matches_references(dist, alpha, hypotheses, notion, **kwargs), tuple)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from((0.0, 1e-6, 0.1, 0.37, 1.0 - 2.0**-53, 1.0)),
        st.sampled_from(("dp", "eopp")),
    )
    def test_random_instances_match_the_class_search(self, seed, alpha, notion):
        rng = np.random.default_rng(seed)
        generate = families.random_eopp_instance if notion == "eopp" else families.random_dp_instance
        dist, h = generate(rng, max_atoms=int(rng.integers(10, 17)))
        args = (dist, alpha, [h], notion)
        assert _search(grid_worst_case, *args, resolution=4) == _search(oracles.class_worst_case, *args, resolution=4)

    @pytest.mark.parametrize("notion", ("dp", "eopp"))
    def test_each_distinct_statistic_input_is_searched_once(self, monkeypatch, notion):
        dist, h = shared_table_instance()
        received = _count_searched_inputs(monkeypatch, dist, notion)
        grid_worst_case(dist, 0.25, [h], notion, resolution=4)
        candidates = oracles.class_candidates(dist, 0.25, [h], 4)
        tables, inputs = zip(*(_table_and_input(dist, h, q, 0.25, notion) for q in candidates))
        clean = mass_table(h, dist)
        clean_input = b"".join(statistic_inputs(np.array([clean[g]]), notion).tobytes() for g in dist.groups)
        # the clean table's input first, then in order of first occurrence,
        # one row per distinct input
        assert received == list(dict.fromkeys([clean_input, *inputs]))
        assert len(received) < len(set(tables))

    @pytest.mark.parametrize(
        "notion, picked",
        [
            # a1 is predicted 1: a positive and a negative there move the
            # same predicted-positive mass
            ("dp", lambda key: key[:2] == ("A", "a1")),
            # negatives leave every group's positive cells as they are
            ("eopp", lambda key: key[2] == 0),
        ],
        ids=("dp", "eopp"),
    )
    def test_different_tables_with_one_statistic_input(self, monkeypatch, notion, picked):
        dist, h = shared_table_instance()
        candidates = [
            q for q in oracles.class_candidates(dist, 0.25, [h], 4) if all(picked(a.key) for a in q.atoms)
        ]
        tables, inputs = zip(*(_table_and_input(dist, h, q, 0.25, notion) for q in candidates))
        assert len(set(tables)) > len(set(inputs)) == 1
        responses = {best_response(mix(dist, q, 0.25), dist, [h], notion).error_on_original for q in candidates}
        assert len(responses) == 1

        received = _count_searched_inputs(monkeypatch, dist, notion)
        grid_worst_case(dist, 0.25, [h], notion, resolution=4)
        assert received.count(inputs[0]) == 1

    @pytest.mark.parametrize("notion", ("dp", "eopp", "predictive_parity"))
    def test_shared_tables_match_reference(self, notion):
        dist, h = shared_table_instance()
        assert_matches_references(dist, 0.25, [h], notion, resolution=4)

    def test_late_first_error_is_the_reference_error(self):
        # the first candidate whose groups' precision ranges do not meet is
        # the 37th of 92, all searched in one stack
        dist, h = families.random_dp_instance(np.random.default_rng(0), max_atoms=8)
        args = (dist, 0.25, [h], "predictive_parity")
        candidates = oracles.class_candidates(dist, 0.25, [h], 4)
        raised = [_search(best_response, mix(dist, q, 0.25), dist, [h], "predictive_parity") for q in candidates]
        assert raised.index(InfeasibleError) == 36 and len(raised) == 92
        with pytest.raises(FairnoiseError) as expected:
            oracles.class_worst_case(*args, resolution=4)
        with pytest.raises(type(expected.value), match=f"^{re.escape(str(expected.value))}$"):
            grid_worst_case(*args, resolution=4)

    def test_whole_budget_names_the_group_left_empty(self):
        dist, h = families.random_dp_instance(np.random.default_rng(1), max_atoms=8)
        # the first candidate is a point mass on group A
        with pytest.raises(InputError, match="group 'B' has no mass on the corrupted distribution"):
            grid_worst_case(dist, 1.0, [h], "dp", resolution=3)


#: SHA-256 of the adversary probe's lines for its strata at seeds 1-3; a
#: search that measures the clean optimum with a best_response call of its
#: own prints the same lines
STRATA_SEEDS_1_3 = "086c772a2daaeebd786b079e3ae8e7aa9b744dcf8185d9aa71ee4f4d7393e1e0"


class TestOneBestResponse:
    """The clean optimum is row 0 of the search's stack, so the search
    solves one row alone (``repair._one_row``, the core of best_response)
    only to measure its winner again."""

    @staticmethod
    def _count(monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return repair._one_row(*args, **kwargs)

        monkeypatch.setattr(attacks, "_one_row", counted)
        return calls

    def test_strata_measure_only_the_winner(self, monkeypatch):
        probe = load_script("adversary_probe")
        calls = self._count(monkeypatch)
        lines = []
        for search in probe.strata_searches([1, 2, 3]):
            lines += probe.probe_lines([search])
            assert len(calls) == len(lines)
        assert probe.digest(lines) == STRATA_SEEDS_1_3

    @pytest.mark.parametrize(
        "dist, h, notion",
        [
            # group B has no positives
            (
                make_distribution([Atom("a1", 1, "A", 0.4), Atom("a2", 0, "A", 0.3), Atom("b1", 0, "B", 0.3)]),
                BaseClassifier.from_table({"a1": 1, "a2": 0, "b1": 0}),
                "eopp",
            ),
            # the groups' precision ranges do not meet on the clean distribution
            (*families.random_dp_instance(np.random.default_rng(1), max_atoms=4), "predictive_parity"),
        ],
        ids=("eopp-no-positives", "pp-infeasible"),
    )
    def test_a_clean_table_that_raises_raises_as_best_response(self, monkeypatch, dist, h, notion):
        with pytest.raises(FairnoiseError) as expected:
            best_response(dist, dist, [h], notion)
        calls = self._count(monkeypatch)
        with pytest.raises(type(expected.value), match=f"^{re.escape(str(expected.value))}$"):
            grid_worst_case(dist, 0.1, [h], notion, resolution=4)
        assert calls == []


class TestSearchCost:
    """The search runs over classes of keys, so its cost does not grow with
    the number of atoms."""

    @pytest.mark.parametrize("notion", ("dp", "eopp", "eodds", "predictive_parity"))
    def test_rows_do_not_depend_on_the_atom_count(self, monkeypatch, notion):
        # 6, 24 and 96 atoms, with one set of classes and, since the masses
        # are dyadic, bit-equal tables
        dist, h = shared_table_instance()
        seen = set()
        for n in (1, 4, 16):
            split, split_h = split_points(dist, h, n)
            received = _count_searched_inputs(monkeypatch, split, notion)
            found = _search(grid_worst_case, split, 0.25, [split_h], notion, resolution=4)
            seen.add((len(received), found if isinstance(found, type) else found[1]))
        assert len(seen) == 1

    def test_high_resolution_stays_small_in_memory(self, monkeypatch):
        # predictive parity at the largest resolution, 100, searches 2,781
        # distinct rows, the clean table's first, in blocks; in one stack
        # the LAPACK vertex search peaked at 207 MB
        dist, h = families.random_dp_instance(np.random.default_rng(0), max_atoms=8)
        blocks = []

        def counted(dirty, *args):
            blocks.append(len(dirty))
            return _solve(dirty, *args)

        monkeypatch.setattr(attacks, "_solve", counted)
        tracemalloc.start()
        try:
            grid_worst_case(dist, 0.05, [h], "predictive_parity", resolution=attacks.MAX_RESOLUTION)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert max(blocks) == attacks.SEARCH_BLOCK < sum(blocks)
        assert peak < 64_000_000

    def test_predictive_parity_stops_at_an_infeasible_clean_row(self, monkeypatch):
        # the clean row, the search's first, has precision ranges that never
        # meet, so no other row's range is computed: the whole first block's
        # 261 rows were, when every row of a stack was solved before the
        # first infeasible one was looked for
        calls = []

        def counted(*args):
            calls.append(args)
            return precisions(*args)

        precisions = repair._precisions
        monkeypatch.setattr(repair, "_precisions", counted)
        dist, h = families.random_dp_instance(np.random.default_rng(1), max_atoms=10)
        with pytest.raises(InfeasibleError):
            grid_worst_case(dist, 0.1, [h], "predictive_parity")
        assert len(calls) == 1

    @pytest.mark.parametrize("block", (1, 7))
    def test_blocks_move_no_bit(self, monkeypatch, block):
        # rows are independent, and a block that raises raises for its first
        # raising row, so the blocks change neither the result nor the error:
        # the predictive-parity case first raises at the 37th candidate
        dist, h = families.random_dp_instance(np.random.default_rng(0), max_atoms=8)
        for alpha, notion in ((0.05, "dp"), (0.25, "predictive_parity")):
            args = (dist, alpha, [h], notion)
            expected = _outcome(grid_worst_case, *args, resolution=4)
            with monkeypatch.context() as patched:
                patched.setattr(attacks, "SEARCH_BLOCK", block)
                assert _outcome(grid_worst_case, *args, resolution=4) == expected


def _outcome(search, *args, **kwargs):
    """The search's (q, excess), or its error's class and message."""
    try:
        return search(*args, **kwargs)
    except FairnoiseError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_each_stacked_row_is_its_own_best_response(seed):
    # the search stacks rows and a check re-solves each alone, so the two
    # must agree bit for bit: the adversary workload's instances, each with
    # its first 150 candidate mixtures in one stack, under its own notion
    # and under predictive parity, whose stack keeps the mixtures where the
    # groups' precision ranges meet
    probe = load_script("adversary_probe")
    parity_rows = 0
    for dist, alpha, (h,), own, kwargs in probe.strata_searches([seed]):
        candidates = oracles.class_candidates(dist, alpha, [h], kwargs["resolution"])[:150]
        mixtures = [mix(dist, q, alpha) for q in candidates]
        clean = np.array([[[mass_table(h, dist)[g] for g in dist.groups]]])
        for notion in (own, "predictive_parity"):
            rows = []
            for corrupted in mixtures:
                table = np.array([[[mass_table(h, corrupted)[g] for g in dist.groups]]])
                alone, error, _ = _solve(table, clean, dist.groups, notion)
                if error is None:
                    rows.append((corrupted, table, alone))
                else:
                    assert notion == "predictive_parity" and isinstance(error, InfeasibleError)
            stacked, error, _ = _solve(np.reshape([t for _, t, _ in rows], (-1, 1, 2, 4)), clean, dist.groups, notion)
            assert error is None
            for (corrupted, _, alone), row in zip(rows, stacked, strict=True):
                assert alone == [row]
                response = best_response(corrupted, dist, [h], notion, grid_n=kwargs["grid_n"])
                classifier = option_classifier(h, dist.groups, row[2])
                assert response.classifier == classifier
                # the witness holds the LP's x bit for bit
                assert classifier.uv(dist.groups[0]) + classifier.uv(dist.groups[1]) == row[2]
            parity_rows += len(rows) if notion == "predictive_parity" else 0
    assert parity_rows >= 100
