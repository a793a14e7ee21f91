import hashlib
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairnoise import families, repair
from fairnoise.classifiers import (
    GAP_TOL,
    READS,
    STATISTICS,
    BaseClassifier,
    PQClassifier,
    _table_stats,
    error,
    fairness_gap,
    group_stats,
    mass_table,
)
from fairnoise.distributions import Atom, make_distribution, mix
from fairnoise.errors import ContractError, InfeasibleError, InputError
from fairnoise.repair import (
    _match_params,
    best_response,
    certified_floor,
    dp_repair,
    eopp_repair,
)

import oracles
from conftest import assert_close


class TestMatchParams:
    def test_raise_branch(self):
        p, q = _match_params(0.4, 0.7)
        assert q == 1.0
        assert_close(p, 0.3 / 0.6)

    def test_lower_branch(self):
        p, q = _match_params(0.7, 0.4)
        assert q == 0.0
        assert_close(p, 0.3 / 0.7)

    def test_exact_match_is_identity(self):
        assert _match_params(0.5, 0.5) == (0.0, 1.0)

    def test_degenerate_corners(self):
        assert _match_params(1.0, 1.0) == (0.0, 1.0)  # 0/0 -> no override
        assert _match_params(0.0, 0.0) == (0.0, 1.0)
        p, q = _match_params(0.0, 0.6)  # rate pinned at 0: q=1, p=target
        assert (q, round(p, 12)) == (1.0, 0.6)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_achieves_target_exactly(self, current, target):
        p, q = _match_params(current, target)
        achieved = (1.0 - p) * current + p * q
        assert abs(achieved - target) <= 1e-12


class TestDpRepair:
    def test_worked_example(self):
        # alpha=0.1 on the four-point family: corrupted rate of B is
        # 0.325/0.55, the lowering override accepts B's base positives with
        # u_B = 11/13, and the clean excess is (1 - u_B) * 0.25 = 1/26
        inst = families.dp_worked(0.1)
        w = dp_repair(inst.h_star, inst.dist, inst.corrupted, alpha=0.1)
        assert w.gap_on_corrupted <= GAP_TOL
        u_b, v_b = w.classifier.params["B"]
        assert_close(u_b, 11.0 / 13.0)
        assert v_b == 0.0
        assert_close(w.excess_error_on_original, 1.0 / 26.0)
        assert w.excess_error_on_original <= 2 * 0.1 / 0.9 + 1e-9

    def test_rejects_unfair_base(self):
        inst = families.dp_worked(0.1)
        unfair = BaseClassifier.from_table({"a1": 1, "a2": 1, "b1": 1, "b2": 0})
        with pytest.raises(InputError, match="DP gap"):
            dp_repair(unfair, inst.dist, inst.corrupted)

    def test_identity_when_uncorrupted(self):
        inst = families.dp_worked(0.1)
        w = dp_repair(inst.h_star, inst.dist, inst.dist)
        assert w.excess_error_on_original == 0.0

    def test_witness_serialization(self):
        inst = families.dp_worked(0.1)
        w = dp_repair(inst.h_star, inst.dist, inst.corrupted, alpha=0.1)
        doc = w.to_json_dict()
        assert doc["certification"]["notion"] == "dp"
        restored = PQClassifier.from_json_dict(doc["classifier"])
        assert_close(error(restored, inst.dist), w.error_on_original, 1e-12)


class TestEoppRepair:
    def test_needle_gap_zero_and_candidate(self):
        inst = families.eopp_needle(0.04)
        w = eopp_repair(inst.h_star, inst.dist, inst.corrupted, alpha=0.04)
        assert w.gap_on_corrupted <= GAP_TOL
        # matching A's corrupted TPR of 1 costs exactly sqrt(alpha)/2
        assert w.candidate_label == "match_A"
        assert_close(w.excess_error_on_original, 0.1)

    def test_candidate_switches_at_large_alpha(self):
        inst = families.eopp_needle(0.09)
        w = eopp_repair(inst.h_star, inst.dist, inst.corrupted, alpha=0.09)
        assert w.candidate_label == "match_B"

    def test_rejects_group_without_positives_in_corrupted(self):
        dist = make_distribution(
            [
                Atom("a1", 1, "A", 0.4),
                Atom("a2", 0, "A", 0.2),
                Atom("b1", 1, "B", 0.2),
                Atom("b2", 0, "B", 0.2),
            ]
        )
        # a fair base: TPR 1 in both groups
        h = BaseClassifier.from_table({"a1": 1, "a2": 0, "b1": 1, "b2": 0})
        broken = make_distribution(
            [Atom("a1", 1, "A", 0.5), Atom("b2", 0, "B", 0.5)]
        )
        with pytest.raises(InputError, match="no positives"):
            eopp_repair(h, dist, broken)

    def test_rejects_unfair_base(self):
        inst = families.eopp_needle(0.04)
        unfair = BaseClassifier.from_table({"x1": 1, "x2": 0, "x3": 0, "x4": 0})
        with pytest.raises(InputError, match="EOpp gap"):
            eopp_repair(unfair, inst.dist, inst.corrupted)


@pytest.mark.parametrize(
    "repair, build, statistic",
    ((dp_repair, families.dp_worked, "rate"), (eopp_repair, families.eopp_needle, "tpr")),
    ids=("dp", "eopp"),
)
@pytest.mark.parametrize("alpha", (0.04, 0.09))
def test_repair_of_a_randomized_base_overrides_it_with_a_coin(repair, build, statistic, alpha):
    # The same (u, v) in both groups keeps the base fair. Each group's
    # repaired acceptance probability at an atom is (1 - p) a + p q, where a
    # is the base's and (p, q) is the coin moving the group's corrupted
    # statistic, summed over atoms, to its target.
    inst = build(alpha)
    h = PQClassifier(inst.h_star, {"A": (0.8, 0.3), "B": (0.8, 0.3)})
    w = repair(h, inst.dist, inst.corrupted)
    current = getattr(oracles.group_stats(h, inst.corrupted), statistic)
    if w.candidate_label == "direct":
        target = oracles.group_stats(h, inst.dist).rate
    else:
        target = dict.fromkeys(current, current[w.candidate_label.removeprefix("match_")])
    coins = {g: _match_params(current[g], target[g]) for g in current}
    assert any(p > 0.0 for p, _ in coins.values())
    for a in inst.dist.atoms + inst.corrupted.atoms:
        (p, q), base = coins[a.group], h.accept_prob(a.point, a.group, a.feature)
        assert abs(w.classifier.accept_prob(a.point, a.group, a.feature) - ((1.0 - p) * base + p * q)) <= 1e-15
    repaired = getattr(oracles.group_stats(w.classifier, inst.corrupted), statistic)
    assert all(abs(repaired[g] - target[g]) <= 1e-12 for g in target)


class TestBestResponse:
    def test_recovers_optimum_without_corruption(self):
        inst = families.dp_worked(0.1)
        w = best_response(inst.dist, inst.dist, [inst.h_star], "dp", grid_n=41)
        assert_close(w.error_on_original, 0.0, 1e-12)

    def test_gap_meets_the_equality(self):
        inst = families.dp_worked(0.1)
        w = best_response(inst.corrupted, inst.dist, [inst.h_star], "dp", grid_n=41)
        assert w.gap_on_corrupted <= GAP_TOL

    def test_eodds_floor_on_duplication(self):
        inst = families.eodds_duplicate(0.1, r_b=0.09)
        w = best_response(inst.corrupted, inst.dist, [inst.h_star], "eodds", grid_n=101)
        # the washed-out group pins TPR = FPR, forcing ~half error on A
        assert w.error_on_original >= 0.40

    def test_validates_arguments(self):
        inst = families.dp_worked(0.1)
        with pytest.raises(InputError):
            best_response(inst.corrupted, inst.dist, [inst.h_star], "error_parity")
        with pytest.raises(InputError):
            best_response(inst.corrupted, inst.dist, [inst.h_star], "dp", grid_n=5)
        with pytest.raises(InputError):
            best_response(inst.corrupted, inst.dist, [], "dp")

    def test_predictive_parity_infeasible_when_precisions_never_meet(self):
        # precision is 1 in A and 0 in B wherever defined; only the options
        # that accept nothing, which have no precision, would pair up
        dist = make_distribution([Atom("a", 1, "A", 0.5), Atom("b", 0, "B", 0.5)])
        h = BaseClassifier.from_table({"a": 1, "b": 1})
        with pytest.raises(InfeasibleError):
            best_response(dist, dist, [h], "predictive_parity", grid_n=11)

    @pytest.mark.parametrize("notion", ("dp", "predictive_parity"))
    def test_group_without_corrupted_mass_is_bad_input(self, notion):
        inst = families.dp_worked(0.1)
        q = make_distribution([Atom("a1", 1, "A", 1.0)], groups=inst.dist.groups)
        corrupted = mix(inst.dist, q, 1.0)
        with pytest.raises(InputError, match="group 'B' has no mass on the corrupted distribution"):
            best_response(corrupted, inst.dist, [inst.h_star], notion)

    def test_reported_error_reproducible_from_witness(self):
        inst = families.eopp_needle(0.04)
        w = best_response(inst.corrupted, inst.dist, [inst.h_star], "eopp", grid_n=41)
        restored = PQClassifier.from_json_dict(w.to_json_dict()["classifier"])
        assert_close(error(restored, inst.dist), w.error_on_original, 1e-12)

    def test_eodds_with_coinciding_rates_finds_a_one_equality_vertex(self):
        # The base ignores the corrupted labels in both groups, so the TPR and
        # FPR equalities are one row and every two-equality system is
        # singular. The optimum, A at (u, v) = (1, 0) and B at (1, 1/3), has
        # one equality and three triangle rows active; the feasible triangle
        # corners err at least 0.4.
        cells = {"a1": 1 / 8, "a2": 1 / 8, "b1": 1 / 16, "b2": 3 / 16}
        group = {"a1": "A", "a2": "A", "b1": "B", "b2": "B"}
        corrupted = make_distribution(
            [Atom(p, y, group[p], m) for p, m in cells.items() for y in (0, 1)]
        )
        clean = make_distribution(
            [Atom("a1", 1, "A", 0.3), Atom("a2", 0, "A", 0.3), Atom("b1", 1, "B", 0.1), Atom("b2", 0, "B", 0.3)]
        )
        h = BaseClassifier.from_table({"a1": 1, "a2": 0, "b1": 1, "b2": 0})
        w = best_response(corrupted, clean, [h], "eodds")
        assert w.gap_on_corrupted <= GAP_TOL
        assert_close(w.error_on_original, 0.1, 1e-12)
        assert abs(Fraction(*certified_floor(corrupted, clean, h, "eodds")) - Fraction(1, 10)) <= 1e-12


def needle_floor(alpha):
    """The needle's exact EOpp floor; it is sqrt(alpha)/2 up to
    alpha = 7 - 4 sqrt(3)."""
    s = math.sqrt(alpha)
    return min(s / 2.0, alpha * (1.0 - s) / ((1.0 - alpha) * s + 2.0 * alpha))


#: (notion, instance at alpha, closed-form floor, alphas). Each base is
#: perfect on the clean distribution, so its floor is also its excess.
CLOSED_FORMS = (
    ("dp", families.dp_worked, lambda a: a / (2.0 + 6.0 * a), (0.01, 0.05, 0.1, 0.2)),
    ("eopp", families.eopp_needle, needle_floor, (0.01, 0.04, 0.075, 0.09)),
    ("eodds", lambda a: families.eodds_duplicate(a, 0.9 * a), lambda a: (1.0 - 0.9 * a) / 2.0, (0.05, 0.1, 0.2)),
)


@pytest.mark.parametrize(
    "notion, build, closed_form, alpha",
    [(n, b, f, a) for n, b, f, alphas in CLOSED_FORMS for a in alphas],
    ids=[f"{n}-{a}" for n, _, _, alphas in CLOSED_FORMS for a in alphas],
)
def test_exact_floor_is_the_closed_form(notion, build, closed_form, alpha):
    inst = build(alpha)
    assert error(inst.h_star, inst.dist) == 0.0
    w = best_response(inst.corrupted, inst.dist, [inst.h_star], notion)
    assert abs(w.error_on_original - closed_form(alpha)) <= 1e-12
    assert w.gap_on_corrupted <= GAP_TOL
    # clamped vertices: every acceptance parameter in [0, 1] and none -0.0
    assert all(math.copysign(1.0, c) == 1.0 and c <= 1.0 for pq in w.classifier.params.values() for c in pq)
    num, den = certified_floor(inst.corrupted, inst.dist, inst.h_star, notion)
    assert type(num) is int and type(den) is int and den > 0
    floor = Fraction(num, den)
    assert abs(floor - Fraction(closed_form(alpha))) <= 1e-12
    assert floor == oracles.certified_floor(inst.corrupted, inst.dist, inst.h_star, notion)


@pytest.mark.parametrize(
    "notion, build, witness, alpha",
    [("dp", families.dp_worked, dp_repair, a) for a in (0.01, 0.05, 0.1, 0.2)]
    + [("eopp", families.eopp_needle, eopp_repair, a) for a in (0.01, 0.04, 0.09)],
)
def test_analytic_witness_meets_the_certified_floor(notion, build, witness, alpha):
    # the witness is one classifier of the class, so its excess is at least
    # the floor; here it is the floor: the sandwich closes
    inst = build(alpha)
    excess = witness(inst.h_star, inst.dist, inst.corrupted).excess_error_on_original
    floor = Fraction(*certified_floor(inst.corrupted, inst.dist, inst.h_star, notion))
    assert abs(excess - floor) <= 1e-12


@pytest.mark.parametrize("alpha", (0.05, 0.1, 0.2, 0.5))
def test_predictive_parity_floor_is_the_lp_at_precision_one_half(alpha):
    # on the duplication instance both groups' precision ranges meet only
    # at 1/2, so the floor is the Fraction LP there, exactly
    inst = families.eodds_duplicate(alpha, 0.9 * alpha)
    cells = oracles.float_cells(inst.corrupted, inst.h_star, inst.dist.groups)
    assert oracles.precision_range(cells) == (Fraction(1, 2), Fraction(1, 2))
    floor = Fraction(*certified_floor(inst.corrupted, inst.dist, inst.h_star, "predictive_parity"))
    half = Fraction(1, 2)
    assert floor == oracles.lp_floor(inst.corrupted, inst.dist, inst.h_star, "predictive_parity", half)
    assert floor == oracles.certified_floor(inst.corrupted, inst.dist, inst.h_star, "predictive_parity", half)
    assert abs(floor - Fraction((1.0 - 0.9 * alpha) / 2.0)) <= 1e-12


def test_predictive_parity_floor_where_every_option_has_the_precision():
    # all points are base-positive and each group's are half positive, so
    # both equalities at precision 1/2 are rows of 0s and the floor is the
    # LP with none: A accepts everything and B nothing
    h = BaseClassifier.from_table({"a": 1, "b": 1})
    corrupted = make_distribution([Atom(p, y, p.upper(), 0.25) for p in ("a", "b") for y in (0, 1)])
    clean = make_distribution(
        [Atom("a", 1, "A", 0.3), Atom("a", 0, "A", 0.2), Atom("b", 1, "B", 0.1), Atom("b", 0, "B", 0.4)]
    )
    floor = Fraction(*certified_floor(corrupted, clean, h, "predictive_parity"))
    assert floor == oracles.lp_floor(corrupted, clean, h, "predictive_parity", Fraction(1, 2))
    assert abs(floor - Fraction(3, 10)) <= 1e-16


def test_predictive_parity_floor_with_disjoint_precision_ranges_is_infeasible():
    # A's options have precisions in [1/2, 1] and all of B's precision 0
    h = BaseClassifier.from_table({"a1": 1, "a2": 0, "b1": 1, "b2": 0})
    clean = make_distribution([Atom(p, y, p[0].upper(), 0.125) for p in ("a1", "a2", "b1", "b2") for y in (0, 1)])
    corrupted = make_distribution(
        [Atom("a1", 1, "A", 0.25), Atom("a2", 0, "A", 0.25), Atom("b1", 0, "B", 0.25), Atom("b2", 0, "B", 0.25)]
    )
    with pytest.raises(InfeasibleError) as expected:
        best_response(corrupted, clean, [h], "predictive_parity")
    with pytest.raises(InfeasibleError) as found:
        certified_floor(corrupted, clean, h, "predictive_parity")
    assert str(found.value) == str(expected.value)


def test_predictive_parity_floor_at_an_interior_stationary_precision_is_not_certified():
    # The precision ranges meet on [5/8, 1], and the error is least at a
    # stationary precision near 0.684311 inside it: the float core, which
    # tries it, errs 0.226923 there, below the exact floors at both ends,
    # 0.275 and 1/3. So the ends alone would overstate the floor.
    h = BaseClassifier.from_table({"aP": 1, "aN": 0, "bP": 1, "bN": 0})

    def dist(cells, total):
        points = (("aP", "A"), ("aN", "A"), ("bP", "B"), ("bN", "B"))
        atoms = [Atom(p, y, g, m / total) for (p, g), pair in zip(points, cells) for y, m in zip((1, 0), pair) if m]
        return make_distribution(atoms)

    corrupted = dist(((1, 0), (4, 3), (3, 0), (0, 2)), 13)
    clean = dist(((4, 0), (0, 2), (1, 0), (4, 1)), 12)
    lo, hi = oracles.precision_range(oracles.float_cells(corrupted, h, clean.groups))
    ends = [oracles.lp_floor(corrupted, clean, h, "predictive_parity", pi) for pi in (lo, hi)]
    found = best_response(corrupted, clean, [h], "predictive_parity").error_on_original
    assert (lo, hi) == (Fraction(5, 8), 1) and found < min(ends) - 0.04
    with pytest.raises(ContractError, match=r"uncertified stationary precision 0\.6843105"):
        certified_floor(corrupted, clean, h, "predictive_parity")


def test_predictive_parity_floor_ignores_a_stationary_precision_where_a_group_adds_error():
    # The precision ranges meet on [2/3, 1], and s_A + s_B has a local
    # minimum near 0.844949 inside, but there group B's whole segment adds
    # error (s_B > 0), so B accepts nothing and the floor, c_0 + s_A, rises
    # with the precision: it is least at lo, and it is proved.
    h = BaseClassifier.from_table({"aP": 1, "aN": 0, "bP": 1, "bN": 0})

    def dist(cells, total):
        points = (("aP", "A"), ("aN", "A"), ("bP", "B"), ("bN", "B"))
        atoms = [Atom(p, y, g, m / total) for (p, g), pair in zip(points, cells) for y, m in zip((1, 0), pair) if m]
        return make_distribution(atoms)

    corrupted = dist(((2, 0), (0, 2), (1, 0), (1, 1)), 7)
    clean = dist(((2, 0), (4, 1), (0, 0), (0, 2)), 9)
    lo, hi = oracles.precision_range(oracles.float_cells(corrupted, h, clean.groups))
    ends = [oracles.lp_floor(corrupted, clean, h, "predictive_parity", pi) for pi in (lo, hi)]
    floor = Fraction(*certified_floor(corrupted, clean, h, "predictive_parity"))
    found = best_response(corrupted, clean, [h], "predictive_parity").error_on_original
    assert (lo, hi) == (Fraction(2, 3), 1) and floor == ends[0] < ends[1]
    assert floor <= found <= floor + GAP_TOL


@pytest.mark.parametrize(
    "w, q, alpha",
    (
        ((7, 8, 4, 8, 6, 2, 2, 5), (3, 2, 2, 2, 2, 2, 0, 1), 0.25),  # the ranges meet on a hair below 1/2
        ((3, 6, 4, 5, 5, 4, 1, 8), (0, 0, 0, 0, 4, 4, 0, 0), 0.2),  # the ranges miss by a hair at 7/18
    ),
)
def test_predictive_parity_search_and_proof_agree_where_the_ranges_meet(w, q, alpha):
    # the search and the proof decide whether the precision ranges meet by
    # one integer test, so they agree even where rounded quotients would not
    h = BaseClassifier.from_table({"a1": 1, "a0": 0, "b1": 1, "b0": 0})
    cells = [(p, y, p[0].upper()) for p in ("a1", "a0", "b1", "b0") for y in (1, 0)]
    clean = make_distribution([Atom(p, y, g, m / sum(w)) for (p, y, g), m in zip(cells, w)])
    atoms = [Atom(p, y, g, m / sum(q)) for (p, y, g), m in zip(cells, q) if m]
    corrupted = mix(clean, make_distribution(atoms, groups=("A", "B")), alpha)
    try:
        floor = Fraction(*certified_floor(corrupted, clean, h, "predictive_parity"))
    except InfeasibleError:
        with pytest.raises(InfeasibleError):
            best_response(corrupted, clean, [h], "predictive_parity")
        return
    found = best_response(corrupted, clean, [h], "predictive_parity")
    assert floor <= found.error_on_original <= floor + GAP_TOL


def test_predictive_parity_floor_proves_equal_ends_once(monkeypatch):
    # on certify's duplication instance lo and hi are both 1/2, so one
    # evaluation of the segments proves the floor
    calls = []

    def counted(*args):
        calls.append(args)
        return segments(*args)

    segments = repair._segments
    monkeypatch.setattr(repair, "_segments", counted)
    inst = families.eodds_duplicate(0.1, 0.09)
    floor = certified_floor(inst.corrupted, inst.dist, inst.h_star, "predictive_parity")
    assert len(calls) == 1 and abs(Fraction(*floor) - Fraction(0.91 / 2.0)) <= 1e-12


@pytest.mark.parametrize(
    "notion, label, what", (("eopp", 0, "positives"), ("eodds", 0, "positives"), ("eodds", 1, "negatives"))
)
def test_certified_floor_rejects_an_empty_denominator_as_best_response_does(notion, label, what):
    # every corrupted point of group B carries ``label``
    h = BaseClassifier.from_table({"a": 1, "b": 1})
    group_a = [Atom("a", 1, "A", 0.3), Atom("a", 0, "A", 0.2)]
    clean = make_distribution(group_a + [Atom("b", 1, "B", 0.3), Atom("b", 0, "B", 0.2)])
    corrupted = make_distribution(group_a + [Atom("b", label, "B", 0.5)])
    with pytest.raises(InputError) as expected:
        best_response(corrupted, clean, [h], notion)
    with pytest.raises(InputError) as found:
        certified_floor(corrupted, clean, h, notion)
    assert str(found.value) == str(expected.value) == f"group 'B' has no {what} on the corrupted distribution"


@pytest.mark.parametrize("notion", ("dp", "eopp", "eodds", "predictive_parity"))
def test_certified_floor_raises_best_responses_input_errors_in_its_order(notion):
    # two groups are checked before the groups match, and they before a
    # group's denominator: each pair fails its check and every later one
    h = BaseClassifier.from_table({"a": 1, "b": 1, "c": 0})
    ab = make_distribution([Atom("a", 1, "A", 0.5), Atom("b", 0, "B", 0.25), Atom("b", 1, "B", 0.25)])
    abc = make_distribution([Atom("a", 1, "A", 0.4), Atom("b", 0, "B", 0.3), Atom("c", 1, "C", 0.3)])
    ac_empty = make_distribution([Atom("a", 1, "A", 1.0)], groups=("A", "C"))
    ab_empty = make_distribution([Atom("a", 1, "A", 0.5), Atom("a", 0, "A", 0.5)], groups=("A", "B"))
    what = "mass" if notion in ("dp", "predictive_parity") else "positives"
    for corrupted, clean, message in (
        (ac_empty, abc, "best_response searches exactly two groups"),
        (ac_empty, ab, r"the corrupted distribution's groups \['A', 'C'\] differ from the clean one's \['A', 'B'\]"),
        (ab_empty, ab, f"group 'B' has no {what} on the corrupted distribution"),
    ):
        with pytest.raises(InputError, match=message) as expected:
            best_response(corrupted, clean, [h], notion)
        with pytest.raises(InputError) as found:
            certified_floor(corrupted, clean, h, notion)
        assert str(found.value) == str(expected.value)


@pytest.mark.parametrize("kind", ("uniform", "dyadic"))
@pytest.mark.parametrize("notion", ("dp", "eopp", "eodds"))
def test_each_equality_row_is_the_difference_of_the_statistics_it_equates(notion, kind):
    # each statistic READS[notion] names is (u a + v b) / d over the cells
    # STATISTICS lists, and row i times x is group A's statistic i minus B's
    rng = np.random.default_rng(34)
    cells = core_cells(rng, kind, (40,))
    inputs = repair.statistic_inputs(cells, notion)
    eq = repair._equalities(inputs, notion, repair._denominators(inputs, notion))
    base = BaseClassifier.from_table({"p": 1})
    for table, rows in zip(cells, eq):
        u = rng.uniform(0.0, 1.0, 2)
        v = rng.uniform(0.0, u)
        for x in ((0.0, 0.0, 1.0, 1.0), (1.0, 0.0, 1.0, 0.0), (u[0], v[0], u[1], v[1])):
            stats = _table_stats(PQClassifier(base, {"A": x[:2], "B": x[2:]}), dict(zip("AB", map(tuple, table))))
            for row, statistic in zip(rows, READS[notion], strict=True):
                values = getattr(stats, statistic)
                a, b, d = (table[:, list(cells)].sum(axis=1) for cells in STATISTICS[statistic][:3])
                by_table = (np.array(x[::2]) * a + np.array(x[1::2]) * b) / d  # per group
                assert np.abs([values["A"] - by_table[0], values["B"] - by_table[1]]).max() <= 1e-12
                assert abs(row @ x - (values["A"] - values["B"])) <= 1e-12


#: Under the base {"p": 1, "n": 0}, the (point, label) of each mass-table cell, in order
CELL_ATOMS = (("p", 1), ("p", 0), ("n", 1), ("n", 0))


@pytest.mark.parametrize("notion", ("dp", "eopp", "eodds"))
def test_a_group_lacking_a_denominator_is_named_by_the_table(notion):
    # group B keeps only the cells outside one statistic's d, or none: the
    # search and the proof name the first statistic, in READS order, whose
    # d is 0, by its word in STATISTICS
    h = BaseClassifier.from_table({"p": 1, "n": 0})
    clean = make_distribution([Atom(p, y, g, 0.125) for g in "AB" for p, y in CELL_ATOMS])
    for lacked, d in [(s, STATISTICS[s][2]) for s in READS[notion]] + [(READS[notion][0], range(4))]:
        kept = {"A": CELL_ATOMS, "B": [c for i, c in enumerate(CELL_ATOMS) if i not in d]}
        atoms = [Atom(p, y, g, 1.0 / (4 + len(kept["B"]))) for g, pairs in kept.items() for p, y in pairs]
        corrupted = make_distribution(atoms, groups=("A", "B"))
        message = f"^group 'B' has no {STATISTICS[lacked][3]} on the corrupted distribution$"
        with pytest.raises(InputError, match=message):
            best_response(corrupted, clean, [h], notion)
        with pytest.raises(InputError, match=message):
            certified_floor(corrupted, clean, h, notion)


def kernel_stack(rng, notion, kind, rows=200):
    """Equality rows of ``notion`` as best responses send them to
    ``repair._lp_vertices``, for random corrupted cells of both groups, and
    a random clean table. Cells are uniform floats or, for ties, multiples of 1/8 with
    both groups' positives and negatives present; in the first quarter of
    the rows both groups share one table."""
    if kind == "uniform":
        cells = rng.uniform(0.0, 1.0, (2, rows, 4))
    else:
        cells = rng.integers(0, 4, (2, rows, 4)) / 8.0
        cells[..., (0, 3)] += 1.0 / 8.0
    cells[1, : rows // 4] = cells[0, : rows // 4]
    clean = rng.uniform(0.0, 1.0, (2, 4))
    inputs = repair.statistic_inputs(cells.swapaxes(0, 1), notion)
    return repair._equalities(inputs, notion, repair._denominators(inputs, notion)), clean[..., None]


@pytest.mark.parametrize("notion, n_eq, bound", (("eopp", 1, 3_500), ("eodds", 2, 8_000)))
def test_lp_vertices_stay_small_per_row(notion, n_eq, bound):
    # every sum is accumulated in place, so an LP row holds its x, its
    # totals and a few working rows over its active sets: 2.4 KB for one
    # equality and 5.5 KB for two, where stacked error terms, misses and
    # Cramer entries took 6.5 and 15.0 KB
    eq, table = kernel_stack(np.random.default_rng(5), notion, "uniform", rows=1000)
    assert eq.shape[1] == n_eq
    repair._lp_vertices(eq[:1], table)  # builds the cached active-set tables
    tracemalloc.start()
    try:
        repair._lp_vertices(eq, table)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound * len(eq)


@pytest.mark.parametrize("kind", ("uniform", "dyadic"))
@pytest.mark.parametrize("notion", ("dp", "eopp", "eodds"))
def test_closed_form_vertices_match_the_lapack_solve(notion, kind):
    # The masks differ only where one solver calls an active set singular:
    # there the closed form has no vertex, or finds the origin. LU's
    # rounding can instead find a point on a line of solutions, say both
    # groups on their u = 1 edges when they share one table. The origin is
    # also the vertex of both groups' (0, 0) corners.
    eq, table = kernel_stack(np.random.default_rng(17), notion, kind)
    totals, x, subsets = repair._lp_vertices(eq, table)
    ref_totals, ref_x, ref_subsets = oracles.lapack_vertices(eq, table)
    # the oracle solves every subset in combinations order: the kept ones are
    # among them in the same order, and the dropped ones have no feasible vertex
    column = {subset: s for s, subset in enumerate(map(tuple, ref_subsets.tolist()))}
    kept = [column.get(subset) for subset in map(tuple, subsets.tolist())]
    assert None not in kept and kept == sorted(kept)
    assert np.isinf(np.delete(ref_totals, kept, axis=1)).all()
    ref_totals, ref_x = ref_totals[:, kept], ref_x[:, kept]
    feasible, ref_feasible = np.isfinite(totals), np.isfinite(ref_totals)
    differ = feasible != ref_feasible
    assert np.isnan(x[differ & ~feasible]).all() and (x[differ & feasible] == 0.0).all()
    assert differ.sum() <= 0.05 * differ.size
    both = feasible & ref_feasible
    assert np.abs(x - ref_x)[both].max() <= 1e-12
    assert np.abs(totals.min(axis=1) - ref_totals.min(axis=1)).max() <= 1e-12
    # each feasible vertex meets its active triangle rows bit for bit
    n_eq = eq.shape[1]
    for s, subset in enumerate(subsets.tolist()):
        for row in (i - n_eq for i in subset if i >= n_eq):
            u, v = x[feasible[:, s], s, 2 * (row // 3)], x[feasible[:, s], s, 2 * (row // 3) + 1]
            assert (v == (0.0, u, v)[row % 3]).all() and (u == (u, u, 1.0)[row % 3]).all()


@pytest.mark.parametrize("n_eq, kept", ((1, 27), (2, 60)))
def test_active_sets_drop_only_the_sets_holding_a_whole_triangle(n_eq, kept):
    # a group's rows v = 0, v = u and u = 1 are n_eq + 3 g, ..., n_eq + 3 g + 2
    subsets = repair._active_sets(n_eq)[0].tolist()
    whole = [set(range(n_eq + 3 * g, n_eq + 3 * g + 3)) for g in (0, 1)]
    every = [list(c) for c in itertools.combinations(range(n_eq + 6), 4)]
    assert subsets == [c for c in every if not any(rows <= set(c) for rows in whole)]
    assert len(subsets) == kept


def test_subnormal_pivot_overflows_quietly():
    # B's base negatives weigh 5e-311, so with B on its u = 1 edge the dp
    # equality's pivot is subnormal and t overflows: that active set is
    # infeasible, and the search neither warns nor misses the optimum
    m = 5e-311
    dist = make_distribution(
        [Atom("a1", 1, "A", 0.25), Atom("a2", 0, "A", 0.25), Atom("b1", 1, "B", 0.5 - m), Atom("b2", 0, "B", m)]
    )
    h = BaseClassifier.from_table({"a1": 1, "a2": 0, "b1": 1, "b2": 0})
    w = best_response(dist, dist, [h], "dp")
    assert abs(w.error_on_original - oracles.lp_floor(dist, dist, h, "dp")) <= 1e-12
    assert w.gap_on_corrupted <= GAP_TOL


def test_eodds_tiny_negative_mass_divides_without_overflow():
    # B's negatives weigh 5e-311, so dividing B's positives by them would
    # overflow; the FPR equality reads only the negatives' columns
    m = 5e-311
    dist = make_distribution(
        [Atom("a1", 1, "A", 0.25), Atom("a2", 0, "A", 0.25), Atom("b1", 1, "B", 0.5 - m), Atom("b2", 0, "B", m)]
    )
    h = BaseClassifier.from_table({"a1": 1, "a2": 0, "b1": 1, "b2": 0})
    w = best_response(dist, dist, [h], "eodds")
    assert w.error_on_original == 0.0
    assert w.gap_on_corrupted <= GAP_TOL
    assert Fraction(*certified_floor(dist, dist, h, "eodds")) == 0


def test_eodds_false_positive_rate_does_not_cancel():
    # B's negatives weigh 2e-10 next to its positives' 0.5 - 2e-10, so its
    # FPR numerator taken as accepted mass minus accepted positives cancels
    # to 0.5000000413701855; at the LP optimum B's exact FPR is 1/2, as A's
    m = 1e-10
    dist = make_distribution(
        [
            Atom("a1", 1, "A", 0.25),
            Atom("a2", 0, "A", 0.25),
            Atom("b1", 1, "B", 0.5 - 2 * m),
            Atom("b1", 0, "B", m),
            Atom("b2", 0, "B", m),
        ]
    )
    h = BaseClassifier.from_table({"a1": 1, "a2": 0, "b1": 1, "b2": 0})
    w = best_response(dist, dist, [h], "eodds")
    assert w.classifier.params == {"A": (1.0, 0.5), "B": (1.0, 0.0)}
    assert group_stats(w.classifier, dist).fpr == {"A": 0.5, "B": 0.5}
    assert w.gap_on_corrupted == 0.0


@pytest.mark.parametrize("alpha", (0.05, 0.1, 0.2))
def test_predictive_parity_floor_is_the_closed_form(alpha):
    # washed out, group B has precision 1/2 at every option that accepts
    # some mass; that pins the common precision at 1/2, where A errs on
    # (1 - r_B)/2 whether it accepts its segment or nothing
    inst = families.eodds_duplicate(alpha, 0.9 * alpha)
    w = best_response(inst.corrupted, inst.dist, [inst.h_star], "predictive_parity")
    assert abs(w.error_on_original - (1.0 - 0.9 * alpha) / 2.0) <= 1e-12
    assert w.gap_on_corrupted <= GAP_TOL


#: The perfect base of two groups with one base-positive and one
#: base-negative point each.
PRECISION_BASE = BaseClassifier.from_table({"aP": 1, "aN": 0, "bP": 1, "bN": 0})


def precision_row(cells_a, cells_b, clean_atoms):
    """(corrupted, clean) of two groups whose corrupted (m1p, m1n, m0p, m0n)
    cells are ``cells_a`` and ``cells_b`` sixteenths; ``clean_atoms`` are
    (point, label, group, mass)."""
    atoms = []
    for group, cells in (("A", cells_a), ("B", cells_b)):
        g = group.lower()
        for (point, label), m in zip(((g + "P", 1), (g + "P", 0), (g + "N", 1), (g + "N", 0)), cells):
            if m:
                atoms.append(Atom(point, label, group, m / 16))
    return make_distribution(atoms), make_distribution([Atom(*atom) for atom in clean_atoms])


def test_predictive_parity_interior_stationary_precision_wins():
    # A's precision runs over [1/4, 1/2] and B's over [3/8, 3/4]. Both
    # groups gain by accepting, less so the more base-negative mass their
    # segment takes: w_A + w_B, with w_A = (4 pi - 1)/(3 - 4 pi) and
    # w_B = 3/(4 pi) - 1, is least at pi = (9 - 3 sqrt 6)/4, inside
    # [3/8, 1/2], where the floor is (2 sqrt 6 - 1)/30; the ends give 2/15
    # and 3/20.
    corrupted, clean = precision_row(
        (1, 3, 3, 1), (3, 1, 0, 4), [("aP", 1, "A", 0.4), ("aN", 0, "A", 0.1), ("bP", 1, "B", 0.4), ("bN", 0, "B", 0.1)]
    )
    w = best_response(corrupted, clean, [PRECISION_BASE], "predictive_parity")
    assert abs(w.error_on_original - (2.0 * math.sqrt(6.0) - 1.0) / 30.0) <= 1e-12
    assert w.gap_on_corrupted <= GAP_TOL
    assert abs(group_stats(w.classifier, corrupted).ppv["A"] - (9.0 - 3.0 * math.sqrt(6.0)) / 4.0) <= 1e-12


def test_predictive_parity_accept_nothing_limit_wins():
    # B's clean points are all negative, so every option of B that accepts
    # mass errs more than accepting nothing; A does best at w_A = 0, so the
    # common precision is 1/2, the low end of A's range [1/2, 5/8]. B takes
    # a GAP_TOL / 2 sliver of its segment there, w_B = 1/2, which keeps its
    # precision defined and equal to A's.
    corrupted, clean = precision_row(
        (2, 2, 3, 1),
        (3, 1, 0, 4),
        [("aP", 1, "A", 0.4), ("aP", 0, "A", 0.05), ("aN", 0, "A", 0.05), ("bP", 0, "B", 0.1), ("bN", 0, "B", 0.4)],
    )
    tables = ([mass_table(PRECISION_BASE, d)] for d in (corrupted, clean))
    floor, _, x, _ = repair._one_row(*tables, clean.groups, "predictive_parity")
    assert abs(floor - 0.05) <= 1e-12
    assert x[:2] == (1.0, 0.0) and 0.0 < x[2] <= GAP_TOL
    w = best_response(corrupted, clean, [PRECISION_BASE], "predictive_parity")
    assert w.gap_on_corrupted <= GAP_TOL
    assert group_stats(w.classifier, corrupted).ppv == {"A": 0.5, "B": 0.5}
    assert floor <= w.error_on_original <= floor + GAP_TOL


def mismatched_groups():
    """The balanced instance over groups (A, B), a distribution over (A, C),
    and a table classifier defined on every point of both."""
    dist, _ = families.balanced_instance(0.3)
    other = make_distribution(
        [Atom("aP", 1, "A", 0.35), Atom("aN", 0, "A", 0.35), Atom("cP", 1, "C", 0.15), Atom("cN", 0, "C", 0.15)]
    )
    h = BaseClassifier.from_table({"aP": 1, "aN": 0, "bP": 1, "bN": 0, "cP": 1, "cN": 0})
    return dist, other, h


@pytest.mark.parametrize(
    "call",
    [
        lambda d, other, h: best_response(other, d, [h], "dp"),
        lambda d, other, h: best_response(d, other, [h], "dp"),
        lambda d, other, h: certified_floor(other, d, h, "eopp"),
        lambda d, other, h: dp_repair(h, d, other),
        lambda d, other, h: eopp_repair(h, d, other),
    ],
    ids=("best_response-corrupted", "best_response-clean", "certified_floor", "dp_repair", "eopp_repair"),
)
def test_mismatched_group_lists_are_bad_input(call):
    dist, other, h = mismatched_groups()
    with pytest.raises(InputError, match=r"\['A', '[BC]'\] differ from the clean one's \['A', '[BC]'\]"):
        call(dist, other, h)


def test_group_order_does_not_matter():
    inst = families.eopp_needle(0.04)
    swapped = make_distribution(inst.corrupted.atoms, groups=("B", "A"))
    assert swapped.groups == ("B", "A")
    for notion in ("dp", "eopp", "eodds", "predictive_parity"):
        assert best_response(swapped, inst.dist, [inst.h_star], notion) == best_response(
            inst.corrupted, inst.dist, [inst.h_star], notion
        )
    for notion in ("eopp", "eodds"):
        expected = certified_floor(inst.corrupted, inst.dist, inst.h_star, notion)
        assert certified_floor(swapped, inst.dist, inst.h_star, notion) == expected
    assert eopp_repair(inst.h_star, inst.dist, swapped) == eopp_repair(inst.h_star, inst.dist, inst.corrupted)
    dp = families.dp_worked(0.05)
    swapped = make_distribution(dp.corrupted.atoms, groups=("B", "A"))
    assert dp_repair(dp.h_star, dp.dist, swapped) == dp_repair(dp.h_star, dp.dist, dp.corrupted)


def _table_rows(rng, rows):
    """``rows`` random instances of ``random_dp_instance`` and
    ``random_eopp_instance``, alternately, each corrupted by a random
    contamination at a random alpha, as (corrupted, clean) stacks of one
    mass table per row under the instance's own classifier."""
    dirty, clean = [], []
    for r in range(rows):
        generate = families.random_dp_instance if r % 2 else families.random_eopp_instance
        dist, h = generate(rng, max_atoms=12)
        corrupted = mix(dist, oracles.random_contamination(rng, dist), float(rng.uniform(0.01, 0.5)))
        for side, d in ((dirty, corrupted), (clean, dist)):
            side.append([[mass_table(h, d)[g] for g in dist.groups]])
    return np.array(dirty), np.array(clean)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("notion", ("dp", "eopp", "eodds", "predictive_parity"))
def test_each_row_of_a_stack_with_its_own_clean_table_is_solved_alone(seed, notion):
    # the sweep stacks one clean table per row, so no row may read another
    dirty, clean = _table_rows(np.random.default_rng(seed), 12)
    solved, error, vertices = repair._solve(dirty, clean, ("A", "B"), notion)
    for r in range(len(dirty)):
        alone, alone_error, alone_vertices = repair._solve(dirty[r : r + 1], clean[r : r + 1], ("A", "B"), notion)
        if r < len(solved):
            assert alone == [solved[r]] and alone_error is None
            if notion != "predictive_parity":  # predictive parity has no vertices
                assert alone_vertices.tobytes() == vertices[r : r + 1].tobytes()
        else:  # the stack stops at its first row that cannot be solved
            assert (type(alone_error), str(alone_error)) == (type(error), str(error))
            break


def test_best_response_reads_each_distribution_once(monkeypatch):
    built = []

    def counted(h, dist):
        built.append(dist)
        return mass_table(h, dist)

    monkeypatch.setattr(repair, "mass_table", counted)
    inst = families.eodds_duplicate(0.1, 0.09)
    other = BaseClassifier.from_table({"aP": 1, "aN": 1, "bP": 1, "bN": 0})
    best_response(inst.corrupted, inst.dist, [inst.h_star, other], "eodds")
    assert len(built) == 4 and built.count(inst.corrupted) == built.count(inst.dist) == 2


#: SHA-256 per notion of :func:`core_digests`' record of the solver core's
#: answers, so that a re-pin shows which notion moved.
CORE_SHA256 = {
    "dp": "15809825b77c58a71968028ecacce34962fa63f222e40516319fbfca6967313a",
    "eopp": "759759d56840878b5baafbc1c6cdd110f9adec3c42821af350704647429c1ee5",
    "eodds": "9288aca431e24758d65706c00f75f1258d9d7fc279663d26e229a222cce20406",
    "predictive_parity": "8cf5b1d3d59b4fdf30b1033ccae2b07ea182fc101e357c5a98b802d16fc20a5e",
}


def core_cells(rng, kind, shape):
    """Random mass tables of ``shape`` + (groups, 4): uniform floats, or
    multiples of 1/8 with every group's positives and negatives present,
    which make ties. Group B copies group A in the first quarter of the
    rows, rounded up."""
    if kind == "uniform":
        cells = rng.uniform(0.0, 1.0, shape + (2, 4))
    else:
        cells = rng.integers(0, 4, shape + (2, 4)) / 8.0
        cells[..., (0, 3)] += 1.0 / 8.0
    cells[: (len(cells) + 3) // 4, :, 1] = cells[: (len(cells) + 3) // 4, :, 0]
    return cells


def core_digests():
    """Solve seeded stacks of 1, 4 and 100 rows under every notion, with
    1 and 2 hypotheses, one shared or one per-row clean table, and uniform
    or dyadic cells; in a 100-row stack, group B of row 97 has no mass, so
    the stack stops there. Hash per notion, in float.hex, each solved row's
    total, k, x and its winning active set's rows; every finite vertex
    total, keyed by its row, hypothesis, candidate (always 0) and active
    set's rows; and the error of the row the stack stops at. Predictive
    parity, solved on its segments, has no active sets and no vertices.
    One generator draws every notion's stacks in turn."""
    digests, rng = {}, np.random.default_rng(2026)
    for notion in ("dp", "eopp", "eodds", "predictive_parity"):
        digest = digests[notion] = hashlib.sha256()
        subsets = repair._active_sets(1 if notion in ("dp", "eopp") else 2)[0].tolist()
        for rows in (1, 4, 100):
            for hypotheses in (1, 2):
                for shared in (True, False):
                    for kind in ("uniform", "dyadic"):
                        dirty = core_cells(rng, kind, (rows, hypotheses))
                        dirty[97:98, :, 1] = 0.0
                        clean = core_cells(rng, kind, (1 if shared else rows, hypotheses))
                        solved, error, vertices = repair._solve(dirty, clean, ("A", "B"), notion)
                        record = [notion, rows, hypotheses, shared, kind, type(error).__name__, str(error)]
                        for total, k, x, s in solved:
                            record.append((total.hex(), k, [c.hex() for c in x], *([] if s is None else [subsets[s]])))
                        for r, k, v in zip(*np.nonzero(np.isfinite(vertices))) if vertices is not None else ():
                            candidate, s = divmod(int(v), len(subsets))
                            record.append((int(r), int(k), candidate, subsets[s], vertices[r, k, v].hex()))
                        digest.update(repr(record).encode())
    return {notion: digest.hexdigest() for notion, digest in digests.items()}


def test_core_answers_match_their_digest():
    assert core_digests() == CORE_SHA256
