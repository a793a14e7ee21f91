import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairnoise import families, repair
from fairnoise.classifiers import (
    GAP_TOL,
    BaseClassifier,
    PQClassifier,
    error,
    fairness_gap,
    group_stats,
)
from fairnoise.distributions import Atom, make_distribution, mix
from fairnoise.errors import InfeasibleError, InputError
from fairnoise.repair import (
    MAX_GRID_N,
    RepairWitness,
    _match_params,
    best_response,
    dp_repair,
    eopp_repair,
    option_grid,
    pair_min_1d,
    pair_min_2d,
    params_from_uv,
)

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
        # 0.325/0.55, the lowering override is p_B = 2/13, and the clean
        # excess is p_B * 0.25 = 1/26
        inst = families.dp_worked(0.1)
        w = dp_repair(inst.h_star, inst.dist, inst.corrupted, alpha=0.1)
        assert w.gap_on_corrupted <= GAP_TOL
        p_b, q_b = w.classifier.params["B"]
        assert_close(p_b, 2.0 / 13.0)
        assert q_b == 0.0
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


class TestOptionGrid:
    def test_triangle_shape(self):
        uu, vv = option_grid(5)
        assert len(uu) == 15  # 5*6/2 options with v <= u
        assert (vv <= uu + 1e-15).all()

    def test_rejects_tiny_grid(self):
        with pytest.raises(InputError):
            option_grid(1)

    def test_rejects_grid_above_cap(self):
        assert len(option_grid(MAX_GRID_N)[0]) == MAX_GRID_N * (MAX_GRID_N + 1) // 2
        with pytest.raises(InputError):
            option_grid(MAX_GRID_N + 1)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_uv_round_trip(self, u, v):
        u, v = max(u, v), min(u, v)
        p, q = params_from_uv(u, v)
        assert 0.0 <= p <= 1.0 and 0.0 <= q <= 1.0
        assert abs((1.0 - p) + p * q - u) <= 1e-9  # accept prob on base-1
        assert abs(p * q - v) <= 1e-9  # accept prob on base-0


def brute_pair_min_1d(sa, ea, sb, eb, tol):
    best = None
    for i in range(len(sa)):
        for j in range(len(sb)):
            if abs(sa[i] - sb[j]) <= tol:
                t = ea[i] + eb[j]
                if best is None or t < best:
                    best = t
    return best


class TestPairMin:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_1d_matches_brute_force(self, data):
        n = data.draw(st.integers(2, 30))
        m = data.draw(st.integers(2, 30))
        f = st.floats(0.0, 1.0, allow_nan=False)
        sa = np.array(data.draw(st.lists(f, min_size=n, max_size=n)))
        ea = np.array(data.draw(st.lists(f, min_size=n, max_size=n)))
        sb = np.array(data.draw(st.lists(f, min_size=m, max_size=m)))
        eb = np.array(data.draw(st.lists(f, min_size=m, max_size=m)))
        tol = data.draw(st.floats(0.01, 0.5))
        expected = brute_pair_min_1d(sa, ea, sb, eb, tol)
        (found,) = pair_min_1d(sa[None], ea, sb[None], eb, tol)
        if expected is None:
            assert found is None
        else:
            total, i, j = found
            assert abs(sa[i] - sb[j]) <= tol
            assert_close(total, expected, 1e-12)

    def test_2d_matches_brute_force(self, rng, monkeypatch):
        monkeypatch.setattr(repair, "_PAIR_CHUNK", 7)  # exercise several blocks
        n, m = 40, 35
        ta, fa, tb, fb = (rng.uniform(size=k) for k in (n, n, m, m))
        ea, eb = rng.uniform(size=n), rng.uniform(size=m)
        tol = 0.15
        best = None
        for i, j in itertools.product(range(n), range(m)):
            if abs(ta[i] - tb[j]) <= tol and abs(fa[i] - fb[j]) <= tol:
                t = ea[i] + eb[j]
                best = t if best is None else min(best, t)
        found = pair_min_2d((ta, fa), ea, (tb, fb), eb, tol)
        assert found is not None and best is not None
        assert_close(found[0], best, 1e-12)


class TestBestResponse:
    def test_recovers_optimum_without_corruption(self):
        inst = families.dp_worked(0.1)
        w = best_response(inst.dist, inst.dist, [inst.h_star], "dp", grid_n=41)
        assert_close(w.error_on_original, 0.0, 1e-12)

    def test_gap_within_grid_tolerance(self):
        inst = families.dp_worked(0.1)
        w = best_response(inst.corrupted, inst.dist, [inst.h_star], "dp", grid_n=41)
        assert w.gap_on_corrupted <= 2.0 / 41 + 1e-9

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
