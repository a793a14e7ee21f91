import pytest

import oracles
from fairnoise.classifiers import NOTIONS, BaseClassifier, PQClassifier, as_pq, error, fairness_gap, group_stats
from fairnoise.distributions import Atom, make_distribution
from fairnoise.errors import InputError

from conftest import assert_close


def perfect_instance():
    dist = make_distribution(
        [
            Atom("a1", 1, "A", 0.25),
            Atom("a2", 0, "A", 0.25),
            Atom("b1", 1, "B", 0.25),
            Atom("b2", 0, "B", 0.25),
        ]
    )
    h = BaseClassifier.from_table({"a1": 1, "a2": 0, "b1": 1, "b2": 0})
    return dist, h


class TestBaseClassifier:
    def test_table_predict_and_missing_point(self):
        h = BaseClassifier.from_table({"x": 1})
        assert h.predict("x", "A") == 1
        with pytest.raises(InputError):
            h.predict("y", "A")

    def test_threshold_directions(self):
        above = BaseClassifier.from_threshold(0.5)
        below = BaseClassifier.from_threshold(0.5, direction="below")
        assert above.predict("x", "A", feature=0.7) == 1
        assert below.predict("x", "A", feature=0.7) == 0

    def test_per_group_threshold(self):
        h = BaseClassifier.from_threshold({"A": 0.2, "B": 0.8})
        assert h.predict("x", "A", feature=0.5) == 1
        assert h.predict("x", "B", feature=0.5) == 0
        with pytest.raises(InputError):
            h.predict("x", "C", feature=0.5)

    def test_threshold_requires_feature(self):
        with pytest.raises(InputError):
            BaseClassifier.from_threshold(0.5).predict("x", "A")

    def test_constant(self):
        assert BaseClassifier.from_constant(1).predict("anything", "Z") == 1

    def test_invalid_kinds(self):
        with pytest.raises(InputError):
            BaseClassifier(kind="mystery")
        with pytest.raises(InputError):
            BaseClassifier.from_constant(7)

    @pytest.mark.parametrize("value", (4.0, 2, -1, 0.9, True, False, None, "1"))
    def test_labels_outside_zero_one_are_rejected(self, value):
        with pytest.raises(InputError):
            BaseClassifier.from_table({"x": value})
        with pytest.raises(InputError):
            BaseClassifier.from_constant(value)
        for doc in ({"kind": "table", "table": {"x": value}}, {"kind": "constant", "constant": value}):
            with pytest.raises(InputError):
                BaseClassifier.from_json_dict(doc)

    @pytest.mark.parametrize(
        "doc",
        [
            {"kind": "threshold", "threshold": "0.5"},
            {"kind": "threshold", "threshold": True},
            {"kind": "threshold", "threshold": {"A": "0.5"}},
            {"kind": "bogus", "constant": 1},
        ],
    )
    def test_json_values_are_read_not_converted(self, doc):
        with pytest.raises(InputError):
            BaseClassifier.from_json_dict(doc)

    def test_integral_floats_are_labels(self):
        h = BaseClassifier.from_json_dict({"kind": "table", "table": {"x": 1.0, "y": 0.0}})
        assert (h.predict("x", "A"), h.predict("y", "A")) == (1, 0)
        assert BaseClassifier.from_json_dict({"kind": "constant", "constant": 1.0}).predict("x", "A") == 1

    @pytest.mark.parametrize(
        "h",
        [
            BaseClassifier.from_table({"x": 1, "y": 0}),
            BaseClassifier.from_threshold(0.3, direction="below"),
            BaseClassifier.from_threshold({"A": 0.1}),
            BaseClassifier.from_constant(0),
        ],
    )
    def test_json_round_trip(self, h):
        assert BaseClassifier.from_json_dict(h.to_json_dict()) == h


class TestPQClassifier:
    def test_accept_prob_is_u_or_v(self):
        h = PQClassifier(BaseClassifier.from_table({"x": 1, "y": 0}), {"A": (0.7, 0.1)})
        assert (h.accept_prob("x", "A"), h.accept_prob("y", "A")) == (0.7, 0.1)
        # a group without params behaves as the base
        assert (h.accept_prob("x", "B"), h.accept_prob("y", "B")) == (1.0, 0.0)

    @pytest.mark.parametrize("uv", [(1.2, 0.5), (0.5, -0.1), (float("nan"), 0.0)])
    def test_rejects_out_of_range(self, uv):
        with pytest.raises(InputError):
            PQClassifier(BaseClassifier.from_constant(1), {"A": uv})

    def test_json_round_trip(self):
        h = PQClassifier(BaseClassifier.from_constant(0), {"A": (0.75, 0.25), "B": (0.1, 1.0)})
        assert h.to_json_dict()["params"]["A"] == {"u": 0.75, "v": 0.25}
        assert PQClassifier.from_json_dict(h.to_json_dict()) == h

    @pytest.mark.parametrize("name, value", [("u", "0.5"), ("v", True), ("v", None)])
    def test_json_params_are_read_not_converted(self, name, value):
        doc = PQClassifier(BaseClassifier.from_constant(0), {"A": (0.5, 0.5)}).to_json_dict()
        doc["params"]["A"][name] = value
        with pytest.raises(InputError, match=f"{name} of group 'A'"):
            PQClassifier.from_json_dict(doc)

    def test_as_pq_idempotent(self):
        base = BaseClassifier.from_constant(1)
        assert as_pq(base).base == base
        pq = as_pq(base)
        assert as_pq(pq) is pq


class TestGroupStats:
    def test_perfect_classifier(self):
        dist, h = perfect_instance()
        s = group_stats(h, dist)
        assert error(h, dist) == 0.0
        for g in "AB":
            assert_close(s.rate[g], 0.5)
            assert_close(s.tpr[g], 1.0)
            assert_close(s.fpr[g], 0.0)
            assert_close(s.ppv[g], 1.0)

    def test_randomized_rates(self):
        dist, h = perfect_instance()
        pq = PQClassifier(h, {"A": (0.5, 0.0)})  # halve A's acceptances
        s = group_stats(pq, dist)
        assert_close(s.rate["A"], 0.25)
        assert_close(s.tpr["A"], 0.5)
        assert_close(s.rate["B"], 0.5)
        assert_close(error(pq, dist), 0.125)

    def test_undefined_conditionals_are_none(self):
        dist = make_distribution([Atom("x", 0, "A", 0.5), Atom("y", 1, "B", 0.5)])
        s = group_stats(BaseClassifier.from_constant(0), dist)
        assert s.tpr["A"] is None  # no positives in A
        assert s.fpr["B"] is None  # no negatives in B
        assert s.ppv["A"] is None  # never predicts positive


class TestFairnessGap:
    def test_all_notions_zero_on_perfect(self):
        dist, h = perfect_instance()
        s = group_stats(h, dist)
        for notion in NOTIONS:
            assert fairness_gap(s, notion) == 0.0

    def test_dp_gap_value(self):
        dist, h = perfect_instance()
        s = group_stats(PQClassifier(h, {"A": (0.5, 0.0)}), dist)
        assert_close(fairness_gap(s, "dp"), 0.25)

    def test_undefined_conditional_raises_with_names(self):
        dist = make_distribution([Atom("x", 0, "A", 0.5), Atom("y", 1, "B", 0.5)])
        s = group_stats(BaseClassifier.from_constant(0), dist)
        with pytest.raises(InputError, match="eopp.*'A'"):
            fairness_gap(s, "eopp")

    def test_unknown_notion(self):
        dist, h = perfect_instance()
        for notion in ("karma", "error_parity"):
            with pytest.raises(InputError):
                fairness_gap(group_stats(h, dist), notion)


class TestSampling:
    def test_monte_carlo_matches_accept_prob(self, rng):
        # smoke test: sampled frequency ~ closed-form acceptance probability
        h = PQClassifier(BaseClassifier.from_table({"x": 1, "y": 0}), {"A": (0.82, 0.12)})
        n = 200_000
        for point, label, accepted in (("x", 1, 0.82), ("y", 0, 0.12)):
            freq = oracles.sample_predictions(h, Atom(point, label, "A", 1.0), n, rng) / n
            assert abs(freq - accepted) < 0.01
