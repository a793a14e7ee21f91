import json
import math

import pytest
from hypothesis import given, settings

import oracles
from fairnoise.distributions import Atom, Distribution, make_distribution, mix
from fairnoise.errors import InputError

from conftest import alphas, assert_close, distributions


def simple_dist():
    return make_distribution(
        [
            Atom("a1", 1, "A", 0.25),
            Atom("a2", 0, "A", 0.25),
            Atom("b1", 1, "B", 0.25),
            Atom("b2", 0, "B", 0.25),
        ]
    )


class TestAtom:
    @pytest.mark.parametrize("value", (2, True, False, 0.5, "1", None))
    def test_rejects_bad_label(self, value):
        # True == 1, so a membership test alone let bools through
        with pytest.raises(InputError, match="label must be 0 or 1"):
            Atom("x", value, "A", 0.5)

    def test_rejects_negative_or_nonfinite_mass(self):
        with pytest.raises(InputError):
            Atom("x", 1, "A", -0.1)
        with pytest.raises(InputError):
            Atom("x", 1, "A", math.nan)

    def test_key_order_is_group_point_label(self):
        assert Atom("p", 1, "G", 0.1).key == ("G", "p", 1)


class TestMakeDistribution:
    def test_merges_duplicate_atoms(self):
        d = make_distribution([Atom("x", 1, "A", 0.5), Atom("x", 1, "A", 0.5)])
        assert len(d.atoms) == 1
        assert_close(d.mass("x", 1, "A"), 1.0)

    def test_rejects_mass_far_from_one(self):
        with pytest.raises(InputError):
            make_distribution([Atom("x", 1, "A", 0.5)])

    def test_renormalizes_small_drift(self):
        d = make_distribution([Atom("x", 1, "A", 0.5 + 1e-7), Atom("y", 0, "A", 0.5)])
        assert_close(math.fsum(a.mass for a in d.atoms), 1.0)

    def test_canonical_order(self):
        d = make_distribution(
            [Atom("z", 1, "B", 0.5), Atom("a", 0, "A", 0.25), Atom("a", 1, "A", 0.25)]
        )
        assert [a.key for a in d.atoms] == [("A", "a", 0), ("A", "a", 1), ("B", "z", 1)]

    def test_rejects_empty(self):
        with pytest.raises(InputError):
            make_distribution([])

    def test_rejects_undeclared_group(self):
        with pytest.raises(InputError):
            make_distribution([Atom("x", 1, "C", 1.0)], groups=("A", "B"))

    def test_explicit_groups_may_be_unpopulated(self):
        # contaminations legitimately target a subset of the universe
        d = make_distribution([Atom("x", 1, "B", 1.0)], groups=("A", "B"))
        assert d.group_mass("A") == 0.0


class TestAccessors:
    def test_masses(self):
        d = simple_dist()
        assert_close(d.group_mass("A"), 0.5)
        assert_close(d.positive_mass("B"), 0.25)
        assert d.mass("missing", 1, "A") == 0.0

    def test_support_points(self):
        d = simple_dist()
        assert d.support_points() == [
            ("A", "a1", None),
            ("A", "a2", None),
            ("B", "b1", None),
            ("B", "b2", None),
        ]

    def test_json_round_trip(self):
        d = simple_dist()
        assert Distribution.from_json_dict(json.loads(d.to_json())) == d

    def test_json_bytes_deterministic(self):
        assert simple_dist().to_json() == simple_dist().to_json()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("label", 1.7),
            ("label", True),
            ("label", "1"),
            ("mass", "0.25"),
            ("mass", True),
            ("feature", "2"),
            ("feature", False),
            ("point", 3),
            ("point", None),
            ("group", None),
        ],
    )
    def test_json_values_are_read_not_converted(self, field, value):
        doc = simple_dist().to_json_dict()
        doc["atoms"][0][field] = value
        with pytest.raises(InputError, match=f"atom {field}"):
            Distribution.from_json_dict(doc)

    def test_json_integral_numbers_read_as_labels_and_floats(self):
        doc = {"atoms": [{"point": "x", "label": 1.0, "group": "A", "mass": 1, "feature": 2}]}
        (atom,) = Distribution.from_json_dict(doc).atoms
        assert atom == Atom("x", 1, "A", 1.0, 2.0)
        assert (type(atom.label), type(atom.mass), type(atom.feature)) == (int, float, float)

    def test_json_group_list_holds_strings(self):
        doc = {"atoms": [{"point": "x", "label": 1, "group": "A", "mass": 1.0}], "groups": ["A", 3]}
        with pytest.raises(InputError, match="group must be a string"):
            Distribution.from_json_dict(doc)


class TestMixAndTV:
    def test_mix_masses(self):
        d = simple_dist()
        q = make_distribution([Atom("b1", 1, "B", 1.0)], groups=d.groups)
        m = mix(d, q, 0.1)
        assert_close(m.mass("b1", 1, "B"), 0.9 * 0.25 + 0.1)
        assert_close(math.fsum(a.mass for a in m.atoms), 1.0)

    def test_mix_rejects_bad_alpha(self):
        d = simple_dist()
        with pytest.raises(InputError):
            mix(d, d, 1.5)

    def test_tv_identical_is_zero(self):
        assert oracles.tv_distance(simple_dist(), simple_dist()) == 0.0

    def test_tv_disjoint_is_one(self):
        a = make_distribution([Atom("x", 1, "A", 1.0)])
        b = make_distribution([Atom("y", 0, "A", 1.0)])
        assert_close(oracles.tv_distance(a, b), 1.0)

    @settings(max_examples=60, deadline=None)
    @given(distributions(), distributions(), alphas())
    def test_mixture_stays_within_alpha_tv(self, d, q, alpha):
        # the corruption model's defining property: TV(D, D-tilde) <= alpha
        assert oracles.tv_distance(d, mix(d, q, alpha)) <= alpha + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(distributions(), distributions())
    def test_tv_symmetric_and_bounded(self, d, e):
        t = oracles.tv_distance(d, e)
        assert_close(oracles.tv_distance(e, d), t, 1e-12)
        assert -1e-12 <= t <= 1.0 + 1e-12
