import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairnoise import calibration, families, harness
from fairnoise.calibration import (
    BinnedPredictor,
    calibration_report,
    parity_calibration_attack_certify,
    parity_calibration_check,
    recalibrate_per_group,
    value_shift,
)
from fairnoise.classifiers import GAP_TOL, BaseClassifier
from fairnoise.distributions import Atom, make_distribution, mix
from fairnoise.errors import InputError

import oracles
from conftest import assert_close, calibration_floor
from oracles import l1_error


def two_bin_instance():
    dist = make_distribution(
        [
            Atom("a_hi", 1, "A", 0.30),
            Atom("a_hi", 0, "A", 0.10),
            Atom("a_lo", 0, "A", 0.10),
            Atom("b_hi", 1, "B", 0.20),
            Atom("b_hi", 0, "B", 0.05),
            Atom("b_lo", 0, "B", 0.25),
        ]
    )
    predictor = BinnedPredictor(
        assignment={"a_hi": 1, "a_lo": 0, "b_hi": 1, "b_lo": 0},
        values={0: 0.0, 1: 0.75},
    )
    return dist, predictor


class TestBinnedPredictor:
    def test_lookup_precedence(self):
        h = BinnedPredictor(
            assignment={"x": 0}, values={0: 0.5}, group_values={"A": {0: 0.9}}
        )
        assert h.value("x", "A") == 0.9  # group-specific wins
        assert h.value("x", "B") == 0.5  # shared fallback

    def test_missing_assignment_and_value(self):
        h = BinnedPredictor(assignment={"x": 0}, values={})
        with pytest.raises(InputError):
            h.value("y", "A")
        with pytest.raises(InputError):
            h.value("x", "A")

    def test_rejects_out_of_range_values(self):
        with pytest.raises(InputError):
            BinnedPredictor(assignment={"x": 0}, values={0: 1.5})

    def test_json_dict(self):
        h = BinnedPredictor(
            assignment={"x": 0, "y": 1},
            values={0: 0.25},
            group_values={"A": {1: 0.5}, "B": {1: 0.75}},
        )
        assert h.to_json_dict() == {
            "bins": [{"index": 0, "value": 0.25}, {"index": 1, "values": {"A": 0.5, "B": 0.75}}],
            "assignment": [{"point": "x", "bin": 0}, {"point": "y", "bin": 1}],
        }


class TestCalibrationReport:
    def test_exact_cell_statistics(self):
        dist, predictor = two_bin_instance()
        report = calibration_report(predictor, dist)
        assert_close(report.occupancy[("A", 1)], 0.8)
        assert_close(report.conditional_mean[("A", 1)], 0.75)
        assert_close(report.conditional_mean[("B", 1)], 0.8)
        # A is perfectly calibrated; B's hi bin is off by 0.05
        assert_close(report.max_gap, 0.05)

    def test_cells_with_no_mass_are_skipped(self):
        # mixing at alpha = 0 keeps the contamination's keys at mass 0
        dist, predictor = two_bin_instance()
        q = make_distribution([Atom("z", 1, "A", 1.0)], groups=dist.groups)
        corrupted = mix(dist, q, 0.0)
        assert ("A", "z", 1) in corrupted.mass_by_key and corrupted.mass("z", 1, "A") == 0.0
        h = BinnedPredictor({**predictor.assignment, "z": 2}, {**predictor.values, 2: 0.5})
        assert calibration_report(h, corrupted) == calibration_report(h, mix(dist, dist, 0.0))
        assert ("A", 2) not in calibration_report(h, corrupted).occupancy

    def test_unassigned_point_raises(self):
        dist, _ = two_bin_instance()
        bad = BinnedPredictor(assignment={"a_hi": 0}, values={0: 0.5})
        with pytest.raises(InputError):
            calibration_report(bad, dist)


class TestRecalibration:
    def test_recalibrated_gap_is_zero(self):
        dist, predictor = two_bin_instance()
        q = make_distribution([Atom("b_hi", 0, "B", 1.0)], groups=dist.groups)
        corrupted = mix(dist, q, 0.1)
        repaired = recalibrate_per_group(predictor, corrupted)
        assert calibration_report(repaired, corrupted).max_gap <= 1e-9
        assert repaired.assignment == dict(predictor.assignment)

    def test_empty_cells_keep_prior_value(self):
        dist = make_distribution([Atom("x", 1, "A", 0.5), Atom("y", 0, "B", 0.5)])
        predictor = BinnedPredictor(assignment={"x": 0, "y": 1}, values={0: 1.0, 1: 0.25})
        repaired = recalibrate_per_group(predictor, dist)
        # group A never occupies bin 1; its value there stays at the prior
        assert repaired.bin_value(1, "A") == 0.25

    def test_shift_bounded_by_alpha(self):
        dist, predictor = two_bin_instance()
        # make the base calibrated first so the O(alpha) bound applies
        calibrated = recalibrate_per_group(predictor, dist)
        q = make_distribution([Atom("a_hi", 0, "A", 0.6), Atom("b_lo", 1, "B", 0.4)], groups=dist.groups)
        for alpha in (0.01, 0.05, 0.2):
            corrupted = mix(dist, q, alpha)
            repaired = recalibrate_per_group(calibrated, corrupted)
            assert value_shift(calibrated, repaired, corrupted) <= alpha + 1e-9


class TestErrorsAndShift:
    def test_l1_error(self):
        dist = make_distribution([Atom("x", 1, "A", 0.6), Atom("y", 0, "A", 0.4)])
        h = BinnedPredictor(assignment={"x": 0, "y": 1}, values={0: 0.9, 1: 0.2})
        assert_close(l1_error(h, dist), 0.6 * 0.1 + 0.4 * 0.2)

    def test_value_shift_requires_same_assignment(self):
        dist, predictor = two_bin_instance()
        other = BinnedPredictor(assignment={"a_hi": 0}, values={0: 0.5})
        with pytest.raises(InputError):
            value_shift(predictor, other, dist)


class TestParityCalibrationCheck:
    def test_detects_calibration_and_occupancy(self):
        dist, predictor = two_bin_instance()
        calibrated = recalibrate_per_group(predictor, dist)
        ok, occ_gap = parity_calibration_check(calibrated, dist)
        assert ok
        # occupancy differs: A 0.8/0.2 vs B 0.5/0.5 in the hi bin
        assert_close(occ_gap, 0.3)

    def test_single_group_gap_zero(self):
        dist = make_distribution([Atom("x", 1, "A", 1.0)])
        h = BinnedPredictor(assignment={"x": 0}, values={0: 1.0})
        assert parity_calibration_check(h, dist) == (True, 0.0)


class TestCertifiers:
    def test_duplication_instance_washes_small_group(self):
        inst = families.eodds_duplicate(0.1, 0.09)
        assert_close(inst.corrupted.mass("bP", 1, "B"), inst.corrupted.mass("bP", 0, "B"), 1e-12)
        assert set(inst.h_star.table) == {"aP", "aN", "bP", "bN"}

    def test_predictive_parity_floor(self):
        floor, _, _ = harness.certify_lower_bound("predictive_parity", 0.1, grid_n=41)
        assert floor >= 0.2

    def test_parity_calibration_floor(self):
        floor = calibration_floor(families.eodds_duplicate(0.1, 0.9 * 0.1))
        assert floor >= 0.2

    def test_parity_calibration_without_a_calibrated_predictor(self):
        # no binning of the needle's points has equal occupancy and group
        # means within 2 GAP_TOL in every bin on its corrupted distribution
        with pytest.raises(InputError, match="no predictor"):
            parity_calibration_attack_certify(families.eopp_needle(0.04))

    def test_parity_calibration_floor_takes_the_better_window_end(self):
        # one bin holds both groups, whose corrupted means 1/2 and
        # 1/2 + 1.5 GAP_TOL leave a window of values half GAP_TOL wide;
        # clean positives outweigh negatives, so its top end is best
        d = 0.75 * GAP_TOL
        dist = make_distribution(
            [Atom("a", 1, "A", 0.3), Atom("a", 0, "A", 0.2), Atom("b", 1, "B", 0.3), Atom("b", 0, "B", 0.2)]
        )
        corrupted = make_distribution(
            [Atom("a", 1, "A", 0.25), Atom("a", 0, "A", 0.25), Atom("b", 1, "B", 0.25 + d), Atom("b", 0, "B", 0.25 - d)]
        )
        h_star = BaseClassifier.from_table({"a": 1, "b": 1})
        floor = calibration_floor(families.Instance(dist, corrupted, corrupted, h_star))

        def binned(v):
            return BinnedPredictor(assignment={"a": 0, "b": 0}, values={0: v})

        def accepted(v):
            calibrated, occupancy_gap = parity_calibration_check(binned(v), corrupted)
            return calibrated and occupancy_gap <= GAP_TOL

        means = calibration_report(binned(0.5), corrupted).conditional_mean
        low, high = means[("B", 0)] - GAP_TOL, means[("A", 0)] + GAP_TOL
        assert 0.0 < high - low < GAP_TOL
        ends = [high]  # the top end and the floats just below it
        for _ in range(3):
            ends.append(math.nextafter(ends[-1], 0.0))
        assert any(accepted(v) and l1_error(binned(v), dist) == floor for v in ends)
        midpoint = (low + high) / 2.0
        assert accepted(midpoint) and floor < l1_error(binned(midpoint), dist)

    def test_parity_calibration_skips_points_of_no_mass(self):
        inst = families.eodds_duplicate(0.1, 0.09)
        q = make_distribution([Atom("z", 1, "B", 1.0)], groups=inst.dist.groups)
        floors = [
            calibration_floor(families.Instance(inst.dist, c, mix(inst.corrupted, c, 0.0), inst.h_star))
            for c in (q, inst.corrupted)
        ]
        assert floors == [0.5, 0.5]

    def test_parity_calibration_with_a_massless_group_is_bad_input(self):
        # at alpha = 5e-324 group B's corrupted atoms round to mass 0, so no
        # bin has equal occupancy in both groups
        inst = families.eodds_duplicate(5e-324, 0.9 * 5e-324)
        assert {a.mass for a in inst.corrupted.atoms if a.group == "B"} == {0.0}
        with pytest.raises(InputError, match="no predictor satisfies parity calibration"):
            harness.certify_lower_bound("parity_calibration", 5e-324)

    def test_parity_calibration_refuses_more_points_than_the_cap(self, monkeypatch):
        n = calibration.MAX_CALIBRATION_POINTS + 1
        dist = make_distribution([Atom(f"x{k}", k % 2, "A", 1.0 / n) for k in range(n)])
        h_star = BaseClassifier.from_table({f"x{k}": 1 for k in range(n)})

        def enumerated(*args):
            raise AssertionError("a binning was built")

        monkeypatch.setattr(calibration, "calibration_report", enumerated)
        with pytest.raises(InputError, match=f"{n} points exceed parity calibration's cap of {n - 1}"):
            parity_calibration_attack_certify(families.Instance(dist, dist, dist, h_star))

    def test_certify_validates_alpha(self):
        with pytest.raises(InputError):
            harness.certify_lower_bound("predictive_parity", 0.0)


def floor_or_error(certify, inst):
    try:
        return certify(inst).hex()
    except InputError as exc:
        return str(exc)


#: Seeds of oracles.random_binned_instance on 1 to 8 points (1 + seed % 8).
BINNED_SEEDS = range(48)


@pytest.mark.parametrize("seed", BINNED_SEEDS)
def test_parity_calibration_floor_equals_the_partition_enumeration(seed):
    inst = oracles.random_binned_instance(np.random.default_rng(seed), 1 + seed % 8)
    floor = floor_or_error(calibration_floor, inst)
    assert floor == floor_or_error(oracles.parity_calibration_partitions, inst)


def test_binned_instances_cover_rejections_and_points_only_corrupted():
    instances = [oracles.random_binned_instance(np.random.default_rng(s), 1 + s % 8) for s in BINNED_SEEDS]
    only_corrupted = [{a.point for a in i.corrupted.atoms} - {a.point for a in i.dist.atoms} for i in instances]
    rejected = [floor_or_error(calibration_floor, i).startswith("no predictor") for i in instances]
    assert 0 < sum(rejected) < len(instances) / 2
    assert sum(map(bool, only_corrupted)) > len(instances) / 4


def test_parity_calibration_floor_on_ten_points():
    # the partition enumeration's floor over Bell(10) = 115,975 binnings;
    # one of the ten points is found only in the corrupted distribution
    inst = oracles.random_binned_instance(np.random.default_rng(2), 10)
    assert len({a.point for a in inst.dist.atoms}) == 9
    assert calibration_floor(inst).hex() == "0x1.022e05e8e7f70p-1"
