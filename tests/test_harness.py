import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairnoise import attacks, classifiers, distributions, families, harness, repair
from fairnoise.errors import ContractError, InputError
from fairnoise.repair import best_response

from conftest import assert_close

#: The four sweeps of scripts/run_all_sweeps.py, one per family
SWEEPS = [
    ("dp_worked", "dp", (0.01, 0.02, 0.04, 0.08)),
    ("eopp_needle", "eopp", (0.0025, 0.01, 0.04, 0.09)),
    ("eodds_duplicate", "eodds", (0.05, 0.1, 0.2)),
    ("calibration_drift", "calibration", (0.01, 0.02, 0.04, 0.08)),
]


def config(**overrides):
    doc = {
        "family": "dp_worked",
        "notion": "dp",
        "alphas": (0.01, 0.02, 0.04, 0.08),
        "grid_n": 41,
        "seed": 7,
    }
    doc.update(overrides)
    return harness.ExperimentConfig(**doc)


#: One malformed value per config field; the JSON reader and the
#: constructor both reject each with InputError.
MALFORMED_FIELDS = [
    ("grid_n", 41.9),
    ("grid_n", "41"),
    ("seed", 2.7),
    ("seed", True),
    ("jobs", True),
    ("jobs", None),
    ("alphas", ["0.01", "0.02"]),
    ("alphas", [0.01, False]),
    ("family_params", {"r_b": "0.1"}),
    ("family", 5),
    ("notion", None),
    ("out_dir", 5),
    ("out_dir", ["out"]),
]


class TestExperimentConfig:
    def test_validates_alpha_grid(self):
        with pytest.raises(InputError):
            config(alphas=(0.2, 0.1))
        with pytest.raises(InputError):
            config(alphas=(0.0, 0.5))
        with pytest.raises(InputError):
            config(alphas=())
        with pytest.raises(InputError):
            config(alphas=(0.01, 0.02, 0.02, 0.04))

    def test_rejects_unknown_family(self):
        with pytest.raises(InputError):
            config(family="astrology")
        for family, notion in (
            ("dp_worked", "eodds"),
            ("eopp_needle", "dp"),
            ("eodds_duplicate", "eopp"),
            ("calibration_drift", "dp"),
            ("dp_worked", "astrology"),
        ):
            with pytest.raises(InputError):
                config(family=family, notion=notion)

    @pytest.mark.parametrize("grid_n", (0, 10, 1002, 41.5, "41", True, None))
    def test_rejects_grid_outside_search_bounds(self, grid_n):
        with pytest.raises(InputError, match="grid_n"):
            config(grid_n=grid_n)

    def test_reproduced_fractional_jobs_and_string_seed(self):
        with pytest.raises(InputError):
            harness.ExperimentConfig(
                family="dp_worked", notion="dp", alphas=(0.01, 0.02, 0.04), grid_n=11, jobs=2.5, seed="x"
            )

    def test_integral_float_jobs_and_seed_read_as_integers(self):
        built = config(jobs=2.0, seed=7.0)
        assert built == config(jobs=2) and type(built.jobs) is int and type(built.seed) is int

    def test_integral_float_grid_reads_as_integer(self):
        built = config(grid_n=41.0)
        assert built == config() and type(built.grid_n) is int
        assert built.sha256() == config().sha256()

    def test_rejects_family_params_the_family_does_not_take(self):
        assert config(family="eodds_duplicate", notion="eodds", family_params={"r_b": 0.1})
        with pytest.raises(InputError, match="takes no family_params"):
            config(family_params={"r_b": 0.1})
        with pytest.raises(InputError, match="takes no family_params"):
            config(family="eodds_duplicate", notion="eodds", family_params={"x": 1.0})

    @pytest.mark.parametrize("field, value", MALFORMED_FIELDS)
    def test_from_json_dict_rejects_rather_than_converts(self, field, value):
        doc = {**config(family="eodds_duplicate", notion="eodds").to_json_dict(), field: value}
        with pytest.raises(InputError):
            harness.ExperimentConfig.from_json_dict(doc)

    @pytest.mark.parametrize("field, value", MALFORMED_FIELDS)
    def test_constructor_rejects_rather_than_converts(self, field, value):
        with pytest.raises(InputError):
            config(**{"family": "eodds_duplicate", "notion": "eodds", field: value})

    def test_from_json_dict_reads_integral_floats_as_integers(self):
        doc = {**config().to_json_dict(), "grid_n": 41.0, "seed": 7.0, "jobs": 1.0}
        restored = harness.ExperimentConfig.from_json_dict(doc)
        assert restored == config()
        assert type(restored.grid_n) is type(restored.seed) is type(restored.jobs) is int

    def test_json_round_trip_and_hash(self):
        c = config()
        restored = harness.ExperimentConfig.from_json_dict(c.to_json_dict())
        assert restored == c
        assert restored.sha256() == c.sha256()
        assert restored.sha256() != config(seed=8).sha256()
        with_out = config(out_dir="out/dp")
        assert harness.ExperimentConfig.from_json_dict(with_out.to_json_dict()) == with_out

    def test_hash_is_hashlibs_sha256_with_or_without_a_builtin_module(self, monkeypatch):
        import hashlib

        # every family param off its default; only eodds_duplicate takes one
        configs = [
            config(family=family, notion=notion, family_params={k: 0.5 * v for k, v in defaults.items()},
                   seed=11, jobs=3, out_dir=f"out/{family}")
            for family, (notion, _, defaults) in harness.SWEEP_FAMILIES.items()
        ]
        expected = [
            hashlib.sha256(json.dumps(c.to_json_dict(), sort_keys=True).encode()).hexdigest() for c in configs
        ]
        assert [c.sha256() for c in configs] == expected
        monkeypatch.setitem(sys.modules, "_sha256", None)
        monkeypatch.setitem(sys.modules, "_sha2", None)
        assert [c.sha256() for c in configs] == expected


class TestFitLoglog:
    def test_linear_exact(self):
        slope, intercept, r2 = harness.fit_loglog([(a, a) for a in (0.01, 0.02, 0.04, 0.08)])
        assert_close(slope, 1.0, 1e-12)
        assert_close(r2, 1.0, 1e-12)

    def test_sqrt_exact(self):
        slope, _, r2 = harness.fit_loglog(
            [(a, math.sqrt(a)) for a in (0.01, 0.02, 0.04, 0.08)]
        )
        assert_close(slope, 0.5, 1e-12)
        assert_close(r2, 1.0, 1e-12)

    def test_constant_exact(self):
        slope, _, r2 = harness.fit_loglog([(a, 0.45) for a in (0.05, 0.1, 0.2)])
        assert_close(slope, 0.0, 1e-12)
        assert r2 == 1.0  # zero total variance convention

    def test_excludes_nonpositive_with_warning(self):
        with pytest.warns(UserWarning, match="non-positive"):
            slope, _, _ = harness.fit_loglog([(0.01, 0.0), (0.02, 0.02), (0.04, 0.04), (0.08, 0.08)])
        assert_close(slope, 1.0, 1e-12)

    def test_too_few_points_errors(self):
        with pytest.raises(InputError):
            harness.fit_loglog([(0.1, 0.1), (0.2, 0.2)])

    @pytest.mark.parametrize("alpha", [0.0, -0.01, math.nan, math.inf])
    def test_alpha_not_finite_and_positive_is_bad_input(self, alpha):
        with pytest.raises(InputError, match="alpha"):
            harness.fit_loglog([(alpha, 0.01), (0.02, 0.02), (0.04, 0.04)])

    def test_points_at_one_alpha_are_bad_input(self):
        # no slope is determined: not a fit with R^2 = 0, nor a division by zero
        with pytest.raises(InputError, match="distinct alphas"):
            harness.fit_loglog([(0.1, 0.1), (0.1, 0.2), (0.1, 0.4)])

    def test_infinite_beta_is_bad_input(self):
        with pytest.raises(InputError, match="beta"):
            harness.fit_loglog([(0.01, math.inf), (0.02, 0.02), (0.04, 0.04), (0.08, 0.08)])

    def test_nan_beta_is_bad_input_not_a_dropped_point(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="beta"):
                harness.fit_loglog([(0.01, math.nan), (0.02, 0.02), (0.04, 0.04), (0.08, 0.08)])


class TestVerdicts:
    @pytest.mark.parametrize(
        "slope,betas,expected",
        [
            (1.0, [0.1], "linear"),
            (0.5, [0.1], "sqrt"),
            (0.02, [0.4, 0.45], "constant"),
            (0.02, [1e-6], "unclassified"),  # flat but not bounded away from 0
            (0.7, [0.1], "unclassified"),
        ],
    )
    def test_bands(self, slope, betas, expected):
        assert harness.regime_verdict(slope, betas) == expected


class TestSweeps:
    def test_dp_family_is_linear(self):
        report = harness.run_sweep(config())
        assert report.verdict == "linear"
        assert report.r_squared >= 0.95
        assert all(p.beta >= -1e-9 for p in report.points)

    def test_needle_family_is_sqrt(self):
        report = harness.run_sweep(
            config(family="eopp_needle", notion="eopp", alphas=(0.0025, 0.01, 0.04, 0.09))
        )
        assert report.verdict == "sqrt"
        assert report.r_squared >= 0.95
        # the measured EOpp constant: beta / sqrt(alpha) is about one half
        assert 0.3 <= report.beta_over_sqrt_alpha_max <= 0.7

    def test_duplication_family_is_constant(self):
        report = harness.run_sweep(
            config(family="eodds_duplicate", notion="eodds", alphas=(0.05, 0.1, 0.2))
        )
        assert report.verdict == "constant"
        assert abs(report.slope) <= 0.1
        assert min(p.beta for p in report.points) >= 0.4

    def test_calibration_family_is_linear_with_shift_alpha(self):
        report = harness.run_sweep(
            config(family="calibration_drift", notion="calibration")
        )
        assert report.verdict == "linear"
        for p in report.points:
            assert_close(p.beta, p.alpha, 1e-12)

    def test_parallel_matches_serial(self):
        serial = harness.run_sweep(config(jobs=1))
        parallel = harness.run_sweep(config(jobs=3))
        assert [p.to_json_dict() for p in serial.points] == [
            p.to_json_dict() for p in parallel.points
        ]
        assert (serial.slope, serial.verdict) == (parallel.slope, parallel.verdict)

    def test_sweeps_never_call_lapack_or_the_array_table_builders(self, monkeypatch):
        # the fit is closed form and the active-set tables are built in Python
        def refuse(*args, **kwargs):
            raise AssertionError("a sweep called a numpy routine it should not need")

        for module, name in ((np, "polyfit"), (np.linalg, "lstsq"), (np, "einsum"), (np, "cumsum")):
            monkeypatch.setattr(module, name, refuse)
        repair._active_sets.cache_clear()
        for family, notion, alphas in SWEEPS:
            assert harness.run_sweep(config(family=family, notion=notion, alphas=alphas)).verdict != "unclassified"

    def test_sweep_starts_no_thread(self, monkeypatch):
        def no_thread(self):
            raise AssertionError("a sweep started a thread")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        assert len(harness.run_sweep(config(jobs=3)).points) == 4


class TestCertify:
    def test_eopp_passes_at_acceptance_points(self):
        floor, claimed, ok = harness.certify_lower_bound("eopp", 0.04, grid_n=201)
        assert ok and floor >= 0.09 and abs(claimed - 0.1) < 1e-12

    def test_eopp_false_claim_fails(self):
        # the exact floor lies below the claimed sqrt(alpha)/2 = 0.136931;
        # the grid's slack of 2 / grid_n used to pass it with floor 0.131628
        floor, claimed, ok = harness.certify_lower_bound("eopp", 0.075)
        assert not ok
        assert abs(floor - 0.13502969567428894) <= 1e-12 and floor < claimed

    @pytest.mark.parametrize("alpha", (0.04, 0.01))
    def test_eopp_floor_equals_the_claim(self, alpha):
        # the optimum accepts all of group B and errs exactly on its negative
        # mass, which is bit-equal to sqrt(alpha)/2, so no slack is needed
        floor, claimed, ok = harness.certify_lower_bound("eopp", alpha)
        assert ok and floor == claimed == math.sqrt(alpha) / 2.0

    def test_eopp_floor_vanishes_with_budget(self):
        floor, _, _ = harness.certify_lower_bound("eopp", 1e-4, grid_n=201)
        assert floor <= 0.02  # control: the bound vanishes as alpha -> 0

    def test_predictive_parity(self):
        floor, claimed, ok = harness.certify_lower_bound("predictive_parity", 0.1, grid_n=101)
        assert ok and floor >= 0.2 and claimed == 0.2

    @pytest.mark.parametrize("alpha", (0.05, 0.1, 0.2))
    def test_predictive_parity_floor_is_the_closed_form(self, alpha):
        floor, _, ok = harness.certify_lower_bound("predictive_parity", alpha)
        assert ok and abs(floor - (1.0 - 0.9 * alpha) / 2.0) <= 1e-12

    @pytest.mark.parametrize("notion, floor", (("predictive_parity", 0.455), ("parity_calibration", 0.5)))
    def test_claim_just_above_an_exact_floor_fails(self, monkeypatch, notion, floor):
        # a claim 0.001 above the floor lies inside the slack of 2 / 201
        # that the grid-era comparison allowed, which passed it
        instance, _ = harness._CERTIFY[notion]
        monkeypatch.setitem(harness._CERTIFY, notion, (instance, lambda a: floor + 0.001))
        found, claimed, ok = harness.certify_lower_bound(notion, 0.1, grid_n=201)
        assert abs(found - floor) <= 1e-12 and not ok

    def test_parity_calibration(self):
        floor, claimed, ok = harness.certify_lower_bound("parity_calibration", 0.1)
        assert ok and floor >= 0.2

    def test_parity_calibration_stays_small_in_memory(self):
        # the floor values the 15 subsets of the 4 points one at a time; a
        # dense array over all 11^4 value-grid assignments peaked at 11.7 MB
        tracemalloc.start()
        try:
            harness.certify_lower_bound("parity_calibration", 0.1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_certify_imports_neither_fractions_nor_decimal(self):
        # the floors are proved in ints; importing fractions pulls in decimal,
        # which costs a fresh process milliseconds. hashlib loads OpenSSL,
        # about 3.5 MB resident, which no certificate needs. No certificate
        # calls a numpy routine either, so the certify calls map no more of
        # numpy's code: file-backed resident memory (RssFile, where the
        # kernel reports it) grows by less than 0.3 MB, where a float row
        # per floor grew it by 0.88 MB
        code = (
            "import sys\n"
            "from fairnoise import harness\n"
            "def rss_file():\n"
            "    with open('/proc/self/status') as f:\n"
            "        return next((int(l.split()[1]) for l in f if l.startswith('RssFile:')), None)\n"
            "before = rss_file()\n"
            "for notion in harness.CERT_NOTIONS:\n"
            "    harness.certify_lower_bound(notion, 0.1)\n"
            "print(sorted({'fractions', 'decimal'} & set(sys.modules)))\n"
            "harness.minimax_demo(0.1, gamma=0.1)\n"
            "print(sorted({'fractions', 'decimal', 'hashlib', '_hashlib'} & set(sys.modules)))\n"
            "print(None if before is None else rss_file() - before)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(harness.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        *modules, grown_kb = out.stdout.splitlines()
        assert modules == ["[]", "[]"]
        if grown_kb == "None":
            pytest.skip("/proc/self/status reports no RssFile")
        assert int(grown_kb) < 300

    def test_parity_calibration_compares_the_exact_floor(self, monkeypatch):
        # a quarter of an ulp below the claim 0.2: the floor rounds to 0.2,
        # yet falls short of the claim
        p, q = (0.2).as_integer_ratio()
        monkeypatch.setattr(harness, "parity_calibration_attack_certify", lambda inst: (4 * p - 1, 4 * q))
        assert harness.certify_lower_bound("parity_calibration", 0.1) == (0.2, 0.2, False)

    def test_unknown_notion(self):
        with pytest.raises(InputError):
            harness.certify_lower_bound("dp", 0.1)

    @pytest.mark.parametrize("notion", harness.CERT_NOTIONS)
    @pytest.mark.parametrize("grid_n", (1, 10, 1002))
    def test_rejects_grid_outside_search_bounds(self, notion, grid_n):
        # no certifier reads grid_n, but the entry point still checks it
        with pytest.raises(InputError, match="grid_n"):
            harness.certify_lower_bound(notion, 0.1, grid_n=grid_n)


def _duplication_response(grid_n):
    inst = families.eodds_duplicate(0.1, 0.09)
    return best_response(inst.corrupted, inst.dist, [inst.h_star], "eodds", grid_n=grid_n)


#: Entry points that take a grid_n; each reads it through repair.grid_size.
GRID_CALLS = {
    "best_response": _duplication_response,
    "certify_lower_bound": lambda n: harness.certify_lower_bound("eodds", 0.1, grid_n=n),
    "minimax_demo": lambda n: harness.minimax_demo(0.1, grid_n=n),
}


class TestGridReader:
    @pytest.mark.parametrize("call", GRID_CALLS)
    @pytest.mark.parametrize("grid_n", (41.5, "41", True, None))
    def test_non_integer_grid_is_bad_input(self, call, grid_n):
        with pytest.raises(InputError, match="grid_n"):
            GRID_CALLS[call](grid_n)

    @pytest.mark.parametrize("call", GRID_CALLS)
    def test_integral_float_grid_reads_as_integer(self, call):
        assert GRID_CALLS[call](41.0) == GRID_CALLS[call](41)


class TestMinimax:
    def test_attack_drives_worst_group_to_half(self):
        report = harness.minimax_demo(0.1, grid_n=101)
        assert report.max_group_error >= 0.45
        assert_close(report.opt_clean, 0.0, 1e-12)
        assert report.max_group_error >= max(report.epsilon.values()) - 1e-12

    def test_gamma_infeasible_under_attack(self):
        report = harness.minimax_demo(0.1, gamma=0.1, grid_n=101)
        assert report.gamma_feasible is False

    def test_no_attack_control(self):
        report = harness.minimax_demo(0.0, grid_n=101)
        assert_close(report.max_group_error, report.opt_clean, 1e-12)

    @pytest.mark.parametrize("alpha", [0.0, 0.05, 0.1, 0.3])
    def test_vertices_give_the_bits_of_the_array_expression(self, alpha):
        # the three vertices (0, 0), (1, 0) and (1, 1) scored as one numpy array per group
        if alpha > 0.0:
            inst = families.eodds_duplicate(alpha, 0.9 * alpha)
            dist, h, corrupted = inst.dist, inst.h_star, inst.corrupted
        else:
            dist, h = families.balanced_instance(0.1)
            corrupted = dist
        uu, vv = np.array([0.0, 1.0, 1.0]), np.array([0.0, 0.0, 1.0])
        dirty, clean = classifiers.mass_table(h, corrupted), classifiers.mass_table(h, dist)
        terms = classifiers.error_terms
        epsilon = {g: float((sum(terms(dirty[g], uu, vv)) / sum(dirty[g])).min()) for g in dist.groups}
        expected = {
            "alpha": alpha,
            "epsilon": dict(sorted(epsilon.items())),
            "max_group_error": max(epsilon.values()),
            "opt_clean": math.fsum(float(sum(terms(clean[g], uu, vv)).min()) for g in dist.groups),
            "gamma": None,
            "gamma_feasible": None,
        }
        # repr tells the sign of a zero and a numpy scalar from a float
        assert repr(harness.minimax_demo(alpha).to_json_dict()) == repr(expected)


_BALANCED, _PERFECT = families.balanced_instance(0.1)


@pytest.mark.parametrize(
    "call",
    [
        lambda: harness.certify_lower_bound("eopp", "0.1"),
        lambda: harness.certify_lower_bound(5, 0.1),
        lambda: harness.minimax_demo("0.1"),
        lambda: families.dp_worked("0.1"),
        lambda: families.eopp_needle(None),
        lambda: families.eodds_duplicate(0.1, "0.09"),
        lambda: families.calibration_drift("0.1"),
        lambda: distributions.mix(_BALANCED, _BALANCED, "0.1"),
        lambda: attacks.duplicate_flip_attack(_BALANCED, "B", "0.2"),
        lambda: attacks.tpr_shift_attack(_BALANCED, _PERFECT, "B", "0.1", "raise"),
    ],
    ids=[
        "certify-alpha", "certify-notion", "minimax-alpha", "dp_worked", "eopp_needle",
        "eodds_duplicate-r_b", "calibration_drift", "mix", "duplicate_flip", "tpr_shift",
    ],
)
def test_entry_points_reject_non_numeric_input(call):
    # a non-number must end as InputError (exit 2), not as a TypeError from a comparison
    with pytest.raises(InputError):
        call()


class TestReports:
    def test_csv_shape(self):
        report = harness.run_sweep(config())
        csv = harness.report_csv(report)
        lines = csv.strip().split("\n")
        assert lines[0] == "alpha,notion,gap_corrupted,beta,excess_oracle,verdict"
        assert len(lines) == 1 + len(report.points)
        assert lines[1].startswith("0.01,dp,")

    def test_json_round_trip(self):
        report = harness.run_sweep(config())
        doc = json.loads(harness.report_json(report))
        restored = harness.report_from_json_dict(doc)
        assert restored == report
        assert harness.report_json(restored) == harness.report_json(report)
        assert doc["config_sha256"] == report.config.sha256()

    @pytest.mark.parametrize(
        "path, value",
        [
            (("points", 0, "beta"), "0.5"),
            (("points", 0, "alpha"), True),
            (("points", 0, "gap_corrupted"), None),
            (("points", 0, "notion"), 5),
            (("fit", "slope"), "1.0"),
            (("fit", "r_squared"), False),
            (("verdict",), None),
            (("beta_over_sqrt_alpha_max",), "0.7"),
        ],
    )
    def test_report_reader_rejects_rather_than_converts(self, path, value):
        doc = json.loads(harness.report_json(harness.run_sweep(config())))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        with pytest.raises(InputError):
            harness.report_from_json_dict(doc)

    def test_write_report_and_formats(self, tmp_path):
        report = harness.run_sweep(config())
        written = harness.write_report(report, tmp_path, ("json", "csv", "svg"))
        names = {p.name for p in written}
        assert names == {"report.json", "report.csv", "sweep.svg"}
        svg = (tmp_path / "sweep.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg
        with pytest.raises(InputError):
            harness.write_report(report, tmp_path, ("pdf",))

    def test_unknown_format_writes_nothing(self, tmp_path):
        # every format is checked first: a known one before it leaves neither
        # its file nor the directory behind
        out = tmp_path / "out"
        with pytest.raises(InputError, match="'xml'"):
            harness.write_report(harness.run_sweep(config()), out, ("json", "xml"))
        assert not out.exists()

    def test_byte_identical_across_runs(self, tmp_path):
        a = harness.run_sweep(config())
        b = harness.run_sweep(config())
        assert harness.report_json(a) == harness.report_json(b)
        assert harness.report_csv(a) == harness.report_csv(b)
        assert harness.report_svg(a) == harness.report_svg(b)


class TestOneStackPerSweep:
    """An LP family's sweep reads each distribution once and solves every
    alpha as a row of one stack, with the bits of one best response per
    alpha."""

    @pytest.mark.parametrize(
        "family, notion, alphas",
        [
            ("dp_worked", "dp", (0.01, 0.03, 0.05, 0.08)),
            ("eopp_needle", "eopp", (0.0025, 0.01, 0.04, 0.09)),
            ("eodds_duplicate", "eodds", (0.05, 0.1, 0.2)),
        ],
    )
    def test_excess_oracle_is_one_best_response_per_alpha(self, family, notion, alphas):
        report = harness.run_sweep(config(family=family, notion=notion, alphas=alphas))
        build = getattr(families, family)
        for point, alpha in zip(report.points, alphas, strict=True):
            inst = build(alpha) if family != "eodds_duplicate" else build(alpha, 0.045)
            reference = classifiers.error(inst.h_star, inst.dist)
            oracle = best_response(inst.corrupted, inst.dist, [inst.h_star], notion, reference_error=reference)
            assert point.excess_oracle.hex() == oracle.excess_error_on_original.hex()

    @pytest.mark.parametrize(
        "family, notion", [("dp_worked", "dp"), ("eopp_needle", "eopp"), ("eodds_duplicate", "eodds")]
    )
    def test_each_point_builds_two_mass_tables_and_the_sweep_one_stack(self, monkeypatch, family, notion):
        tables, stacks = [], []

        def counted_table(h, dist):
            tables.append(dist)
            return mass_table(h, dist)

        def counted_stack(eq, *args):
            stacks.append(len(eq))
            return lp_vertices(eq, *args)

        mass_table, lp_vertices = classifiers.mass_table, repair._lp_vertices
        for module in (classifiers, repair, harness):
            monkeypatch.setattr(module, "mass_table", counted_table)
        monkeypatch.setattr(repair, "_lp_vertices", counted_stack)
        alphas = (0.05, 0.07, 0.1, 0.2)
        harness.run_sweep(config(family=family, notion=notion, alphas=alphas))
        assert len(tables) == 2 * len(alphas)
        assert stacks == [len(alphas)]

    def test_a_first_alpha_below_the_budget_raises_as_one_point_at_a_time(self):
        # the message a sweep that builds its points one by one raises
        with pytest.raises(InputError) as found:
            harness.run_sweep(config(family="eodds_duplicate", notion="eodds", alphas=(0.01, 0.02, 0.1)))
        expected = "corruption budget alpha=0.01 insufficient for duplicate_flip on 'B'; need alpha >= 0.043062"
        assert str(found.value) == expected


#: JSON documents as reports hold them: dicts with string keys, lists and
#: tuples, around numbers of every kind json writes, strings and null.
JSON_DOCUMENTS = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.floats().map(np.float64)
    | st.sampled_from([math.inf, -math.inf, math.nan, -0.0])
    | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(JSON_DOCUMENTS)
def test_renderer_writes_what_json_writes(doc):
    assert harness._render(doc) == json.dumps(doc, sort_keys=True, indent=2)


def test_renderer_on_the_corners():
    doc = {"é": ["ü", (), {}, [], -0.0, np.float64(-math.inf), 10**40, True, None], "": {"a": {"b": [math.nan]}}}
    assert harness._render(doc) == json.dumps(doc, sort_keys=True, indent=2)
