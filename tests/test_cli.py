import copy
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fairnoise import families, harness
from fairnoise.cli import _FLAGS, main


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture
def sweep_config(tmp_path):
    return write_config(
        tmp_path,
        {
            "family": "dp_worked",
            "notion": "dp",
            "alphas": [0.01, 0.02, 0.04, 0.08],
            "grid_n": 41,
            "seed": 7,
        },
    )


class TestRun:
    def test_happy_path(self, tmp_path, sweep_config, capsys):
        out = tmp_path / "out"
        code = main(["run", "--config", str(sweep_config), "--out", str(out)])
        assert code == 0
        assert (out / "report.json").exists()
        assert (out / "report.csv").exists()
        assert "verdict=linear" in capsys.readouterr().out

    def test_flag_overrides_config(self, tmp_path, sweep_config):
        out = tmp_path / "out"
        code = main(
            ["run", "--config", str(sweep_config), "--out", str(out),
             "--alpha", "0.05", "--alpha", "0.1", "--alpha", "0.2",
             "--format", "json"]
        )
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["config"]["alphas"] == [0.05, 0.1, 0.2]
        assert not (out / "report.csv").exists()

    def test_seed_determines_bytes(self, tmp_path, sweep_config):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["run", "--config", str(sweep_config), "--out", str(out1)]) == 0
        assert main(["run", "--config", str(sweep_config), "--out", str(out2)]) == 0
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
        assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()

    def test_missing_config(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2

    def test_malformed_config(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["run", "--config", str(bad)]) == 2

    @pytest.mark.parametrize("flag", ("--grid", "--jobs"))
    def test_zero_flag_is_bad_input(self, tmp_path, sweep_config, flag):
        assert main(["run", "--config", str(sweep_config), "--out", str(tmp_path), flag, "0"]) == 2

    def test_fnl_out_env(self, tmp_path, sweep_config, monkeypatch):
        monkeypatch.setenv("FNL_OUT", str(tmp_path / "envout"))
        assert main(["run", "--config", str(sweep_config)]) == 0
        assert (tmp_path / "envout" / "report.json").exists()


class TestAttack:
    def test_duplicate_flip_emits_files(self, tmp_path):
        inst = families.eodds_duplicate(0.1, r_b=0.09)
        cfg = write_config(
            tmp_path,
            {"kind": "duplicate_flip", "alpha": 0.1, "target_group": "B",
             "dist": inst.dist.to_json_dict()},
        )
        out = tmp_path / "out"
        assert main(["attack", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "contamination.json").exists()
        assert (out / "corrupted.json").exists()

    def test_unknown_kind(self, tmp_path):
        inst = families.dp_worked(0.1)
        cfg = write_config(tmp_path, {"kind": "meteor", "dist": inst.dist.to_json_dict()})
        assert main(["attack", "--config", str(cfg)]) == 2

    def test_needle_needs_no_dist(self, tmp_path):
        # the needle attack builds its own instance
        cfg = write_config(tmp_path, {"kind": "needle_eopp", "alpha": 0.04})
        out = tmp_path / "out"
        assert main(["attack", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "corrupted.json").exists()


class TestRepair:
    def test_emits_witness(self, tmp_path, capsys):
        inst = families.dp_worked(0.1)
        cfg = write_config(
            tmp_path,
            {"notion": "dp", "alpha": 0.1,
             "dist": inst.dist.to_json_dict(),
             "corrupted": inst.corrupted.to_json_dict(),
             "h_star": inst.h_star.to_json_dict()},
        )
        out = tmp_path / "out"
        assert main(["repair", "--config", str(cfg), "--out", str(out)]) == 0
        doc = json.loads((out / "witness.json").read_text())
        assert doc["certification"]["gap"] <= 1e-9

    def test_unfair_base_is_bad_input(self, tmp_path, capsys):
        inst = families.dp_worked(0.1)
        cfg = write_config(
            tmp_path,
            {"notion": "dp",
             "dist": inst.dist.to_json_dict(),
             "corrupted": inst.corrupted.to_json_dict(),
             "h_star": {"kind": "table", "table": {"a1": 1, "a2": 1, "b1": 1, "b2": 0}}},
        )
        assert main(["repair", "--config", str(cfg)]) == 2
        assert "DP gap" in capsys.readouterr().err

    def test_declared_group_without_mass_is_bad_input(self, tmp_path, capsys):
        inst = families.dp_worked(0.1)
        dist = dict(inst.dist.to_json_dict(), groups=["A", "B", "C"])
        cfg = write_config(
            tmp_path,
            {"notion": "dp", "dist": dist,
             "corrupted": inst.corrupted.to_json_dict(),
             "h_star": inst.h_star.to_json_dict()},
        )
        assert main(["repair", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "group 'C' has no mass" in capsys.readouterr().err

    def test_mismatched_group_lists_are_bad_input(self, tmp_path, capsys):
        dist, h = families.balanced_instance(0.3)
        other = {"atoms": [{"point": p, "label": y, "group": g, "mass": m}
                           for p, y, g, m in (("aP", 1, "A", 0.35), ("aN", 0, "A", 0.35),
                                              ("cP", 1, "C", 0.15), ("cN", 0, "C", 0.15))]}
        table = dict(h.table, cP=1, cN=0)
        cfg = write_config(
            tmp_path,
            {"notion": "dp", "dist": dist.to_json_dict(), "corrupted": other,
             "h_star": {"kind": "table", "table": table}},
        )
        assert main(["repair", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "error: the corrupted distribution's groups ['A', 'C'] differ from the clean one's ['A', 'B']\n"
        )

    @pytest.mark.parametrize("alpha", ({"x": [1]}, 1.5, -0.1, "nan"))
    def test_alpha_outside_unit_interval_is_bad_input(self, tmp_path, alpha):
        inst = families.dp_worked(0.1)
        cfg = write_config(
            tmp_path,
            {"notion": "dp", "alpha": alpha,
             "dist": inst.dist.to_json_dict(),
             "corrupted": inst.corrupted.to_json_dict(),
             "h_star": inst.h_star.to_json_dict()},
        )
        out = tmp_path / "out"
        assert main(["repair", "--config", str(cfg), "--out", str(out)]) == 2
        assert not (out / "witness.json").exists()


class TestCertify:
    def test_pass_exit_zero(self, capsys):
        code = main(["certify", "--notion", "eopp", "--alpha", "0.04"])
        assert code == 0
        out = capsys.readouterr().out
        assert "pass=True" in out and "floor=" in out and "claimed=" in out

    def test_false_claim_exits_one(self, capsys):
        assert main(["certify", "--notion", "eopp", "--alpha", "0.075"]) == 1
        assert "floor=0.135030 claimed=0.136931 pass=False" in capsys.readouterr().out

    def test_eopp_claim_holds_at_a_tiny_alpha(self, capsys):
        assert main(["certify", "--notion", "eopp", "--alpha", "1e-30"]) == 0
        assert "pass=True" in capsys.readouterr().out

    def test_parity_calibration_with_a_massless_group_exits_two(self, capsys):
        # at alpha = 5e-324 group B's corrupted atoms round to mass 0
        assert main(["certify", "--notion", "parity_calibration", "--alpha", "5e-324"]) == 2
        assert "no predictor satisfies parity calibration" in capsys.readouterr().err

    def test_fail_exit_one(self, monkeypatch):
        # a failed certification, simulated, pins the exit-code contract
        import fairnoise.cli as cli_mod

        monkeypatch.setattr(
            cli_mod.harness, "certify_lower_bound", lambda *a, **k: (0.01, 0.1, False)
        )
        assert main(["certify", "--notion", "eopp", "--alpha", "0.04"]) == 1

    def test_never_loads_openssl(self):
        # hashlib loads OpenSSL's libcrypto, about 3.5 MB resident; nothing
        # in the package needs it where a builtin SHA-256 module exists
        code = (
            "import contextlib, io, sys\n"
            "from fairnoise import cli, harness\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    for notion in harness.CERT_NOTIONS:\n"
            "        assert cli.main(['certify', '--notion', notion, '--alpha', '0.04']) == 0\n"
            "    assert cli.main(['minimax', '--alpha', '0.1']) == 0\n"
            "print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(harness.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        assert out.stdout == "[]\n"

    def test_requires_flags(self):
        assert main(["certify", "--notion", "eopp"]) == 2

    def test_help_states_where_the_eopp_claim_is_exact(self, capsys):
        with pytest.raises(SystemExit) as done:
            main(["certify", "--help"])
        assert done.value.code == 0
        assert "alpha <= 7 - 4 sqrt(3) (about 0.0718)" in " ".join(capsys.readouterr().out.split())


class TestMinimaxAndReport:
    def test_minimax_prints_json(self, capsys):
        assert main(["minimax", "--alpha", "0.1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["max_group_error"] >= 0.45

    @pytest.mark.parametrize(
        "alpha, gamma, expected",
        [
            ("0.1", None, '{"alpha": 0.1, "epsilon": {"A": 0.0, "B": 0.5}, '
             '"gamma": null, "gamma_feasible": null, "max_group_error": 0.5, '
             '"opt_clean": 0.0}\n'),
            ("0", None, '{"alpha": 0.0, "epsilon": {"A": 0.0, "B": 0.0}, "gamma": null, '
             '"gamma_feasible": null, "max_group_error": 0.0, "opt_clean": 0.0}\n'),
            ("0.1", 0.1, '{"alpha": 0.1, "epsilon": {"A": 0.0, "B": 0.5}, '
             '"gamma": 0.1, "gamma_feasible": false, "max_group_error": 0.5, '
             '"opt_clean": 0.0}\n'),
        ],
    )
    def test_minimax_stdout_is_pinned(self, tmp_path, capsys, alpha, gamma, expected):
        argv = ["minimax", "--alpha", alpha]
        if gamma is not None:
            argv += ["--config", str(write_config(tmp_path, {"gamma": gamma}))]
        assert main(argv) == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("gamma", [True, False, "0.4", [0.4], float("nan"), -0.1, 1.5])
    def test_minimax_rejects_bad_gamma(self, tmp_path, gamma):
        config = write_config(tmp_path, {"gamma": gamma})
        assert main(["minimax", "--alpha", "0.1", "--config", str(config)]) == 2

    def test_minimax_gamma_below_washed_out_error_is_infeasible(self, tmp_path, capsys):
        config = write_config(tmp_path, {"gamma": 0.4})
        assert main(["minimax", "--alpha", "0.1", "--config", str(config)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["gamma"] == 0.4 and doc["gamma_feasible"] is False

    def test_report_rerenders(self, tmp_path, sweep_config):
        out = tmp_path / "out"
        formats = ["--format", "json", "--format", "csv", "--format", "svg"]
        assert main(["run", "--config", str(sweep_config), "--out", str(out), *formats]) == 0
        out2 = tmp_path / "out2"
        code = main(["report", "--config", str(out / "report.json"), "--out", str(out2), *formats])
        assert code == 0
        for name in ("report.json", "report.csv", "sweep.svg"):
            assert (out2 / name).read_bytes() == (out / name).read_bytes(), name

    @pytest.mark.skipif(
        not (importlib.util.find_spec("_sha256") or importlib.util.find_spec("_sha2")),
        reason="this interpreter has no builtin SHA-256 module",
    )
    def test_writing_reports_never_loads_openssl(self, tmp_path):
        # every report stamps its config's SHA-256; hashlib would load
        # OpenSSL's libcrypto, about 3.4 MB resident, for that one digest
        code = (
            "import contextlib, io, json, sys\n"
            "from pathlib import Path\n"
            "from fairnoise import cli\n"
            "tmp = Path(sys.argv[1])\n"
            "formats = ['--format', 'json', '--format', 'csv', '--format', 'svg']\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    for family, notion, alphas in json.loads(sys.argv[2]):\n"
            "        config = tmp / f'{family}.json'\n"
            "        config.write_text(json.dumps({'family': family, 'notion': notion, 'alphas': alphas}))\n"
            "        assert cli.main(['run', '--config', str(config), '--out', str(tmp / family), *formats]) == 0\n"
            "    report = tmp / 'dp_worked' / 'report.json'\n"
            "    assert cli.main(['report', '--config', str(report), '--out', str(tmp / 'again'), '--format', 'json']) == 0\n"
            "print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))\n"
        )
        sweeps = [
            ("dp_worked", "dp", [0.01, 0.02, 0.04, 0.08]),
            ("eopp_needle", "eopp", [0.0025, 0.01, 0.04, 0.09]),
            ("eodds_duplicate", "eodds", [0.05, 0.1, 0.2]),
            ("calibration_drift", "calibration", [0.01, 0.02, 0.04, 0.08]),
        ]
        assert sorted(family for family, _, _ in sweeps) == sorted(harness.SWEEP_FAMILIES)
        env = {**os.environ, "PYTHONPATH": str(Path(harness.__file__).parents[1])}
        out = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path), json.dumps(sweeps)],
            capture_output=True, text=True, env=env, check=True,
        )
        assert out.stdout == "[]\n"


class TestUsage:
    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["transmogrify"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["certify", "--notion", "eopp", "--alpha", "0.04", "--grid", "201"],
            ["certify", "--notion", "eopp", "--alpha", "0.04", "--jobs", "7"],
            ["certify", "--notion", "eopp", "--alpha", "0.04", "--seed", "3"],
            ["certify", "--notion", "eopp", "--alpha", "0.04", "--format", "svg"],
            ["certify", "--notion", "eopp", "--alpha", "0.04", "--out", "out"],
            ["minimax", "--alpha", "0.1", "--grid", "101"],
            ["minimax", "--alpha", "0.1", "--notion", "eodds"],
            ["attack", "--config", "c.json", "--grid", "41"],
            ["repair", "--config", "c.json", "--format", "json"],
            ["report", "--config", "c.json", "--alpha", "0.1"],
        ],
    )
    def test_flag_the_subcommand_does_not_read_exits_two(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


# ---------------------------------------------------------------------------
# Malformed configs: one field of a valid config swapped for a value of
# another JSON type must exit 2 (or still succeed), never raise.
# ---------------------------------------------------------------------------


def _valid_configs() -> dict:
    eodds, dp = families.eodds_duplicate(0.1, r_b=0.09), families.dp_worked(0.1)
    run = {
        "family": "dp_worked",
        "notion": "dp",
        "alphas": [0.01, 0.02, 0.04],
        "grid_n": 11,
        "seed": 7,
        "jobs": 1,
        "family_params": {},
    }
    sweep = harness.run_sweep(harness.ExperimentConfig.from_json_dict(run))
    return {
        "run": run,
        "attack": {
            "kind": "duplicate_flip",
            "alpha": 0.1,
            "target_group": "B",
            "dist": eodds.dist.to_json_dict(),
        },
        "repair": {
            "notion": "dp",
            "alpha": 0.1,
            "dist": dp.dist.to_json_dict(),
            "corrupted": dp.corrupted.to_json_dict(),
            "h_star": {"base": dp.h_star.to_json_dict(), "params": {"A": {"u": 1.0, "v": 0.0}}},
        },
        "report": json.loads(harness.report_json(sweep)),
    }


VALID = _valid_configs()


def _paths(doc, prefix=()):
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _json_type(value) -> str:
    return "bool" if isinstance(value, bool) else type(value).__name__


def _swap(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def _lookup(doc, path):
    for key in path:
        doc = doc[key]
    return doc


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=4,
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_type_swapped_field_exits_two(tmp_path, data):
    command = data.draw(st.sampled_from(sorted(VALID)))
    doc = VALID[command]
    path = data.draw(st.sampled_from(list(_paths(doc))))
    old_type = _json_type(_lookup(doc, path))
    value = data.draw(json_values.filter(lambda v: _json_type(v) != old_type))
    cfg = write_config(tmp_path, _swap(doc, path, value))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) in (0, 2)


@pytest.mark.parametrize(
    "command, path, value",
    [
        ("run", ("family_params",), []),
        ("repair", ("h_star", "base", "table"), [1, 2]),
        ("repair", ("h_star", "params"), []),
        ("run", ("alphas", 0), 10**400),
        ("repair", ("h_star", "base", "table", "a1"), 4.0),
        ("repair", ("h_star", "base", "table", "a1"), 2),
        ("repair", ("h_star", "base", "table", "a1"), 0.9),
        ("repair", ("h_star", "base", "table", "a1"), True),
        ("run", ("grid_n",), 41.9),
        ("run", ("seed",), 2.7),
        ("run", ("jobs",), True),
        ("run", ("alphas",), ["0.01", "0.02", "0.04"]),
        ("run", ("family_params",), {"r_b": 0.1}),
        ("run", ("out_dir",), 5),
        (
            "run",
            (),
            {**VALID["run"], "family": "eodds_duplicate", "notion": "eodds",
             "alphas": [0.05, 0.1, 0.2], "family_params": {"x": 1}},
        ),
        ("attack", (), {"kind": "needle_eopp", "alpha": "0.1"}),
        ("attack", ("alpha",), "0.1"),
        ("repair", ("alpha",), "0.1"),
        ("repair", ("alpha",), True),
        ("attack", ("dist", "atoms", 1, "label"), 1.7),
        ("attack", ("dist", "atoms", 1, "label"), True),
        ("attack", ("dist", "atoms", 0, "mass"), "0.455"),
        ("attack", ("dist", "atoms", 0, "feature"), "2"),
        ("repair", ("corrupted", "atoms", 0, "label"), True),
        ("repair", ("h_star", "params", "A", "u"), "1.0"),
        ("repair", ("h_star", "params", "A", "v"), True),
        ("repair", ("h_star", "params", "A"), {"p": 0.0, "q": 0.0}),
        ("repair", ("h_star", "base"), {"kind": "bogus", "constant": 1}),
        ("attack", ("dist", "atoms", 0, "point"), 3),
        (
            "attack",
            (),
            {"kind": "tpr_shift", "alpha": 0.1, "target_group": "A",
             "h_star": {"kind": "threshold", "threshold": "0.5"},
             "dist": {"atoms": [{"point": p, "label": y, "group": g, "mass": 0.25, "feature": x}
                                for p, y, g, x in (("a1", 1, "A", 1.0), ("a2", 0, "A", 0.0),
                                                   ("b1", 1, "B", 1.0), ("b2", 0, "B", 0.0))]}},
        ),
        ("report", ("points", 0, "beta"), "0.5"),
        ("report", ("points", 0, "alpha"), True),
        ("report", ("fit", "slope"), "1.0"),
    ],
    ids=(
        "family_params-list",
        "table-list",
        "params-list",
        "alpha-overflows-float",
        "table-value-4.0",
        "table-value-2",
        "table-value-0.9",
        "table-value-true",
        "grid_n-41.9",
        "seed-2.7",
        "jobs-true",
        "alphas-strings",
        "dp_worked-takes-no-r_b",
        "out_dir-int",
        "eodds_duplicate-takes-no-x",
        "needle-alpha-string",
        "attack-alpha-string",
        "repair-alpha-string",
        "repair-alpha-true",
        "atom-label-1.7",
        "atom-label-true",
        "atom-mass-string",
        "atom-feature-string",
        "corrupted-atom-label-true",
        "params-u-string",
        "params-v-true",
        "params-old-p-q",
        "base-kind-bogus",
        "atom-point-int",
        "threshold-string",
        "report-beta-string",
        "report-alpha-true",
        "report-slope-string",
    ),
)
def test_reproduced_malformed_configs_exit_two(tmp_path, command, path, value):
    cfg = write_config(tmp_path, _swap(VALID[command], path, value))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("command", sorted(c for c, flags in _FLAGS.items() if "config" in flags))
def test_deeply_nested_config_exits_two(tmp_path, command, capsys):
    # the JSON decoder recurses once per level and raises RecursionError past the interpreter's limit
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    alpha = ["--alpha", "0.1"] if command == "minimax" else []
    assert main([command, "--config", str(deep), *alpha]) == 2
    assert "nested too deeply" in capsys.readouterr().err


@pytest.mark.parametrize("through", (False, True), ids=("a-file", "through-a-file"))
@pytest.mark.parametrize("command", sorted(c for c, flags in _FLAGS.items() if "out" in flags))
def test_unwritable_out_exits_two(tmp_path, command, through, capsys):
    # --out names an existing file, or a path whose parent is one
    blocker = tmp_path / "blocker"
    blocker.write_text("kept")
    out = blocker / "out" if through else blocker
    cfg = write_config(tmp_path, VALID[command])
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot write output (")
    assert blocker.read_text() == "kept"


@pytest.mark.parametrize("command", sorted(VALID))
def test_valid_configs_exit_zero(tmp_path, command):
    cfg = write_config(tmp_path, VALID[command])
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0


def test_integral_float_fields_read_as_integers(tmp_path):
    fields = {"grid_n": 11.0, "seed": 7.0, "jobs": 1.0}
    reports = []
    for name, doc in (("int", VALID["run"]), ("float", {**VALID["run"], **fields})):
        out = tmp_path / name
        assert main(["run", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == 0
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]
