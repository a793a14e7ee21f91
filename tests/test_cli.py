import copy
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fairnoise import families, harness
from fairnoise.cli import main


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
        code = main(["certify", "--notion", "eopp", "--alpha", "0.04", "--grid", "201"])
        assert code == 0
        out = capsys.readouterr().out
        assert "pass=True" in out and "floor=" in out and "claimed=" in out

    def test_fail_exit_one(self, monkeypatch):
        # the canonical instances always pass by construction, so a failed
        # certification is simulated to pin the exit-code contract
        import fairnoise.cli as cli_mod

        monkeypatch.setattr(
            cli_mod.harness, "certify_lower_bound", lambda *a, **k: (0.01, 0.1, False)
        )
        assert main(["certify", "--notion", "eopp", "--alpha", "0.04"]) == 1

    def test_requires_flags(self):
        assert main(["certify", "--notion", "eopp"]) == 2

    def test_grid_above_cap_is_bad_input(self):
        assert main(["certify", "--notion", "eopp", "--alpha", "0.04", "--grid", "5001"]) == 2

    @pytest.mark.parametrize("notion, grid", [("eopp", "0"), ("parity_calibration", "1")])
    def test_grid_below_floor_is_bad_input(self, notion, grid):
        assert main(["certify", "--notion", notion, "--alpha", "0.1", "--grid", grid]) == 2


class TestMinimaxAndReport:
    def test_minimax_prints_json(self, capsys):
        assert main(["minimax", "--alpha", "0.1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["max_group_error"] >= 0.45

    def test_minimax_zero_grid_is_bad_input(self):
        assert main(["minimax", "--alpha", "0.1", "--grid", "0"]) == 2

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
        assert main(["run", "--config", str(sweep_config), "--out", str(out)]) == 0
        out2 = tmp_path / "out2"
        code = main(
            ["report", "--config", str(out / "report.json"), "--out", str(out2),
             "--format", "csv", "--format", "svg"]
        )
        assert code == 0
        assert (out2 / "report.csv").read_bytes() == (out / "report.csv").read_bytes()
        assert (out2 / "sweep.svg").exists()


class TestUsage:
    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["transmogrify"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["certify", "--notion", "eopp", "--alpha", "0.04", "--jobs", "7"],
            ["certify", "--notion", "eopp", "--alpha", "0.04", "--seed", "3"],
            ["certify", "--notion", "eopp", "--alpha", "0.04", "--format", "svg"],
            ["certify", "--notion", "eopp", "--alpha", "0.04", "--out", "out"],
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
            "h_star": {"base": dp.h_star.to_json_dict(), "params": {"A": {"p": 0.0, "q": 0.0}}},
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
    ],
    ids=("family_params-list", "table-list", "params-list", "alpha-overflows-float"),
)
def test_reproduced_malformed_configs_exit_two(tmp_path, command, path, value):
    cfg = write_config(tmp_path, _swap(VALID[command], path, value))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
