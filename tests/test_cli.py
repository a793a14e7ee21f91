import json

import pytest

from fairnoise import families
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


class TestMinimaxAndReport:
    def test_minimax_prints_json(self, capsys):
        assert main(["minimax", "--alpha", "0.1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["max_group_error"] >= 0.45

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
