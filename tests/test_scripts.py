"""The scripts' outputs, pinned byte for byte."""

import hashlib
import importlib.util
import sys
from pathlib import Path

from fairnoise import repair

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

#: SHA-256 of each report.json that run_all_sweeps.py writes at its defaults
#: (grid 41, seed 0).
REPORT_SHA256 = {
    "calibration_drift": "46432e0fdc731ab853b4d37ade795e488f966a4820ac36aacb27049f8de4697d",
    "dp_worked": "4bcd865d1aae760e16e8aba8bf766d15a66f477a96869e6a15b91aefc354a1e1",
    "eodds_duplicate": "15fdb3d7ea6b023f7c914cbc1bc74ddb991d33f8d1f6ab1583a2eddfaa5b516f",
    "eopp_needle": "9e3c4cfb8261505150c02093d4229a2b911ec00972b6fda2f66ef0282bd004c8",
}

#: SHA-256 of each report.csv, the same run
CSV_SHA256 = {
    "calibration_drift": "500af5c01345632b4d27a452e4edfd29a2ed9a6d0cc27fab61a6d6c45f7dfb2b",
    "dp_worked": "84bd112d3b8d49a74a52343cb06e26b3647a78389922c90fe436d3aa722012ad",
    "eodds_duplicate": "bdab8d8ec3b580bc9438b1d9f322d7665f0f64cc88657cab9de3d3731df2375e",
    "eopp_needle": "67a4d3d298809685a0913298405cdd516e1a81c4e24f8c414c66f3020bc24e90",
}

#: SHA-256 of each sweep.svg, the same run
SVG_SHA256 = {
    "calibration_drift": "efa886bfd7e0ee34fe973a6e1a1947d205437795c0ccde114e05d2b470909d84",
    "dp_worked": "7576a17c13e3c65f10c9e1d6a3034d5d3f8d40ca5a1a880b80047f937f329275",
    "eodds_duplicate": "6a93fd29f14a54e00088af96dc3f97be75f474902af50eb9d0d78f015081f67a",
    "eopp_needle": "83d0b6230bbe7768c31635121e2216e1b1e61153991c573bac8975de867a20af",
}

CERTIFY_OUTPUT = """\
eopp                 alpha=0.04   floor=0.100000 claimed=0.100000 pass=True
eopp                 alpha=0.01   floor=0.050000 claimed=0.050000 pass=True
eodds                alpha=0.1    floor=0.455000 claimed=0.409500 pass=True
predictive_parity    alpha=0.1    floor=0.455000 claimed=0.200000 pass=True
parity_calibration   alpha=0.1    floor=0.500000 claimed=0.200000 pass=True
minimax              alpha=0.1    worst-group=0.500000 opt_clean=0.000000 gamma=0.1 feasible=False
"""

#: SHA-256 of the lines adversary_probe.py prints for the adversary
#: workload's six instances at seed 1
ADVERSARY_PROBE_SEED_1 = "94ea7428b791a69d70c2e6917baa69ed8051c7903f2db2d6bfcf72d7ceef3373"

#: SHA-256 of all 150 lines adversary_probe.py prints, predictive parity
#: included
ADVERSARY_PROBE = "be819fd14a24dcf9685f74621869181648e6f24c1890a7f6925861eb0e7fd019"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sweep_reports_match_golden_hashes(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["run_all_sweeps.py", str(tmp_path)])
    load_script("run_all_sweeps").main()
    for name, pinned in (("report.json", REPORT_SHA256), ("report.csv", CSV_SHA256), ("sweep.svg", SVG_SHA256)):
        digests = {
            family: hashlib.sha256((tmp_path / family / name).read_bytes()).hexdigest()
            for family in pinned
        }
        assert digests == pinned, name


def test_certify_bounds_output(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["certify_bounds.py"])
    assert load_script("certify_bounds").main() == 0
    assert capsys.readouterr().out == CERTIFY_OUTPUT


def test_certify_bounds_output_without_the_float_core(monkeypatch, capsys):
    # every floor is proved in ints on plain-Python faces, so the float LP
    # core and its arrays are never reached
    def refuse(*args, **kwargs):
        raise AssertionError("a certificate reached the float LP core")

    for name in ("_solve", "_lp_vertices", "_active_sets"):
        monkeypatch.setattr(repair, name, refuse)
    test_certify_bounds_output(monkeypatch, capsys)


def test_adversary_probe_digest():
    probe = load_script("adversary_probe")
    assert probe.digest(probe.probe_lines(probe.strata_searches([1]))) == ADVERSARY_PROBE_SEED_1


def test_adversary_probe_full_digest():
    probe = load_script("adversary_probe")
    assert probe.digest(probe.probe_lines(probe.all_searches())) == ADVERSARY_PROBE


#: 8 code lines: the import, the class and def lines, the two lines of the
#: string that is not a docstring, and the three lines of the return
CODE_LINES_FIXTURE = '''\
"""Module docstring,
over two lines."""

import math  # a trailing comment keeps its line


class Box:
    """Class docstring."""

    # a comment-only line
    def area(self, side):
        """Function docstring."""
        text = """a multi-line
string that is not a docstring"""
        return math.pow(side, 2) + len(
            text
        )
'''


def test_code_lines_counts_fixture(tmp_path, monkeypatch, capsys):
    (tmp_path / "box.py").write_text(CODE_LINES_FIXTURE)
    (tmp_path / "empty.py").write_text("# only a comment\n\n")
    monkeypatch.setattr(sys, "argv", ["code_lines.py", str(tmp_path)])
    assert load_script("code_lines").main() == 0
    assert capsys.readouterr().out == "     8  box.py\n     0  empty.py\n     8  total\n"
