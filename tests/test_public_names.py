"""Every public module-level name of the package has a caller outside the
tests: a reference in ``src/``, ``scripts/`` or ``perfbench/`` other than
its own definition and the package's ``__init__`` re-exports."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fairnoise"

#: Public names the tests and users call with no caller in the package:
#: the parity-calibration checker.
CALLED_ONLY_FROM_OUTSIDE = {"parity_calibration_check"}


def public_definitions() -> dict[str, str]:
    """Each public name a package module defines at its top level, with the
    module's file name."""
    names = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, ast.Assign):
                targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                targets = [node.target.id]
            else:
                targets = []
            names.update((name, path.name) for name in targets if not name.startswith("_"))
    return names


def references() -> set[str]:
    """Every name the non-test code of the repository reads: names,
    attributes, imported names and string constants (the benchmark patches
    layers by name)."""
    seen = set()
    for base in ("src", "scripts", "perfbench"):
        for path in (ROOT / base).rglob("*.py"):
            if path == PACKAGE / "__init__.py" or path.name.startswith("test_"):
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    seen.add(node.id)
                elif isinstance(node, ast.Attribute):
                    seen.add(node.attr)
                elif isinstance(node, ast.alias):
                    seen.add(node.name)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    seen.add(node.value)
    return seen


def test_every_public_name_has_a_caller_outside_the_tests():
    seen = references()
    unused = {name: module for name, module in public_definitions().items() if name not in seen}
    assert unused.keys() <= CALLED_ONLY_FROM_OUTSIDE, f"public names without a caller: {unused}"


def test_the_scan_sees_the_package():
    names = public_definitions()
    assert names["best_response"] == "repair.py" and names["run_sweep"] == "harness.py"
    assert "_solve" not in names and "best_response" in references()
