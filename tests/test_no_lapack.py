"""No module of the package names numpy's LAPACK wrappers: the log-log fit
is closed form and the LP's vertices are solved by Cramer's rule, so no run
of the package starts OpenBLAS/LAPACK. And the instance families import no
numpy: their seeded generators only call the Generator they are given."""

import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fairnoise"

#: Words that name a LAPACK-backed numpy routine or its module
LAPACK = re.compile(r"linalg|polyfit|lstsq")


def test_no_package_module_names_lapack():
    hits = [
        f"{path.name}:{n}: {line.strip()}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if LAPACK.search(line)
    ]
    assert not hits, hits


def test_families_imports_no_numpy():
    lines = (PACKAGE / "families.py").read_text().splitlines()
    hits = [line for line in lines if re.match(r"\s*(import|from)\s+numpy\b", line)]
    assert not hits, hits


def test_the_scan_sees_the_package():
    names = {path.name for path in PACKAGE.rglob("*.py")}
    assert {"harness.py", "repair.py", "__init__.py"} <= names
