"""The project's hard limits: exact arithmetic only and no runtime
dependency.  No module of riopi names a float or a Decimal, and
``pyproject.toml`` declares ``dependencies = []``."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "riopi").glob("*.py"))
BANNED_NAMES = {"float", "Decimal", "decimal"}


def violations(source: str):
    """(line, what) for each float literal and each use or import of a
    banned name in the Python source text."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, f"float literal {node.value!r}"
        elif isinstance(node, ast.Name) and node.id in BANNED_NAMES:
            yield node.lineno, f"name {node.id}"
        elif isinstance(node, ast.Attribute) and node.attr in BANNED_NAMES:
            yield node.lineno, f"attribute .{node.attr}"
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names]
            names.append(getattr(node, "module", None) or "")
            if BANNED_NAMES & {part for name in names for part in name.split(".")}:
                yield node.lineno, f"import of {', '.join(names)}"


def test_sources_found():
    assert ROOT / "src" / "riopi" / "series.py" in SOURCES
    assert ROOT / "src" / "riopi" / "riordan.py" in SOURCES


def test_no_floats_or_decimals_in_src():
    found = [f"{path.name}:{line}: {what}"
             for path in SOURCES for line, what in violations(path.read_text())]
    assert found == []


@pytest.mark.parametrize("source", [
    "x = 0.5", "w = 1j", "y = float(3)", "isinstance(v, float)",
    "from decimal import Decimal", "import decimal", "z = decimal.Decimal(1)",
])
def test_scan_catches_each_kind(source):
    assert list(violations(source))


def test_scan_passes_exact_code():
    assert not list(violations("from fractions import Fraction\nq = Fraction(1, 2) * 3\n"))


def test_no_runtime_dependencies():
    text = (ROOT / "pyproject.toml").read_text()
    project = re.search(r"^\[project\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)
    assert project is not None
    assert re.findall(r"^dependencies\s*=\s*(.*?)\s*$", project.group(1), re.M) == ["[]"]
