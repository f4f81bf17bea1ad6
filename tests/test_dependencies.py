"""Packaging: the modules import exactly the declared run-time dependencies."""

import ast
import re
import sys
from pathlib import Path

import pytest

import fiberqkd

tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11

PACKAGE = Path(fiberqkd.__file__).resolve().parent
PYPROJECT = PACKAGE.parents[1] / "pyproject.toml"


def _third_party_imports(path: Path) -> set[str]:
    """Top-level names of the absolute imports in one module, function-level
    ones included, that are neither the standard library nor the package."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"__future__", "fiberqkd"}


def test_imports_equal_declared_dependencies():
    with PYPROJECT.open("rb") as handle:
        declared = tomllib.load(handle)["project"]["dependencies"]
    names = {re.match(r"[A-Za-z0-9_.-]+", dep).group(0).lower() for dep in declared}
    imported = set().union(*map(_third_party_imports, PACKAGE.glob("*.py")))
    assert imported == names == {"numpy"}
