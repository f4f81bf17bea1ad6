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


def _enclosing_functions(tree):
    """Each node of a module mapped to the name of the function that holds it."""
    owner = {}
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                owner.setdefault(node, func.name)
    return owner


def test_one_module_reads_input_files():
    """``documents`` owns every input format: no other module imports csv or
    opens a file, except the CLI's writer of --out and --timeseries."""
    csv_importers, openers = set(), set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(), str(path))
        owner = _enclosing_functions(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) and any(a.name == "csv" for a in node.names):
                csv_importers.add(path.stem)
            elif isinstance(node, ast.ImportFrom) and node.module == "csv":
                csv_importers.add(path.stem)
            elif isinstance(node, ast.Call) and "open" in (getattr(node.func, "id", None),
                                                           getattr(node.func, "attr", None)):
                openers.add((path.stem, owner.get(node)))
    assert csv_importers == {"documents"}
    assert {module for module, _ in openers} == {"documents", "cli"}
    assert {function for module, function in openers if module == "cli"} == {"_emit_text"}
