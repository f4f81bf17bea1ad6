"""Packaging: the modules import exactly the declared run-time dependencies,
and the README names only what the package has."""

import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

import fiberqkd

tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11

PACKAGE = Path(fiberqkd.__file__).resolve().parent
PYPROJECT = PACKAGE.parents[1] / "pyproject.toml"
README = PACKAGE.parents[1] / "README.md"


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


def test_readme_dotted_names_resolve():
    """Every ``fiberqkd.<module>.<name>`` quoted in the README's prose imports."""
    prose = re.sub(r"```.*?```", "", README.read_text(), flags=re.S)
    names = {name for span in re.findall(r"`([^`]+)`", prose)
             for name in re.findall(r"\bfiberqkd(?:\.\w+)+", span)}
    missing = []
    for dotted in sorted(names):
        _, module, *attributes = dotted.split(".")
        try:
            value = importlib.import_module(f"fiberqkd.{module}")
            for attribute in attributes:
                value = getattr(value, attribute)
        except (ImportError, AttributeError):
            missing.append(dotted)
    assert len(names) > 10
    assert missing == []


# Public names that no module of the package uses, each kept for a caller
# outside it.
_USED_OUTSIDE_THE_PACKAGE = {
    "config.scenario_from_dict": "perfbench/workloads.py builds its scenarios with it",
    "emitter.PhotonStatistics.p_vacuum": "perfbench/reference.py's slot_model reads it",
    "emitter.g2_of_delay": "tests/test_acceptance.py draws its CW histogram from it",
    "keyrate.expected_tally": "tests/test_acceptance.py plans its finite-key counts with it",
}


def _public_definitions(tree):
    """(dotted name, name) of each public top-level function and class, and of
    each public method and property of a public class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name


def test_every_public_function_and_class_is_used_in_the_package():
    """A public top-level function or class, or a public method or property of
    a public class, that only its own tests use is deleted, not maintained:
    some module must reference it by name."""
    defined, used = set(), set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(), str(path))
        defined.update((f"{path.stem}.{dotted}", name)
                       for dotted, name in _public_definitions(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = {dotted for dotted, name in defined if name not in used}
    assert unused == set(_USED_OUTSIDE_THE_PACKAGE)
