"""Every name a package or test module imports is read in that module."""

import ast
from pathlib import Path

import pytest

import digitlab

PACKAGE = Path(digitlab.__file__).parent
MODULES = (sorted(PACKAGE.glob("*.py"))
           + sorted(Path(__file__).parent.glob("*.py")))


def dead_imports(tree: ast.Module, exported=()) -> list:
    """Names bound by import statements that the module never loads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in read and name not in exported)


def exported_names(tree: ast.Module) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dead_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    exported = exported_names(tree) if path.name == "__init__.py" else ()
    assert dead_imports(tree, exported) == []


def test_scan_sees_a_dead_import():
    tree = ast.parse("from __future__ import annotations\n"
                     "import math\nfrom os import path, sep\n"
                     "print(path.join(sep))\n")
    assert dead_imports(tree) == [(2, "math")]
