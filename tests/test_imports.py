"""Every name a package module imports is used in that module."""

import ast
from pathlib import Path

import pytest

import markov_mutator

MODULES = sorted(Path(markov_mutator.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Imported names never read in the module; names listed in __all__ count as read."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_unused_imports_finds_only_unread_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from a import b, c as d\n"
        "__all__ = ['b']\n"
    )
    assert unused_imports(source) == ["d", "os"]
    assert unused_imports("import os.path\nos.path.join\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []
