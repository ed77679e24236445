"""Every name a package module imports is used, every name it exports is bound
and reached from outside its module, the package root exports exactly the joined
__all__ of the modules it star-imports, every private module-level function is
referred to outside its own def, no module holds an assert statement, no module
but cli.py defines a JSON format (to_json or from_json), and the command line
starts without the standard library's heavy introspection modules or json."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import markov_mutator

MODULES = sorted(Path(markov_mutator.__file__).parent.glob("*.py"))
ROOT = Path(markov_mutator.__file__).parents[2]


def exported(source: str) -> set[str]:
    """The strings written in a module's __all__ assignment, whether a list or an expression."""
    return {
        const.value
        for node in ast.parse(source).body
        if isinstance(node, ast.Assign)
        and any(isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets)
        for const in ast.walk(node.value)
        if isinstance(const, ast.Constant) and isinstance(const.value, str)
    }


def star_imported() -> list:
    """The package modules that markov_mutator/__init__.py star-imports, in its order."""
    tree = ast.parse(Path(markov_mutator.__file__).read_text())
    return [
        importlib.import_module(f"markov_mutator.{node.module}")
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        and node.level == 1
        and [alias.name for alias in node.names] == ["*"]
    ]


def unused_imports(source: str) -> list[str]:
    """Imported names never read in the module; names listed in __all__ count as read,
    and a star import binds no name of its own."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(
                alias.asname or alias.name.split(".")[0] for alias in node.names if alias.name != "*"
            )
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used - exported(source))


def orphaned_private_functions(sources: list[str]) -> list[str]:
    """Private module-level functions that no code outside their own def refers to.

    Names are matched across all the given module sources, so a helper
    that only another module imports and reads still counts as used.
    """
    private, read = set(), set()
    for source in sources:
        for stmt in ast.parse(source).body:
            owner = None
            if isinstance(stmt, ast.FunctionDef):
                owner = stmt.name
                if owner.startswith("_") and not owner.startswith("__"):
                    private.add(owner)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and node.id != owner:
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
    return sorted(private - read)


def referred(source: str) -> set[str]:
    """The names a Python source reads or imports, attribute names included."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name)
    return names


def unreached_exports(modules: dict[str, str], readers: list[str], text: str) -> list[str]:
    """Names in a module's __all__, as 'module.name', that no other module, no reader
    source and no word of text refers to: a name that only its own module reads is
    a helper, not a part of the surface."""
    outside = set().union(*map(referred, readers))
    refs = {module: referred(source) for module, source in modules.items()}
    found = []
    for module, source in modules.items():
        seen = outside.union(*(names for m, names in refs.items() if m != module))
        found += [
            f"{module}.{name}"
            for name in sorted(exported(source))
            if name not in seen and not re.search(rf"\b{re.escape(name)}\b", text)
        ]
    return found


def test_unreached_exports_finds_only_unreferenced_names():
    modules = {
        "a": "__all__ = ['f', 'g', 'h', 'k']\ndef f(): pass\ndef g(): pass\ndef h(): g()\nk = 1\n",
        "b": "from .a import f\n",
    }
    readers = ["import m\nm.a.h()\n"]
    assert unreached_exports(modules, readers, "") == ["a.g", "a.k"]
    assert unreached_exports(modules, readers, "`k` is the (g) of k2") == []
    assert unreached_exports(modules, [], "gh, hk") == ["a.g", "a.h", "a.k"]


def test_every_export_is_reached_from_outside_its_module():
    # the command line, the README, the acceptance gate and the benchmark are the
    # users of the library surface; bench/ is read, never imported here
    modules = {path.stem: path.read_text() for path in MODULES}
    paths = [ROOT / "src/markov_mutator/cli.py", ROOT / "tests/test_acceptance.py"]
    readers = [path.read_text() for path in paths + sorted((ROOT / "bench").glob("*.py"))]
    assert unreached_exports(modules, readers, (ROOT / "README.md").read_text()) == []


def test_orphaned_private_functions_finds_only_unreferenced_helpers():
    helpers = (
        "def _used(n):\n    return n\n"
        "def _recursive(n):\n    return _recursive(n - 1)\n"
        "def _orphan():\n    pass\n"
        "def __getattr__(name):\n    pass\n"
    )
    caller = "from .helpers import _used\nvalue = _used(1)\n"
    assert orphaned_private_functions([helpers, caller]) == ["_orphan", "_recursive"]
    assert orphaned_private_functions([helpers]) == ["_orphan", "_recursive", "_used"]


def test_package_calls_every_private_function():
    assert orphaned_private_functions([path.read_text() for path in MODULES]) == []


def test_unused_imports_finds_only_unread_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from a import b, c as d\n"
        "__all__ = ['b']\n"
    )
    assert unused_imports(source) == ["d", "os"]
    assert unused_imports("import os.path\nos.path.join\n") == []
    assert unused_imports("from . import a, b\nfrom .a import *\n__all__ = [*a.__all__]\n") == ["b"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_binds_every_export(path):
    name = "markov_mutator" if path.stem == "__init__" else f"markov_mutator.{path.stem}"
    module = importlib.import_module(name)
    names = module.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(module, name)] == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_has_no_assert_statement(path):
    # python -O strips assert statements, and the check with them
    tree = ast.parse(path.read_text())
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)] == []


JSON_METHODS = ("to_json", "from_json")


def json_methods(source: str) -> list[str]:
    """'line:name' for each def or assignment anywhere in a source that binds
    to_json or from_json."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [target.id for target in node.targets if isinstance(target, ast.Name)]
        else:
            continue
        found += [f"{node.lineno}:{name}" for name in names if name in JSON_METHODS]
    return found


def test_json_methods_finds_defs_and_assignments_at_any_depth():
    source = (
        "class A:\n    def to_json(self):\n        pass\n"
        "    from_json = classmethod(len)\n"
        "def to_json_text():\n    to_json = 1\n"
    )
    assert json_methods(source) == ["2:to_json", "4:from_json", "6:to_json"]


@pytest.mark.parametrize(
    "path", [path for path in MODULES if path.name != "cli.py"], ids=lambda path: path.name
)
def test_only_the_cli_defines_a_json_format(path):
    # every --json document is written in cli.py, from the values of its text
    # lines; the library's result types are plain data
    assert json_methods(path.read_text()) == []


def test_package_exports_exactly_what_it_imports():
    joined = [name for module in star_imported() for name in module.__all__]
    assert markov_mutator.__all__ == joined
    assert len(joined) == len(set(joined))


def test_star_import_binds_each_module_object():
    namespace = {}
    exec("from markov_mutator import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(markov_mutator.__all__)
    for module in star_imported():
        for name in module.__all__:
            assert getattr(markov_mutator, name) is getattr(module, name), name


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # dataclasses pulls in inspect, ast, dis and tokenize: about 13 ms of
    # start-up in every command-line run, which no subcommand needs. json
    # (about 3 ms) is imported only by --json output and JSON matrices.
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import markov_mutator.cli\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(markov_mutator.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    added = set(done.stdout.split())
    assert "markov_mutator.cli" in added
    assert added & {"dataclasses", "inspect", "json"} == set()
