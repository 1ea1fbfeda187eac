"""No module in src/jring or tests imports a name it never uses,
src/jring defines nothing that only the tests use, and importing the CLI
loads no heavy stdlib module it does not need.

Two small stand-ins for lints, on modules parsed with ast: every name an
import binds must occur somewhere as a Name node, and every function, class
and method src/jring defines, at any depth, must be referenced from
src/jring or perfbench.  The import graph is read in a fresh interpreter.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "jring"
MODULES = sorted(SRC.glob("*.py"))
PERFBENCH = sorted((TESTS.parent / "perfbench").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # import a.b binds a
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_the_check_finds_an_unused_import():
    source = "import os, sys\nfrom math import gcd as g, lcm\nprint(sys.argv, g)\n"
    assert unused_imports(source) == ["lcm", "os"]
    assert unused_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", sorted(TESTS.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports_in_tests(path):
    assert unused_imports(path.read_text()) == []


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def unreferenced(defining: list[str], referencing: list[str]) -> list[str]:
    """The functions, classes and methods, nested ones included, that the
    defining sources define and no referencing source names; dunders are
    exempt.

    A reference is a Name, an Attribute or an imported name, matched by name
    alone, so a local variable or parameter of the same name hides a method.
    """
    defined = {
        node.name
        for source in defining
        for node in ast.walk(ast.parse(source))
        if isinstance(node, DEFINITIONS)
    }
    used = set()
    for source in referencing:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return sorted(
        name
        for name in defined - used
        if not (name.startswith("__") and name.endswith("__"))
    )


def test_the_check_finds_test_only_code():
    defining = (
        "class P:\n"
        "    def used(self): ...\n"
        "    def unused(self): ...\n"
        "    def __eq__(self, other): ...\n"
        "def f():\n"
        "    def inner(): ...\n"
        "    def orphan(): ...\n"
        "    return inner\n"
        "def g(): ...\n"
    )
    referencing = "from m import f\nP().used()\n"
    assert unreferenced([defining], [defining, referencing]) == ["g", "orphan", "unused"]


def test_src_keeps_no_test_only_code():
    sources = [path.read_text() for path in MODULES]
    callers = sources + [path.read_text() for path in PERFBENCH]
    assert unreferenced(sources, callers) == []


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # a fresh interpreter, compared against the modules it holds before the
    # import, so that what site-packages loads at start-up does not count
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"sys.path.insert(0, {str(SRC.parent)!r})\n"
        "import jring.cli\n"
        "print(jring.cli.__file__)\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True)
    where, loaded = run.stdout.splitlines()
    assert Path(where).resolve() == SRC / "cli.py"
    assert "jring.symfun" in loaded.split()
    assert {"dataclasses", "inspect"}.isdisjoint(loaded.split())
