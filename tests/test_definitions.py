"""Every function, method and class defined in src/jring is referred to.

A small stand-in for a dead-code lint: src/jring, tests and perfbench are
parsed with ast, and the name of each definition in src/jring, dunders
excepted, must occur somewhere as a Name, an Attribute or an imported name.
A definition that only its own body mentions still counts as used.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "jring"
FILES = sorted(
    path for folder in (SRC, ROOT / "tests", ROOT / "perfbench")
    for path in folder.glob("*.py")
)

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def defined_names(source: str) -> set[str]:
    return {
        node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, DEFINITIONS)
        and not (node.name.startswith("__") and node.name.endswith("__"))
    }


def referred_names(source: str) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
    return names


def dead_definitions(defining: list[str], referring: list[str]) -> list[str]:
    defined = set().union(*map(defined_names, defining))
    referred = set().union(*map(referred_names, referring))
    return sorted(defined - referred)


def test_the_check_finds_a_dead_definition():
    module = (
        "class Box:\n"
        "    def __init__(self): pass\n"
        "    def used(self): pass\n"
        "    def unused(self): pass\n"
        "def helper(): pass\n"
        "def orphan(): pass\n"
        "def imported(): pass\n"
    )
    caller = "from m import imported\nBox().used()\nx = [helper]\n"
    assert dead_definitions([module], [module, caller]) == ["orphan", "unused"]


def test_no_dead_definitions():
    sources = {path: path.read_text() for path in FILES}
    defining = [text for path, text in sources.items() if path.parent == SRC]
    assert dead_definitions(defining, list(sources.values())) == []
