"""Source hygiene of the library modules, checked with the standard library only."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "bicfrac"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never references, in import order.

    A name counts as referenced when it appears as an identifier anywhere in
    the module, annotations included.  ``from __future__`` imports are exempt.
    """
    tree = ast.parse(source)
    imported: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.append(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_check_finds_a_planted_unused_import():
    source = "from __future__ import annotations\nimport os, sys\nfrom .core import a, b as c\nprint(sys, c)\n"
    assert unused_imports(source) == ["os", "a"]


def test_library_modules_are_found():
    assert {p.name for p in MODULES} >= {"core.py", "conditions.py", "fractions.py", "wclass.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_library_modules_use_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def function_level_imports(source: str) -> list[int]:
    """Lines of every import made inside a function body, in order.

    Library modules import at module top only, so no import cycle between
    them can hide in a function that defers its import to run time.
    """
    tree = ast.parse(source)
    return sorted({
        node.lineno
        for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))
    })


def test_the_check_finds_a_planted_function_level_import():
    source = (
        "import os\n"
        "def f():\n    from .psfun import PsFun\n    return PsFun\n"
        "class C:\n    def g(self):\n        def h():\n            import sys\n        return h\n"
    )
    assert function_level_imports(source) == [3, 8]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_library_modules_import_only_at_module_top(path):
    assert function_level_imports(path.read_text(encoding="utf-8")) == []
