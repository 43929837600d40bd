"""Every name a module of the package or a test module imports is used in it.

A standard-library stand-in for a linter's unused-import check: a name bound
by an `import` statement must be read somewhere in the module, or be listed
in its `__all__` (a re-export).
"""

import ast
from pathlib import Path

import pytest

import coregcalc

MODULES = sorted(Path(coregcalc.__file__).parent.glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_checker_flags_an_unused_import():
    assert unused_imports("import os\nfrom math import gcd, lcm\nlcm(2, 3)\n") == [
        "line 1: os", "line 2: gcd"
    ]
    assert unused_imports("from .a import B\n__all__ = ['B']\n") == []


@pytest.mark.parametrize("path", MODULES + TESTS,
                         ids=[p.name for p in MODULES] + [f"tests/{p.name}" for p in TESTS])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
