"""Every module-level private function or class of the package is used.

A helper whose name starts with `_` is not part of the package's API, so
code in the package must refer to it outside its own definition.  One that
nothing refers to is left over, for instance after two helpers were merged.
"""

import ast
from pathlib import Path

import coregcalc

MODULES = sorted(Path(coregcalc.__file__).parent.glob("*.py"))


def orphaned_private_names(sources: dict[str, str]) -> list[str]:
    """`module: name` for each module-level `_name` function or class that
    no code of the given modules refers to outside its own definition: by
    a name, an attribute or an import."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    references = []
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                references.append((node.id, id(node)))
            elif isinstance(node, ast.Attribute):
                references.append((node.attr, id(node)))
            elif isinstance(node, ast.alias):
                references.append((node.name, id(node)))
    orphans = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_") or node.name.startswith("__"):
                continue
            own = {id(n) for n in ast.walk(node)}
            if not any(name == node.name and ref not in own for name, ref in references):
                orphans.append(f"{module}: {node.name}")
    return orphans


def test_checker_flags_an_orphaned_helper():
    sources = {
        "a.py": "def _used():\n    pass\n\n"
                "def _orphan(n):\n    return _orphan(n - 1)\n\n"
                "class _Imported:\n    pass\n\n"
                "def __getattr__(name):\n    pass\n",
        "b.py": "from .a import _Imported\nfrom . import a\n\n"
                "def f():\n    return a._used()\n",
    }
    assert orphaned_private_names(sources) == ["a.py: _orphan"]


def test_no_orphaned_private_names():
    assert orphaned_private_names({p.name: p.read_text() for p in MODULES}) == []
