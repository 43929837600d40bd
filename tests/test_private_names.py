"""Every module-level function or class of the package is used.

A helper whose name starts with `_` is not part of the package's API, so
code in the package must refer to it outside its own definition.  One that
nothing refers to is left over, for instance after two helpers were merged.

A public name must be referred to in the package too, unless it is API that
is named elsewhere: in `coregcalc.__all__`, or as a layer that the benchmark
traces (`bench/tracing.LAYERS`).  A public function that only the tests
call is a reference implementation and belongs in the tests.
"""

import ast
import importlib.util
from pathlib import Path

import coregcalc

MODULES = sorted(Path(coregcalc.__file__).parent.glob("*.py"))


def traced_layers() -> tuple[str, ...]:
    """`bench/tracing.LAYERS`, read without changing anything under bench/."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.LAYERS


def orphaned_names(sources: dict[str, str], exempt=frozenset()) -> list[str]:
    """`module: name` for each module-level function or class that no code
    of the given modules refers to outside its own definition: by a name,
    an attribute or an import.  A public name in `exempt` is not reported."""
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
            if node.name.startswith("__") or node.name in exempt:
                continue
            own = {id(n) for n in ast.walk(node)}
            if not any(name == node.name and ref not in own for name, ref in references):
                orphans.append(f"{module}: {node.name}")
    return orphans


def package_orphans() -> list[str]:
    exempt = {layer.split(".")[1] for layer in traced_layers()} | set(coregcalc.__all__)
    return orphaned_names({p.name: p.read_text() for p in MODULES}, exempt)


def test_checker_flags_an_orphaned_helper():
    sources = {
        "a.py": "def _used():\n    pass\n\n"
                "def _orphan(n):\n    return _orphan(n - 1)\n\n"
                "class _Imported:\n    pass\n\n"
                "def __getattr__(name):\n    pass\n",
        "b.py": "from .a import _Imported\nfrom . import a\n\n"
                "def f():\n    return a._used()\n",
    }
    assert orphaned_names(sources, exempt={"f"}) == ["a.py: _orphan"]


def test_checker_flags_an_orphaned_public_name():
    sources = {
        "a.py": "def used():\n    pass\n\n"
                "def traced():\n    pass\n\n"
                "def orphan(n):\n    return orphan(n - 1)\n\n"
                "class Orphan:\n    pass\n",
        "b.py": "from .a import used\n\n"
                "def entry():\n    return used()\n",
    }
    assert orphaned_names(sources, exempt={"traced", "entry"}) == ["a.py: orphan", "a.py: Orphan"]


def test_no_orphaned_private_names():
    assert [o for o in package_orphans() if ": _" in o] == []


def test_no_orphaned_public_names():
    assert [o for o in package_orphans() if ": _" not in o] == []
