"""The numeric layers only round, sample and find roots: the exact forms of
the symbol, and every proof about them, are ``modeq.derivation``'s.  So
``spectra``, ``radius`` and ``empirics`` import nothing from
``modeq.exactalg``; they reach exact values through ``derivation`` and
``schemes``.  Function-local imports count too.

Each function a layer exports is read by the package itself, or by the
benchmark harness under ``bench/``, which calls the package as a user
does: a public function whose only callers are tests is surface to
delete, or to move into ``tests/oracles.py``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import modeq

PACKAGE = Path(modeq.__file__).resolve().parent
BENCH = Path(__file__).resolve().parents[1] / "bench"
NUMERIC = ("spectra", "radius", "empirics")
LAYERS = ("exactalg", "schemes", "derivation", *NUMERIC)


def exactalg_imports(source: str) -> list[str]:
    """The lines of ``source``, a module of the package, that import
    ``modeq.exactalg`` or a name from it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            parent = ".".join(filter(None, ["modeq" if node.level else "", node.module]))
            modules = [parent] + [f"{parent}.{alias.name}" for alias in node.names]
        else:
            continue
        if "modeq.exactalg" in modules:
            found.append(f"line {node.lineno}")
    return found


@pytest.mark.parametrize("name", NUMERIC)
def test_numeric_layer_imports_nothing_from_exactalg(name):
    assert exactalg_imports((PACKAGE / f"{name}.py").read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source, found", [
    ("from .exactalg import LambdaPoly\n", ["line 1"]),
    ("from . import exactalg\n", ["line 1"]),
    ("import numpy as np\nimport modeq.exactalg as e\n", ["line 2"]),
    ("def f():\n    from modeq.exactalg import LP_ONE\n", ["line 2"]),
    ("from modeq import exactalg\n", ["line 1"]),
    ("from .derivation import symbol_polynomial\nfrom . import spectra\n", []),
    ("from .schemes import SchemeSpec\nimport math\n", []),
])
def test_checker_flags_exactalg_imports(source, found):
    assert exactalg_imports(source) == found


def unreferenced_exports(module: str, sources: dict) -> list[str]:
    """The functions defined in ``sources[module]`` and named in its
    ``__all__`` that no source of ``sources`` (module name -> text) reads
    by name or as an attribute; a read inside the defining module counts."""
    tree = ast.parse(sources[module])
    exported = next(ast.literal_eval(node.value) for node in tree.body
                    if isinstance(node, ast.Assign)
                    and any(getattr(t, "id", None) == "__all__" for t in node.targets))
    functions = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    read = set()
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [name for name in exported if name in functions and name not in read]


@pytest.mark.parametrize("name", LAYERS)
def test_every_exported_function_has_a_package_caller(name):
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    sources.update({f"bench/{path.stem}": path.read_text(encoding="utf-8")
                    for path in BENCH.glob("*.py")})
    assert unreferenced_exports(name, sources) == []


@pytest.mark.parametrize("sources, found", [
    ({"a": '__all__ = ["f", "g", "C"]\ndef f(): pass\ndef g(): f()\nclass C: pass\n'},
     ["g"]),
    ({"a": '__all__ = ["f"]\ndef f(): pass\n', "b": "from .a import f\nf()\n"}, []),
    ({"a": '__all__ = ["f"]\ndef f(): pass\n', "b": "from . import a\na.f()\n"}, []),
    ({"a": '__all__ = ["f"]\ndef f(): pass\n', "b": 'NAMES = "f"\n'}, ["f"]),
])
def test_checker_flags_unreferenced_exports(sources, found):
    assert unreferenced_exports("a", sources) == found
