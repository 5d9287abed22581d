"""The numeric layers only round, sample and find roots: the exact forms of
the symbol, and every proof about them, are ``modeq.derivation``'s.  So
``spectra``, ``radius`` and ``empirics`` import nothing from
``modeq.exactalg``; they reach exact values through ``derivation`` and
``schemes``.  Function-local imports count too.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import modeq

PACKAGE = Path(modeq.__file__).resolve().parent
NUMERIC = ("spectra", "radius", "empirics")


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
