"""The package imports nothing at run time beyond the standard library,
numpy, mpmath and its own modules, so it adds no runtime dependency.

Every import statement counts, a function-local one too.  A relative import
(``from .spectra import ...``) is the package's own.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

import modeq

PACKAGE = Path(modeq.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))
ALLOWED = frozenset(sys.stdlib_module_names) | {"numpy", "mpmath", "modeq"}


def foreign_imports(source: str) -> list[str]:
    """The top-level names of the modules ``source`` imports from outside
    ``ALLOWED``, each with the line of its import."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [f"{name} (line {node.lineno})" for name in names
                  if name.split(".")[0] not in ALLOWED]
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_only_stdlib_numpy_mpmath(path):
    assert foreign_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source, foreign", [
    ("import math\nimport numpy as np\nfrom mpmath import mp\n", []),
    ("from . import spectra\nfrom .exactalg import LambdaPoly\nimport modeq.cli\n", []),
    ("import sympy\n", ["sympy (line 1)"]),
    ("def f():\n    from scipy.linalg import solve\n", ["scipy.linalg (line 2)"]),
    ("import os, yaml\n", ["yaml (line 1)"]),
])
def test_checker_flags_foreign_modules(source, foreign):
    assert foreign_imports(source) == foreign
