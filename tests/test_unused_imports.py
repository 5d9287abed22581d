"""Every name a module of the package imports is read in that module.

The package's ``__init__`` imports names only to re-export them, so it is
exempt.  ``from __future__`` imports are compiler directives, not names.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import modeq

PACKAGE = Path(modeq.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source, unused", [
    ("import math\n", ["math (line 1)"]),
    ("import math\nx = math.pi\n", []),
    ("from typing import Optional, Union\nx: Optional[int] = None\n", ["Union (line 1)"]),
    ("from __future__ import annotations\n", []),
    ("import numpy as np\ny = np\n", []),
])
def test_checker_flags_unread_names(source, unused):
    assert unused_imports(source) == unused
