"""No module of the package imports a name it never uses.

A cold command imports every module on its path, and its bytecode may not
be cached, so an unused import costs start-up time for nothing.  Each
module is parsed, not imported.  The re-exports of ``__init__.py`` and
``__future__`` imports are exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import orbitdesign

PACKAGE = Path(orbitdesign.__file__).resolve().parent
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by a top-level or `if TYPE_CHECKING:` import and never read."""
    tree = ast.parse(source)
    statements = list(tree.body)
    for node in tree.body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            statements.extend(node.body)
    bound = []
    for node in statements:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_import(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_detects_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from fractions import Fraction\n"
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    import numpy as np\n"
        "def f() -> np.ndarray:\n"
        "    return os.path.sep\n"
    )
    assert unused_imports(source) == ["Fraction"]
