"""No module of the package imports a name it never uses, and the package
imports no module beyond a frozen set of standard-library ones.

A cold command imports every module on its path, and its bytecode may not
be cached, so an unused or new import costs start-up time.  Each module is
parsed, not imported.  The re-exports of ``__init__.py`` and ``__future__``
imports are exempt from the first check.  Imports inside functions are
exempt from the second: they are lazy on purpose (``json``, ``numpy``).
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


# The absolute imports the package runs when it is imported.  Adding one
# adds its import time to every cold command: change this set on purpose.
FROZEN_IMPORTS = {
    "__future__", "argparse", "collections", "contextlib", "decimal", "fractions",
    "functools", "itertools", "math", "operator", "os", "sys", "typing",
}


def module_level_imports(source):
    """Top-level names of the absolute imports run at import time: every
    import outside a function body and outside `if TYPE_CHECKING:`."""
    found = set()
    pending = list(ast.parse(source).body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            pending.extend(node.orelse)
            continue
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
        pending.extend(ast.iter_child_nodes(node))
    return found


def test_module_level_imports_are_frozen():
    found = set()
    for path in PACKAGE.glob("*.py"):
        found |= module_level_imports(path.read_text(encoding="utf-8"))
    assert found == FROZEN_IMPORTS


def test_detects_module_level_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from . import sibling\n"
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    import numpy as np\n"
        "try:\n"
        "    import decimal\n"
        "except ImportError:\n"
        "    pass\n"
        "class C:\n"
        "    import fractions\n"
        "    def f(self):\n"
        "        import json\n"
        "g = lambda: __import__('numpy')\n"
    )
    assert module_level_imports(source) == {
        "__future__", "os", "typing", "decimal", "fractions",
    }
