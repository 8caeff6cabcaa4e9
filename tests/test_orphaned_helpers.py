"""No private helper of the package is left without a reader.

A single-underscore name bound at module level (``def _x``, ``class _X``,
``_X = ...``) is private to the package, so if no module reads it, it is
dead code.  A read inside the name's own definition, such as a recursive
call, does not count.  Dunders such as ``__version__`` are exempt.  Each
module is parsed, not imported.
"""

from __future__ import annotations

import ast
from pathlib import Path

import orbitdesign

PACKAGE = Path(orbitdesign.__file__).resolve().parent


def private_definitions(tree):
    """(name, node) of each single-underscore name bound at module level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def reads(tree):
    """(node, name) of each loaded name and each attribute access in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node, node.id
        elif isinstance(node, ast.Attribute):
            yield node, node.attr


def orphaned_helpers(sources):
    """'module.name' of each private module-level name of sources (module
    name -> source text) that no module reads outside its own definition."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    all_reads = [read for tree in trees.values() for read in reads(tree)]
    orphans = []
    for module, tree in trees.items():
        for name, definition in private_definitions(tree):
            inside = {id(node) for node in ast.walk(definition)}
            if not any(n == name and id(node) not in inside for node, n in all_reads):
                orphans.append(f"{module}.{name}")
    return orphans


def test_no_private_helper_is_orphaned():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert orphaned_helpers(sources) == []


def test_detects_orphaned_helper():
    sources = {
        "a": (
            "import b\n"
            "__version__ = '1'\n"
            "_USED, _UNUSED = 1, 2\n"
            "def _recursive(n):\n"
            "    return _recursive(n - 1)\n"
            "class _Imported:\n"
            "    pass\n"
            "def f():\n"
            "    return _USED + b._by_attribute()\n"
        ),
        "b": (
            "from a import _Imported\n"
            "def _by_attribute():\n"
            "    return _Imported\n"
        ),
    }
    assert orphaned_helpers(sources) == ["a._UNUSED", "a._recursive"]
