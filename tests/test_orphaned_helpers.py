"""No private helper and no method of the package is left without a reader.

A single-underscore name bound at module level (``def _x``, ``class _X``,
``_X = ...``) is private to the package, so if no module reads it, it is
dead code.  A read inside the name's own definition, such as a recursive
call, does not count.  Dunders such as ``__version__`` are exempt.

A method defined on a class of the package (dunders exempt) must be read as
an attribute, ``.name``, somewhere in ``src/``, ``tests/`` or ``perfbench/``.

Each file is parsed, not imported.
"""

from __future__ import annotations

import ast
from pathlib import Path

import orbitdesign

PACKAGE = Path(orbitdesign.__file__).resolve().parent
READERS = (PACKAGE.parent, Path(__file__).resolve().parent, PACKAGE.parents[1] / "perfbench")


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


def orphaned_methods(sources, readers):
    """'module.Class.method' of each non-dunder method defined on a class of
    sources (module name -> source text) that no text of readers reads as an
    attribute."""
    read = {
        node.attr
        for text in readers
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.Attribute)
    }
    orphans = []
    for module, source in sources.items():
        for cls in ast.walk(ast.parse(source)):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if (
                    isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (node.name.startswith("__") and node.name.endswith("__"))
                    and node.name not in read
                ):
                    orphans.append(f"{module}.{cls.name}.{node.name}")
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


def test_no_method_is_orphaned():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    readers = [p.read_text(encoding="utf-8") for root in READERS for p in root.rglob("*.py")]
    assert orphaned_methods(sources, readers) == []


def test_detects_orphaned_method():
    sources = {
        "a": (
            "class A:\n"
            "    def __len__(self):\n"
            "        return 0\n"
            "    def used(self):\n"
            "        pass\n"
            "    def _private(self):\n"
            "        pass\n"
            "    def unused(self):\n"
            "        pass\n"
            "    def called_by_name(self):\n"
            "        pass\n"
        ),
    }
    readers = [
        "from a import A\nA().used()\nread = A()._private\n",
        "unused = 1\ncalled_by_name()\n",
    ]
    assert orphaned_methods(sources, readers) == ["a.A.unused", "a.A.called_by_name"]
