"""Every orbitdesign name the benchmark in perfbench/ reaches must exist.

The traced run wraps the functions listed in ``perfbench/tracer.py``
``LAYERS``, and ``perfbench/jobs.py`` calls ``orbitdesign.<name>``; a
renamed or deleted function makes a benchmark run fail, which no other
test would show.  Both files are parsed, not imported.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def parse(name):
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))


def test_traced_layers_exist():
    layers = next(
        ast.literal_eval(node.value)
        for node in parse("tracer.py").body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LAYERS"]
    )
    assert layers
    for module_name, names in layers.items():
        module = importlib.import_module(f"orbitdesign.{module_name}")
        for name in names:
            assert callable(getattr(module, name, None)), f"orbitdesign.{module_name}.{name}"


def test_job_bindings_exist():
    tree = parse("jobs.py")
    checked = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "orbitdesign":
                    importlib.import_module(alias.name)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("orbitdesign"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
    for node in ast.walk(tree):
        chain, root = [], node
        while isinstance(root, ast.Attribute):
            chain.append(root.attr)
            root = root.value
        if chain and isinstance(root, ast.Name) and root.id == "orbitdesign":
            target = importlib.import_module("orbitdesign")
            for attr in reversed(chain):
                assert hasattr(target, attr), "orbitdesign." + ".".join(reversed(chain))
                target = getattr(target, attr)
            checked += 1
    assert checked
