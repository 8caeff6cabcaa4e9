"""Every orbitdesign name the benchmark in perfbench/ reaches must exist.

The traced run wraps the functions listed in ``perfbench/tracer.py``
``LAYERS``, and ``perfbench/jobs.py`` calls ``orbitdesign.<name>``; a
renamed or deleted function makes a benchmark run fail, which no other
test would show.  A function that still exists but is no longer called
makes its per-layer metric read 0, so the solve layers are also run.
Both files are parsed, not imported.
"""

from __future__ import annotations

import ast
import importlib
import sys
from collections import Counter
from pathlib import Path

import orbitdesign

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# The traced layers a solve-sweep operation reaches, wide or narrow.
SOLVE_LAYERS = (
    "construct.wide_design",
    "construct.narrow_design",
    "construct.minimize_scalar",
    "verify.kw_check",
    "verify.sensitivity_poly",
    "info_matrix.inverse_coefficients",
    "info_matrix.log_det_symmetric",
    "moments.design_moments",
    "moments.orbit_moment",
)


def parse(name):
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))


def traced_layers():
    return next(
        ast.literal_eval(node.value)
        for node in parse("tracer.py").body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LAYERS"]
    )


def test_traced_layers_exist():
    layers = traced_layers()
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


def test_solve_layers_are_called(monkeypatch):
    # Wrap every binding of each traced function in every orbitdesign
    # module, as the tracer does, so nested calls through
    # ``from .x import y`` bindings are counted too.
    layers = {
        id(getattr(importlib.import_module(f"orbitdesign.{short}"), name)): f"{short}.{name}"
        for short, names in traced_layers().items()
        for name in names
    }
    calls = Counter()

    def counting(layer, fn):
        def wrapper(*args, **kwargs):
            calls[layer] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module_name, module in list(sys.modules.items()):
        if module_name == "orbitdesign" or module_name.startswith("orbitdesign."):
            for attr, value in list(vars(module).items()):
                layer = layers.get(id(value))
                if layer is not None:
                    monkeypatch.setattr(module, attr, counting(layer, value))

    # The two operations of the solve-sweep workload, as perfbench/jobs.py runs them.
    spec = orbitdesign.wide_design(20, 3)
    assert orbitdesign.kw_check(spec.design, 3, 17).passed
    wide_calls = calls.copy()

    # The calls of one wide solve: the design's moments are computed once,
    # in wide_design, and kw_check reads them back; M = I needs no inverse,
    # quartic, log det, orbit moment or search.
    assert wide_calls["construct.wide_design"] == 1
    assert wide_calls["verify.kw_check"] == 1
    assert wide_calls["moments.design_moments"] == 2
    for layer in (
        "verify.sensitivity_poly",
        "info_matrix.inverse_coefficients",
        "info_matrix.log_det_symmetric",
        "moments.orbit_moment",
        "construct.minimize_scalar",
    ):
        assert wide_calls[layer] == 0, layer
    assert orbitdesign.narrow_design(20, 8).kw_report.passed
    assert set(SOLVE_LAYERS) <= set(layers.values())
    assert not [layer for layer in SOLVE_LAYERS if calls[layer] == 0]

    # The calls of one narrow solve, which perfbench's per-solve counts read.
    narrow_calls = calls - wide_calls
    assert narrow_calls["construct.minimize_scalar"] == 1
    assert narrow_calls["info_matrix.log_det_symmetric"] == 1
    assert narrow_calls["moments.orbit_moment"] == 4
    # The ulp walk signs on the determinant polynomials; the quartic and
    # the block inverse are built once, for the certificate.
    assert narrow_calls["verify.sensitivity_poly"] == 1
    assert narrow_calls["info_matrix.inverse_coefficients"] == 1
