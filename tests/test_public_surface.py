"""``import orbitdesign`` exposes the paper's objects and nothing more.

``__all__`` lists the region and its designs, the constructors with their
regime test and result types, the equivalence-theorem check and the
exceptions.  Any other public name bound in the package must be one that
``perfbench/jobs.py`` reaches as ``orbitdesign.<name>``; everything else is
imported from its module.  jobs.py is parsed, not imported.
"""

from __future__ import annotations

import ast
from pathlib import Path
from types import ModuleType

import orbitdesign

JOBS = Path(__file__).resolve().parents[1] / "perfbench" / "jobs.py"

PUBLIC = {
    "EstimabilityError",
    "OrbitDesignError",
    "SingularDesignError",
    "UnsupportedRegionError",
    "WrongRegimeError",
    "OrbitDesign",
    "Region",
    "MomentSet",
    "optimal_design",
    "wide_design",
    "narrow_design",
    "full_factorial",
    "lemma2_design",
    "regime",
    "threshold_b",
    "kw_check",
    "OptimalDesign",
    "WideDesignSpec",
    "NarrowDesignSpec",
    "KwReport",
}


def benchmark_names():
    """Names jobs.py reads as ``orbitdesign.<name>`` or imports from ``orbitdesign``."""
    names = set()
    for node in ast.walk(ast.parse(JOBS.read_text(encoding="utf-8"))):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "orbitdesign"
        ):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module == "orbitdesign":
            names.update(alias.name for alias in node.names)
    return names


def test_all_is_the_papers_objects():
    assert sorted(orbitdesign.__all__) == sorted(PUBLIC)
    for name in orbitdesign.__all__:
        assert getattr(orbitdesign, name) is not None


def test_other_public_names_are_the_benchmarks():
    bound = {
        name
        for name, value in vars(orbitdesign).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    reached = benchmark_names()
    assert reached
    assert sorted(bound - PUBLIC - reached) == []
