"""Span tracer for the traced run.

The traced run wraps every binding of each function in ``LAYERS`` in every
``orbitdesign`` module namespace.  Modules import each other with
``from .x import y``, so patching only the defining module would miss nested
calls such as construct -> kw_check -> inverse_coefficients.

Each call becomes a span (name, parent, start, end, busy, child busy).  A
layer's self time is its busy time minus the busy time of its child spans.
Generators (``enumerate_orbit``) get one span per generator whose busy time
is the time spent inside ``next``, so the iteration is timed and the
consumer's own work between items is not; that time is credited as child
time to whichever span is running when the item is drawn.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter
from time import perf_counter

#: Traced functions by defining module namespace (``minimize_scalar`` is
#: scipy's, traced through its binding in ``construct``).
LAYERS = {
    "cli": ("main",),
    "construct": ("wide_design", "narrow_design", "minimize_scalar"),
    "verify": ("kw_check", "sensitivity_poly", "brute_force_info"),
    "info_matrix": (
        "assemble_general",
        "assemble_inverse",
        "inverse_coefficients",
        "log_det_symmetric",
        "regularity",
    ),
    "moments": ("design_moments", "orbit_moment"),
    "orbits": ("enumerate_orbit",),
}

ROOT = "bench.op"


class Tracer:
    """In-memory spans plus call counts per (layer, calling module)."""

    def __init__(self) -> None:
        # [name, parent index, start, end, busy, child busy]
        self.spans: list[list] = []
        self._stack: list[list] = []
        self.site_calls: Counter = Counter()
        self.items: Counter = Counter()
        self._restore: list[tuple] = []

    def call(self, name: str, fn, *args, **kwargs):
        span = [name, self._stack[-1][0] if self._stack else -1, 0.0, 0.0, 0.0, 0.0]
        frame = [len(self.spans), 0.0]
        self.spans.append(span)
        self._stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            span[2:] = [start, end, end - start, frame[1]]
            if self._stack:
                self._stack[-1][1] += end - start

    def iterate(self, name: str, generator):
        parent = self._stack[-1][0] if self._stack else -1
        span = [name, parent, perf_counter(), 0.0, 0.0, 0.0]
        self.spans.append(span)
        busy = 0.0
        count = 0
        try:
            while True:
                start = perf_counter()
                try:
                    item = next(generator)
                except StopIteration:
                    return
                finally:
                    dt = perf_counter() - start
                    busy += dt
                    if self._stack:
                        self._stack[-1][1] += dt
                count += 1
                yield item
        finally:
            span[3:5] = [perf_counter(), busy]
            self.items[name] += count

    def _wrap(self, layer: str, site: str, fn):
        key = (layer, site)
        tracer = self
        if inspect.isgeneratorfunction(fn):

            def wrapper(*args, **kwargs):
                tracer.site_calls[key] += 1
                return tracer.iterate(layer, fn(*args, **kwargs))

        else:

            def wrapper(*args, **kwargs):
                tracer.site_calls[key] += 1
                return tracer.call(layer, fn, *args, **kwargs)

        return functools.update_wrapper(wrapper, fn)

    def install(self) -> None:
        """Replace every binding of the traced functions in orbitdesign's modules."""
        modules = {
            name: module
            for name, module in list(sys.modules.items())
            if module is not None and (name == "orbitdesign" or name.startswith("orbitdesign."))
        }
        originals = {}
        for short, names in LAYERS.items():
            module = modules[f"orbitdesign.{short}"]
            for fn_name in names:
                originals[id(getattr(module, fn_name))] = f"{short}.{fn_name}"
        for mod_name, module in modules.items():
            site = mod_name.rpartition(".")[2]
            for attr, value in list(vars(module).items()):
                layer = originals.get(id(value))
                if layer is not None:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, self._wrap(layer, site, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy_ms and self_ms."""
        out: dict[str, dict[str, float]] = {}
        for name, _, _, _, busy, child in self.spans:
            entry = out.setdefault(name, {"calls": 0, "busy_ms": 0.0, "self_ms": 0.0})
            entry["calls"] += 1
            entry["busy_ms"] += busy * 1e3
            entry["self_ms"] += (busy - child) * 1e3
        return out

    def calls_from(self, layer: str, site: str) -> int:
        """Calls of ``layer`` made through the binding in module ``site``."""
        return self.site_calls[(layer, site)]
