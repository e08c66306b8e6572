"""Layer spans recorded from outside the program.

Each boundary is a public entry point of an equihol module. ``Tracer.install``
rebinds the function in every ``equihol`` module that holds it (and, for
methods, on the class), so calls between modules go through the wrapper
too; ``uninstall`` puts the originals back. A span records its layer, start,
end, parent span and operation id, in memory. A layer's self time is the
duration of its spans minus the time covered by their child spans. A call
into a layer from inside the same layer (``random_class_path`` building its
path through ``Path.from_map``) is part of the outer span, not a new one.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

import numpy as np


def _points(args, kwargs, result):
    return {"points": len(result.points)}


def _segments(args, kwargs, result):
    path = kwargs["path"] if "path" in kwargs else args[1]
    return {"segments": len(path.points) - 1}


def _matrix(args, kwargs, result):
    rows, cols = np.shape(args[0])
    return {"rows": rows, "cols": cols}


# (layer, module, attribute, work counter). An attribute "Class.method"
# names a method or classmethod.
BOUNDARIES = (
    ("scenario.load", "equihol.scenario", "load_scenario", None),
    ("scenario.build", "equihol.scenario", "Scenario.build_model", None),
    ("scenario.build", "equihol.scenario", "Scenario.build_lattice_model", None),
    ("geometry.path_sampling", "equihol.geometry", "Path.line", _points),
    ("geometry.path_sampling", "equihol.geometry", "Path.from_map", _points),
    ("geometry.path_sampling", "equihol.holonomy", "random_class_path", _points),
    ("geometry.line_integral", "equihol.geometry", "line_integral", _segments),
    ("geometry.rk4_line_integral", "equihol.geometry", "rk4_line_integral", _segments),
    ("bundle.check_cocycle", "equihol.bundle", "check_cocycle", None),
    ("bundle.connection_report", "equihol.bundle", "connection_report", None),
    ("holonomy.equivariant_holonomy", "equihol.holonomy", "equivariant_holonomy", None),
    ("holonomy.flat_character", "equihol.holonomy", "flat_character", None),
    ("solvers.primitive", "equihol.solvers", "solve_equivariant_primitive", None),
    ("solvers.invariance_obstruction", "equihol.solvers", "invariance_obstruction", None),
    ("solvers.membership", "equihol.solvers", "character_membership", None),
    ("solvers.lstsq", "equihol.solvers", "_lstsq_with_lifts", _matrix),
    ("solvers.revalidate", "equihol.solvers", "_revalidate", None),
    ("local_search.lie_coboundary", "equihol.local_search", "solve_local_lie_coboundary", None),
    ("local_search.global_form", "equihol.local_search", "solve_local_global_form", None),
    ("local_search.local_verdict", "equihol.local_search", "local_verdict", None),
    ("suites.geometry", "equihol.suites", "geometry_suite", None),
    ("suites.bundle", "equihol.suites", "bundle_suite", None),
    ("suites.holonomy", "equihol.suites", "holonomy_suite", None),
    ("suites.flat", "equihol.suites", "flat_suite", None),
    ("suites.lattice", "equihol.suites", "lattice_suite", None),
    ("reports.to_json", "equihol.reports", "to_json", None),
)

LAYERS = tuple(dict.fromkeys(b[0] for b in BOUNDARIES))
COUNTS = {
    "geometry.path_sampling": ("points",),
    "geometry.line_integral": ("segments",),
    "geometry.rk4_line_integral": ("segments",),
    "solvers.lstsq": ("rows", "cols"),
}
# Time inside operations that no listed boundary covers.
ROOT = "unattributed"


class Tracer:
    def __init__(self):
        # Each span is [layer, start, end, parent index, operation id].
        self.spans: List[list] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self._stack: List[int] = []
        self._op: Optional[int] = None
        self._restore: List[Callable[[], None]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, layer: str) -> list:
        span = [layer, time.perf_counter(), None, self._stack[-1] if self._stack else None, self._op]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def operation(self, op_id: int):
        """Root span of one benchmark operation."""
        self._op = op_id
        span = self._open(ROOT)
        try:
            yield
        finally:
            self._close(span)
            self._op = None

    def wrap(self, layer: str, fn: Callable, counter) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._stack and self.spans[self._stack[-1]][0] == layer:
                return fn(*args, **kwargs)
            span = self._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    self.counts[f"{layer}.{key}"] += value
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for layer, module_name, attr, counter in BOUNDARIES:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(layer, raw.__func__, counter))
                else:
                    new = self.wrap(layer, raw, counter)
                setattr(cls, meth, new)
                self._restore.append(functools.partial(setattr, cls, meth, raw))
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(layer, original, counter)
            for name, mod in list(sys.modules.items()):
                if not (name == "equihol" or name.startswith("equihol.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self._restore.append(functools.partial(setattr, mod, key, original))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    # -- results -----------------------------------------------------------

    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """calls and self time per layer, plus the work counts."""
        child_time = [0.0] * len(self.spans)
        for layer, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals = {layer: {"calls": 0, "self_s": 0.0} for layer in (ROOT,) + LAYERS}
        for (layer, start, end, _, _), inner in zip(self.spans, child_time):
            totals[layer]["calls"] += 1
            totals[layer]["self_s"] += (end - start) - inner
        for layer, keys in COUNTS.items():
            for key in keys:
                totals[layer][key] = self.counts.get(f"{layer}.{key}", 0)
        return totals

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for layer, start, end, parent, op in self.spans:
                fh.write(json.dumps({"layer": layer, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
