"""In-memory span recorder that wraps gaugecert's public functions from outside.

gaugecert modules import each other with ``from .x import y``, so a function
is wrapped wherever a module binds it, not only where it is defined.  Spans
are (name, start, end, parent, op) tuples kept in a list and written out
when the run ends; nothing under ``src/`` is changed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

#: Package modules, one layer each.
LAYERS = ("exactnum", "lens", "index", "seifert", "cstau", "knots", "lattice", "matutil", "obstruct", "cli")

#: Class methods traced besides each module's public functions: (module, class, attribute, stat name).
METHODS = (
    ("exactnum", "CycloElement", "__mul__", "mul"),
    ("exactnum", "CycloElement", "inverse", "inverse"),
)

#: Functions whose first argument is a size worth summing (the cotangent-sum order a).
SIZED = {"exactnum.cot_cot_sin2_sum"}

#: Functions whose result length is counted (the C(e) classes found).
COUNTED = {"lattice.enumerate_C_e"}


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.op: int | None = None
        self.raised: dict[str, int] = defaultdict(int)
        self.sizes: dict[str, list[int]] = defaultdict(list)
        self.returned: dict[str, int] = defaultdict(int)
        self.wrapped: set[str] = set()

    def wrap(self, name: str, fn):
        spans, stack, raised, returned = self.spans, self.stack, self.raised, self.returned
        sizes = self.sizes[name] if name in SIZED else None
        counted = name in COUNTED
        self.wrapped.add(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(idx)
            if sizes is not None:
                sizes.append(args[0])
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[name] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if counted:
                returned[name] += len(result)
            return result

        return traced

    def run_op(self, op_id: int, fn, *args):
        """Run one operation as a root span named ``op``."""
        self.op = op_id
        try:
            return self.wrap("op", fn)(*args)
        finally:
            self.op = None

    def patch_package(self) -> None:
        """Wrap every public function of every layer, where each module binds it."""
        wrappers = {}  # id of an original function -> its wrapper
        for layer in LAYERS:
            mod = importlib.import_module(f"gaugecert.{layer}")
            for attr in getattr(mod, "__all__", dir(mod)):
                obj = getattr(mod, attr, None)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrappers[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
        for name, mod in list(sys.modules.items()):
            if name == "gaugecert" or name.startswith("gaugecert."):
                for attr, val in list(vars(mod).items()):
                    if id(val) in wrappers and inspect.isfunction(val):
                        setattr(mod, attr, wrappers[id(val)])
        for layer, cls_name, attr, stat in METHODS:
            cls = getattr(importlib.import_module(f"gaugecert.{layer}"), cls_name)
            setattr(cls, attr, self.wrap(f"{layer}.{cls_name}.{stat}", getattr(cls, attr)))

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def summary(self) -> dict:
        """Per name: calls, inclusive seconds (outermost calls only) and self
        seconds; per layer: self seconds and inclusive seconds (outermost)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        incl: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        layer_self: dict[str, float] = defaultdict(float)
        layer_incl: dict[str, float] = defaultdict(float)

        def outermost(parent, same) -> bool:
            while parent is not None and not same(self.spans[parent][0]):
                parent = self.spans[parent][3]
            return parent is None

        for idx, (name, start, end, parent, _) in enumerate(self.spans):
            layer = name.split(".")[0]
            calls[name] += 1
            own = end - start - child[idx]
            self_s[name] += own
            layer_self[layer] += own
            if outermost(parent, lambda other: other == name):
                incl[name] += end - start
            if outermost(parent, lambda other: other.split(".")[0] == layer):
                layer_incl[layer] += end - start
        return {
            "calls": dict(calls),
            "s": dict(incl),
            "self_s": dict(self_s),
            "layer_self_s": dict(layer_self),
            "layer_s": dict(layer_incl),
            "raised": dict(self.raised),
            "returned": dict(self.returned),
            "wrapped": sorted(self.wrapped),
            "sizes": {k: [sum(v), max(v, default=0)] for k, v in self.sizes.items()},
        }
