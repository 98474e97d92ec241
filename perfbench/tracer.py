"""Span tracer that wraps coverlab's public functions from outside the package.

Every public function defined in a traced module is replaced by a wrapper
that records one span per call: name, start, end and the index of the
enclosing span.  Modules import functions by name (``from coverlab.count
import find_islands``), so patching the defining module alone would miss
those calls; :meth:`Tracer.install` therefore replaces every module-level
binding of each wrapped function in every loaded ``coverlab`` module.

Spans are kept in flat arrays and reduced to per-function numbers by
:meth:`Tracer.summary` when the traced run ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import defaultdict

TRACED_MODULES = ("expr", "metric", "count", "trace", "_march", "verify")
EXTRA_FUNCTIONS = (("cli", "run"),)


def layer_name(module, func):
    """Metric prefix of a function: ``count.find_roots``, ``march.extract``."""
    return f"{module.lstrip('_')}.{func}"


class Tracer:
    def __init__(self, counters=None):
        self.counters = counters or {}
        self.names = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_outermost = array("b")
        self.counts = defaultdict(int)
        self._stack = []
        self._active = []

    def _wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        self._active.append(0)
        counter = self.counters.get(name)
        stack, active, counts = self._stack, self._active, self.counts
        names, parents, starts, ends = (
            self.span_name, self.span_parent, self.span_start, self.span_end
        )
        outermost = self.span_outermost
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            outermost.append(active[nid] == 0)
            ends.append(0.0)
            stack.append(idx)
            active[nid] += 1
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                active[nid] -= 1
                stack.pop()
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    counts[f"{name}.{key}"] += value
            return result

        wrapper.__wrapped_original__ = fn
        return wrapper

    def install(self):
        """Wrap the traced functions and rebind every reference to them."""
        targets = []
        for short in TRACED_MODULES:
            module = sys.modules[f"coverlab.{short}"]
            for attr, value in vars(module).items():
                if (
                    inspect.isfunction(value)
                    and not attr.startswith("_")
                    and value.__module__ == module.__name__
                ):
                    targets.append((short, attr, value))
        for short, attr in EXTRA_FUNCTIONS:
            targets.append((short, attr, getattr(sys.modules[f"coverlab.{short}"], attr)))

        replacement = {id(fn): self._wrap(layer_name(short, attr), fn)
                       for short, attr, fn in targets}
        for modname, module in list(sys.modules.items()):
            if modname != "coverlab" and not modname.startswith("coverlab."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = replacement.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)

    def summary(self):
        """Per-function calls, inclusive time (outermost calls) and self time."""
        n = len(self.span_start)
        child_time = [0.0] * n
        duration = [self.span_end[i] - self.span_start[i] for i in range(n)]
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                child_time[parent] += duration[i]
        stats = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            entry = stats[self.names[self.span_name[i]]]
            entry["calls"] += 1
            entry["self_s"] += duration[i] - child_time[i]
            if self.span_outermost[i]:
                entry["total_s"] += duration[i]
        return {"spans": n, "functions": stats, "counts": dict(self.counts)}
