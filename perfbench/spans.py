"""Span recorder for the traced run.

`Tracer.install()` wraps every public module-level function of the
linfgraph package in each `linfgraph.*` namespace that binds it (modules
import each other's names with `from .x import y`, so one function can be
bound in several places; all bindings get the same wrapper).  Each wrapped
call records a span (name, start, end, parent, call id) in memory; the
benchmark's own call loop opens the root span of each workload call.
Nothing under src/ is modified: the split comes from outside the program.

Leaf value helpers that run once per element inside sorts and parsers
(vertex_key, edge_key, to_fraction, format_fraction) are not wrapped: they
are not layer boundaries, and a span around each would measure the tracer.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from collections import defaultdict

SKIP = {"vertex_key", "edge_key", "to_fraction", "format_fraction"}


def _outcome_counts(name, result):
    """Counts read off return values at the boundary where the work happens."""
    if name == "graph_core.is_generic":
        return {"pairs": result.pairs_checked,
                "budget_exceeded": int(result.status == "budget_exceeded")}
    if name == "realizability.decide_realizable":
        return {"nodes": result.nodes, "found": int(result.cover is not None)}
    if name == "minors.classify_dim2":
        return {"exceeds": int(result.verdict == "exceeds_2")}
    return None


class Tracer:
    def __init__(self):
        # span: [name, start, end, parent index or -1, call id, counts or None]
        self.spans = []
        self._stack = []
        self._call_id = None
        self._saved = []

    # -- spans -----------------------------------------------------------

    def begin(self, name, call_id=None):
        if call_id is not None:
            self._call_id = call_id
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._call_id, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, idx, counts=None):
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[5] = counts
        self._stack.pop()

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.begin(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer.end(idx, _outcome_counts(name, result) if result is not None else None)

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "linfgraph" or n.startswith("linfgraph."))]
        wrappers = {}
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if (attr.startswith("_") or attr in SKIP
                        or not isinstance(value, types.FunctionType)
                        or not value.__module__.startswith("linfgraph.")):
                    continue
                if value not in wrappers:
                    short = value.__module__[len("linfgraph."):]
                    wrappers[value] = self._wrap(f"{short}.{value.__name__}", value)
                self._saved.append((mod, attr, value))
                setattr(mod, attr, wrappers[value])

    def uninstall(self):
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    # -- derived numbers ---------------------------------------------------

    def summary(self, with_setup=False):
        """Per span name: total_s (outermost spans of that name only, so
        recursion is not counted twice), self_s (duration minus direct
        children), calls, and the summed outcome counts.  Spans of the
        setup phase count only when `with_setup` is set."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, parent, call_id, counts) in enumerate(self.spans):
            if call_id == "setup" and not with_setup:
                continue
            row = out[name]
            dur = end - start
            row["self_s"] += dur - child_time[i]
            row["calls"] += 1
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                row["total_s"] += dur
            for key, value in (counts or {}).items():
                row[key] += value
        return out

    def dump(self, path):
        """Write the spans as JSON lines, one span per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, call_id, counts) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "call": call_id,
                                     "counts": counts}) + "\n")
