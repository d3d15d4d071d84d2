"""Span recorder for the benchmark's traced run.

The recorder wraps public quatpca names from outside the package: it
rebinds every module attribute through which the program reaches a
function (``quatpca.cli.fit`` and ``quatpca.solver.fit`` are one
function), or a class attribute such as ``QMatrix.__matmul__``.  Each
call made while the wrappers are installed becomes a span with a name,
start, end, parent and run id; spans stay in memory until the run writes
them out.  ``unwrap`` restores the original attributes.
A target that no longer exists is recorded as missing and yields zero
calls, so the benchmark keeps working when a later version drops it.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: int


class Tracer:
    """In-memory spans plus counters, recorded while the wrappers are installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[tuple[int, str], float] = defaultdict(int)
        self.stack: list[int] = []
        self.run_id = 0
        self.missing: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------

    def open(self, name):
        parent = self.stack[-1] if self.stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.run_id))
        self.stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self.stack.pop()].end = time.perf_counter()

    def count(self, name, amount=1):
        self.counters[(self.run_id, name)] += amount

    def maximum(self, name, value):
        key = (self.run_id, name)
        self.counters[key] = max(self.counters[key], value)

    def inside(self, name):
        """Whether an open span (the current one or an ancestor) has this name."""
        return any(self.spans[i].name == name for i in self.stack)

    # -- wrapping ------------------------------------------------------

    def _wrapper(self, fn, name, after):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    def wrap_function(self, module_name, attr, name, after=None):
        """Rebind ``module.attr`` in every loaded quatpca module that refers to it."""
        module = sys.modules.get(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            self._missing(f"{module_name}.{attr}")
            return
        wrapper = self._wrapper(fn, name, after)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "quatpca" or modname.startswith("quatpca.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is fn:
                    self._restore.append((mod, key, value))
                    setattr(mod, key, wrapper)

    def wrap_method(self, cls, attr, name, after=None):
        fn = cls.__dict__.get(attr)
        if fn is None:
            self._missing(f"{cls.__qualname__}.{attr}")
            return
        self._restore.append((cls, attr, fn))
        setattr(cls, attr, self._wrapper(fn, name, after))

    def _missing(self, target):
        if target not in self.missing:
            self.missing.append(target)

    def unwrap(self):
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    # -- analysis ------------------------------------------------------

    def self_times(self):
        """Each span's duration minus the part of it that child spans cover."""
        kids = defaultdict(list)
        for idx, span in enumerate(self.spans):
            if span.parent is not None:
                kids[span.parent].append(idx)
        out = []
        for idx, span in enumerate(self.spans):
            covered = 0.0
            last_end = span.start
            for k in sorted(kids.get(idx, ()), key=lambda i: self.spans[i].start):
                start = max(self.spans[k].start, last_end)
                end = min(self.spans[k].end, span.end)
                if end > start:
                    covered += end - start
                    last_end = end
            out.append(span.end - span.start - covered)
        return out

    def dump(self):
        """Spans as compact [name, start, end, parent, run_id] rows."""
        return [[s.name, s.start, s.end, s.parent, s.run_id] for s in self.spans]


def _outermost(spans, idx, name):
    """Whether no ancestor of span ``idx`` has the same name."""
    parent = spans[idx].parent
    while parent is not None:
        if spans[parent].name == name:
            return False
        parent = spans[parent].parent
    return True


def summarize(tracer, run_ids):
    """Per run: call counts, inclusive and self seconds per span name, self seconds per layer, counters.

    Inclusive time counts only the outermost span of a name, so a
    recursive call is not counted twice.
    """
    self_s = tracer.self_times()
    out = []
    for run_id in run_ids:
        calls = defaultdict(int)
        total = defaultdict(float)
        own = defaultdict(float)
        layers = defaultdict(float)
        for idx, span in enumerate(tracer.spans):
            if span.run_id != run_id:
                continue
            calls[span.name] += 1
            own[span.name] += self_s[idx]
            layers[span.name.split(".", 1)[0]] += self_s[idx]
            if _outermost(tracer.spans, idx, span.name):
                total[span.name] += span.end - span.start
        counters = {name: value for (rid, name), value in tracer.counters.items() if rid == run_id}
        out.append({"calls": calls, "total_s": total, "self_s": own, "layer_self_s": layers,
                    "counters": counters})
    return out
