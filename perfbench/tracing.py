"""Span tracing by rebinding module attributes, from outside the program.

Each traced name ``module.attr`` is wrapped once; the wrapper replaces the
original in every loaded ``schurflow`` module that holds the same function
object, so calls through ``from x import f`` bindings are caught too.  Spans
(name, start, end, parent) are kept in memory and written out at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counters = {}
        self.missing = set()  # traced names not found, or whose hook failed
        self._stack = []

    def wrap(self, module_name: str, attr: str, count=None) -> None:
        """Trace ``module_name.attr``; ``count(bound_args, result)`` may
        return ``{counter: increment}`` recorded per call.  A hook that no
        longer fits the function's arguments or result marks the name as
        missing instead of failing the run."""
        name = f"{module_name.rsplit('.', 1)[-1]}.{attr}"
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if not callable(original):
            self.missing.add(name)
            return
        signature = inspect.signature(original)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, time.perf_counter(), None, parent]
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if count is not None and name not in tracer.missing:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    increments = count(bound.arguments, result)
                except (AttributeError, KeyError, OSError, TypeError):
                    tracer.missing.add(name)
                else:
                    for key, inc in increments.items():
                        tracer.counters[key] = tracer.counters.get(key, 0) + inc
            return result

        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "") or "").startswith("schurflow") and (
                getattr(mod, attr, None) is original
            ):
                setattr(mod, attr, traced)

    def summary(self) -> dict:
        """Per name: number of calls and inclusive seconds."""
        out = {}
        for name, start, end, _ in self.spans:
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
        return out
