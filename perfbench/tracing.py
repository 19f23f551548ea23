"""In-memory spans around the calls into faultlines' layers.

The benchmark opens a span around each public call it makes (parse,
typecheck, CFG build, single-assignment rename, the explorer's ``run``
and JSON rendering).  For a traced run only, :meth:`Tracer.install` also
replaces three internal functions by timing wrappers:

* ``faultlines.explorer.propagate`` (concrete execution of one candidate),
* ``faultlines.explorer.enumerate_on`` (one MCS enumeration),
* ``faultlines.solver.Solver.check`` (one solver search).

``run`` looks the first two up in its module namespace at call time, so
patching the module attribute is enough.  A name that no longer exists is
reported as absent instead of failing the benchmark.

A span is ``[name, start, end, parent index, localization id]``; spans
stay in a list until :meth:`Tracer.write` dumps them as JSON lines.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time

HOOKS = (
    ("faultlines.explorer", "propagate", "propagate"),
    ("faultlines.explorer", "enumerate_on", "enumerate_on"),
    ("faultlines.solver", "Solver.check", "check"),
)

NO_SPAN = contextlib.nullcontext()


def no_span(name: str):
    return NO_SPAN


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.loc_id = 0
        self.absent: list = []
        self._restore: list = []

    def open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.loc_id]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        rec = self.open(name)
        try:
            yield
        finally:
            self.close(rec)

    def _wrap(self, fn, name: str):
        open_, close = self.open, self.close

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            rec = open_(name)
            try:
                return fn(*args, **kwargs)
            finally:
                close(rec)

        return timed

    def install(self) -> None:
        self.absent = []
        for module_name, attr, span_name in HOOKS:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                owner = None
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                self.absent.append(span_name)
                continue
            setattr(owner, leaf, self._wrap(original, span_name))
            self._restore.append((owner, leaf, original))

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._restore):
            setattr(owner, leaf, original)
        self._restore.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, loc in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "localization": loc}) + "\n")

    def self_times(self, loc_ids) -> dict:
        """Total self time in seconds per span name, over localizations `loc_ids`.

        A span's self time is its duration minus the durations of its
        direct children; spans of one thread nest, so children never
        overlap.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for i, (name, start, end, _, loc) in enumerate(self.spans):
            if loc in loc_ids:
                out[name] = out.get(name, 0.0) + (end - start) - child[i]
        return out

    def totals(self, loc_ids) -> dict:
        """(total duration in seconds, call count) per span name, over `loc_ids`."""
        out: dict = {}
        for name, start, end, _, loc in self.spans:
            if loc in loc_ids:
                dur, n = out.get(name, (0.0, 0))
                out[name] = (dur + end - start, n + 1)
        return out
