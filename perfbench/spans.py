"""In-memory span recorder for the traced benchmark run.

A span is one call into a package function: name, start, end, the span that
caused it, and counters read off its result. Functions are wrapped where the
package imports them (every module attribute that holds the function), so
the package itself is never edited. Spans are kept in a list and summarised
when the run ends.

Worker threads of ``denitlab.utils.parallel_map`` start with an empty span
stack, because the executor does not carry context; the parallel_map wrapper
therefore hands each task the parallel_map span as an explicit parent.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    t0: float
    t1: float
    counters: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


def union_length(intervals) -> float:
    """Total length covered by possibly overlapping [lo, hi] intervals."""
    total = 0.0
    end = None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval that its children cover.

    Children may overlap one another (tasks of a thread pool), so the covered
    part is the length of the union of their intervals, clipped to the parent.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = union_length((max(c.t0, s.t0), min(c.t1, s.t1))
                               for c in children[s.id])
        out[s.id] = s.duration - covered
    return out


def unattributed(spans: list[Span], t0: float, t1: float) -> float:
    """Wall time in [t0, t1] that no root span covers."""
    roots = [(max(s.t0, t0), min(s.t1, t1)) for s in spans if s.parent is None]
    return (t1 - t0) - union_length(roots)


class Tracer:
    """Records spans from any thread; ``install`` wraps package functions."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []
        self._dict_patched: list[tuple[dict, object, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, parent: int | None = None):
        """Record one span; yields a dict whose items become its counters.

        ``parent`` overrides the enclosing span of this thread, for work
        handed to another thread.
        """
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        sid = next(self._ids)
        counters: dict = {}
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield sid, counters
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, parent, name, t0, t1, counters))

    def wrap(self, fn, name, count=None):
        """Traced version of ``fn``.

        ``name`` is a span name or a function of the call's arguments that
        returns one; ``count(result, counters)`` fills counters on success.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name(*args, **kwargs) if callable(name) else name
            with self.span(span_name) as (_, counters):
                result = fn(*args, **kwargs)
                if count is not None:
                    count(result, counters)
                return result
        return traced

    def wrap_parallel_map(self, fn):
        """Traced parallel_map whose tasks are child spans, in any thread."""
        @functools.wraps(fn)
        def traced(task_fn, items, jobs: int = 1):
            with self.span("utils.parallel_map") as (sid, counters):
                counters["jobs"] = jobs

                def task(item):
                    with self.span("utils.parallel_map.task", parent=sid):
                        return task_fn(item)
                return fn(task, items, jobs=jobs)
        return traced

    def install(self, targets) -> None:
        """Replace each target function at every import site in the package.

        ``targets`` maps (module name, attribute) to a wrapper factory that
        takes the original function. Dict values that hold the original (a
        command table) are replaced too.
        """
        for mod_name, _ in targets:
            importlib.import_module(mod_name)
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "denitlab" or n.startswith("denitlab."))]
        for (mod_name, attr), make in targets.items():
            original = getattr(sys.modules[mod_name], attr)
            wrapper = make(original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                value[k] = wrapper
                                self._dict_patched.append((value, k, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        for table, key, original in reversed(self._dict_patched):
            table[key] = original
        self._patched.clear()
        self._dict_patched.clear()
