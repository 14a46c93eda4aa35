"""In-memory spans for the traced run.

A span records name, start, end and its parent; spans nest through a stack.
Self time is a span's duration minus the durations of its direct children,
which never overlap because every span is opened and closed on one thread.
`NULL` has the same interface and records nothing; untraced runs pass it so
the workload code is identical traced and untraced.
"""

from __future__ import annotations

from contextlib import nullcontext
from time import perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "child_time", "count")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.child_time = 0.0
        self.count = 1

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_time(self):
        return self.duration - self.child_time


class _Open:
    __slots__ = ("tracer", "span")

    def __init__(self, tracer, span):
        self.tracer = tracer
        self.span = span

    def __enter__(self):
        self.tracer.stack.append(self.span)
        self.span.start = perf_counter()
        return self.span

    def __exit__(self, *exc):
        sp = self.span
        sp.end = perf_counter()
        self.tracer.stack.pop()
        if sp.parent is not None:
            sp.parent.child_time += sp.duration
        return False


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []

    def span(self, name):
        sp = Span(name, self.stack[-1] if self.stack else None)
        self.spans.append(sp)
        return _Open(self, sp)

    def named(self, name):
        return [s for s in self.spans if s.name == name]

    def per_item(self, name, scale=1.0):
        """Total self time of every `name` span over the items they covered."""
        ss = self.named(name)
        if not ss:
            raise KeyError(f"no span {name!r} recorded")
        return scale * sum(s.self_time for s in ss) / sum(s.count for s in ss)


class _NullTracer:
    spans = ()
    # callers may set count on the yielded span; a shared scratch span
    # takes those writes
    _ctx = nullcontext(Span("untraced", None))

    def span(self, name):
        return self._ctx


NULL = _NullTracer()
