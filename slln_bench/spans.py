"""In-memory span tracer for the traced run.

The tracer wraps public functions of pqslln from outside the package: each
name is replaced where the caller looks it up (a module attribute, a name a
module imported with `from ... import`, or a method on a class), and the
original is put back by `restore`.  A span records its name, start, end,
parent span, thread, the phase label the runner set, and an optional work
count (elements, intervals, bytes).  Spans stay in memory until `dump`.

Spans nest per thread: a span opened in a worker thread has no parent.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []   # (id, name, start_ns, end_ns, parent, thread, phase, work)
        self.phase = "main"
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str, work=None, on_call=None) -> None:
        """Replace `owner.attr` by a traced version.

        `work(args, kwargs, result)` gives the span's work count; `on_call`
        sees the same arguments and may keep a reference to the result.
        """
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = orig(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
            count = work(args, kwargs, result) if work else None
            tracer.spans.append((sid, name, start, end, parent, threading.get_ident(),
                                 tracer.phase, count))
            if on_call:
                on_call(args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, orig))

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def span(self, name: str):
        """Context manager for a span the runner opens itself."""
        return _ManualSpan(self, name)

    # -- analysis ----------------------------------------------------------

    def analysis(self) -> "SpanIndex":
        return SpanIndex(self.spans)

    def dump(self, path: str) -> None:
        keys = ("id", "name", "start_ns", "end_ns", "parent", "thread", "phase", "work")
        with open(path, "w") as fh:
            for rec in sorted(self.spans):
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")


class _ManualSpan:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        stack = self.tracer._stack()
        self.sid = next(self.tracer._ids)
        self.parent = stack[-1] if stack else None
        stack.append(self.sid)
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter_ns()
        self.tracer._stack().pop()
        self.tracer.spans.append((self.sid, self.name, self.start, end, self.parent,
                                  threading.get_ident(), self.tracer.phase, None))
        return False


class SpanIndex:
    """Queries over a finished span list."""

    def __init__(self, spans):
        self.by_id = {s[0]: s for s in spans}
        self.by_name = defaultdict(list)
        self.children = defaultdict(list)
        for s in spans:
            self.by_name[s[1]].append(s)
            if s[4] is not None:
                self.children[s[4]].append(s)

    def _ancestors(self, span):
        parent = span[4]
        while parent is not None and parent in self.by_id:
            yield self.by_id[parent]
            parent = self.by_id[parent][4]

    def outermost(self, name: str, phase: str = "main") -> list[tuple]:
        """Spans called `name` in `phase` with no ancestor of the same name."""
        return [s for s in self.by_name[name]
                if s[6] == phase and all(a[1] != name for a in self._ancestors(s))]

    def seconds(self, name: str, phase: str = "main") -> float:
        return sum(s[3] - s[2] for s in self.outermost(name, phase)) / 1e9

    def calls(self, name: str, phase: str = "main") -> int:
        return sum(1 for s in self.by_name[name] if s[6] == phase)

    def work(self, name: str, phase: str = "main") -> float:
        return sum(s[7] or 0 for s in self.outermost(name, phase))

    def per_elem_ns(self, name: str, phase: str = "main") -> float:
        """Inclusive nanoseconds per unit of work; 0 when the layer did no work."""
        spans = self.outermost(name, phase)
        work = sum(s[7] or 0 for s in spans)
        return sum(s[3] - s[2] for s in spans) / work if work else 0.0

    def descendants_named(self, span, name: str) -> int:
        count, todo = 0, list(self.children[span[0]])
        while todo:
            child = todo.pop()
            count += child[1] == name
            todo.extend(self.children[child[0]])
        return count

    def self_seconds(self, phase: str = "main") -> dict[str, float]:
        """Self time per span name: duration minus the time its children cover."""
        out: dict[str, float] = defaultdict(float)
        for s in self.by_id.values():
            if s[6] != phase:
                continue
            covered = sum(c[3] - c[2] for c in self.children[s[0]])
            out[s[1]] += (s[3] - s[2] - covered) / 1e9
        return dict(out)
