"""In-memory spans around the public functions of the sqdecomp modules.

A :class:`Tracer` replaces a function at every place a caller looks it up:
each ``sqdecomp`` module (and the package itself) whose namespace binds the
function object gets a timing wrapper in its place, so a layer is timed from
outside without touching its source. :meth:`Tracer.restore` puts the
originals back. Spans nest through a stack, which assumes the traced code
runs on one thread (the benchmark fits with ``--threads 1``).
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass, field

PACKAGE = "sqdecomp"


@dataclass
class Span:
    """One timed call: name, start and end (perf_counter seconds), parent index."""

    name: str
    start: float
    end: float = float("nan")
    parent: int | None = None
    trace_id: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self, index: int) -> dict:
        return {
            "id": index,
            "trace": self.trace_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "attrs": self.attrs,
        }


def covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return [span.duration - covered(kids) for span, kids in zip(spans, children)]


class Tracer:
    """Records spans in memory; wraps and restores module-level functions."""

    def __init__(self, trace_id: int = 0) -> None:
        self.spans: list[Span] = []
        self.trace_id = trace_id
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent, trace_id=self.trace_id))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index].name} closed out of order")

    def _modules(self):
        for name, module in list(sys.modules.items()):
            if module is not None and (name == PACKAGE or name.startswith(PACKAGE + ".")):
                yield module

    def wrap(self, func, name: str, on_return=None) -> None:
        """Time every call of ``func`` as span ``name``.

        ``on_return(span, arguments, result)`` runs after the span has
        closed, with the call's arguments bound by parameter name, and may
        add counts to ``span.attrs``.
        """
        signature = inspect.signature(func)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self.close(index)
            if on_return is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                on_return(self.spans[index], bound.arguments, result)
            return result

        sites = 0
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                if value is func:
                    self._patched.append((module, attr, func))
                    setattr(module, attr, wrapper)
                    sites += 1
        if sites == 0:
            raise LookupError(f"{func!r} is not bound in any {PACKAGE} module")

    def restore(self) -> None:
        """Put back every original function replaced by :meth:`wrap`."""
        while self._patched:
            module, attr, func = self._patched.pop()
            setattr(module, attr, func)
