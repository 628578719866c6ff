"""Benchmark-side tracing: spans around calls into each layer.

:class:`SpanRecorder` replaces selected public functions and methods with
timing wrappers for the duration of a traced phase and restores them
afterwards; the program itself is not modified. Spans are kept in
memory. A span opened on a worker thread with no open span of its own
is parented to the innermost open span of the main thread: the
benchmark is a single closed-loop client, so at most one request is in
flight and the engine's constraint fan-out always runs on behalf of it.
"""

from __future__ import annotations

import gc
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple


@dataclass
class Span:
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float = 0.0
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


#: ``attrs(args, kwargs, result) -> dict`` of attributes for the span.
Attrs = Callable[[tuple, dict, Any], Dict[str, Any]]
#: ``gate(args, kwargs) -> bool``: False runs the call without a span.
Gate = Callable[[tuple, dict], bool]


class SpanRecorder:
    """Records spans from wrappers installed on functions and methods."""

    def __init__(self):
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: List[int] = []
        self._main_thread = threading.main_thread()
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- span stack -----------------------------------------------------

    def _stack(self) -> List[int]:
        if threading.current_thread() is self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._main_stack and stack is not self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = None
        span = Span(next(self._ids), parent, name, time.perf_counter())
        stack.append(span.id)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == span.id:
            stack.pop()
        self.spans.append(span)

    # -- wrappers -------------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        attrs: Optional[Attrs] = None,
        gate: Optional[Gate] = None,
    ) -> None:
        """Trace every call of ``owner.attr`` as span ``name``."""
        original = getattr(owner, attr)
        recorder = self

        def traced(*args, **kwargs):
            if gate is not None and not gate(args, kwargs):
                return original(*args, **kwargs)
            span = recorder.open(name)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                if attrs is not None:
                    span.attrs.update(attrs(args, kwargs, result))
                recorder.close(span)

        traced.__wrapped__ = original
        self._patch(owner, attr, traced)

    def accumulate(self, owner: Any, attr: str, name: str, key: Callable[[tuple], Any]) -> None:
        """Sum the time of ``owner.attr`` calls without creating spans.

        For calls too frequent to trace one by one (an R-tree insert per
        located page); ``counters[name + ".seconds"]`` holds the total and
        ``counters[name + ".groups"]`` the number of distinct ``key(args)``
        values seen (one per index instance built).
        """
        original = getattr(owner, attr)
        counters = self.counters
        groups: set = set()

        def timed(*args, **kwargs):
            started = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                counters[name + ".seconds"] += time.perf_counter() - started
                group = key(args)
                if group not in groups:
                    groups.add(group)
                    counters[name + ".groups"] += 1

        timed.__wrapped__ = original
        self._patch(owner, attr, timed)

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patched.append((owner, attr, owner.__dict__.get(attr, _ABSENT)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patched:
            owner, attr, previous = self._patched.pop()
            if previous is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)

    # -- analysis -------------------------------------------------------

    def by_name(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def self_seconds(self) -> Dict[int, float]:
        """Span id -> duration minus the part its child spans cover.

        Children may overlap (parallel constraint evaluation), so the
        covered part is the union of the children's intervals, clipped
        to the parent's interval.
        """
        children: Dict[int, List[Span]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append(span)
        out: Dict[int, float] = {}
        for span in self.spans:
            covered = 0.0
            cursor = span.start
            for child in sorted(children.get(span.id, ()), key=lambda c: c.start):
                lo = max(child.start, cursor)
                hi = min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out[span.id] = span.seconds - covered
        return out


_ABSENT = object()


class GcMonitor:
    """Garbage-collection pauses seen while installed (``gc.callbacks``)."""

    def __init__(self):
        self.pauses: List[Tuple[int, float]] = []  # (generation, seconds)
        self._started = 0.0

    def _callback(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.pauses.append((info["generation"], time.perf_counter() - self._started))

    def install(self) -> None:
        gc.callbacks.append(self._callback)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._callback)

    @property
    def seconds(self) -> float:
        return sum(seconds for _, seconds in self.pauses)

    @property
    def full(self) -> List[float]:
        """Pause seconds of each full (oldest-generation) collection."""
        return [seconds for generation, seconds in self.pauses if generation == 2]
