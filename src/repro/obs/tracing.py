"""Lightweight span tracing for the repro stack.

A :class:`Span` is a named, timed block with attributes; spans nest via
a thread-local stack, so ``tagging.cloud`` naturally becomes the parent
of ``tagging.cache`` and ``tagging.matrix`` without any plumbing at the
call sites. Finished **root** spans (whole trees) land in a bounded
in-memory ring buffer the ``/debug/trace`` endpoint reads from.

Every trace carries a **trace id**: the root span mints one (or adopts
the id bound by :func:`bind_trace_id` — the web middleware binds one per
HTTP request) and children inherit it, so a span tree, the log records
emitted under it (:mod:`repro.obs.log`) and the ``X-Trace-Id`` response
header all join on one key. Error spans propagate ``error=True`` to
their root and count into the ``errors_total{component}`` family, so
failures are countable even when only root spans are sampled.

This is deliberately not OpenTelemetry: no context propagation across
processes, no sampling policy, no exporters — just enough structure to
answer "where did that request spend its time" in tests, benchmarks and
the demo web app. A disabled tracer hands out a shared no-op span, so
instrumentation stays in place at near-zero cost.
"""

from __future__ import annotations

import threading
import time
import uuid
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional

from repro.errors import ObservabilityError


def mint_trace_id() -> str:
    """A fresh 16-hex-char trace id (unique per request for all practical sizes)."""
    return uuid.uuid4().hex[:16]


# Thread-local request context: the web middleware binds a trace id for
# the duration of one request so that logs and payloads stay correlated
# even when the tracer itself is disabled (no live span to ask).
_context = threading.local()


def bind_trace_id(trace_id: str) -> None:
    """Bind ``trace_id`` to this thread until :func:`unbind_trace_id`."""
    _context.trace_id = trace_id


def unbind_trace_id() -> None:
    """Drop this thread's bound trace id."""
    _context.trace_id = None


def current_trace_id() -> Optional[str]:
    """The trace id of the innermost live span, else the bound one, else None."""
    span = _default_tracer.current()
    if span is not None and span.trace_id is not None:
        return span.trace_id
    return getattr(_context, "trace_id", None)


class Span:
    """One timed, attributed block in a trace tree."""

    __slots__ = ("name", "attributes", "children", "start", "end", "trace_id", "_tracer")

    def __init__(self, name: str, tracer: "Tracer", attributes: Dict[str, Any]):
        self.name = name
        self.attributes = attributes
        self.children: List["Span"] = []
        self.start = 0.0
        self.end: Optional[float] = None
        self.trace_id: Optional[str] = None
        self._tracer = tracer

    @property
    def duration(self) -> float:
        """Elapsed seconds (so-far for a live span, final once exited)."""
        end = self.end if self.end is not None else self._tracer._clock()
        return end - self.start

    def set_attribute(self, key: str, value: Any) -> None:
        """Attach (or overwrite) one attribute on this span."""
        self.attributes[key] = value

    def __enter__(self) -> "Span":
        self.start = self._tracer._clock()
        self._tracer._push(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.end = self._tracer._clock()
        if exc_type is not None:
            self.attributes["error"] = f"{exc_type.__name__}: {exc}"
            count_error(self.name)
        self._tracer._pop(self)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly rendering of this span and its subtree."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "duration": self.duration,
            "attributes": dict(self.attributes),
            "children": [child.to_dict() for child in self.children],
        }


def count_error(name: str) -> None:
    """Count one failure into ``errors_total{component}``.

    Errored spans count here, and so does every broad ``except`` that
    keeps a boundary running. The component label is the name's first
    dotted segment (``engine.search`` -> ``engine``) — bounded by the set
    of instrumented subsystems, never by request content.
    """
    from repro.obs.metrics import get_registry

    get_registry().counter(
        "errors_total",
        "Failures per component: errored spans and caught errors (countable, not just traceable).",
        labels=("component",),
    ).labels(name.split(".", 1)[0]).inc()


class _NoopSpan:
    """Shared span stand-in when tracing is disabled."""

    __slots__ = ()
    name = ""
    attributes: Dict[str, Any] = {}
    children: List[Any] = []
    duration = 0.0
    trace_id: Optional[str] = None

    def set_attribute(self, key: str, value: Any) -> None:
        pass

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass

    def to_dict(self) -> Dict[str, Any]:
        return {"name": "", "trace_id": None, "duration": 0.0, "attributes": {}, "children": []}


NOOP_SPAN = _NoopSpan()


class Tracer:
    """Produces spans and retains finished root traces in a ring buffer.

    Parameters
    ----------
    buffer_size:
        How many finished root spans (trace trees) to keep; the oldest
        are dropped first.
    enabled:
        When False, :meth:`span` returns a shared no-op span.
    clock:
        Injectable monotonic time source for deterministic tests.
    """

    def __init__(
        self,
        buffer_size: int = 256,
        enabled: bool = True,
        clock: Callable[[], float] = time.perf_counter,
    ):
        if buffer_size <= 0:
            raise ObservabilityError(f"trace buffer size must be positive, got {buffer_size}")
        self.enabled = enabled
        self._clock = clock
        self._buffer: Deque[Span] = deque(maxlen=buffer_size)
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- span lifecycle --------------------------------------------------

    def span(self, name: str, **attributes: Any) -> Any:
        """A context-manager span; nests under the current span if any."""
        if not self.enabled:
            return NOOP_SPAN
        return Span(name, self, attributes)

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _push(self, span: Span) -> None:
        stack = self._stack()
        if stack:
            stack[-1].children.append(span)
            span.trace_id = stack[-1].trace_id
        elif span.trace_id is None:
            span.trace_id = getattr(_context, "trace_id", None) or mint_trace_id()
        stack.append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        # Tolerate out-of-order exits (generators, suppressed errors): pop
        # back to this span instead of corrupting the whole stack.
        while stack:
            top = stack.pop()
            if top is span:
                break
        if stack and span.attributes.get("error"):
            # A failed child would otherwise be invisible at /debug/trace
            # unless the whole tree were inspected span by span.
            stack[0].attributes.setdefault("error", True)
        if not stack:
            with self._lock:
                self._buffer.append(span)

    def current(self) -> Optional[Span]:
        """The innermost live span on this thread, or None."""
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    # -- buffer access ---------------------------------------------------

    def recent(self, k: int = 20, trace_id: Optional[str] = None) -> List[Dict[str, Any]]:
        """The last ``k`` finished root traces, most recent first.

        ``trace_id`` filters to the matching trace(s) before ``k`` applies,
        so an ``X-Trace-Id`` header can always find its span tree while
        the buffer still holds it.
        """
        with self._lock:
            spans = list(self._buffer)
        if trace_id is not None:
            spans = [span for span in spans if span.trace_id == trace_id]
        return [span.to_dict() for span in reversed(spans[-k:] if k > 0 else [])]

    def clear(self) -> None:
        """Drop every retained trace."""
        with self._lock:
            self._buffer.clear()

    def enable(self) -> None:
        """Turn span collection on."""
        self.enabled = True

    def disable(self) -> None:
        """Turn span collection off; :meth:`span` returns a no-op span."""
        self.enabled = False


# ----------------------------------------------------------------------
# Module-level default tracer with injection hooks
# ----------------------------------------------------------------------

_default_tracer = Tracer()


def get_tracer() -> Tracer:
    """The process-wide default tracer instrumented code reports to."""
    return _default_tracer


def set_tracer(tracer: Tracer) -> Tracer:
    """Swap the default tracer (tests inject a fresh one); returns the old."""
    global _default_tracer
    previous = _default_tracer
    _default_tracer = tracer
    return previous
