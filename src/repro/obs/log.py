"""Structured, leveled event log with trace correlation.

The paper's demo serves live queries; diagnosing one slow request after
the fact needs more than aggregate metrics — it needs the *sequence of
events* that request produced (cache verdict, solver outcome, pipeline
stages) joined to the request itself. :class:`EventLog` is that record:
a bounded ring buffer of structured :class:`LogRecord` entries, each
stamped with the current ``trace_id`` and innermost span from
:mod:`repro.obs.tracing`, so ``/debug/logs?trace_id=`` reconstructs the
story of exactly one request the same way Fig. 3's residual curves
reconstruct one solve.

Design constraints mirror the rest of :mod:`repro.obs`:

- **bounded** — the deque drops the oldest records, memory is O(capacity);
- **cheap when off** — a disabled log costs one attribute check per call
  site (the <1 %-disabled overhead gate covers it);
- **structured** — records are field dicts, never formatted strings, so
  ``/debug/logs`` filtering and the JSON-line rendering need no parsing;
- **injectable** — :func:`set_event_log` swaps the process default for
  test isolation, exactly like ``set_registry`` / ``set_tracer``.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Union

from repro.errors import ObservabilityError
from repro.obs import tracing

DEBUG = 10
INFO = 20
WARNING = 30
ERROR = 40

LEVEL_NAMES: Dict[int, str] = {
    DEBUG: "debug",
    INFO: "info",
    WARNING: "warning",
    ERROR: "error",
}
_NAME_LEVELS: Dict[str, int] = {name: level for level, name in LEVEL_NAMES.items()}


def level_number(level: Union[int, str, None]) -> Optional[int]:
    """Normalize a level given by number or name (``"warning"``) to an int.

    ``None`` passes through (meaning "no threshold"); unknown names raise
    :class:`ObservabilityError` so typos in ``/debug/logs?level=`` surface
    as 400s rather than silently matching nothing.
    """
    if level is None:
        return None
    if isinstance(level, int):
        return level
    try:
        return _NAME_LEVELS[str(level).strip().lower()]
    except KeyError:
        known = ", ".join(sorted(_NAME_LEVELS))
        raise ObservabilityError(
            f"unknown log level {level!r}; known levels: {known}"
        ) from None


class LogRecord:
    """One structured event: who, what, when, and which request."""

    __slots__ = ("seq", "timestamp", "level", "component", "event", "fields", "trace_id", "span")

    def __init__(
        self,
        seq: int,
        timestamp: float,
        level: int,
        component: str,
        event: str,
        fields: Dict[str, Any],
        trace_id: Optional[str],
        span: Optional[str],
    ):
        self.seq = seq
        self.timestamp = timestamp
        self.level = level
        self.component = component
        self.event = event
        self.fields = fields
        self.trace_id = trace_id
        self.span = span

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly rendering (one object per JSON line)."""
        return {
            "seq": self.seq,
            "timestamp": self.timestamp,
            "level": LEVEL_NAMES.get(self.level, str(self.level)),
            "component": self.component,
            "event": self.event,
            "fields": dict(self.fields),
            "trace_id": self.trace_id,
            "span": self.span,
        }


class EventLog:
    """Bounded, thread-safe ring buffer of structured log records.

    Parameters
    ----------
    capacity:
        How many records to retain; the oldest are dropped first.
    enabled:
        When False every ``log()`` call returns immediately.
    level:
        Capture threshold — records below it are never stored. Query-time
        filtering (:meth:`records`) is independent of this.
    clock:
        Injectable wall-clock source for deterministic tests.
    """

    def __init__(
        self,
        capacity: int = 1024,
        enabled: bool = True,
        level: int = DEBUG,
        clock: Callable[[], float] = time.time,
    ):
        if capacity <= 0:
            raise ObservabilityError(f"event log capacity must be positive, got {capacity}")
        self.enabled = enabled
        self.level = level_number(level)
        self._clock = clock
        self._buffer: Deque[LogRecord] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._seq = 0

    # -- emission --------------------------------------------------------

    def log(
        self,
        level: int,
        event: str,
        component: Optional[str] = None,
        **fields: Any,
    ) -> None:
        """Record one structured event.

        ``event`` is a dotted name (``engine.slow_query``); ``component``
        defaults to its first segment. The current ``trace_id`` and
        innermost live span are captured automatically, which is what
        makes ``/debug/logs?trace_id=`` joins possible.
        """
        if not self.enabled or level < self.level:
            return
        current = tracing.get_tracer().current()
        record = LogRecord(
            seq=0,  # assigned under the lock below
            timestamp=self._clock(),
            level=level,
            component=component or event.split(".", 1)[0],
            event=event,
            fields=fields,
            trace_id=tracing.current_trace_id(),
            span=current.name if current is not None else None,
        )
        with self._lock:
            self._seq += 1
            record.seq = self._seq
            self._buffer.append(record)

    def debug(self, event: str, **fields: Any) -> None:
        """Record a DEBUG-level event."""
        self.log(DEBUG, event, **fields)

    def info(self, event: str, **fields: Any) -> None:
        """Record an INFO-level event."""
        self.log(INFO, event, **fields)

    def warning(self, event: str, **fields: Any) -> None:
        """Record a WARNING-level event."""
        self.log(WARNING, event, **fields)

    def error(self, event: str, **fields: Any) -> None:
        """Record an ERROR-level event."""
        self.log(ERROR, event, **fields)

    # -- queries ---------------------------------------------------------

    def records(
        self,
        level: Union[int, str, None] = None,
        trace_id: Optional[str] = None,
        component: Optional[str] = None,
        k: Optional[int] = None,
    ) -> List[Dict[str, Any]]:
        """Matching records as dicts, most recent first.

        ``level`` is a minimum (name or number); ``trace_id`` /
        ``component`` filter exactly; ``k`` caps the result count after
        filtering.
        """
        minimum = level_number(level)
        with self._lock:
            snapshot = list(self._buffer)
        out: List[Dict[str, Any]] = []
        for record in reversed(snapshot):
            if k is not None and len(out) >= k:
                break
            if minimum is not None and record.level < minimum:
                continue
            if trace_id is not None and record.trace_id != trace_id:
                continue
            if component is not None and record.component != component:
                continue
            out.append(record.to_dict())
        return out

    def to_json_lines(self, **filters: Any) -> str:
        """The matching records rendered as JSON lines (oldest first)."""
        rows = list(reversed(self.records(**filters)))
        return "\n".join(json.dumps(row, sort_keys=True, default=str) for row in rows)

    def __len__(self) -> int:
        return len(self._buffer)

    # -- lifecycle -------------------------------------------------------

    def set_level(self, level: Union[int, str]) -> None:
        """Change the capture threshold."""
        self.level = level_number(level)

    def clear(self) -> None:
        """Drop every retained record (the sequence counter keeps going)."""
        with self._lock:
            self._buffer.clear()

    def enable(self) -> None:
        """Turn event capture on."""
        self.enabled = True

    def disable(self) -> None:
        """Turn event capture off; ``log()`` becomes a no-op."""
        self.enabled = False


# ----------------------------------------------------------------------
# Module-level default event log with injection hooks
# ----------------------------------------------------------------------

_default_event_log = EventLog()


def get_event_log() -> EventLog:
    """The process-wide default event log instrumented code reports to."""
    return _default_event_log


def set_event_log(event_log: EventLog) -> EventLog:
    """Swap the default event log (tests inject a fresh one); returns the old."""
    global _default_event_log
    previous = _default_event_log
    _default_event_log = event_log
    return previous
