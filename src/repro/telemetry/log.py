"""Structured event log: the runtime's decision stream.

Spans say where time went and counters say how much happened, but the
*decisions* the runtime takes — a backend silently downgraded, a shard
resubmitted with backoff, a recovery ladder rung climbed, a plan
evicted from the cache, a fault injected — were invisible or scattered
across ad-hoc warnings.  This module unifies them as a leveled,
schema-validated event stream (:data:`EVENT_SCHEMA`,
``repro.telemetry.event/v1``):

* :func:`emit` appends one :class:`Event` to the process-wide
  :data:`EVENT_LOG`, a thread-safe bounded ring (``max_events`` with a
  ``dropped`` tally, like the span buffer) — a long chaos run cannot
  grow memory without bound;
* events automatically carry the emitting thread and, when tracing is
  on, the enclosing span's ``trace_id``/``span_id`` — so the event
  stream joins against the span tree and the Chrome trace;
* :func:`write_event_log` exports the ring as JSON-Lines (one
  schema-tagged event per line, the shape
  ``python -m repro.telemetry`` validates), and
  :meth:`EventLog.snapshot` is what run-records fold in as their
  ``log`` section.

The log is **always on** (unlike spans): the whole point is that a
defaulted-backend fault run or a supervised shard timeout leaves a
durable signal even when nobody enabled tracing.  Emission is
decision-frequency — per downgrade, per retry, per eviction — never
per tile, so the cost is noise next to a sweep (the
``bench_trace_propagation`` benchmark enforces the disabled-telemetry
overhead bound with this wired in).
"""

from __future__ import annotations

import json
import pathlib
import threading
import time
from typing import Any

__all__ = [
    "EVENT_SCHEMA",
    "LEVELS",
    "Event",
    "EventLog",
    "EVENT_LOG",
    "emit",
    "write_event_log",
]

#: schema identifier stamped on every serialized event
EVENT_SCHEMA = "repro.telemetry.event/v1"

#: severity levels, least to most severe
LEVELS = ("debug", "info", "warning", "error")

_LEVEL_INDEX = {level: i for i, level in enumerate(LEVELS)}


class Event:
    """One structured decision record.

    ``kind`` is a dotted, grep-able identifier (``backend.downgrade``,
    ``shard.backoff``, ``recovery.tile_retry``, ``plan_cache.evict``,
    ``fault.injected``); ``fields`` carries the decision's specifics as
    JSON-safe scalars.  ``trace_id``/``span_id`` tie the event to the
    span open on the emitting thread when tracing was enabled (else
    ``None`` — the log outlives the tracer switch).
    """

    __slots__ = (
        "ts",
        "level",
        "kind",
        "message",
        "fields",
        "trace_id",
        "span_id",
        "thread",
    )

    def __init__(
        self,
        kind: str,
        level: str = "info",
        message: str = "",
        fields: dict[str, Any] | None = None,
        trace_id: str | None = None,
        span_id: int | None = None,
    ) -> None:
        if level not in _LEVEL_INDEX:
            raise ValueError(
                f"unknown event level {level!r} (expected one of {LEVELS})"
            )
        self.ts = time.time()
        self.level = level
        self.kind = kind
        self.message = message
        self.fields = dict(fields) if fields else {}
        self.trace_id = trace_id
        self.span_id = span_id
        self.thread = threading.current_thread().name

    def as_dict(self) -> dict[str, Any]:
        """Schema-tagged JSON-ready view (the validated line shape)."""
        from repro.telemetry.export import _jsonable

        return {
            "schema": EVENT_SCHEMA,
            "ts": self.ts,
            "level": self.level,
            "kind": self.kind,
            "message": self.message,
            "fields": {k: _jsonable(v) for k, v in self.fields.items()},
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "thread": self.thread,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Event({self.level}:{self.kind} {self.fields!r})"


class EventLog:
    """Thread-safe bounded ring of :class:`Event` objects.

    ``min_level`` filters at emission (default ``"info"`` — debug
    events cost one dict lookup and vanish); ``max_events`` bounds
    memory with a :attr:`dropped` count so exporters can flag loss.
    """

    def __init__(
        self, max_events: int = 1024, min_level: str = "info"
    ) -> None:
        if min_level not in _LEVEL_INDEX:
            raise ValueError(
                f"unknown event level {min_level!r} "
                f"(expected one of {LEVELS})"
            )
        self.max_events = max_events
        self.min_level = min_level
        self.dropped = 0
        self._events: list[Event] = []
        self._lock = threading.Lock()

    def emit(
        self,
        kind: str,
        level: str = "info",
        message: str = "",
        **fields: Any,
    ) -> Event | None:
        """Record one event; returns it (or None when level-filtered).

        The enclosing span's trace identity is captured here — one
        ``enabled`` check plus a thread-local peek — so callers never
        thread trace ids by hand.
        """
        if level not in _LEVEL_INDEX:
            raise ValueError(
                f"unknown event level {level!r} (expected one of {LEVELS})"
            )
        if _LEVEL_INDEX[level] < _LEVEL_INDEX[self.min_level]:
            return None
        trace_id = span_id = None
        from repro.telemetry.spans import TRACER

        if TRACER.enabled:
            current = TRACER.current()
            if current is not None:
                trace_id = current.trace_id
                span_id = current.span_id
        event = Event(
            kind,
            level=level,
            message=message,
            fields=fields,
            trace_id=trace_id,
            span_id=span_id,
        )
        with self._lock:
            if len(self._events) >= self.max_events:
                self._events.pop(0)
                self.dropped += 1
            self._events.append(event)
        return event

    def events(self) -> list[Event]:
        """Snapshot of retained events, oldest first."""
        with self._lock:
            return list(self._events)

    def snapshot(self) -> dict[str, Any]:
        """The run-record ``log`` section: events + ring drop counters."""
        with self._lock:
            events = list(self._events)
            dropped = self.dropped
        return {
            "events": [e.as_dict() for e in events],
            "dropped": dropped,
            "max_events": self.max_events,
        }

    def count(self, kind: str | None = None) -> int:
        """Retained events, optionally only those of one ``kind``."""
        with self._lock:
            if kind is None:
                return len(self._events)
            return sum(1 for e in self._events if e.kind == kind)

    def clear(self) -> None:
        """Drop every retained event and zero the dropped tally."""
        with self._lock:
            self._events.clear()
            self.dropped = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)


#: The process-wide event log every instrumented decision reports into.
EVENT_LOG = EventLog()


def emit(
    kind: str, level: str = "info", message: str = "", **fields: Any
) -> Event | None:
    """Emit one event into the process-wide :data:`EVENT_LOG`."""
    return EVENT_LOG.emit(kind, level=level, message=message, **fields)


def write_event_log(
    path: str | pathlib.Path, log: EventLog | None = None
) -> pathlib.Path:
    """Serialize the log as JSON-Lines (one event per line).

    Each line is a complete, schema-tagged
    ``repro.telemetry.event/v1`` document;
    ``python -m repro.telemetry file.jsonl`` validates the stream.
    """
    log = log if log is not None else EVENT_LOG
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for event in log.events():
            fh.write(json.dumps(event.as_dict(), sort_keys=True) + "\n")
    return path
