"""Execution tracing for the TCU simulator.

A :class:`TraceRecorder` attached to an
:class:`~repro.tcu.counters.EventCounters` ledger records every warp
operation in order, so tests (and humans) can verify *scheduling*
properties the counters alone cannot express — e.g. that a tile's input
fragments are loaded before any MMA touches them, or that BVS splits
sit between the two gather phases.

Tracing is opt-in and zero-cost when disabled: the hot paths call
:func:`maybe_trace`, which is a no-op unless a recorder is installed —
it does not even format the event's detail string.

Long sweeps record millions of warp ops; an unbounded recorder would
grow without limit.  Pass ``max_events`` to run the recorder as a ring
buffer that keeps only the most recent events, counting what it sheds
in :attr:`TraceRecorder.dropped` — :attr:`TraceRecorder.total` always
reflects every event ever recorded, and event ``index`` values stay
global (the first retained event of a saturated ring has
``index == dropped``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.tcu.counters import EventCounters

__all__ = [
    "TraceEvent",
    "TraceRecorder",
    "install",
    "uninstall",
    "maybe_trace",
    "recorder_stats",
]


@dataclass(frozen=True)
class TraceEvent:
    """One recorded warp-level operation."""

    index: int
    op: str
    detail: str = ""


class TraceRecorder:
    """Ordered log of simulator operations (optionally ring-buffered).

    ``max_events=None`` (the default) keeps everything, preserving the
    original unbounded behaviour; ``max_events=n`` keeps the *last* n
    events and counts older ones in :attr:`dropped`.
    """

    def __init__(self, max_events: int | None = None) -> None:
        if max_events is not None and max_events < 1:
            raise ValueError(f"max_events must be >= 1, got {max_events}")
        self.max_events = max_events
        self._events: deque[TraceEvent] = deque(maxlen=max_events)
        self.total = 0

    def record(self, op: str, detail: str = "") -> None:
        """Append one event (evicting the oldest when the ring is full)."""
        self._events.append(TraceEvent(index=self.total, op=op, detail=detail))
        self.total += 1

    # -- state -------------------------------------------------------------
    @property
    def events(self) -> list[TraceEvent]:
        """The retained events, oldest first."""
        return list(self._events)

    @property
    def dropped(self) -> int:
        """How many events the ring buffer has shed (0 when unbounded)."""
        return self.total - len(self._events)

    def __len__(self) -> int:
        return len(self._events)

    # -- queries -----------------------------------------------------------
    def ops(self) -> list[str]:
        """The retained op names in execution order."""
        return [e.op for e in self._events]

    def count(self, op: str) -> int:
        """How many retained events match ``op``."""
        return sum(1 for e in self._events if e.op == op)

    def first_index(self, op: str) -> int:
        """Global index of the first retained ``op`` event (ValueError if
        absent)."""
        for e in self._events:
            if e.op == op:
                return e.index
        raise ValueError(f"no {op!r} event recorded")

    def last_index(self, op: str) -> int:
        """Global index of the last retained ``op`` event (ValueError if
        absent)."""
        idx = -1
        for e in self._events:
            if e.op == op:
                idx = e.index
        if idx < 0:
            raise ValueError(f"no {op!r} event recorded")
        return idx

    def render(self, limit: int = 50) -> str:
        """Human-readable listing of the first ``limit`` retained events."""
        lines = []
        if self.dropped:
            lines.append(f"... {self.dropped} earlier events dropped")
        events = self.events
        lines += [f"{e.index:>6}  {e.op:<16} {e.detail}" for e in events[:limit]]
        if len(events) > limit:
            lines.append(f"... {len(events) - limit} more")
        return "\n".join(lines)


#: recorder registry keyed by the id of the counters object
_RECORDERS: dict[int, TraceRecorder] = {}


def install(
    counters: EventCounters, max_events: int | None = None
) -> TraceRecorder:
    """Attach (and return) a recorder for operations on ``counters``.

    ``max_events`` bounds the recorder to a ring of that many most-
    recent events (see :class:`TraceRecorder`).
    """
    recorder = TraceRecorder(max_events=max_events)
    _RECORDERS[id(counters)] = recorder
    return recorder


def uninstall(counters: EventCounters) -> None:
    """Detach the recorder (subsequent operations are not recorded)."""
    _RECORDERS.pop(id(counters), None)


def maybe_trace(counters: EventCounters, op: str, detail: str = "", *args) -> None:
    """Record ``op`` if a recorder is installed for ``counters``.

    With ``args``, ``detail`` is a :meth:`str.format` template filled
    only when the event is recorded, so unwatched hot paths never pay
    for the formatting.
    """
    recorder = _RECORDERS.get(id(counters))
    if recorder is not None:
        recorder.record(op, detail.format(*args) if args else detail)


def recorder_stats() -> dict[str, int]:
    """Aggregate state of every installed recorder, for the exporters.

    ``max_events`` is the smallest configured ring bound (0 when every
    installed recorder is unbounded, or none is installed).
    """
    recorders = list(_RECORDERS.values())
    bounds = [r.max_events for r in recorders if r.max_events is not None]
    return {
        "recorders": len(recorders),
        "events_total": sum(r.total for r in recorders),
        "events_retained": sum(len(r) for r in recorders),
        "events_dropped": sum(r.dropped for r in recorders),
        "max_events": min(bounds) if bounds else 0,
    }
