"""Spans: where time goes in the compile→plan→execute pipeline.

A :class:`Span` is one timed region of the runtime — a ``repro.compile``
call, a plan-cache lookup, a TCU sweep — with a name, a category, free-
form attributes, and (for simulated sweeps) the
:class:`~repro.tcu.counters.EventCounters` delta accumulated inside it.
Spans nest: the :class:`Tracer` keeps a per-thread stack, so a sweep
span opened during a ``runtime.apply_simulated`` span becomes its child
and the finished roots form trees whose children's durations account
for (almost all of) the parent's.

Tracing is **opt-in and zero-overhead when disabled**: every
instrumentation point calls :meth:`Tracer.span`, which returns the
shared :data:`NULL_SPAN` singleton unless the tracer is enabled — one
attribute check, no allocation, no locking.  Instrumented code therefore
never branches on telemetry itself::

    with TRACER.span("tcu.sweep", category="tcu") as sp:
        out, events = ...          # the hot work
        sp.add_events(events)      # no-op on NULL_SPAN
        sp.annotate(shape=str(x.shape))

Cross-thread spans (the sharded executor fans sweeps over a pool) pass
``parent=`` explicitly; the child is attached to the given parent
instead of the worker thread's (empty) stack, so shard spans appear
under the sweep that spawned them.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
import uuid
from typing import Any, Callable, Iterator

from repro.tcu.counters import EventCounters

__all__ = [
    "Span",
    "Tracer",
    "NULL_SPAN",
    "TRACER",
    "new_trace_id",
]

#: sentinel distinguishing "no parent given" from "parent is None (root)"
_INHERIT = object()

_SPAN_IDS = itertools.count(1)  # itertools.count is atomic in CPython


def new_trace_id() -> str:
    """A fresh 16-hex-char trace identifier (one per span tree)."""
    return uuid.uuid4().hex[:16]


class Span:
    """One timed, attributed, nestable region.

    Use as a context manager (via :meth:`Tracer.span`); not reentrant.
    Durations come from :func:`time.perf_counter_ns`; wall-clock anchors
    for exporters come from the tracer's epoch.
    """

    __slots__ = (
        "name",
        "category",
        "attrs",
        "events",
        "children",
        "parent",
        "span_id",
        "trace_id",
        "thread_name",
        "start_ns",
        "end_ns",
        "_tracer",
        "_explicit_parent",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        category: str = "repro",
        parent: "Span | None | object" = _INHERIT,
        attrs: dict[str, Any] | None = None,
        trace_id: str | None = None,
    ) -> None:
        self.name = name
        self.category = category
        self.attrs: dict[str, Any] = dict(attrs) if attrs else {}
        self.events: EventCounters | None = None
        self.children: list[Span] = []
        self.parent: Span | None = None
        self.span_id = next(_SPAN_IDS)
        self.trace_id = trace_id
        self.thread_name = threading.current_thread().name
        self.start_ns = 0
        self.end_ns = 0
        self._tracer = tracer
        self._explicit_parent = parent

    # -- recording ---------------------------------------------------------
    @property
    def is_recording(self) -> bool:
        """True — this is a real span (the null span reports False)."""
        return True

    def annotate(self, **attrs: Any) -> "Span":
        """Attach key/value attributes (shown in exports); returns self."""
        self.attrs.update(attrs)
        return self

    def add_events(self, events: EventCounters) -> "Span":
        """Merge a hardware-event delta into this span; returns self."""
        if self.events is None:
            self.events = events.snapshot()
        else:
            self.events += events
        return self

    # -- timing ------------------------------------------------------------
    @property
    def duration_ns(self) -> int:
        end = self.end_ns or time.perf_counter_ns()
        return max(0, end - self.start_ns)

    @property
    def duration_s(self) -> float:
        return self.duration_ns / 1e9

    @property
    def child_ns(self) -> int:
        """Total nanoseconds accounted for by direct children.

        Cross-thread children (shards) overlap in wall time, so this can
        legitimately exceed :attr:`duration_ns`; same-thread children
        never do.
        """
        return sum(c.duration_ns for c in self.children)

    @property
    def self_ns(self) -> int:
        """Nanoseconds not attributed to any child (floored at 0)."""
        return max(0, self.duration_ns - self.child_ns)

    # -- context manager ---------------------------------------------------
    def __enter__(self) -> "Span":
        tracer = self._tracer
        stack = tracer._stack()
        if self._explicit_parent is _INHERIT:
            self.parent = stack[-1] if stack else None
        else:
            parent = self._explicit_parent
            self.parent = parent if isinstance(parent, Span) else None
        # propagate the trace identity: a child belongs to its parent's
        # trace; a root starts one (unless a TraceContext pre-seeded it)
        if self.parent is not None and self.parent.trace_id is not None:
            self.trace_id = self.parent.trace_id
        elif self.trace_id is None:
            self.trace_id = new_trace_id()
        stack.append(self)
        self.start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end_ns = time.perf_counter_ns()
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        stack = self._tracer._stack()
        if stack and stack[-1] is self:
            stack.pop()
        self._tracer._finish(self)
        return False

    # -- traversal / rendering --------------------------------------------
    def walk(self) -> Iterator["Span"]:
        """Depth-first iteration over this span and its descendants."""
        yield self
        for child in self.children:
            yield from child.walk()

    def render_tree(self, unit: str = "ms") -> str:
        """ASCII tree with per-phase durations and % of this root."""
        scale = {"s": 1e9, "ms": 1e6, "us": 1e3}[unit]
        root_ns = max(1, self.duration_ns)
        width = max(
            len(prefix) + len(s.name)
            for s, prefix in _tree_prefixes(self)
        )
        lines = []
        for span, prefix in _tree_prefixes(self):
            pct = 100.0 * span.duration_ns / root_ns
            label = f"{prefix}{span.name}"
            extra = ""
            if span.events is not None and span.events.mma_ops:
                extra = f"  [{span.events.mma_ops:,} MMAs]"
            lines.append(
                f"{label:<{width}}  {span.duration_ns / scale:>10.3f} {unit} "
                f"{pct:>6.1f}%{extra}"
            )
        un_ns = self.self_ns if self.children else 0
        if self.children:
            lines.append(
                f"{'(unaccounted)':<{width}}  {un_ns / scale:>10.3f} {unit} "
                f"{100.0 * un_ns / root_ns:>6.1f}%"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, cat={self.category!r}, "
            f"dur={self.duration_s * 1e3:.3f}ms, "
            f"children={len(self.children)})"
        )


def _tree_prefixes(root: Span) -> list[tuple[Span, str]]:
    """(span, box-drawing prefix) pairs for :meth:`Span.render_tree`."""
    out: list[tuple[Span, str]] = []

    def visit(span: Span, prefix: str, child_prefix: str) -> None:
        out.append((span, prefix))
        for i, child in enumerate(span.children):
            last = i == len(span.children) - 1
            visit(
                child,
                child_prefix + ("└─ " if last else "├─ "),
                child_prefix + ("   " if last else "│  "),
            )

    visit(root, "", "")
    return out


class _NullSpan:
    """Shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    is_recording = False
    name = "<disabled>"
    category = "null"
    children: tuple = ()
    events = None
    duration_ns = 0
    duration_s = 0.0
    span_id = 0
    trace_id = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def annotate(self, **attrs: Any) -> "_NullSpan":
        return self

    def add_events(self, events: EventCounters) -> "_NullSpan":
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NULL_SPAN"


#: The singleton every disabled instrumentation point receives.
NULL_SPAN = _NullSpan()


class Tracer:
    """Process-wide span factory and collector.

    Thread-safe: each thread has its own span stack (so nesting never
    crosses threads implicitly), and finished roots are appended to
    :attr:`finished` under a lock, bounded by ``max_finished`` with a
    :attr:`dropped` count — a long sweep cannot grow memory unboundedly.
    """

    def __init__(self, max_finished: int = 256) -> None:
        self._enabled = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self.max_finished = max_finished
        self.finished: list[Span] = []
        self.dropped = 0
        #: wall-clock anchor: (time.time(), perf_counter_ns) at enable()
        self.epoch: tuple[float, int] = (0.0, 0)

    # -- switches ----------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(self) -> None:
        """Turn tracing on (anchoring the wall-clock epoch)."""
        if not self._enabled:
            self.epoch = (time.time(), time.perf_counter_ns())
        self._enabled = True

    def disable(self) -> None:
        """Turn tracing off; collected spans are kept until clear()."""
        self._enabled = False

    def clear(self) -> None:
        """Drop every finished root (the epoch and switch are kept)."""
        with self._lock:
            self.finished.clear()
            self.dropped = 0

    # -- span creation -----------------------------------------------------
    def span(
        self,
        name: str,
        category: str = "repro",
        parent: Span | None | object = _INHERIT,
        **attrs: Any,
    ):
        """A context-manager span, or :data:`NULL_SPAN` when disabled.

        ``parent`` overrides the thread-local stack — pass the spawning
        span when opening spans in worker threads.
        """
        if not self._enabled:
            return NULL_SPAN
        return Span(self, name, category=category, parent=parent, attrs=attrs)

    def wrap(self, name: str | None = None, category: str = "repro") -> Callable:
        """Decorator tracing every call of the wrapped function."""

        def decorate(fn: Callable) -> Callable:
            span_name = name or f"{fn.__module__}.{fn.__qualname__}"

            @functools.wraps(fn)
            def wrapper(*args: Any, **kwargs: Any):
                if not self._enabled:
                    return fn(*args, **kwargs)
                with self.span(span_name, category=category):
                    return fn(*args, **kwargs)

            return wrapper

        return decorate

    def current(self) -> Span | None:
        """The innermost open span on this thread (None outside spans)."""
        stack = self._stack()
        return stack[-1] if stack else None

    # -- results -----------------------------------------------------------
    def roots(self) -> list[Span]:
        """Snapshot of the finished root spans, oldest first."""
        with self._lock:
            return list(self.finished)

    def last_root(self) -> Span | None:
        """The most recently finished root span, if any."""
        with self._lock:
            return self.finished[-1] if self.finished else None

    def wall_time_us(self, perf_ns: int) -> float:
        """Map a perf-counter timestamp to epoch microseconds."""
        wall0, ns0 = self.epoch
        return wall0 * 1e6 + (perf_ns - ns0) / 1e3

    # -- internals ---------------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _finish(self, span: Span) -> None:
        parent = span.parent
        if parent is not None:
            # same-thread children append from their own thread; shard
            # children append from pool workers — lock either way.
            with self._lock:
                parent.children.append(span)
            return
        with self._lock:
            if len(self.finished) >= self.max_finished:
                self.finished.pop(0)
                self.dropped += 1
            self.finished.append(span)


#: The process-wide tracer every instrumentation point consults.
TRACER = Tracer()
