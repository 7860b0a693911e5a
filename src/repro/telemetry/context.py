"""Cross-worker trace-context propagation.

A span tree is only coherent if every worker a sweep fans out knows
*which trace it belongs to*.  Before this module, the sharded executor
passed a raw parent :class:`~repro.telemetry.spans.Span` into each
worker closure; that wires up parentage but loses the trace identity
(a retry resubmitted after the parent span closed had nothing to hang
itself on) and offers no way to collect spans produced on a tracer the
process-global one never sees.

Two primitives fix both:

* :class:`TraceContext` — an immutable ``(trace_id, parent span)``
  capture taken *once* where workers are spawned
  (``apply_simulated_sharded`` / ``apply_simulated_batch`` / the fault
  supervisor).  :meth:`TraceContext.span` opens a child span from any
  thread, any number of times (including backoff resubmissions and the
  inline-recomputation fallback), always re-parented under the
  spawning span and stamped with the spawning trace id — so one
  sharded sweep with retries renders as a single tree under a single
  ``trace_id``.
* :func:`revive_spans` / :func:`merge_roots` — for workers whose spans
  the process tracer never sees (process-executor ranks): the spawning
  side rebuilds the worker's serialized span trees and re-parents every
  finished root under the captured context — rewriting the whole
  subtree's ``trace_id`` — so the parent's ``render_tree`` /
  Chrome-trace export shows the worker's lane as if it had always been
  a child.

Both are zero-overhead when telemetry is off: :meth:`capture` returns
the shared :data:`NULL_CONTEXT` whose :meth:`~TraceContext.span`
returns :data:`~repro.telemetry.spans.NULL_SPAN` — one attribute
check, no allocation.
"""

from __future__ import annotations

from typing import Any

from repro.telemetry.spans import (
    NULL_SPAN,
    TRACER,
    Span,
    Tracer,
    new_trace_id,
)

__all__ = [
    "TraceContext",
    "NULL_CONTEXT",
    "merge_roots",
    "revive_spans",
]


class TraceContext:
    """Immutable capture of "where spawned work belongs" in a trace.

    ``trace_id`` identifies the tree; ``parent`` is the span open at
    capture time (``None`` when captured outside any span — children
    then become roots sharing the captured trace id).  ``tracer`` is
    the tracer whose buffer re-parented spans land in.
    """

    __slots__ = ("trace_id", "parent", "tracer")

    def __init__(
        self,
        trace_id: str | None,
        parent: Span | None,
        tracer: Tracer | None = None,
    ) -> None:
        self.trace_id = trace_id
        self.parent = parent
        self.tracer = tracer if tracer is not None else TRACER

    @property
    def is_recording(self) -> bool:
        """False only for :data:`NULL_CONTEXT` (telemetry was off)."""
        return self.trace_id is not None

    @property
    def parent_span_id(self) -> int | None:
        """The spawning span's id (None for a parentless capture)."""
        return self.parent.span_id if self.parent is not None else None

    @classmethod
    def capture(cls, tracer: Tracer | None = None) -> "TraceContext":
        """Snapshot the current span/trace for worker propagation.

        Returns :data:`NULL_CONTEXT` when the tracer is disabled;
        otherwise the innermost open span on the calling thread and its
        trace id (a fresh id when called outside any span, so all
        spawned workers still share one trace).
        """
        tracer = tracer if tracer is not None else TRACER
        if not tracer.enabled:
            return NULL_CONTEXT
        current = tracer.current()
        if current is not None:
            # the spawning span may not have entered yet under a
            # pre-seeded context; fall back to a fresh id then
            trace_id = current.trace_id or new_trace_id()
        else:
            trace_id = new_trace_id()
        return cls(trace_id, current, tracer)

    def span(
        self, name: str, category: str = "repro", **attrs: Any
    ):
        """A child span of the captured parent, from any thread.

        Returns :data:`~repro.telemetry.spans.NULL_SPAN` on the null
        context or a disabled tracer — instrumented worker code never
        branches on telemetry itself.
        """
        if self.trace_id is None or not self.tracer.enabled:
            return NULL_SPAN
        return Span(
            self.tracer,
            name,
            category=category,
            parent=self.parent,
            attrs=attrs,
            trace_id=self.trace_id,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.trace_id is None:
            return "NULL_CONTEXT"
        return (
            f"TraceContext(trace_id={self.trace_id!r}, "
            f"parent_span_id={self.parent_span_id})"
        )


#: The shared do-nothing context returned while telemetry is disabled.
NULL_CONTEXT = TraceContext(None, None)


def merge_roots(
    roots: list[Span],
    context: TraceContext,
    tracer: Tracer | None = None,
) -> int:
    """Re-parent finished root spans under a captured context.

    Every span in every subtree is rewritten onto ``context.trace_id``;
    the roots become children of ``context.parent`` (or roots of the
    target ``tracer``'s buffer when the context was captured outside a
    span).  Returns the number of roots merged.  No-op on the null
    context — a worker traced against a disabled parent discards its
    spans, matching the zero-overhead contract.
    """
    if context.trace_id is None:
        return 0
    tracer = tracer if tracer is not None else context.tracer
    merged = 0
    for root in roots:
        for span in root.walk():
            span.trace_id = context.trace_id
        if context.parent is not None:
            root.parent = context.parent
            with tracer._lock:
                context.parent.children.append(root)
        else:
            root.parent = None
            with tracer._lock:
                if len(tracer.finished) >= tracer.max_finished:
                    tracer.finished.pop(0)
                    tracer.dropped += 1
                tracer.finished.append(root)
        merged += 1
    return merged


def revive_spans(
    span_dicts: list[dict],
    context: TraceContext,
    tracer: Tracer | None = None,
    rebase_ns: int = 0,
) -> int:
    """Rebuild serialized span trees and merge them under a context.

    A worker process serializes its finished roots with
    :func:`repro.telemetry.export.span_to_dict`, ships them back as
    plain dicts, and the spawning side revives them here — re-parented
    under the captured context, the whole subtree rewritten onto the
    parent ``trace_id``, exactly like an in-process merge.

    ``rebase_ns`` shifts every revived timestamp (the child's
    ``perf_counter_ns`` clock is unrelated to the parent's): pass
    ``dispatch_ns - child_root_start_ns`` so the worker's lane lands at
    the moment the parent dispatched it.  Returns the number of roots
    merged; no-op on the null context.
    """
    if context.trace_id is None or not span_dicts:
        return 0
    target = tracer if tracer is not None else context.tracer
    roots = [_revive_one(d, target, rebase_ns) for d in span_dicts]
    return merge_roots(roots, context, tracer=target)


def _revive_one(d: dict, tracer: Tracer, rebase_ns: int) -> Span:
    """One serialized span (children inline) back into a Span tree."""
    from repro.tcu.counters import EventCounters

    span = Span(
        tracer,
        d.get("name", "<revived>"),
        category=d.get("category", "repro"),
        parent=None,
        attrs=d.get("attrs") or {},
    )
    span.thread_name = d.get("thread", span.thread_name)
    span.start_ns = int(d.get("start_ns", 0)) + rebase_ns
    span.end_ns = span.start_ns + int(d.get("duration_ns", 0))
    events = d.get("events")
    if events:
        span.events = EventCounters(**events)
    for child_dict in d.get("children") or ():
        child = _revive_one(child_dict, tracer, rebase_ns)
        child.parent = span
        span.children.append(child)
    return span
