"""``repro.telemetry`` — spans, events and exporters for the runtime.

The observability layer the paper's evaluation implies: where Nsight
Compute attributes a real kernel's time and hardware events, this
package attributes the simulator's.  Three pieces:

* **spans** (:mod:`repro.telemetry.spans`): a :class:`Tracer` producing
  nestable, thread-safe :class:`Span` trees over the
  compile → plan-cache → execute → TCU-sweep pipeline.  Disabled by
  default and free when disabled;
* **events** (:mod:`repro.telemetry.log`): a bounded structured event
  log of the runtime's decisions (downgrades, recoveries, re-plans);
* **export** (:mod:`repro.telemetry.export`): Chrome trace-event JSON
  (``chrome://tracing`` / Perfetto) and structured run-records
  (schema-validated, stamped onto every benchmark result).

Every quantity has one owner: hardware events are the
:class:`~repro.tcu.counters.EventCounters` each sweep returns, faults
the run's :class:`~repro.faults.FaultReport`, plan-cache traffic
``PlanCache.stats()``, durations the spans, and halo bytes the
cluster run's own exchange ledger.

Typical use — the ``repro profile`` subcommand in one paragraph::

    from repro import telemetry

    with telemetry.capture() as tracer:
        stencil = repro.compile(kernel.weights)
        out, events = stencil.apply_simulated(padded)
    root = tracer.last_root()
    print(root.render_tree())                       # per-phase breakdown
    telemetry.export.write_chrome_trace("trace.json")

Instrumented code uses :func:`span` (or ``TRACER.span``) directly; the
call costs one attribute check when telemetry is off.  See
``docs/observability.md`` for naming conventions and exporter formats.
"""

from __future__ import annotations

import contextlib

from repro.telemetry import (
    cluster,
    context,
    export,
    log,
    spans,
    validate,
)
from repro.telemetry.cluster import build_cluster_report, render_gantt
from repro.telemetry.context import (
    NULL_CONTEXT,
    TraceContext,
    revive_spans,
)
from repro.telemetry.export import (
    load_chrome_trace,
    run_record,
    to_chrome_trace,
    write_chrome_trace,
    write_run_record,
)
from repro.telemetry.log import EVENT_LOG, EventLog, emit, write_event_log
from repro.telemetry.spans import NULL_SPAN, TRACER, Span, Tracer
from repro.telemetry.validate import (
    TelemetryError,
    validate_event,
    validate_run_record,
)

__all__ = [
    "Span",
    "Tracer",
    "TRACER",
    "NULL_SPAN",
    "TraceContext",
    "NULL_CONTEXT",
    "revive_spans",
    "EventLog",
    "EVENT_LOG",
    "emit",
    "write_event_log",
    "TelemetryError",
    "span",
    "trace",
    "enable",
    "disable",
    "is_enabled",
    "reset",
    "capture",
    "to_chrome_trace",
    "write_chrome_trace",
    "load_chrome_trace",
    "run_record",
    "write_run_record",
    "validate_event",
    "validate_run_record",
    "build_cluster_report",
    "render_gantt",
    "cluster",
    "context",
    "export",
    "log",
    "spans",
    "validate",
]

#: alias for ``TRACER.span`` — the way runtime code opens spans
span = TRACER.span

#: alias for ``TRACER.wrap`` — decorator form
trace = TRACER.wrap


def enable() -> None:
    """Turn telemetry on process-wide (span recording)."""
    TRACER.enable()


def disable() -> None:
    """Turn telemetry off (instrumentation reverts to no-ops)."""
    TRACER.disable()


def is_enabled() -> bool:
    """Whether spans are currently being recorded."""
    return TRACER.enabled


def reset() -> None:
    """Clear collected spans and events (the enabled switch is kept)."""
    TRACER.clear()
    EVENT_LOG.clear()


@contextlib.contextmanager
def capture(fresh: bool = True):
    """Enable telemetry for a ``with`` block, yielding the tracer.

    Restores the previous enabled/disabled state on exit;
    ``fresh=True`` (default) clears previously collected spans and
    events first, so the block's trees are the only ones present.
    """
    was_enabled = TRACER.enabled
    if fresh:
        reset()
    enable()
    try:
        yield TRACER
    finally:
        if not was_enabled:
            disable()

