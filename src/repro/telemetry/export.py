"""Exporters: Chrome trace-event JSON and run-records.

Two consumers, two formats, one span source:

* :func:`to_chrome_trace` / :func:`write_chrome_trace` — the Trace Event
  Format (``{"traceEvents": [{"ph": "X", ...}]}``) that
  ``chrome://tracing`` and Perfetto load directly.  Every span becomes a
  complete ("X") event carrying its attributes and event-counter delta
  in ``args``; :func:`load_chrome_trace` reconstructs the span forest
  from the embedded ``span_id``/``parent_id`` pairs, so traces
  round-trip losslessly (timing is preserved to the microsecond the
  format stores).
* :func:`run_record` / :func:`write_run_record` — the structured JSON
  record (schema :data:`RUN_RECORD_SCHEMA`) that ``benchmarks/conftest``
  stamps next to every reproduced artifact and ``repro run --json``
  prints; validated by :func:`repro.telemetry.validate.validate_run_record`.
"""

from __future__ import annotations

import json
import pathlib
import time
from typing import Any, Iterable

from repro.telemetry.spans import Span, Tracer, TRACER

__all__ = [
    "CHROME_TRACE_SCHEMA",
    "RUN_RECORD_SCHEMA",
    "FIDELITY_REPORT_SCHEMA",
    "span_to_dict",
    "to_chrome_trace",
    "write_chrome_trace",
    "load_chrome_trace",
    "run_record",
    "write_run_record",
]

#: schema identifiers embedded in (and required of) emitted documents
CHROME_TRACE_SCHEMA = "repro.telemetry.chrome-trace/v1"
#: the only run-record version emitted and accepted (v5 without the
#: process-wide ``metrics`` section); its optional sections are
#: ``faults`` (injection/detection/recovery ledger), ``log``
#: (structured event stream), ``cluster`` (the cluster observatory
#: report) and ``resilience`` (checkpoint/restart, halo
#: retransmissions, elastic re-plans)
RUN_RECORD_SCHEMA = "repro.telemetry.run-record/v6"
FIDELITY_REPORT_SCHEMA = "repro.telemetry.fidelity-report/v1"


# ---------------------------------------------------------------------------
# span serialization
# ---------------------------------------------------------------------------
def span_to_dict(span: Span) -> dict[str, Any]:
    """Nested JSON-ready view of one span (children inline)."""
    return {
        "name": span.name,
        "category": span.category,
        "span_id": span.span_id,
        "trace_id": span.trace_id,
        "thread": span.thread_name,
        "start_ns": span.start_ns,
        "duration_ns": span.duration_ns,
        "attrs": dict(span.attrs),
        "events": span.events.as_dict() if span.events is not None else None,
        "children": [span_to_dict(c) for c in span.children],
    }


# ---------------------------------------------------------------------------
# Chrome trace-event JSON
# ---------------------------------------------------------------------------
def to_chrome_trace(
    roots: Iterable[Span] | None = None,
    tracer: Tracer | None = None,
    process_name: str = "repro",
) -> dict[str, Any]:
    """Trace Event Format document for ``chrome://tracing``/Perfetto.

    ``roots`` defaults to the tracer's finished root spans.  Timestamps
    are microseconds since the tracer's enable() epoch mapped onto the
    wall clock, which is what the viewers expect.
    """
    tracer = tracer or TRACER
    if roots is None:
        roots = tracer.roots()
    tids: dict[str, int] = {}
    events: list[dict[str, Any]] = []
    for root in roots:
        for span in root.walk():
            tid = tids.setdefault(span.thread_name, len(tids) + 1)
            args: dict[str, Any] = {
                "span_id": span.span_id,
                "parent_id": span.parent.span_id if span.parent else None,
                "trace_id": span.trace_id,
            }
            if span.attrs:
                args["attrs"] = {k: _jsonable(v) for k, v in span.attrs.items()}
            if span.events is not None:
                args["events"] = span.events.as_dict()
            events.append(
                {
                    "ph": "X",
                    "name": span.name,
                    "cat": span.category,
                    "ts": tracer.wall_time_us(span.start_ns),
                    "dur": span.duration_ns / 1e3,
                    "pid": 1,
                    "tid": tid,
                    "args": args,
                }
            )
    meta = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": 1,
            "args": {"name": process_name},
        }
    ] + [
        {
            "ph": "M",
            "name": "thread_name",
            "pid": 1,
            "tid": tid,
            "args": {"name": thread},
        }
        for thread, tid in tids.items()
    ]
    return {
        "schema": CHROME_TRACE_SCHEMA,
        "displayTimeUnit": "ms",
        "traceEvents": meta + events,
    }


def write_chrome_trace(
    path: str | pathlib.Path,
    roots: Iterable[Span] | None = None,
    tracer: Tracer | None = None,
) -> pathlib.Path:
    """Serialize :func:`to_chrome_trace` to ``path``; returns the path."""
    path = pathlib.Path(path)
    path.write_text(json.dumps(to_chrome_trace(roots, tracer), indent=1))
    return path


class LoadedSpan:
    """A span reconstructed from a Chrome trace (see
    :func:`load_chrome_trace`): timing in microseconds, attributes and
    event counts as plain dicts, children nested."""

    def __init__(self, event: dict[str, Any]) -> None:
        args = event.get("args", {})
        self.name: str = event["name"]
        self.category: str = event.get("cat", "repro")
        self.ts_us: float = float(event["ts"])
        self.dur_us: float = float(event["dur"])
        self.span_id = args.get("span_id")
        self.parent_id = args.get("parent_id")
        self.trace_id = args.get("trace_id")
        self.attrs: dict[str, Any] = args.get("attrs", {})
        self.events: dict[str, int] | None = args.get("events")
        self.children: list[LoadedSpan] = []

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LoadedSpan({self.name!r}, dur={self.dur_us:.1f}us)"


def load_chrome_trace(
    source: str | pathlib.Path | dict[str, Any],
) -> list[LoadedSpan]:
    """Rebuild the span forest from a Chrome-trace document or file.

    Only the complete ("X") events this module emits are considered;
    nesting is restored from the ``span_id``/``parent_id`` pairs in
    ``args`` (an event whose parent is absent becomes a root).
    """
    if not isinstance(source, dict):
        source = json.loads(pathlib.Path(source).read_text())
    spans = [
        LoadedSpan(e)
        for e in source.get("traceEvents", [])
        if e.get("ph") == "X"
    ]
    by_id = {s.span_id: s for s in spans if s.span_id is not None}
    roots: list[LoadedSpan] = []
    for span in spans:
        parent = by_id.get(span.parent_id)
        if parent is not None and parent is not span:
            parent.children.append(span)
        else:
            roots.append(span)
    return roots


# ---------------------------------------------------------------------------
# run-records
# ---------------------------------------------------------------------------
def run_record(
    name: str,
    *,
    tracer: Tracer | None = None,
    cache_stats=None,
    counters=None,
    faults=None,
    log=None,
    cluster: dict[str, Any] | None = None,
    resilience: dict[str, Any] | None = None,
    extra: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """One structured, schema-tagged record of a run.

    The record is self-describing (``schema`` key) and deliberately
    flat: ``spans`` is the serialized span forest (empty when tracing
    was off), ``cache`` the plan-cache stats, ``events`` a raw counter
    dict, ``faults`` the injection/detection/recovery ledger (a
    :class:`repro.faults.FaultReport` or its ``as_dict()``), ``log``
    the structured event stream (defaults to the process-wide
    :data:`~repro.telemetry.log.EVENT_LOG` when it holds events; pass
    ``log=False`` to omit), ``cluster`` a cluster observatory report
    (see
    :func:`repro.telemetry.cluster.build_cluster_report`),
    ``resilience`` the checkpoint/halo/re-plan ledger of a resilient
    cluster run, and ``extra`` whatever the
    producer wants stamped (artifact paths, CLI args, figures).
    """
    from repro.tcu.trace import recorder_stats
    from repro.telemetry.log import EVENT_LOG, EventLog

    tracer = tracer or TRACER
    record: dict[str, Any] = {
        "schema": RUN_RECORD_SCHEMA,
        "name": name,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "spans": [span_to_dict(r) for r in tracer.roots()],
        "tracer": {
            "finished_spans": len(tracer.roots()),
            "dropped_spans": tracer.dropped,
            "max_finished": tracer.max_finished,
            "warp_trace": recorder_stats(),
        },
    }
    if cache_stats is not None:
        record["cache"] = {
            field: getattr(cache_stats, field)
            for field in ("hits", "misses", "evictions", "size", "maxsize")
        }
        record["cache"]["hit_rate"] = cache_stats.hit_rate
    if counters is not None:
        record["events"] = (
            counters if isinstance(counters, dict) else counters.as_dict()
        )
    if faults is not None:
        record["faults"] = (
            faults if isinstance(faults, dict) else faults.as_dict()
        )
    if log is None:
        log = EVENT_LOG if len(EVENT_LOG) else False
    if log is not False:
        record["log"] = log.snapshot() if isinstance(log, EventLog) else log
    if cluster is not None:
        record["cluster"] = cluster
    if resilience is not None:
        record["resilience"] = resilience
    record["extra"] = {k: _jsonable(v) for k, v in (extra or {}).items()}
    return record


def write_run_record(
    path: str | pathlib.Path, record: dict[str, Any]
) -> pathlib.Path:
    """Validate ``record`` and write it as JSON; returns the path."""
    from repro.telemetry.validate import validate_run_record

    validate_run_record(record)
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1, sort_keys=True))
    return path


def _jsonable(value: Any) -> Any:
    """Best-effort coercion of attribute values to JSON-safe types."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return str(value)
