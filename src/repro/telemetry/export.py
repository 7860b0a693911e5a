"""Exporters: Chrome trace-event JSON, run-records, Prometheus text.

Three consumers, three formats, one span/metric source:

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
* :func:`to_prometheus` — the text exposition format (``# HELP`` /
  ``# TYPE`` / samples) for scraping a long-lived serving process.
"""

from __future__ import annotations

import json
import pathlib
import time
from typing import Any, Iterable

from repro.telemetry.metrics import Histogram, MetricsRegistry
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
    "to_prometheus",
    "escape_label_value",
    "format_labels",
]

#: schema identifiers embedded in (and required of) emitted documents
CHROME_TRACE_SCHEMA = "repro.telemetry.chrome-trace/v1"
#: the only run-record version emitted and accepted; its optional
#: sections are ``faults`` (injection/detection/recovery ledger), ``log``
#: (structured event stream), ``health`` (shard heartbeat snapshot),
#: ``cluster`` (the cluster observatory report) and ``resilience``
#: (checkpoint/restart, halo retransmissions, elastic re-plans)
RUN_RECORD_SCHEMA = "repro.telemetry.run-record/v5"
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
    registry: MetricsRegistry | None = None,
    cache_stats=None,
    counters=None,
    faults=None,
    log=None,
    health=None,
    cluster: dict[str, Any] | None = None,
    resilience: dict[str, Any] | None = None,
    extra: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """One structured, schema-tagged record of a run.

    The record is self-describing (``schema`` key) and deliberately
    flat: ``spans`` is the serialized span forest (empty when tracing
    was off), ``metrics`` the registry snapshot, ``cache`` the plan-
    cache stats, ``events`` a raw counter dict, ``faults`` the
    injection/detection/recovery ledger (a
    :class:`repro.faults.FaultReport` or its ``as_dict()``), ``log``
    the structured event stream (defaults to the process-wide
    :data:`~repro.telemetry.log.EVENT_LOG` when it holds events; pass
    ``log=False`` to omit), ``health`` the shard heartbeat snapshot
    (same convention against
    :data:`~repro.telemetry.health.HEALTH`), ``cluster`` a cluster
    observatory report (see
    :func:`repro.telemetry.cluster.build_cluster_report`),
    ``resilience`` the checkpoint/halo/re-plan ledger of a resilient
    cluster run, and ``extra`` whatever the
    producer wants stamped (artifact paths, CLI args, figures).
    """
    from repro.tcu.trace import recorder_stats
    from repro.telemetry.health import HEALTH
    from repro.telemetry.log import EVENT_LOG, EventLog

    tracer = tracer or TRACER
    record: dict[str, Any] = {
        "schema": RUN_RECORD_SCHEMA,
        "name": name,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "spans": [span_to_dict(r) for r in tracer.roots()],
        "metrics": registry.snapshot() if registry is not None else {},
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
    if health is None:
        health = HEALTH if HEALTH.sweeps() else False
    if health is not False:
        record["health"] = (
            health if isinstance(health, dict) else health.snapshot()
        )
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


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------
def to_prometheus(
    registry: MetricsRegistry, tracer: Tracer | None = None
) -> str:
    """Prometheus text exposition (version 0.0.4) of the registry.

    Also exposes the span-buffer and warp-trace health gauges (finished/
    dropped spans against the ring capacity, and the recorder aggregate
    from :func:`repro.tcu.trace.recorder_stats`) so a scraper can alarm
    on trace loss — a saturated ring silently truncates the very data a
    post-mortem needs.  Pass ``tracer=None`` (the default) for the
    process-global tracer.
    """
    from repro.tcu.trace import recorder_stats

    lines: list[str] = []
    with registry._lock:
        metrics = sorted(registry._metrics.items())
    for name, metric in metrics:
        if metric.help:
            lines.append(f"# HELP {name} {metric.help}")
        lines.append(f"# TYPE {name} {metric.kind}")
        if isinstance(metric, Histogram):
            cumulative = metric.cumulative_counts()
            for bound, count in zip(metric.buckets, cumulative):
                lines.append(f'{name}_bucket{{le="{_fmt(bound)}"}} {count}')
            lines.append(f'{name}_bucket{{le="+Inf"}} {cumulative[-1]}')
            lines.append(f"{name}_sum {_fmt(metric.sum)}")
            lines.append(f"{name}_count {metric.count}")
        else:
            lines.append(f"{name} {_fmt(metric.value)}")
    tracer = tracer or TRACER
    for gauge, help_text, value in [
        (
            "repro_tracer_finished_spans",
            "Finished root spans retained in the tracer buffer",
            len(tracer.roots()),
        ),
        (
            "repro_tracer_dropped_spans",
            "Root spans dropped by the bounded tracer buffer",
            tracer.dropped,
        ),
        (
            "repro_tracer_max_finished",
            "Capacity of the tracer's finished-span ring buffer",
            tracer.max_finished,
        ),
    ]:
        lines.append(f"# HELP {gauge} {help_text}")
        lines.append(f"# TYPE {gauge} gauge")
        lines.append(f"{gauge} {_fmt(value)}")
    for key, value in recorder_stats().items():
        gauge = f"repro_warp_trace_{key}"
        lines.append(f"# TYPE {gauge} gauge")
        lines.append(f"{gauge} {_fmt(value)}")
    lines.extend(_event_log_lines())
    lines.extend(_health_lines())
    lines.extend(_cluster_lines())
    return "\n".join(lines) + "\n"


def escape_label_value(value: str) -> str:
    """Escape a Prometheus label value per the text-format spec.

    Backslash, double-quote and newline are the three characters the
    exposition format requires escaping inside ``label="value"``.
    """
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def format_labels(labels: dict[str, Any]) -> str:
    """Render a ``{name="value",...}`` label set, sorted and escaped.

    Returns an empty string for an empty label set, so
    ``f"{name}{format_labels(labels)} {value}"`` is always a legal
    sample line.
    """
    if not labels:
        return ""
    body = ",".join(
        f'{key}="{escape_label_value(value)}"'
        for key, value in sorted(labels.items())
    )
    return "{" + body + "}"


def _event_log_lines() -> list[str]:
    """Ring-health gauges of the process-wide structured event log."""
    from repro.telemetry.log import EVENT_LOG

    lines = []
    for key, help_text, value in (
        (
            "repro_event_log_events",
            "structured events retained in the ring buffer",
            len(EVENT_LOG),
        ),
        (
            "repro_event_log_dropped",
            "structured events dropped by the bounded ring",
            EVENT_LOG.dropped,
        ),
        (
            "repro_event_log_max_events",
            "capacity of the structured event ring buffer",
            EVENT_LOG.max_events,
        ),
    ):
        lines.append(f"# HELP {key} {help_text}")
        lines.append(f"# TYPE {key} gauge")
        lines.append(f"{key} {_fmt(value)}")
    # the dropped count again, as a *counter*: the gauge above reports
    # ring health, this is the monotone series alerting rules rate()
    lines.append(
        "# HELP repro_events_dropped_total structured events lost to "
        "ring buffer overflow since process start"
    )
    lines.append("# TYPE repro_events_dropped_total counter")
    lines.append(f"repro_events_dropped_total {_fmt(EVENT_LOG.dropped)}")
    return lines


def _health_lines() -> list[str]:
    """Per-shard labeled gauges from the live health registry.

    Output ordering is deterministic: gauge name, then sweep
    registration order, then shard index; label keys sort inside each
    sample.
    """
    from repro.telemetry.health import HEALTH

    rows = list(HEALTH.shard_rows())
    if not rows:
        return []
    gauges = (
        ("repro_health_shard_tiles_done", "tiles completed by the shard",
         lambda s: s.tiles_done),
        ("repro_health_shard_tiles_total", "shard tile denominator",
         lambda s: s.tiles_total),
        ("repro_health_shard_retries", "supervisor resubmissions of the shard",
         lambda s: s.retries),
        ("repro_health_shard_last_beat_age_seconds",
         "seconds since the shard's last heartbeat (monotonic)",
         lambda s: s.last_beat_age()),
        ("repro_health_shard_running",
         "1 while the shard is in a non-terminal state",
         lambda s: int(s.state not in ("done", "failed"))),
    )
    lines = []
    for name, help_text, value_of in gauges:
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} gauge")
        for sweep, shard in rows:
            labels = format_labels(
                {
                    "sweep": sweep.sweep_id,
                    "name": sweep.name,
                    "shard": shard.shard,
                    "state": shard.state,
                }
            )
            lines.append(f"{name}{labels} {_fmt(value_of(shard))}")
    return lines


def _cluster_lines() -> list[str]:
    """Per-rank labeled gauges from the last cluster observatory report.

    Empty until :func:`repro.telemetry.cluster.build_cluster_report`
    has run in this process; afterwards a scraper sees the cluster-level
    headline numbers (overlap efficiency, imbalance) plus per-rank
    busy/wait/retry seconds and per-round halo volumes — the series the
    trend gates and straggler alerts watch.
    """
    from repro.telemetry.cluster import last_report

    report = last_report()
    if report is None:
        return []
    lines = []
    for name, help_text, value in (
        (
            "repro_cluster_overlap_efficiency",
            "hidden transfer time over total modeled transfer time",
            report["overlap"]["efficiency"],
        ),
        (
            "repro_cluster_imbalance_max_over_mean",
            "slowest-rank over mean-rank round time",
            report["imbalance"]["max_over_mean"],
        ),
        (
            "repro_cluster_critical_path_seconds",
            "critical path through the rank-by-round dependency DAG",
            report["critical_path"]["s"],
        ),
    ):
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} gauge")
        lines.append(f"{name} {_fmt(value)}")
    rank_gauges = (
        ("repro_cluster_rank_busy_seconds",
         "compute+interior+stitch time of the rank",
         lambda row: row["busy_s"]),
        ("repro_cluster_rank_wait_seconds",
         "exchange-wait time of the rank",
         lambda row: row["lanes"]["wait_s"]),
        ("repro_cluster_rank_retry_seconds",
         "time the rank spent in retried attempts",
         lambda row: row["lanes"]["retry_s"]),
    )
    for name, help_text, value_of in rank_gauges:
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} gauge")
        for row in report["ranks"]:
            labels = format_labels({"rank": row["rank"]})
            lines.append(f"{name}{labels} {_fmt(value_of(row))}")
    name = "repro_cluster_round_halo_bytes"
    lines.append(f"# HELP {name} halo bytes moved in the exchange round")
    lines.append(f"# TYPE {name} gauge")
    for entry in report["halo"]["per_round"]:
        labels = format_labels({"round": entry["round"]})
        lines.append(f"{name}{labels} {_fmt(entry['halo_bytes'])}")
    return lines


def _fmt(value: float) -> str:
    return f"{int(value)}" if float(value).is_integer() else repr(float(value))


def _jsonable(value: Any) -> Any:
    """Best-effort coercion of attribute values to JSON-safe types."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return str(value)
