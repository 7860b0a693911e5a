"""Schema validation for emitted telemetry documents.

Pure-Python structural validation (this repository adds no third-party
dependencies, so there is no ``jsonschema``): each ``validate_*``
function walks the document and raises :class:`TelemetryError` — a
:class:`~repro.errors.ReproError` — on the first violation, naming the
offending path.  The rules here *are* the documented schema; see
``docs/observability.md`` for the prose version.

Also runnable as a module, which is what the CI smoke job calls::

    python -m repro.telemetry.validate trace.json      # auto-detects kind
    python -m repro.telemetry.validate record.json
"""

from __future__ import annotations

import json
import pathlib
import sys
from typing import Any

from repro.errors import ReproError
from repro.telemetry.export import (
    CHROME_TRACE_SCHEMA,
    FIDELITY_REPORT_SCHEMA,
    RUN_RECORD_SCHEMA,
)
from repro.telemetry.log import EVENT_SCHEMA, LEVELS

__all__ = [
    "TelemetryError",
    "validate_chrome_trace",
    "validate_cluster_report",
    "validate_event",
    "validate_fidelity_report",
    "validate_run_record",
    "validate_span_dict",
    "validate_file",
]


class TelemetryError(ReproError, ValueError):
    """A telemetry document does not match its declared schema."""


def _require(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise TelemetryError(f"{path}: {message}")


def _require_type(value: Any, types, path: str) -> None:
    _require(
        isinstance(value, types),
        path,
        f"expected {getattr(types, '__name__', types)}, "
        f"got {type(value).__name__}",
    )


def validate_span_dict(span: Any, path: str = "span") -> None:
    """Validate one serialized span (the ``run-record`` ``spans`` shape)."""
    _require_type(span, dict, path)
    for key, types in (
        ("name", str),
        ("category", str),
        ("span_id", int),
        ("start_ns", int),
        ("duration_ns", int),
        ("attrs", dict),
        ("children", list),
    ):
        _require(key in span, path, f"missing key {key!r}")
        _require_type(span[key], types, f"{path}.{key}")
    _require(span["duration_ns"] >= 0, f"{path}.duration_ns", "negative")
    events = span.get("events")
    if events is not None:
        _require_type(events, dict, f"{path}.events")
        for k, v in events.items():
            _require_type(v, (int, float), f"{path}.events[{k!r}]")
    trace_id = span.get("trace_id")
    if trace_id is not None:
        _require_type(trace_id, str, f"{path}.trace_id")
    for i, child in enumerate(span["children"]):
        validate_span_dict(child, f"{path}.children[{i}]")


def validate_event(event: Any, path: str = "event") -> None:
    """Validate one structured event (``repro.telemetry.event/v1``).

    The shape both the JSONL export lines and the run-record ``log``
    section entries share.
    """
    _require_type(event, dict, path)
    _require(
        event.get("schema") == EVENT_SCHEMA,
        f"{path}.schema",
        f"expected {EVENT_SCHEMA!r}, got {event.get('schema')!r}",
    )
    for key, types in (
        ("ts", (int, float)),
        ("level", str),
        ("kind", str),
        ("message", str),
        ("fields", dict),
        ("thread", str),
    ):
        _require(key in event, path, f"missing key {key!r}")
        _require_type(event[key], types, f"{path}.{key}")
    _require(
        event["level"] in LEVELS,
        f"{path}.level",
        f"unknown level {event['level']!r} (expected one of {LEVELS})",
    )
    _require(bool(event["kind"]), f"{path}.kind", "must be non-empty")
    trace_id = event.get("trace_id")
    if trace_id is not None:
        _require_type(trace_id, str, f"{path}.trace_id")
    span_id = event.get("span_id")
    if span_id is not None:
        _require_type(span_id, int, f"{path}.span_id")


def _validate_log_section(log: Any, path: str = "record.log") -> None:
    """Validate the optional ``log`` section."""
    _require_type(log, dict, path)
    for key in ("events", "dropped", "max_events"):
        _require(key in log, path, f"missing key {key!r}")
    _require_type(log["events"], list, f"{path}.events")
    _require_type(log["dropped"], int, f"{path}.dropped")
    _require_type(log["max_events"], int, f"{path}.max_events")
    for i, event in enumerate(log["events"]):
        validate_event(event, f"{path}.events[{i}]")


def _validate_faults_section(faults: Any, path: str = "record.faults") -> None:
    """Validate the optional ``faults`` ledger.

    Shape: a dict of counters, where each value is either a number or
    one nesting level of ``{kind: number}`` (the per-kind/per-mechanism
    breakdowns :meth:`repro.faults.FaultReport.as_dict` produces).
    """
    _require_type(faults, dict, path)
    for key, value in faults.items():
        sub = f"{path}[{key!r}]"
        if isinstance(value, dict):
            for k, v in value.items():
                _require_type(v, (int, float), f"{sub}[{k!r}]")
        else:
            _require_type(value, (int, float), sub)


def _validate_resilience_section(
    resilience: Any, path: str = "record.resilience"
) -> None:
    """Validate the optional ``resilience`` ledger.

    Shape: ``checkpoints`` (saved/restored counts), ``halo``
    (detection/retransmission counters), ``replans`` (one entry per
    elastic re-partition with the dead rank and the mesh transition),
    and the total ``reassignments`` count.
    """
    _require_type(resilience, dict, path)
    checkpoints = resilience.get("checkpoints")
    _require(checkpoints is not None, path, "missing key 'checkpoints'")
    _require_type(checkpoints, dict, f"{path}.checkpoints")
    for key in ("saved", "restored"):
        _require(
            key in checkpoints, f"{path}.checkpoints", f"missing key {key!r}"
        )
        _require_type(checkpoints[key], int, f"{path}.checkpoints.{key}")
    halo = resilience.get("halo")
    _require(halo is not None, path, "missing key 'halo'")
    _require_type(halo, dict, f"{path}.halo")
    for key, value in halo.items():
        _require_type(value, int, f"{path}.halo[{key!r}]")
    replans = resilience.get("replans")
    _require(replans is not None, path, "missing key 'replans'")
    _require_type(replans, list, f"{path}.replans")
    for i, entry in enumerate(replans):
        epath = f"{path}.replans[{i}]"
        _require_type(entry, dict, epath)
        for key, types in (
            ("round", int),
            ("dead_rank", int),
            ("old_mesh", list),
            ("new_mesh", list),
        ):
            _require(key in entry, epath, f"missing key {key!r}")
            _require_type(entry[key], types, f"{epath}.{key}")
    _require(
        "reassignments" in resilience, path, "missing key 'reassignments'"
    )
    _require_type(
        resilience["reassignments"], int, f"{path}.reassignments"
    )


def validate_run_record(record: Any) -> None:
    """Validate a run-record against :data:`RUN_RECORD_SCHEMA` (v6).

    Older versions (v1–v5) are rejected.  v6 is v5 without the
    ``metrics`` section, so deleting that key and re-stamping
    ``schema`` migrates a v5 record.
    """
    _require_type(record, dict, "record")
    _require(
        record.get("schema") == RUN_RECORD_SCHEMA,
        "record.schema",
        f"expected {RUN_RECORD_SCHEMA!r}, got {record.get('schema')!r}",
    )
    for key, types in (
        ("name", str),
        ("timestamp", str),
        ("spans", list),
        ("extra", dict),
    ):
        _require(key in record, "record", f"missing key {key!r}")
        _require_type(record[key], types, f"record.{key}")
    for i, span in enumerate(record["spans"]):
        validate_span_dict(span, f"record.spans[{i}]")
    cache = record.get("cache")
    if cache is not None:
        _require_type(cache, dict, "record.cache")
        for key in ("hits", "misses", "evictions", "size", "maxsize"):
            _require(key in cache, "record.cache", f"missing key {key!r}")
            _require_type(cache[key], int, f"record.cache.{key}")
    events = record.get("events")
    if events is not None:
        _require_type(events, dict, "record.events")
        for k, v in events.items():
            _require_type(v, (int, float), f"record.events[{k!r}]")
    tracer = record.get("tracer")
    if tracer is not None:
        _require_type(tracer, dict, "record.tracer")
        for key in ("finished_spans", "dropped_spans", "max_finished"):
            _require(key in tracer, "record.tracer", f"missing key {key!r}")
            _require_type(tracer[key], int, f"record.tracer.{key}")
        warp = tracer.get("warp_trace")
        if warp is not None:
            _require_type(warp, dict, "record.tracer.warp_trace")
            for k, v in warp.items():
                _require_type(v, int, f"record.tracer.warp_trace[{k!r}]")
    faults = record.get("faults")
    if faults is not None:
        _validate_faults_section(faults)
    log = record.get("log")
    if log is not None:
        _validate_log_section(log)
    cluster = record.get("cluster")
    if cluster is not None:
        validate_cluster_report(cluster, path="record.cluster")
    resilience = record.get("resilience")
    if resilience is not None:
        _validate_resilience_section(resilience)


def validate_cluster_report(report: Any, path: str = "report") -> None:
    """Validate a cluster observatory report
    (``repro.telemetry.cluster-report/v2``), standalone or as the
    ``cluster`` section of a run-record."""
    from repro.telemetry.cluster import CLUSTER_REPORT_SCHEMA, LANE_NAMES

    _require_type(report, dict, path)
    _require(
        report.get("schema") == CLUSTER_REPORT_SCHEMA,
        f"{path}.schema",
        f"expected {CLUSTER_REPORT_SCHEMA!r}, got {report.get('schema')!r}",
    )
    for key, types in (
        ("name", str),
        ("timestamp", str),
        ("trace_id", str),
        ("run", dict),
        ("ranks", list),
        ("critical_path", dict),
        ("overlap", dict),
        ("imbalance", dict),
        ("halo", dict),
    ):
        _require(key in report, path, f"missing key {key!r}")
        _require_type(report[key], types, f"{path}.{key}")
    run = report["run"]
    for key, types in (
        ("steps", int),
        ("rounds", int),
        ("phases", list),
        ("devices", int),
        ("executor", str),
        ("overlap", bool),
        ("wall_s", (int, float)),
        ("wall_ns", int),
    ):
        _require(key in run, f"{path}.run", f"missing key {key!r}")
        _require_type(run[key], types, f"{path}.run.{key}")
    for i, row in enumerate(report["ranks"]):
        rpath = f"{path}.ranks[{i}]"
        _require_type(row, dict, rpath)
        for key, types in (
            ("rank", int),
            ("lanes", dict),
            ("lanes_ns", dict),
            ("wall_ns", int),
            ("wall_s", (int, float)),
            ("busy_s", (int, float)),
            ("attempts", int),
            ("segments", list),
        ):
            _require(key in row, rpath, f"missing key {key!r}")
            _require_type(row[key], types, f"{rpath}.{key}")
        for lane in LANE_NAMES:
            _require(
                f"{lane}_s" in row["lanes"],
                f"{rpath}.lanes",
                f"missing lane {lane!r}",
            )
            _require(
                lane in row["lanes_ns"],
                f"{rpath}.lanes_ns",
                f"missing lane {lane!r}",
            )
            _require_type(row["lanes_ns"][lane], int, f"{rpath}.lanes_ns.{lane}")
        _require(
            sum(row["lanes_ns"].values()) == row["wall_ns"],
            f"{rpath}.lanes_ns",
            "lane nanoseconds must sum exactly to wall_ns",
        )
        for j, seg in enumerate(row["segments"]):
            spath = f"{rpath}.segments[{j}]"
            _require_type(seg, dict, spath)
            for key, types in (
                ("t0_s", (int, float)),
                ("t1_s", (int, float)),
                ("lane", str),
                ("round", int),
            ):
                _require(key in seg, spath, f"missing key {key!r}")
                _require_type(seg[key], types, f"{spath}.{key}")
    crit = report["critical_path"]
    for key, types in (("s", (int, float)), ("ns", int), ("nodes", list)):
        _require(key in crit, f"{path}.critical_path", f"missing key {key!r}")
        _require_type(crit[key], types, f"{path}.critical_path.{key}")
    if report["ranks"]:
        _require(
            crit["ns"] >= max(r["wall_ns"] for r in report["ranks"]),
            f"{path}.critical_path.ns",
            "critical path must dominate every rank's wall time",
        )
    overlap = report["overlap"]
    for key, types in (
        ("enabled", bool),
        ("efficiency", (int, float)),
        ("hidden_s", (int, float)),
        ("transfer_s", (int, float)),
        ("per_round", list),
    ):
        _require(key in overlap, f"{path}.overlap", f"missing key {key!r}")
        _require_type(overlap[key], types, f"{path}.overlap.{key}")
    _require(
        0.0 <= overlap["efficiency"] <= 1.0,
        f"{path}.overlap.efficiency",
        f"must be in [0, 1], got {overlap['efficiency']!r}",
    )
    imbalance = report["imbalance"]
    for key, types in (
        ("max_over_mean", (int, float)),
        ("mad_frac", (int, float)),
        ("per_round", list),
    ):
        _require(key in imbalance, f"{path}.imbalance", f"missing key {key!r}")
        _require_type(imbalance[key], types, f"{path}.imbalance.{key}")
    halo = report["halo"]
    for key, types in (
        ("total_bytes", int),
        ("ledger_bytes", int),
        ("reconciled", bool),
        ("per_round", list),
    ):
        _require(key in halo, f"{path}.halo", f"missing key {key!r}")
        _require_type(halo[key], types, f"{path}.halo.{key}")
    for i, entry in enumerate(halo["per_round"]):
        epath = f"{path}.halo.per_round[{i}]"
        _require_type(entry, dict, epath)
        for key in ("round", "steps", "depth", "halo_bytes", "comm_bytes_max"):
            _require(key in entry, epath, f"missing key {key!r}")
            _require_type(entry[key], int, f"{epath}.{key}")
    _require(
        halo["total_bytes"] == sum(
            entry["halo_bytes"] for entry in halo["per_round"]
        ),
        f"{path}.halo.total_bytes",
        "must equal the sum of per-round halo bytes",
    )


def validate_fidelity_report(report: Any) -> None:
    """Validate a fidelity report against :data:`FIDELITY_REPORT_SCHEMA`."""
    _require_type(report, dict, "report")
    _require(
        report.get("schema") == FIDELITY_REPORT_SCHEMA,
        "report.schema",
        f"expected {FIDELITY_REPORT_SCHEMA!r}, got {report.get('schema')!r}",
    )
    for key, types in (
        ("name", str),
        ("timestamp", str),
        ("plan", dict),
        ("workload", dict),
        ("components", list),
        ("model", dict),
        ("max_rel_error", (int, float)),
    ):
        _require(key in report, "report", f"missing key {key!r}")
        _require_type(report[key], types, f"report.{key}")
    plan = report["plan"]
    for key, types in (
        ("key", str),
        ("schedule", str),
        ("ndim", int),
        ("radius", int),
        ("rank", int),
        ("method", str),
    ):
        _require(key in plan, "report.plan", f"missing key {key!r}")
        _require_type(plan[key], types, f"report.plan.{key}")
    workload = report["workload"]
    for key, types in (("shape", list), ("seed", int), ("tiles", int)):
        _require(key in workload, "report.workload", f"missing key {key!r}")
        _require_type(workload[key], types, f"report.workload.{key}")
    _require(
        len(report["components"]) >= 1,
        "report.components",
        "must contain at least one component",
    )
    for i, comp in enumerate(report["components"]):
        path = f"report.components[{i}]"
        _require_type(comp, dict, path)
        for key, types in (
            ("name", str),
            ("equation", str),
            ("source", str),
            ("predicted", (int, float)),
            ("measured", (int, float)),
        ):
            _require(key in comp, path, f"missing key {key!r}")
            _require_type(comp[key], types, f"{path}.{key}")
        _require("rel_error" in comp, path, "missing key 'rel_error'")
        if comp["rel_error"] is not None:
            _require_type(comp["rel_error"], (int, float), f"{path}.rel_error")
    for key, value in report["model"].items():
        _require_type(value, (int, float), f"report.model[{key!r}]")


def validate_chrome_trace(trace: Any) -> None:
    """Validate a Chrome trace-event document this package emitted."""
    _require_type(trace, dict, "trace")
    _require(
        trace.get("schema") == CHROME_TRACE_SCHEMA,
        "trace.schema",
        f"expected {CHROME_TRACE_SCHEMA!r}, got {trace.get('schema')!r}",
    )
    events = trace.get("traceEvents")
    _require_type(events, list, "trace.traceEvents")
    complete = 0
    for i, event in enumerate(events):
        path = f"trace.traceEvents[{i}]"
        _require_type(event, dict, path)
        ph = event.get("ph")
        _require(ph in ("X", "M"), f"{path}.ph", f"unsupported phase {ph!r}")
        _require("name" in event, path, "missing key 'name'")
        if ph == "M":
            continue
        complete += 1
        for key in ("ts", "dur", "pid", "tid"):
            _require(key in event, path, f"missing key {key!r}")
            _require_type(event[key], (int, float), f"{path}.{key}")
        _require(event["dur"] >= 0, f"{path}.dur", "negative duration")
        _require_type(event.get("args"), dict, f"{path}.args")
        _require(
            "span_id" in event["args"],
            f"{path}.args",
            "missing key 'span_id'",
        )
    _require(complete >= 1, "trace.traceEvents", "no complete ('X') events")


def _validate_document(document: Any, path: str | pathlib.Path) -> str:
    from repro.telemetry.cluster import CLUSTER_REPORT_SCHEMA

    schema = document.get("schema") if isinstance(document, dict) else None
    if schema == CHROME_TRACE_SCHEMA:
        validate_chrome_trace(document)
    elif schema == RUN_RECORD_SCHEMA:
        validate_run_record(document)
    elif schema == FIDELITY_REPORT_SCHEMA:
        validate_fidelity_report(document)
    elif schema == CLUSTER_REPORT_SCHEMA:
        validate_cluster_report(document)
    elif schema == EVENT_SCHEMA:
        validate_event(document)
    else:
        raise TelemetryError(
            f"{path}: unknown or missing schema {schema!r} (expected "
            f"{CHROME_TRACE_SCHEMA!r}, {RUN_RECORD_SCHEMA!r}, "
            f"{FIDELITY_REPORT_SCHEMA!r}, {CLUSTER_REPORT_SCHEMA!r} or "
            f"{EVENT_SCHEMA!r})"
        )
    return schema


def validate_file(path: str | pathlib.Path) -> str:
    """Validate a telemetry file as whatever it declares itself to be.

    ``.jsonl`` files (event-log exports, run-record histories) are
    validated line by line; plain JSON files as one document.  Returns
    the matched schema identifier (of the last line for JSONL).
    """
    path = pathlib.Path(path)
    text = path.read_text()
    if path.suffix == ".jsonl":
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines:
            raise TelemetryError(f"{path}: empty JSONL file")
        schema = ""
        for i, line in enumerate(lines):
            try:
                document = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TelemetryError(
                    f"{path}: line {i + 1} is not valid JSON: {exc}"
                ) from exc
            schema = _validate_document(document, f"{path}:{i + 1}")
        return schema
    return _validate_document(json.loads(text), path)


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.telemetry.validate <file> [<file> ...]``"""
    paths = sys.argv[1:] if argv is None else argv
    if not paths:
        print("usage: python -m repro.telemetry.validate FILE [FILE ...]",
              file=sys.stderr)
        return 2
    for path in paths:
        try:
            schema = validate_file(path)
        except (OSError, json.JSONDecodeError, TelemetryError) as exc:
            print(f"{path}: INVALID — {exc}", file=sys.stderr)
            return 1
        print(f"{path}: ok ({schema})")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
