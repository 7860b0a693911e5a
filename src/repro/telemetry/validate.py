"""Schema validation for emitted telemetry documents.

Pure-Python structural validation (this repository adds no third-party dependencies,
so there is no ``jsonschema``).  Each schema is a spec table below, and one walker,
:func:`_walk`, checks a document against it, raising :class:`TelemetryError` — a
:class:`~repro.errors.ReproError` — on the first violation, naming the offending path.
The tables *are* the documented schema; see ``docs/observability.md`` for the prose
version.  A spec is a type or tuple of types; a ``str`` the value must equal (a schema
id; absent reads as ``None``); a record ``{key: spec}`` (``"key?"`` optional: absent or
``None`` passes; ``"key!"`` read as ``dict.get``: absent is checked as ``None``; other
keys free); a map ``{str: spec}``; a list ``[spec]``; a :class:`Check` (a spec plus
cross-field rules); or a function ``(value, path) -> spec`` choosing the spec at walk
time.

Also runnable through the package, which is what the CI smoke jobs call::

    python -m repro.telemetry trace.json record.json   # auto-detects each kind
"""

import json
import pathlib
import sys
from typing import Any, Callable

from repro.errors import ReproError
from repro.telemetry.export import CHROME_TRACE_SCHEMA, FIDELITY_REPORT_SCHEMA, RUN_RECORD_SCHEMA
from repro.telemetry.log import EVENT_SCHEMA, LEVELS

__all__ = [
    "TelemetryError", "validate_chrome_trace", "validate_cluster_report", "validate_event",
    "validate_fidelity_report", "validate_run_record", "validate_span_dict", "validate_file",
]


class TelemetryError(ReproError, ValueError):
    """A telemetry document does not match its declared schema."""


def _require(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise TelemetryError(f"{path}: {message}")


class Check:
    """``spec`` plus cross-field rules ``rule(value, path)`` run after it."""

    def __init__(self, spec: Any, *rules: Callable[[Any, str], None]):
        self.spec, self.rules = spec, rules


def _walk(value: Any, spec: Any, path: str) -> None:
    """Check ``value`` against ``spec``: the one presence and type check."""
    if isinstance(spec, Check):
        _walk(value, spec.spec, path)
        for rule in spec.rules:
            rule(value, path)
    elif isinstance(spec, str):
        _require(value == spec, path, f"expected {spec!r}, got {value!r}")
    elif isinstance(spec, list):
        _walk(value, list, path)
        for i, item in enumerate(value):
            _walk(item, spec[0], f"{path}[{i}]")
    elif isinstance(spec, dict) and str in spec:
        _walk(value, dict, path)
        for key, item in value.items():
            _walk(item, spec[str], f"{path}[{key!r}]")
    elif isinstance(spec, dict):
        _walk(value, dict, path)
        for key, sub in spec.items():
            name = key.rstrip("?!")
            item = value.get(name)
            if key.endswith("?") and item is None:
                continue
            if name not in value and not (key.endswith("!") or isinstance(sub, str)):
                raise TelemetryError(f"{path}: missing key {name!r}")
            _walk(item, sub, f"{path}.{name}")
    elif isinstance(spec, (type, tuple)):
        name = getattr(spec, "__name__", spec)
        _require(isinstance(value, spec), path, f"expected {name}, got {type(value).__name__}")
    else:
        _walk(value, spec(value, path), path)


def _rule(key: str, holds: Callable[[dict], bool], message: str):
    """``holds(value)``, else ``message`` (formatted with the value) at ``path.key``."""

    def rule(value: dict, path: str) -> None:
        if not holds(value):
            raise TelemetryError(f"{path}.{key}: {message.format(**value)}")

    return rule


_nonnegative_duration = _rule("duration_ns", lambda span: span["duration_ns"] >= 0, "negative")
_known_level = _rule("level", lambda event: event["level"] in LEVELS,
                     f"unknown level {{level!r}} (expected one of {LEVELS})")
_nonempty_kind = _rule("kind", lambda event: bool(event["kind"]), "must be non-empty")
_lanes_sum_to_wall = _rule("lanes_ns", lambda row: sum(row["lanes_ns"].values()) == row["wall_ns"],
                           "lane nanoseconds must sum exactly to wall_ns")
_critical_path_dominates = _rule(
    "critical_path.ns",
    lambda report: all(report["critical_path"]["ns"] >= row["wall_ns"] for row in report["ranks"]),
    "critical path must dominate every rank's wall time",
)
_efficiency_in_unit_interval = _rule("efficiency", lambda overlap: 0 <= overlap["efficiency"] <= 1,
                                     "must be in [0, 1], got {efficiency!r}")
_halo_total_is_round_sum = _rule(
    "total_bytes",
    lambda halo: halo["total_bytes"] == sum(entry["halo_bytes"] for entry in halo["per_round"]),
    "must equal the sum of per-round halo bytes",
)
_some_component = _rule("components", lambda report: len(report["components"]) >= 1,
                        "must contain at least one component")
_nonnegative_dur = _rule("dur", lambda event: event["dur"] >= 0, "negative duration")
_some_complete_event = _rule("traceEvents", lambda trace: any(
    event["ph"] == "X" for event in trace["traceEvents"]), "no complete ('X') events")


def _every_lane(row: dict, path: str) -> None:
    for lane in _cluster().LANE_NAMES:
        for key, name in (("lanes", f"{lane}_s"), ("lanes_ns", lane)):
            _require(name in row[key], f"{path}.{key}", f"missing lane {lane!r}")
    _walk(row["lanes_ns"], dict.fromkeys(_cluster().LANE_NAMES, int), f"{path}.lanes_ns")


def _cluster():
    """:mod:`repro.telemetry.cluster`, imported late: it imports this module."""
    from repro.telemetry import cluster

    return cluster


def _chrome_event(event: Any, path: str) -> Any:
    """A Chrome trace event's spec, chosen by its phase ("M" needs only a name)."""
    _walk(event, dict, path)
    ph = event.get("ph")
    _require(ph in ("X", "M"), f"{path}.ph", f"unsupported phase {ph!r}")
    return _CHROME_COMPLETE if ph == "X" else {"name": object}


# the spec tables: the documented schemas
NUM = (int, float)

_SPAN = Check({
    "name": str, "category": str, "span_id": int, "start_ns": int, "duration_ns": int,
    "attrs": dict, "children": None, "events?": {str: NUM}, "trace_id?": str,
}, _nonnegative_duration)
_SPAN.spec["children"] = [_SPAN]  # spans nest

_EVENT = Check({
    "schema": EVENT_SCHEMA, "ts": NUM, "level": str, "kind": str, "message": str,
    "fields": dict, "thread": str, "trace_id?": str, "span_id?": int,
}, _known_level, _nonempty_kind)

_CHROME_COMPLETE = Check({"name": object, "ts": NUM, "dur": NUM, "pid": NUM, "tid": NUM,
                          "args!": {"span_id": object}}, _nonnegative_dur)

_CHROME_TRACE = Check({"schema": CHROME_TRACE_SCHEMA, "traceEvents!": [_chrome_event]},
                      _some_complete_event)

_FIDELITY_REPORT = Check({
    "schema": FIDELITY_REPORT_SCHEMA, "name": str, "timestamp": str,
    "plan": {"key": str, "schedule": str, "ndim": int, "radius": int, "rank": int, "method": str},
    "workload": {"shape": list, "seed": int, "tiles": int},
    "components": [{
        "name": str, "equation": str, "source": str, "predicted": NUM, "measured": NUM,
        "rel_error": lambda value, path: object if value is None else NUM,
    }],
    "model": {str: NUM},
    "max_rel_error": NUM,
}, _some_component)

_CLUSTER_REPORT = Check({
    "schema!": lambda report, path: _cluster().CLUSTER_REPORT_SCHEMA,
    "name": str, "timestamp": str, "trace_id": str,
    "run": {"steps": int, "rounds": int, "phases": list, "devices": int, "executor": str,
            "overlap": bool, "wall_s": NUM, "wall_ns": int},
    "ranks": [Check({
        "rank": int, "lanes": dict, "lanes_ns": dict, "wall_ns": int, "wall_s": NUM,
        "busy_s": NUM, "attempts": int,
        "segments": [{"t0_s": NUM, "t1_s": NUM, "lane": str, "round": int}],
    }, _every_lane, _lanes_sum_to_wall)],
    "critical_path": {"s": NUM, "ns": int, "nodes": list},
    "overlap": Check({"enabled": bool, "efficiency": NUM, "hidden_s": NUM, "transfer_s": NUM,
                      "per_round": list}, _efficiency_in_unit_interval),
    "imbalance": {"max_over_mean": NUM, "mad_frac": NUM, "per_round": list},
    "halo": Check({"total_bytes": int, "ledger_bytes": int, "reconciled": bool,
                   "per_round": [dict.fromkeys(("round", "steps", "depth", "halo_bytes",
                                                "comm_bytes_max"), int)]},
                  _halo_total_is_round_sum),
}, _critical_path_dominates)

_RUN_RECORD = {
    "schema": RUN_RECORD_SCHEMA, "name": str, "timestamp": str, "spans": [_SPAN], "extra": dict,
    "cache?": dict.fromkeys(("hits", "misses", "evictions", "size", "maxsize"), int),
    "events?": {str: NUM},
    "tracer?": {"finished_spans": int, "dropped_spans": int, "max_finished": int,
                "warp_trace?": {str: int}},
    # counters: a number, or one level of {kind: number}
    "faults?": {str: lambda value, path: {str: NUM} if isinstance(value, dict) else NUM},
    "log?": {"events": [_EVENT], "dropped": int, "max_events": int},
    "cluster?": _CLUSTER_REPORT,
    "resilience?": {
        "checkpoints": {"saved": int, "restored": int},
        "halo": {str: int},
        "replans": [{"round": int, "dead_rank": int, "old_mesh": list, "new_mesh": list}],
        "reassignments": int,
    },
}


def validate_span_dict(span: Any, path: str = "span") -> None:
    """Validate one serialized span (the ``run-record`` ``spans`` shape)."""
    _walk(span, _SPAN, path)


def validate_event(event: Any, path: str = "event") -> None:
    """Validate one structured event (``repro.telemetry.event/v1``): the shape both
    the JSONL export lines and the run-record ``log`` section entries share."""
    _walk(event, _EVENT, path)


def validate_run_record(record: Any) -> None:
    """Validate a run-record against :data:`RUN_RECORD_SCHEMA` (v6).

    Older versions (v1–v5) are rejected.  v6 is v5 without the ``metrics``
    section, so deleting that key and re-stamping ``schema`` migrates a v5 record."""
    _walk(record, _RUN_RECORD, "record")


def validate_cluster_report(report: Any, path: str = "report") -> None:
    """Validate a cluster observatory report (``repro.telemetry.cluster-report/v3``),
    standalone or as the ``cluster`` section of a run-record."""
    _walk(report, _CLUSTER_REPORT, path)


def validate_fidelity_report(report: Any) -> None:
    """Validate a fidelity report against :data:`FIDELITY_REPORT_SCHEMA`."""
    _walk(report, _FIDELITY_REPORT, "report")


def validate_chrome_trace(trace: Any) -> None:
    """Validate a Chrome trace-event document this package emitted."""
    _walk(trace, _CHROME_TRACE, "trace")


def _validate_document(document: Any, path: str | pathlib.Path) -> str:
    validators = {
        CHROME_TRACE_SCHEMA: validate_chrome_trace, RUN_RECORD_SCHEMA: validate_run_record,
        FIDELITY_REPORT_SCHEMA: validate_fidelity_report,
        _cluster().CLUSTER_REPORT_SCHEMA: validate_cluster_report, EVENT_SCHEMA: validate_event,
    }
    schema = document.get("schema") if isinstance(document, dict) else None
    if not isinstance(schema, str) or schema not in validators:
        *known, last = map(repr, validators)
        raise TelemetryError(f"{path}: unknown or missing schema {schema!r} "
                             f"(expected {', '.join(known)} or {last})")
    validators[schema](document)
    return schema


def validate_file(path: str | pathlib.Path) -> str:
    """Validate a telemetry file as whatever it declares itself to be.

    ``.jsonl`` files (event-log exports) are validated line by line; plain
    JSON files as one document.  Returns the matched schema identifier
    (of the last line for JSONL)."""
    path = pathlib.Path(path)
    if path.suffix != ".jsonl":
        return _validate_document(json.loads(path.read_text()), path)
    lines = [line for line in path.read_text().splitlines() if line.strip()]
    _require(bool(lines), str(path), "empty JSONL file")
    for i, line in enumerate(lines, 1):
        try:
            document = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TelemetryError(f"{path}: line {i} is not valid JSON: {exc}") from exc
        schema = _validate_document(document, f"{path}:{i}")
    return schema


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.telemetry <file> [<file> ...]``"""
    paths = sys.argv[1:] if argv is None else argv
    if not paths:
        print("usage: python -m repro.telemetry FILE [FILE ...]", file=sys.stderr)
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
