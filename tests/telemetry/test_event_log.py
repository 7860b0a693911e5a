"""The structured event log: levels, ring bounds, trace joins, export."""

import json

import pytest

from repro import telemetry
from repro.telemetry.log import (
    EVENT_LOG,
    EVENT_SCHEMA,
    LEVELS,
    Event,
    EventLog,
    emit,
    write_event_log,
)
from repro.telemetry.validate import (
    TelemetryError,
    validate_event,
    validate_file,
)


class TestEmission:
    def test_emit_records_kind_message_and_fields(self):
        event = emit("backend.downgrade", message="fell back",
                     requested="vectorized", resolved="interpreter")
        assert event is EVENT_LOG.events()[-1]
        assert event.kind == "backend.downgrade"
        assert event.fields == {
            "requested": "vectorized", "resolved": "interpreter"
        }
        assert event.level == "info"

    def test_debug_is_filtered_by_default(self):
        assert emit("noise", level="debug") is None
        assert len(EVENT_LOG) == 0

    def test_min_level_ordering_matches_levels(self):
        log = EventLog(min_level="warning")
        assert log.emit("a", level="info") is None
        assert log.emit("b", level="warning") is not None
        assert log.emit("c", level="error") is not None
        assert [e.kind for e in log.events()] == ["b", "c"]
        assert LEVELS == ("debug", "info", "warning", "error")

    def test_unknown_level_raises(self):
        with pytest.raises(ValueError):
            emit("x", level="fatal")
        with pytest.raises(ValueError):
            EventLog(min_level="loud")

    def test_always_on_without_tracing(self):
        # the log's whole point: decisions recorded with spans off
        assert not telemetry.is_enabled()
        event = emit("shard.timeout", level="warning", shard=2)
        assert event is not None
        assert event.trace_id is None
        assert event.span_id is None

    def test_events_join_the_enclosing_span(self):
        telemetry.enable()
        with telemetry.span("work") as sp:
            event = emit("recovery.tile_retry", tile=[0, 8])
        assert event.trace_id == sp.trace_id
        assert event.span_id == sp.span_id


class TestRing:
    def test_ring_eviction_counts_dropped(self):
        log = EventLog(max_events=3)
        for i in range(5):
            log.emit(f"k{i}")
        assert len(log) == 3
        assert log.dropped == 2
        assert [e.kind for e in log.events()] == ["k2", "k3", "k4"]

    def test_count_by_kind(self):
        log = EventLog()
        log.emit("a")
        log.emit("b")
        log.emit("a")
        assert log.count() == 3
        assert log.count("a") == 2
        assert log.count("missing") == 0

    def test_clear_zeroes_everything(self):
        log = EventLog(max_events=1)
        log.emit("a")
        log.emit("b")
        log.clear()
        assert len(log) == 0
        assert log.dropped == 0

    def test_reset_clears_the_process_log(self):
        emit("stale")
        telemetry.reset()
        assert len(EVENT_LOG) == 0


class TestSchema:
    def test_as_dict_is_schema_tagged_and_validates(self):
        event = Event("fault.injected", level="warning", message="boom",
                      fields={"site": 3})
        doc = event.as_dict()
        assert doc["schema"] == EVENT_SCHEMA
        validate_event(doc)

    def test_validate_rejects_missing_kind(self):
        doc = Event("x").as_dict()
        del doc["kind"]
        with pytest.raises(TelemetryError):
            validate_event(doc)

    def test_validate_rejects_bad_level(self):
        doc = Event("x").as_dict()
        doc["level"] = "screaming"
        with pytest.raises(TelemetryError):
            validate_event(doc)

    def test_snapshot_shape(self):
        log = EventLog(max_events=2)
        log.emit("a")
        log.emit("b")
        log.emit("c")
        snap = log.snapshot()
        assert [e["kind"] for e in snap["events"]] == ["b", "c"]
        assert snap["dropped"] == 1
        assert snap["max_events"] == 2
        for doc in snap["events"]:
            validate_event(doc)


class TestExport:
    def test_write_event_log_jsonl_roundtrip(self, tmp_path):
        emit("one", message="first")
        emit("two", level="warning", shard=1)
        path = write_event_log(tmp_path / "events.jsonl")
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        docs = [json.loads(line) for line in lines]
        assert [d["kind"] for d in docs] == ["one", "two"]
        assert validate_file(path) == EVENT_SCHEMA

    def test_validate_file_rejects_a_corrupt_line(self, tmp_path):
        emit("ok")
        path = write_event_log(tmp_path / "events.jsonl")
        path.write_text(path.read_text() + "not json\n")
        with pytest.raises(TelemetryError):
            validate_file(path)

    def test_run_record_folds_the_log_in(self):
        emit("backend.downgrade", level="warning")
        record = telemetry.run_record("t")
        assert record["log"]["events"][0]["kind"] == "backend.downgrade"
        telemetry.validate_run_record(record)

    def test_run_record_omits_an_empty_log(self):
        record = telemetry.run_record("t")
        assert "log" not in record
        telemetry.validate_run_record(record)

    def test_run_record_log_false_opts_out(self):
        emit("something")
        record = telemetry.run_record("t", log=False)
        assert "log" not in record
