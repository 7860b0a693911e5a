"""Exporter round-trips: Chrome traces and run-records."""

import json

import pytest

from repro import telemetry
from repro.tcu.counters import EventCounters
from repro.telemetry.export import (
    CHROME_TRACE_SCHEMA,
    RUN_RECORD_SCHEMA,
    load_chrome_trace,
    span_to_dict,
    to_chrome_trace,
)
from repro.telemetry.validate import (
    TelemetryError,
    validate_chrome_trace,
    validate_file,
    validate_run_record,
)


def _sample_forest():
    """One root with a sweep child (carrying events) and a shard grandchild."""
    telemetry.enable()
    events = EventCounters()
    events.mma_ops = 36
    events.global_load_bytes = 4096
    with telemetry.span("runtime.compile", category="runtime", key="abc") as r:
        with telemetry.span("tcu.sweep", category="tcu") as sweep:
            sweep.add_events(events)
            with telemetry.span("runtime.shard", shard=0):
                pass
    return r


class TestChromeTrace:
    def test_document_shape(self):
        root = _sample_forest()
        doc = to_chrome_trace([root])
        assert doc["schema"] == CHROME_TRACE_SCHEMA
        phases = [e["ph"] for e in doc["traceEvents"]]
        assert phases.count("X") == 3
        assert "M" in phases  # process/thread name metadata
        validate_chrome_trace(doc)

    def test_round_trip_preserves_structure(self):
        root = _sample_forest()
        doc = to_chrome_trace([root])
        # through actual JSON, as a file on disk would
        (loaded_root,) = load_chrome_trace(json.loads(json.dumps(doc)))
        assert loaded_root.name == "runtime.compile"
        assert loaded_root.attrs == {"key": "abc"}
        (sweep,) = loaded_root.children
        assert sweep.name == "tcu.sweep"
        assert sweep.events["mma_ops"] == 36
        (shard,) = sweep.children
        assert shard.attrs == {"shard": 0}
        # timing survives to the microsecond the format stores
        assert loaded_root.dur_us == pytest.approx(
            root.duration_ns / 1e3, abs=0.001
        )
        assert [s.name for s in loaded_root.walk()] == [
            s.name for s in root.walk()
        ]

    def test_write_and_validate_file(self, tmp_path):
        _sample_forest()
        path = telemetry.write_chrome_trace(tmp_path / "trace.json")
        assert validate_file(path) == CHROME_TRACE_SCHEMA
        (loaded,) = load_chrome_trace(path)
        assert loaded.name == "runtime.compile"

    def test_empty_trace_is_invalid(self):
        with pytest.raises(TelemetryError, match="no complete"):
            validate_chrome_trace(to_chrome_trace([]))


class TestRunRecord:
    def test_minimal_record_validates(self):
        record = telemetry.run_record("smoke")
        validate_run_record(record)
        assert record["schema"] == RUN_RECORD_SCHEMA
        assert record["spans"] == [] and "metrics" not in record

    def test_full_record_round_trips_through_disk(self, tmp_path):
        root = _sample_forest()

        class FakeStats:
            hits, misses, evictions, size, maxsize = 2, 1, 0, 1, 128
            hit_rate = 2 / 3

        events = EventCounters()
        events.mma_ops = 36
        record = telemetry.run_record(
            "full",
            cache_stats=FakeStats(),
            counters=events,
            extra={"size": 64, "shape": (64, 64)},
        )
        path = telemetry.write_run_record(tmp_path / "rec.json", record)
        loaded = json.loads(path.read_text())
        validate_run_record(loaded)
        assert loaded["cache"]["hit_rate"] == pytest.approx(2 / 3)
        assert loaded["events"]["mma_ops"] == 36
        assert loaded["extra"] == {"size": 64, "shape": [64, 64]}
        (span,) = loaded["spans"]
        assert span["name"] == "runtime.compile"
        assert span["children"][0]["events"]["mma_ops"] == 36
        assert span_to_dict(root)["name"] == span["name"]

    def test_write_rejects_invalid_record(self, tmp_path):
        with pytest.raises(TelemetryError):
            telemetry.write_run_record(tmp_path / "bad.json", {"schema": "nope"})
        assert not (tmp_path / "bad.json").exists()

    def test_validator_names_offending_path(self):
        record = telemetry.run_record("x")
        record["spans"] = [{"name": 3}]
        with pytest.raises(TelemetryError, match=r"record\.spans\[0\]"):
            validate_run_record(record)

    def test_validate_file_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"schema": "something/else"}')
        with pytest.raises(TelemetryError, match="unknown or missing"):
            validate_file(path)
