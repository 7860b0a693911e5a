"""Tracer and warp-trace buffer health in the exporters.

Bounded buffers (the tracer's finished-span ring, the warp-trace
recorder ring) silently shed data once saturated; the exporters must
surface retained/dropped/capacity so consumers can tell a quiet run
from a truncated one.
"""

import numpy as np

from repro.tcu import trace
from repro.tcu.counters import EventCounters
from repro.telemetry.export import run_record
from repro.telemetry.spans import Tracer
from repro.telemetry.validate import validate_run_record


def _saturated_tracer(max_finished=2, spans=5):
    tracer = Tracer(max_finished=max_finished)
    tracer.enable()
    for i in range(spans):
        with tracer.span(f"s{i}"):
            pass
    return tracer


class TestRunRecordTracerBlock:
    def test_record_reports_retained_and_dropped_spans(self):
        tracer = _saturated_tracer(max_finished=2, spans=5)
        record = run_record("t", tracer=tracer)
        assert record["tracer"]["finished_spans"] == 2
        assert record["tracer"]["dropped_spans"] == 3
        assert record["tracer"]["max_finished"] == 2
        validate_run_record(record)

    def test_record_reports_warp_trace_ring(self):
        counters = EventCounters()
        recorder = trace.install(counters, max_events=3)
        try:
            for i in range(10):
                recorder.record("op", str(i))
            record = run_record("t")
            warp = record["tracer"]["warp_trace"]
            assert warp["recorders"] == 1
            assert warp["events_total"] == 10
            assert warp["events_retained"] == 3
            assert warp["events_dropped"] == 7
            assert warp["max_events"] == 3
            validate_run_record(record)
        finally:
            trace.uninstall(counters)

    def test_quiet_process_reports_zeroes(self):
        record = run_record("quiet")
        assert record["tracer"]["dropped_spans"] == 0
        assert record["tracer"]["warp_trace"]["recorders"] == 0
        validate_run_record(record)
