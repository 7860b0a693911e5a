"""TraceContext capture/propagation and merge-on-join."""

import threading

import pytest

from repro import telemetry
from repro.telemetry.context import (
    NULL_CONTEXT,
    TraceContext,
    merge_roots,
)
from repro.telemetry.spans import NULL_SPAN, TRACER, Tracer, new_trace_id


class TestTraceIds:
    def test_new_trace_id_shape_and_uniqueness(self):
        ids = {new_trace_id() for _ in range(64)}
        assert len(ids) == 64
        for tid in ids:
            assert len(tid) == 16
            int(tid, 16)  # hex

    def test_root_span_gets_a_trace_id(self):
        telemetry.enable()
        with telemetry.span("root") as sp:
            assert sp.trace_id is not None
        assert len(sp.trace_id) == 16

    def test_children_inherit_the_root_trace_id(self):
        telemetry.enable()
        with telemetry.span("root") as root:
            with telemetry.span("child") as child:
                with telemetry.span("grandchild") as grand:
                    pass
        assert child.trace_id == root.trace_id
        assert grand.trace_id == root.trace_id

    def test_sibling_roots_get_distinct_traces(self):
        telemetry.enable()
        with telemetry.span("a") as a:
            pass
        with telemetry.span("b") as b:
            pass
        assert a.trace_id != b.trace_id


class TestCapture:
    def test_disabled_capture_is_the_null_singleton(self):
        assert TraceContext.capture() is NULL_CONTEXT
        assert not NULL_CONTEXT.is_recording
        assert NULL_CONTEXT.parent_span_id is None

    def test_null_context_span_is_the_null_span(self):
        assert NULL_CONTEXT.span("anything") is NULL_SPAN

    def test_capture_inside_a_span_snapshots_it(self):
        telemetry.enable()
        with telemetry.span("spawn") as sp:
            ctx = TraceContext.capture()
        assert ctx.is_recording
        assert ctx.parent is sp
        assert ctx.parent_span_id == sp.span_id
        assert ctx.trace_id == sp.trace_id

    def test_capture_outside_any_span_mints_one_trace(self):
        telemetry.enable()
        ctx = TraceContext.capture()
        assert ctx.parent is None
        assert ctx.trace_id is not None

    def test_context_span_reparents_across_threads(self):
        telemetry.enable()
        seen = []
        with telemetry.span("parent") as parent:
            ctx = TraceContext.capture()

            def worker(i):
                with ctx.span("worker", shard=i) as sp:
                    seen.append(sp)

            threads = [
                threading.Thread(target=worker, args=(i,)) for i in range(3)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert len(parent.children) == 3
        assert {sp.trace_id for sp in seen} == {parent.trace_id}
        assert all(sp.parent is parent for sp in seen)

    def test_context_outlives_the_parent_exit(self):
        # a supervisor retry may spawn after the spawning call unwound
        telemetry.enable()
        with telemetry.span("parent") as parent:
            ctx = TraceContext.capture()
        with ctx.span("late-retry") as late:
            pass
        assert late.parent is parent
        assert late.trace_id == parent.trace_id
        assert late in parent.children

    def test_span_goes_null_if_tracer_disabled_after_capture(self):
        telemetry.enable()
        ctx = TraceContext.capture()
        telemetry.disable()
        assert ctx.span("x") is NULL_SPAN


class TestMergeRoots:
    def test_merge_into_parent_rewrites_trace_ids(self):
        telemetry.enable()
        worker = Tracer()
        worker.enable()
        with worker.span("w-root"):
            with worker.span("w-child"):
                pass
        with telemetry.span("parent") as parent:
            ctx = TraceContext.capture()
        merged = merge_roots(worker.roots(), ctx)
        assert merged == 1
        (w_root,) = parent.children
        assert w_root.name == "w-root"
        assert [s.trace_id for s in w_root.walk()] == [parent.trace_id] * 2

    def test_merge_without_parent_lands_in_finished_ring(self):
        telemetry.enable()
        worker = Tracer()
        worker.enable()
        with worker.span("w-root"):
            pass
        ctx = TraceContext.capture()  # outside any span
        assert merge_roots(worker.roots(), ctx) == 1
        (root,) = TRACER.roots()
        assert root.name == "w-root"
        assert root.trace_id == ctx.trace_id

    def test_merge_respects_the_ring_bound(self):
        telemetry.enable()
        target = Tracer(max_finished=2)
        target.enable()
        ctx = TraceContext(new_trace_id(), None, target)
        worker = Tracer()
        worker.enable()
        for i in range(4):
            with worker.span(f"w{i}"):
                pass
        assert merge_roots(worker.roots(), ctx) == 4
        assert len(target.roots()) == 2
        assert target.dropped == 2

    def test_null_context_merge_is_a_noop(self):
        worker = Tracer()
        worker.enable()
        with worker.span("w"):
            pass
        assert merge_roots(worker.roots(), NULL_CONTEXT) == 0
        assert TRACER.roots() == []


class TestExports:
    def test_trace_id_survives_the_chrome_roundtrip(self, tmp_path):
        telemetry.enable()
        with telemetry.span("root") as root:
            with telemetry.span("child"):
                pass
        path = telemetry.write_chrome_trace(tmp_path / "trace.json")
        loaded = telemetry.load_chrome_trace(path)
        assert [s.trace_id for s in loaded[0].walk()] == [root.trace_id] * 2

    def test_run_record_spans_carry_trace_ids(self):
        telemetry.enable()
        with telemetry.span("root") as root:
            pass
        record = telemetry.run_record("t", log=False)
        assert record["spans"][0]["trace_id"] == root.trace_id
        telemetry.validate_run_record(record)

    def test_validate_rejects_bad_trace_id_type(self):
        telemetry.enable()
        with telemetry.span("root"):
            pass
        record = telemetry.run_record("t", log=False)
        record["spans"][0]["trace_id"] = 123
        with pytest.raises(telemetry.TelemetryError):
            telemetry.validate_run_record(record)
