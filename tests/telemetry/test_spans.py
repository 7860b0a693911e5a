"""Span/Tracer behaviour: nesting, zero-overhead disabled path, threads."""

import threading

import pytest

from repro import telemetry
from repro.tcu.counters import EventCounters
from repro.telemetry.spans import NULL_SPAN, Tracer


class TestDisabledPath:
    def test_disabled_span_is_the_null_singleton(self):
        assert telemetry.span("anything") is NULL_SPAN
        assert telemetry.TRACER.span("anything", category="x") is NULL_SPAN

    def test_null_span_absorbs_the_full_protocol(self):
        with telemetry.span("off") as sp:
            assert sp is NULL_SPAN
            assert sp.annotate(k="v") is sp
            assert sp.add_events(EventCounters()) is sp
        assert not sp.is_recording
        assert sp.duration_ns == 0

    def test_nothing_collected_while_disabled(self):
        with telemetry.span("off"):
            pass
        assert telemetry.TRACER.roots() == []


class TestNesting:
    def test_child_attaches_to_open_parent(self):
        telemetry.enable()
        with telemetry.span("parent") as p:
            with telemetry.span("child") as c:
                pass
        assert c.parent is p
        assert p.children == [c]
        (root,) = telemetry.TRACER.roots()
        assert root is p

    def test_current_tracks_innermost(self):
        telemetry.enable()
        assert telemetry.TRACER.current() is None
        with telemetry.span("a") as a:
            assert telemetry.TRACER.current() is a
            with telemetry.span("b") as b:
                assert telemetry.TRACER.current() is b
            assert telemetry.TRACER.current() is a
        assert telemetry.TRACER.current() is None

    def test_explicit_parent_overrides_stack(self):
        telemetry.enable()
        with telemetry.span("outer") as outer:
            pass
        with telemetry.span("adopted", parent=outer) as sp:
            pass
        assert sp.parent is outer
        assert sp in outer.children
        # the adopted span did not become a root of its own
        assert telemetry.TRACER.roots() == [outer]

    def test_explicit_none_parent_makes_a_root(self):
        telemetry.enable()
        with telemetry.span("outer"):
            with telemetry.span("detached", parent=None):
                pass
        assert [r.name for r in telemetry.TRACER.roots()] == [
            "detached",
            "outer",
        ]

    def test_walk_is_depth_first(self):
        telemetry.enable()
        with telemetry.span("r"):
            with telemetry.span("a"):
                with telemetry.span("a1"):
                    pass
            with telemetry.span("b"):
                pass
        root = telemetry.TRACER.last_root()
        assert [s.name for s in root.walk()] == ["r", "a", "a1", "b"]

    def test_self_time_accounts_for_children(self):
        telemetry.enable()
        with telemetry.span("r") as r:
            with telemetry.span("a"):
                pass
        assert r.duration_ns >= r.child_ns
        assert r.self_ns == r.duration_ns - r.child_ns

    def test_exception_annotates_and_propagates(self):
        telemetry.enable()
        with pytest.raises(RuntimeError):
            with telemetry.span("boom") as sp:
                raise RuntimeError("x")
        assert sp.attrs["error"] == "RuntimeError"
        assert telemetry.TRACER.roots() == [sp]


class TestThreads:
    def test_stacks_are_thread_local(self):
        telemetry.enable()
        seen = {}

        def worker():
            seen["current"] = telemetry.TRACER.current()
            with telemetry.span("in-thread") as sp:
                seen["span"] = sp

        with telemetry.span("main-span"):
            t = threading.Thread(target=worker)
            t.start()
            t.join()
        # the worker does not inherit the main thread's open span
        assert seen["current"] is None
        assert seen["span"].parent is None

    def test_cross_thread_parenting_via_explicit_parent(self):
        telemetry.enable()
        with telemetry.span("sweep") as sweep:
            parent = telemetry.TRACER.current()

            def shard(i):
                with telemetry.span("shard", parent=parent, shard=i):
                    pass

            threads = [
                threading.Thread(target=shard, args=(i,)) for i in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert len(sweep.children) == 4
        assert {c.attrs["shard"] for c in sweep.children} == {0, 1, 2, 3}

    def test_finished_ring_bounds_memory(self):
        tracer = Tracer(max_finished=3)
        tracer.enable()
        for i in range(5):
            with tracer.span(f"s{i}"):
                pass
        assert [r.name for r in tracer.roots()] == ["s2", "s3", "s4"]
        assert tracer.dropped == 2


class TestRenderTree:
    def test_percentages_and_unaccounted(self):
        telemetry.enable()
        with telemetry.span("root"):
            with telemetry.span("phase-a"):
                pass
            with telemetry.span("phase-b"):
                pass
        root = telemetry.TRACER.last_root()
        text = root.render_tree()
        assert "root" in text and "├─ phase-a" in text and "└─ phase-b" in text
        assert "(unaccounted)" in text
        assert "100.0%" in text

    def test_child_percentages_sum_to_root(self):
        """Acceptance: direct children + unaccounted == root (±5%)."""
        telemetry.enable()
        with telemetry.span("root") as root:
            with telemetry.span("a"):
                sum(range(20_000))
            with telemetry.span("b"):
                sum(range(20_000))
        accounted = root.child_ns + root.self_ns
        assert accounted == pytest.approx(root.duration_ns, rel=0.05)

    def test_mma_tag(self):
        telemetry.enable()
        events = EventCounters()
        events.mma_ops = 1234
        with telemetry.span("sweep") as sp:
            sp.add_events(events)
        assert "[1,234 MMAs]" in sp.render_tree()


class TestDecorator:
    def test_wrap_records_when_enabled(self):
        calls = []

        @telemetry.trace("named.fn")
        def fn(x):
            calls.append(x)
            return x * 2

        assert fn(3) == 6  # disabled: no span
        assert telemetry.TRACER.roots() == []
        telemetry.enable()
        assert fn(4) == 8
        assert [r.name for r in telemetry.TRACER.roots()] == ["named.fn"]
        assert calls == [3, 4]

    def test_wrap_default_name(self):
        telemetry.enable()

        @telemetry.trace()
        def some_function():
            return 1

        some_function()
        (root,) = telemetry.TRACER.roots()
        assert root.name.endswith("some_function")


class TestCapture:
    def test_capture_enables_then_restores(self):
        assert not telemetry.is_enabled()
        with telemetry.capture() as tracer:
            assert telemetry.is_enabled()
            with telemetry.span("inside"):
                pass
            assert tracer is telemetry.TRACER
        assert not telemetry.is_enabled()
        assert [r.name for r in telemetry.TRACER.roots()] == ["inside"]

    def test_capture_fresh_clears_history(self):
        telemetry.enable()
        with telemetry.span("stale"):
            pass
        with telemetry.capture():
            pass
        assert telemetry.TRACER.roots() == []
