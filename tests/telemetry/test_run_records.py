"""End-to-end telemetry over the real pipeline, and the benchmark
run-record contract (``benchmarks/conftest.py`` stamps one of these next
to every reproduced artifact)."""

import numpy as np
import pytest

from repro import telemetry
from repro.runtime import PlanCache
from repro.runtime import compile as compile_stencil
from repro.stencil.kernels import get_kernel
from repro.telemetry.validate import validate_file


@pytest.fixture
def traced_run():
    """Compile + one simulated sweep of Heat-2D under capture."""
    with telemetry.capture() as tracer:
        cache = PlanCache(maxsize=8)
        compiled = compile_stencil(get_kernel("Heat-2D").weights, cache=cache)
        rng = np.random.default_rng(0)
        padded = rng.normal(size=(16 + 2 * compiled.radius,) * 2)
        out, events = compiled.apply_simulated(padded)
    return tracer, cache, compiled, events


class TestPipelineSpans:
    def test_compile_tree_contains_cache_phases(self, traced_run):
        tracer, *_ = traced_run
        names = {s.name for r in tracer.roots() for s in r.walk()}
        assert {
            "runtime.compile",
            "runtime.plan_cache.get_or_build",
            "runtime.plan_cache.build",
            "runtime.apply_simulated",
            "tcu.sweep",
        } <= names

    def test_sweep_events_attach_and_absorb_once(self, traced_run):
        """The sweep span and the facade span each carry the sweep's
        events once: nesting does not double-count them."""
        tracer, _, _, events = traced_run
        spans = {s.name: s for r in tracer.roots() for s in r.walk()}
        sweep = spans["tcu.sweep"]
        assert sweep.events.mma_ops == events.mma_ops > 0
        facade = spans["runtime.apply_simulated"]
        assert facade.events.as_dict() == events.as_dict()

    def test_children_sum_to_root_within_5pct(self, traced_run):
        """Acceptance: per-phase durations account for the root ±5%."""
        tracer, *_ = traced_run
        for root in tracer.roots():
            if not root.children:
                continue
            accounted = root.child_ns + root.self_ns
            assert accounted == pytest.approx(root.duration_ns, rel=0.05)

    def test_cache_outcome_annotations(self, traced_run):
        tracer, cache, compiled, _ = traced_run
        lookup = next(
            s
            for r in tracer.roots()
            for s in r.walk()
            if s.name == "runtime.plan_cache.get_or_build"
        )
        assert lookup.attrs["outcome"] == "miss"
        with telemetry.capture(fresh=True) as tracer2:
            compile_stencil(get_kernel("Heat-2D").weights, cache=cache)
        lookup2 = next(
            s
            for r in tracer2.roots()
            for s in r.walk()
            if s.name == "runtime.plan_cache.get_or_build"
        )
        assert lookup2.attrs["outcome"] == "hit"


class TestBenchmarkRecordContract:
    def test_conftest_shaped_record_validates(self, traced_run, tmp_path):
        """The exact shape ``benchmarks/conftest._stamp_run_record`` emits."""
        _, cache, _, _ = traced_run
        record = telemetry.run_record(
            "fig8",
            cache_stats=cache.stats(),
            extra={"benchmark": "fig8", "artifact": "results/fig8.txt"},
        )
        path = telemetry.write_run_record(
            tmp_path / "records" / "fig8.json", record
        )
        from repro.telemetry.export import RUN_RECORD_SCHEMA

        assert validate_file(path) == RUN_RECORD_SCHEMA
        assert record["cache"]["misses"] == 1
        assert "metrics" not in record
        assert record["extra"]["benchmark"] == "fig8"

    def test_record_with_tracing_off_still_validates(self, tmp_path):
        """Benchmarks run with telemetry off: records must still be valid
        (empty spans)."""
        record = telemetry.run_record(
            "quiet",
            cache_stats=PlanCache(maxsize=4).stats(),
            extra={},
        )
        assert record["spans"] == []
        telemetry.write_run_record(tmp_path / "quiet.json", record)


class TestFaultsSection:
    def test_fault_report_stamps_and_validates(self, tmp_path):
        from repro.faults import FaultReport
        from repro.telemetry.export import RUN_RECORD_SCHEMA

        report = FaultReport()
        report.record_injection("flip_a")
        report.bump("tile_detections")
        report.bump("tile_recoveries")
        record = telemetry.run_record("chaos", extra={}, faults=report)
        assert record["schema"] == RUN_RECORD_SCHEMA
        assert record["faults"]["injected"] == {"flip_a": 1}
        assert record["faults"]["detected"]["tile"] == 1
        path = telemetry.write_run_record(tmp_path / "chaos.json", record)
        assert validate_file(path) == RUN_RECORD_SCHEMA

    def test_v1_to_v4_records_are_rejected(self, tmp_path):
        """Only the current schema validates; the error names the
        rejected version."""
        import json

        from repro.telemetry.validate import (
            TelemetryError,
            validate_run_record,
        )

        record = telemetry.run_record("legacy", extra={})
        path = tmp_path / "legacy.json"
        for version in (1, 2, 3, 4):
            schema = f"repro.telemetry.run-record/v{version}"
            record["schema"] = schema
            with pytest.raises(TelemetryError, match=schema):
                validate_run_record(record)
            path.write_text(json.dumps(record))
            with pytest.raises(TelemetryError, match=schema):
                validate_file(path)

    def test_malformed_faults_section_rejected(self):
        from repro.telemetry.validate import validate_run_record

        record = telemetry.run_record("bad", extra={})
        record["faults"] = {"injected": {"flip_a": "lots"}}
        with pytest.raises(ValueError, match="faults"):
            validate_run_record(record)
