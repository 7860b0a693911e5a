"""The cluster observatory: report invariants, ledger reconciliation,
model agreement, rendering, and exporter surfaces."""

import json

import pytest

from repro import telemetry
from repro.faults import FaultPlan, FaultSpec, RecoveryPolicy
from repro.parallel.cluster import ClusterResult, ClusterRuntime
from repro.parallel.plan import distribute
from repro.stencil.kernels import get_kernel
from repro.telemetry.cluster import (
    CLUSTER_REPORT_SCHEMA,
    LANE_NAMES,
    build_cluster_report,
    modeled_transfer_s,
    render_gantt,
    to_lane_trace,
)
from repro.telemetry.validate import (
    TelemetryError,
    validate_cluster_report,
    validate_run_record,
)

FAST_POLICY = RecoveryPolicy(
    shard_timeout_s=20.0, shard_retries=2, backoff_base_s=0.001,
    backoff_cap_s=0.01,
)


def _run(rng, *, size=32, mesh=(2, 2), steps=4, block_steps=2,
         overlap=True, executor="thread", faults=None):
    w = get_kernel("Heat-2D").weights
    x = rng.normal(size=(size, size))
    plan = distribute(w, x.shape, mesh, block_steps=block_steps)
    runtime = ClusterRuntime(plan)
    kwargs = dict(
        block_steps=block_steps, overlap=overlap, executor=executor
    )
    if faults is not None:
        kwargs.update(faults=faults, policy=FAST_POLICY)
    with telemetry.capture() as tracer:
        result = runtime.run(x, steps, **kwargs)
    return result, tracer


class TestReportInvariants:
    def test_schema_and_structure(self, rng):
        result, tracer = _run(rng)
        report = build_cluster_report(result, tracer=tracer)
        assert report["schema"] == CLUSTER_REPORT_SCHEMA
        assert report["trace_id"] == result.trace_id
        assert report["run"]["rounds"] == len(result.phases)
        assert len(report["ranks"]) == 4
        validate_cluster_report(report)

    def test_lanes_sum_exactly_to_rank_wall(self, rng):
        result, tracer = _run(rng)
        report = build_cluster_report(result, tracer=tracer)
        for row in report["ranks"]:
            assert set(row["lanes_ns"]) == set(LANE_NAMES)
            assert sum(row["lanes_ns"].values()) == row["wall_ns"]

    def test_critical_path_dominates_every_rank(self, rng):
        result, tracer = _run(rng)
        report = build_cluster_report(result, tracer=tracer)
        crit = report["critical_path"]
        assert crit["ns"] >= max(r["wall_ns"] for r in report["ranks"])
        # one node per round, each naming the round's straggler
        assert [n["round"] for n in crit["nodes"]] == sorted(
            n["round"] for n in crit["nodes"]
        )
        assert len(crit["nodes"]) == report["run"]["rounds"]

    def test_result_report_method_delegates(self, rng):
        result, tracer = _run(rng)
        report = result.report(tracer=tracer)
        assert report["schema"] == CLUSTER_REPORT_SCHEMA
        validate_cluster_report(report)


class TestHaloReconciliation:
    def test_three_ledgers_agree_bit_exactly(self, rng):
        result, tracer = _run(rng, steps=5, block_steps=2)
        report = build_cluster_report(result, tracer=tracer)
        halo = report["halo"]
        assert halo["reconciled"] is True
        per_round = sum(e["halo_bytes"] for e in halo["per_round"])
        assert per_round == halo["total_bytes"]
        assert halo["total_bytes"] == result.exchanged_bytes
        assert "counter_delta" not in halo
        # ragged tail round (5 steps / block 2) is in the ledger too
        assert [e["steps"] for e in halo["per_round"]] == [2, 2, 1]

    def test_disagreeing_round_log_is_not_reconciled(self, rng):
        """A round log that does not sum to ``exchanged_bytes`` reports
        ``reconciled: False``, and the text render says so."""
        run, tracer = _run(rng, steps=4, block_steps=2)
        log = [dict(entry) for entry in run.round_log]
        log[-1]["halo_bytes"] += 8
        result = ClusterResult(
            field=run.field,
            steps=run.steps,
            phases=run.phases,
            exchanged_bytes=run.exchanged_bytes,
            executor=run.executor,
            overlap=run.overlap,
            round_log=tuple(log),
            plan=run.plan,
            trace_id=run.trace_id,
        )
        report = build_cluster_report(result, tracer=tracer)
        halo = report["halo"]
        assert halo["reconciled"] is False
        assert halo["total_bytes"] == run.exchanged_bytes + 8
        assert halo["ledger_bytes"] == run.exchanged_bytes
        validate_cluster_report(report)
        text = render_gantt(report)
        assert "ledger reconciled: False" in text
        assert (
            f"round log sums to {run.exchanged_bytes + 8:,} B but the run "
            f"exchanged {run.exchanged_bytes:,} B"
        ) in text

    def test_per_round_transfer_uses_the_shared_model(self, rng):
        result, tracer = _run(rng)
        report = build_cluster_report(result, tracer=tracer)
        for entry in report["halo"]["per_round"]:
            assert entry["transfer_s"] == modeled_transfer_s(
                entry["comm_bytes_max"]
            )


class TestOverlapEfficiency:
    def test_efficiency_in_unit_interval_and_positive(self, rng):
        result, tracer = _run(rng, overlap=True)
        report = build_cluster_report(result, tracer=tracer)
        eff = report["overlap"]["efficiency"]
        assert 0.0 <= eff <= 1.0
        # functional thread runs hide sub-microsecond modeled transfers
        # behind millisecond interior sweeps: always some hiding
        assert eff > 0.0
        assert report["overlap"]["hidden_s"] <= (
            report["overlap"]["transfer_s"] + 1e-12
        )

    def test_no_overlap_means_nothing_hidden(self, rng):
        result, tracer = _run(rng, overlap=False)
        report = build_cluster_report(result, tracer=tracer)
        assert report["overlap"]["enabled"] is False
        assert report["overlap"]["efficiency"] == 0.0
        assert report["overlap"]["hidden_s"] == 0.0

    def test_modeled_section_matches_cluster_timings(self, rng):
        result, tracer = _run(rng, steps=4, block_steps=2)
        report = build_cluster_report(result, tracer=tracer)
        modeled = report["overlap"]["modeled"]
        timings = ClusterRuntime(result.plan).timings(
            steps=4, overlap=True, block_steps=2
        )
        assert modeled["comm_s"] == timings.comm_s
        assert modeled["interior_s"] == timings.interior_s
        assert 0.0 <= modeled["efficiency"] <= 1.0
        # the same formula ClusterTimings charges per blocked round
        round0 = report["halo"]["per_round"][0]
        assert round0["transfer_s"] == pytest.approx(
            timings.comm_s * 2, rel=1e-12
        )


class TestFaultsAndErrors:
    def test_crash_shows_up_as_retry_lane(self, rng):
        faults = FaultPlan(specs=(FaultSpec(kind="shard_crash", site=1),))
        result, tracer = _run(
            rng, mesh=(2, 1), steps=2, block_steps=1, overlap=False,
            executor="serial", faults=faults,
        )
        report = build_cluster_report(result, tracer=tracer)
        validate_cluster_report(report)
        retried = [r for r in report["ranks"] if r["lanes_ns"]["retry"] > 0]
        assert retried
        rounds = report["run"]["rounds"]
        assert any(r["attempts"] > rounds for r in report["ranks"])

    def test_untraced_run_raises(self, rng):
        w = get_kernel("Heat-2D").weights
        x = rng.normal(size=(16, 16))
        plan = distribute(w, x.shape, (2, 1))
        result = ClusterRuntime(plan).run(x, 1)  # telemetry off
        with pytest.raises(TelemetryError, match="no trace"):
            build_cluster_report(result)

    def test_evicted_trace_raises(self, rng):
        result, tracer = _run(rng, mesh=(2, 1), steps=1, block_steps=1)
        tracer.clear()
        with pytest.raises(TelemetryError, match="trace_id"):
            build_cluster_report(result, tracer=tracer)


class TestRenderingAndExport:
    def test_gantt_headlines(self, rng):
        result, tracer = _run(rng)
        report = build_cluster_report(result, tracer=tracer)
        text = render_gantt(report, width=48)
        lines = text.splitlines()
        assert sum(1 for ln in lines if ln.startswith("rank ")) == 4
        assert "legend:" in text
        assert "critical path" in text
        assert "overlap efficiency" in text
        assert "ledger reconciled: True" in text

    def test_lane_trace_is_schema_valid_chrome_trace(self, rng, tmp_path):
        from repro.telemetry.export import CHROME_TRACE_SCHEMA
        from repro.telemetry.validate import validate_file

        result, tracer = _run(rng)
        report = build_cluster_report(result, tracer=tracer)
        doc = to_lane_trace(report)
        assert doc["schema"] == CHROME_TRACE_SCHEMA
        path = tmp_path / "lanes.json"
        path.write_text(json.dumps(doc))
        assert validate_file(path) == CHROME_TRACE_SCHEMA
        tids = {
            e["tid"] for e in doc["traceEvents"] if e["ph"] == "X"
        }
        assert tids == {r["rank"] + 1 for r in report["ranks"]}



class TestRunRecordV4:
    def test_cluster_section_folds_into_v4_record(self, rng, tmp_path):
        from repro.telemetry.validate import validate_file

        result, tracer = _run(rng)
        report = build_cluster_report(result, tracer=tracer)
        record = telemetry.run_record("cluster-obs", log=False, cluster=report)
        assert record["schema"] == "repro.telemetry.run-record/v6"
        assert record["cluster"]["schema"] == CLUSTER_REPORT_SCHEMA
        validate_run_record(record)
        path = tmp_path / "rec.json"
        path.write_text(json.dumps(record))
        assert validate_file(path) == "repro.telemetry.run-record/v6"

    def test_bad_cluster_section_rejected(self):
        record = telemetry.run_record("bad", log=False)
        record["cluster"] = {"schema": "nope"}
        with pytest.raises(TelemetryError):
            validate_run_record(record)

    @pytest.mark.parametrize("version", ["v1", "v2", "v3", "v4", "v5"])
    def test_older_schema_versions_are_rejected(self, version):
        record = telemetry.run_record("legacy", log=False)
        schema = f"repro.telemetry.run-record/{version}"
        record["schema"] = schema
        record.pop("cluster", None)
        with pytest.raises(TelemetryError, match=schema):
            validate_run_record(record)
