"""Run-record history and the regression gate.

Counters on the simulator are deterministic, so the gate's contract is
sharp: identical records pass, any counter growth beyond the threshold
(or a counter appearing from nowhere) fails, and the CLI turns that
verdict into exit codes CI can act on — 0 ok, 1 regressed, 2 a missing
or unreadable baseline.
"""

import copy
import json

import pytest

from repro import telemetry
from repro.cli import main
from repro.telemetry.perf import (
    RunRecordStore,
    compare_records,
    load_record,
    measure_reference,
)
from repro.telemetry.perf.history import REFERENCE_WORKLOAD
from repro.telemetry.validate import TelemetryError


@pytest.fixture(scope="module")
def reference_record():
    """One measured 64x64 reference record, shared across this module."""
    return measure_reference(size=64)


@pytest.fixture()
def record(reference_record):
    return copy.deepcopy(reference_record)


class TestRunRecordStore:
    def test_append_load_latest_roundtrip(self, tmp_path, record):
        store = RunRecordStore(tmp_path)
        store.append(record)
        record2 = copy.deepcopy(record)
        record2["extra"]["timing_s"] = 1.0
        store.append(record2)
        loaded = store.load(record["name"])
        assert len(loaded) == 2
        assert loaded[0] == json.loads(json.dumps(record))
        assert store.latest(record["name"])["extra"]["timing_s"] == 1.0

    def test_names_and_len(self, tmp_path, record):
        store = RunRecordStore(tmp_path)
        assert store.names() == [] and len(store) == 0
        store.append(record)
        assert store.names() == [record["name"]] and len(store) == 1

    def test_invalid_record_rejected(self, tmp_path):
        with pytest.raises(TelemetryError):
            RunRecordStore(tmp_path).append({"schema": "nonsense"})

    def test_slug_keeps_filenames_safe(self, tmp_path, record):
        record["name"] = "weird name/with:stuff"
        path = RunRecordStore(tmp_path).append(record)
        assert path.name == "weird-name-with-stuff.jsonl"


class TestCompareRecords:
    def test_identical_records_pass(self, record):
        assert compare_records(record, record).ok

    def test_counter_growth_beyond_threshold_regresses(self, record):
        worse = copy.deepcopy(record)
        worse["events"]["mma_ops"] = int(record["events"]["mma_ops"] * 1.5)
        comparison = compare_records(record, worse)
        assert not comparison.ok
        assert [d.name for d in comparison.regressions] == ["mma_ops"]
        assert "REGRESSED" in comparison.render()

    def test_growth_within_threshold_tolerated(self, record):
        slightly = copy.deepcopy(record)
        slightly["events"]["shared_store_requests"] += 1
        assert compare_records(record, slightly).ok

    def test_counter_appearing_from_zero_regresses(self, record):
        worse = copy.deepcopy(record)
        worse["events"]["shuffle_ops"] = 4  # BVS claim broken
        comparison = compare_records(record, worse)
        assert [d.name for d in comparison.regressions] == ["shuffle_ops"]

    def test_timing_is_advisory_unless_gated(self, record):
        # counters only: wall time is gated as a ratio (perf check
        # --min-speedup) or against the rolling trend, never here
        slow = copy.deepcopy(record)
        slow["extra"]["timing_s"] = record["extra"]["timing_s"] * 100
        comparison = compare_records(record, slow)
        assert comparison.ok
        assert "timing_s" not in {d.name for d in comparison.deltas}

    def test_improvement_never_regresses(self, record):
        better = copy.deepcopy(record)
        better["events"] = {
            k: int(v * 0.5) for k, v in record["events"].items()
        }
        assert compare_records(record, better).ok


class TestLoadRecord:
    def test_json_and_jsonl_sources(self, tmp_path, record):
        json_path = tmp_path / "rec.json"
        json_path.write_text(json.dumps(record))
        assert load_record(json_path)["name"] == record["name"]
        store = RunRecordStore(tmp_path)
        jsonl_path = store.append(record)
        assert load_record(jsonl_path)["name"] == record["name"]

    def test_empty_history_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_record(path)

    def test_non_record_history_line_rejected(self, tmp_path, record):
        store = RunRecordStore(tmp_path)
        path = store.append(record)
        with path.open("a") as fh:
            fh.write("[1, 2]\n")
        with pytest.raises(TelemetryError, match=r"\.jsonl:2: record"):
            store.load(record["name"])


class TestPerfCheckCli:
    """`repro perf check` exit codes: 0 ok, 1 regression, 2 no baseline."""

    def test_missing_baseline_exits_2(self, tmp_path, capsys):
        rc = main(["perf", "check", "--baseline", str(tmp_path / "no.json")])
        assert rc == 2
        assert "not found" in capsys.readouterr().err

    def test_update_then_check_passes(self, tmp_path, capsys):
        baseline = tmp_path / "BENCH_baseline.json"
        assert main([
            "perf", "check", "--baseline", str(baseline),
            "--size", "64", "--update-baseline",
        ]) == 0
        assert baseline.exists()
        assert main(["perf", "check", "--baseline", str(baseline)]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_doctored_baseline_exits_nonzero(self, tmp_path, record, capsys):
        doctored = copy.deepcopy(record)
        doctored["events"]["mma_ops"] = int(
            record["events"]["mma_ops"] * 0.5
        )  # current run will exceed this by 2x
        baseline = tmp_path / "doctored.json"
        baseline.write_text(json.dumps(doctored))
        rc = main(["perf", "check", "--baseline", str(baseline)])
        assert rc == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_check_json_keys(self, tmp_path, record, capsys):
        baseline = tmp_path / "b.json"
        baseline.write_text(json.dumps(record))
        out = json.loads(_capture_json(
            capsys, ["perf", "check", "--baseline", str(baseline), "--json"]
        ))
        assert set(out) == {
            "baseline", "deltas", "min_speedup", "ok", "speedup",
            "threshold", "workload",
        }
        assert set(out["workload"]) == {"backend", "kernel", "seed", "size"}
        assert set(out["deltas"][0]) == {
            "baseline", "current", "name", "regressed", "rel_change",
        }
        assert out["ok"] is True and out["threshold"] == 0.01

    def test_invalid_baseline_exits_2(self, tmp_path, record, capsys):
        baseline = tmp_path / "b.json"
        for doc in ([1, 2], {"schema": "nonsense"}):
            baseline.write_text(json.dumps(doc))
            rc = main(["perf", "check", "--baseline", str(baseline)])
            assert rc == 2
            err = capsys.readouterr().err
            assert err.startswith("perf check: cannot read")
            assert len(err.strip().splitlines()) == 1

    def test_check_repeats_record_feeds_trend(self, tmp_path, capsys):
        import pathlib

        from repro.telemetry.export import run_record

        name = f"perf-check-{REFERENCE_WORKLOAD['kernel']}"
        hist = tmp_path / "history"
        store = RunRecordStore(hist)
        for _ in range(4):  # a slow history the fresh point beats
            store.append(run_record(name, log=False, extra={"timing_s": 10.0}))
        baseline = pathlib.Path(__file__).parents[2] / "BENCH_baseline.json"
        assert main([
            "perf", "check", "--baseline", str(baseline), "--size", "32",
            "--repeats", "3", "--record", str(hist),
        ]) == 0
        latest = store.latest(name)
        assert latest["extra"]["timing_repeats"] == 3
        assert latest["extra"]["size"] == 32
        capsys.readouterr()
        assert main(["perf", "trend", "--root", str(hist), "--json"]) == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["name"] == name
        assert verdict["n_history"] == 4
        assert verdict["latest"] == latest["extra"]["timing_s"]

    def test_check_reruns_the_baselines_workload(self, tmp_path, record):
        baseline = tmp_path / "b.json"
        baseline.write_text(json.dumps(record))
        # baseline extra says size=64; the check measures the same
        # workload, so the deterministic counters match exactly
        rc = main(["perf", "check", "--baseline", str(baseline)])
        assert rc == 0

    def test_check_appends_history(self, tmp_path, record):
        baseline = tmp_path / "b.json"
        baseline.write_text(json.dumps(record))
        hist = tmp_path / "history"
        assert main([
            "perf", "check", "--baseline", str(baseline),
            "--record", str(hist),
        ]) == 0
        store = RunRecordStore(hist)
        assert store.names() == [record["name"]]

    def test_diff_cli_exit_codes(self, tmp_path, record, capsys):
        a = tmp_path / "a.json"
        a.write_text(json.dumps(record))
        worse = copy.deepcopy(record)
        worse["events"]["mma_ops"] *= 2
        b = tmp_path / "b.json"
        b.write_text(json.dumps(worse))
        assert main(["perf", "diff", str(a), str(a)]) == 0
        assert main(["perf", "diff", str(a), str(b)]) == 1
        out = json.loads(
            _capture_json(capsys, ["perf", "diff", str(a), str(b), "--json"])
        )
        assert out["ok"] is False
        assert set(out) == {"deltas", "ok", "threshold"}
        assert set(out["deltas"][0]) == {
            "baseline", "current", "name", "regressed", "rel_change",
        }

    def test_diff_invalid_input_exits_2(self, tmp_path, record, capsys):
        a = tmp_path / "a.json"
        a.write_text(json.dumps(record))
        legacy = copy.deepcopy(record)
        legacy["schema"] = "repro.telemetry.run-record/v4"
        b = tmp_path / "b.json"
        b.write_text(json.dumps(legacy))
        assert main(["perf", "diff", str(a), str(b)]) == 2
        assert main(["perf", "diff", str(a), str(tmp_path / "no.json")]) == 2
        err = capsys.readouterr().err
        assert "run-record/v4" in err and "Traceback" not in err

    def test_committed_repo_baseline_passes(self, capsys):
        # the acceptance gate: the checked-in baseline must be green
        import pathlib

        baseline = pathlib.Path(__file__).parents[2] / "BENCH_baseline.json"
        assert baseline.exists()
        assert main(["perf", "check", "--baseline", str(baseline)]) == 0


def _capture_json(capsys, argv):
    capsys.readouterr()  # drain
    assert main(argv) in (0, 1)
    return capsys.readouterr().out


class TestMeasureReference:
    def test_record_is_joinable_with_plan_cache(self, record):
        from repro.runtime import DEFAULT_PLAN_CACHE

        key = record["extra"]["plan_key"]
        assert key in DEFAULT_PLAN_CACHE
        assert record["extra"]["schedule"]
        telemetry.validate_run_record(record)
