"""Tests for the command-line interface."""

import errno
import io
import json
import os
import sys

import pytest

from repro.cli import _best_mesh, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        parser = build_parser()
        for cmd in ("kernels", "fig9", "fig10", "table3"):
            assert parser.parse_args([cmd]).command == cmd

    def test_every_leaf_dispatches(self):
        """Each leaf parses a minimal argv into its own handler."""
        import argparse

        def leaves(parser, path=()):
            subs = [a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)]
            if not subs:
                yield path, parser
                return
            for name, child in subs[0].choices.items():
                yield from leaves(child, path + (name,))

        found = []
        for path, leaf in leaves(build_parser()):
            argv = list(path)
            for action in leaf._actions:
                if not action.option_strings and action.nargs != "?":
                    argv.append("X")
                elif action.required:
                    argv += [action.option_strings[0], "X"]
            args = build_parser().parse_args(argv)
            assert callable(args.run), path
            assert args.run.__name__ == "_cmd_" + "_".join(path), path
            found.append(path)
        assert len(found) == 21

    @pytest.mark.parametrize("argv", [
        ["perf", "trend"],
        ["perf", "history"],
        ["perf", "check", "--repeats", "3"],
        ["cluster", "run", "Heat-2D", "--record-history", "h"],
        ["cluster", "resume", "--checkpoint-dir", "c",
         "--record-history", "h"],
        ["cluster", "report", "Heat-2D", "--record-history", "h"],
    ], ids=" ".join)
    def test_retired_history_surface_is_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_run_args(self):
        args = build_parser().parse_args(["run", "Box-2D9P", "--size", "32"])
        assert args.kernel == "Box-2D9P"
        assert args.size == 32


class TestCommands:
    def test_kernels(self, capsys):
        assert main(["kernels"]) == 0
        out = capsys.readouterr().out
        assert "Box-2D49P" in out and "10240x10240" in out

    def test_decompose_2d(self, capsys):
        assert main(["decompose", "Box-2D49P"]) == 0
        out = capsys.readouterr().out
        assert "method=pma" in out and "1x1 apex" in out

    def test_decompose_3d(self, capsys):
        assert main(["decompose", "Heat-3D"]) == 0
        out = capsys.readouterr().out
        assert "CUDA cores" in out and "plane 1" in out

    def test_decompose_1d(self, capsys):
        assert main(["decompose", "Heat-1D"]) == 0
        assert "1D" in capsys.readouterr().out

    def test_run(self, capsys):
        assert main(["run", "Box-2D49P", "--size", "16"]) == 0
        out = capsys.readouterr().out
        assert "mma_ops" in out and "arithmetic intensity" in out

    def test_fig8_subset(self, capsys):
        assert main(["fig8", "--kernels", "Heat-2D"]) == 0
        out = capsys.readouterr().out
        assert "LoRAStencil" in out and "Heat-2D" in out

    def test_fig8_best_flag(self, capsys):
        assert main(["fig8", "--kernels", "Box-2D9P", "--best"]) == 0
        assert "LoRAStencil-Best" in capsys.readouterr().out

    def test_fig9(self, capsys):
        assert main(["fig9"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 9 — Box-2D9P breakdown" in out
        assert "TCU 2.14x (paper 2.14x)" in out

    def test_fig10(self, capsys):
        assert main(["fig10"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 10 — shared-memory requests" in out
        assert "mean LoRA/Conv: loads" in out and "(paper 0.47)" in out

    def test_table3(self, capsys):
        assert main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "(paper in parentheses)" in out
        assert "Box-2D49P" in out and "Box-3D27P" in out

    def test_precision(self, capsys):
        assert main(["precision", "Heat-2D", "--steps", "1", "2"]) == 0
        out = capsys.readouterr().out
        assert "FP16" in out

    def test_precision_rejects_3d(self, capsys):
        assert main(["precision", "Heat-3D"]) == 2

    def test_scaling(self, capsys):
        assert main(["scaling", "--size", "512", "--devices", "1", "4"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out and "2x2" in out

    def test_unknown_kernel_errors(self, capsys):
        assert main(["decompose", "NoSuchKernel"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown benchmark kernel 'NoSuchKernel'")
        assert err.count("\n") == 1

    def test_closed_pipe_ends_output_without_traceback(
        self, capsys, monkeypatch
    ):
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(errno.EPIPE, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["kernels"]) == 1
        # the exit flush now goes to os.devnull and cannot raise again
        assert sys.stdout.name == os.devnull
        sys.stdout.close()
        assert capsys.readouterr().err == ""


class TestNewCommands:
    def test_trace(self, capsys):
        assert main(["trace", "Box-2D49P", "--limit", "5"]) == 0
        out = capsys.readouterr().out
        assert "load_matrix" in out and "warp ops" in out

    def test_trace_rejects_non_2d(self, capsys):
        assert main(["trace", "Heat-1D"]) == 2

    def test_plan(self, capsys):
        assert main(["plan", "Box-2D49P"]) == 0
        out = capsys.readouterr().out
        assert "method          pma" in out
        assert "plans" in out and "hits" in out  # cache stats line
        assert "recompile  hit (same plan object)" in out

    def test_plan_1d(self, capsys):
        assert main(["plan", "Heat-1D"]) == 0
        assert "banded" in capsys.readouterr().out

    def test_plan_3d(self, capsys):
        assert main(["plan", "Heat-3D"]) == 0
        out = capsys.readouterr().out
        assert "planes" in out and "TCU" in out

    def test_plan_no_tensor_cores(self, capsys):
        assert main(["plan", "Box-2D9P", "--no-tensor-cores"]) == 0
        assert "predicted" in capsys.readouterr().out

    def test_plan_ir_dump(self, capsys):
        assert main(["plan", "Box-2D9P", "--ir"]) == 0
        out = capsys.readouterr().out
        assert "tile program" in out
        assert "load_x" in out and "mma" in out and "apex" in out

    def test_plan_schedule_flag(self, capsys):
        assert main(["plan", "Box-2D9P", "--schedule", "prefetch"]) == 0
        out = capsys.readouterr().out
        assert "sched:prefetch" in out
        assert "schedule 'prefetch'" in out

    def test_plan_unknown_schedule_errors(self, capsys):
        assert main(["plan", "Box-2D9P", "--schedule", "bogus"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown schedule 'bogus'")
        assert err.count("\n") == 1

    def test_plan_3d_ir_marks_cuda_planes(self, capsys):
        assert main(["plan", "Heat-3D", "--ir"]) == 0
        out = capsys.readouterr().out
        assert "CUDA-core plane, no program" in out

    def test_verify(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "all engines exact" in out
        assert out.count("ok") >= 8 * 7
        assert "compile+batch" in out


class TestTelemetryCommands:
    @pytest.fixture(autouse=True)
    def _clean_telemetry(self):
        from repro import telemetry

        telemetry.disable()
        telemetry.reset()
        yield
        telemetry.disable()
        telemetry.reset()

    def test_profile_span_tree(self, capsys):
        assert main(["profile", "Heat-2D", "--size", "16"]) == 0
        out = capsys.readouterr().out
        assert "profiled sweep" in out
        assert "profile" in out and "runtime.apply_simulated" in out
        assert "tcu.sweep" in out and "(unaccounted)" in out
        assert "100.0%" in out
        assert "mma_ops" in out

    def test_profile_tree_sums_to_root(self, capsys):
        """Acceptance: the printed per-phase %s account for the root ±5%."""
        from repro import telemetry

        assert main(["profile", "Heat-2D", "--size", "16"]) == 0
        capsys.readouterr()
        root = telemetry.TRACER.last_root()
        accounted = root.child_ns + root.self_ns
        assert accounted == pytest.approx(root.duration_ns, rel=0.05)

    def test_profile_sharded(self, capsys):
        assert main(["profile", "Heat-2D", "--size", "16", "--shards", "2"]) == 0
        out = capsys.readouterr().out
        assert "runtime.shard" in out

    def test_profile_emit_round_trips(self, capsys, tmp_path):
        from repro.telemetry.export import load_chrome_trace
        from repro.telemetry.validate import validate_file

        trace_file = tmp_path / "trace.json"
        assert main(
            ["profile", "Heat-2D", "--size", "16", "--emit", str(trace_file)]
        ) == 0
        assert "chrome trace written" in capsys.readouterr().out
        assert validate_file(trace_file) == "repro.telemetry.chrome-trace/v1"
        (root,) = load_chrome_trace(trace_file)
        assert root.name == "profile"
        assert "tcu.sweep" in {s.name for s in root.walk()}

    def test_profile_record(self, capsys, tmp_path):
        from repro.telemetry.validate import validate_file

        record_file = tmp_path / "record.json"
        assert main(
            ["profile", "Heat-2D", "--size", "16", "--record", str(record_file)]
        ) == 0
        from repro.telemetry.export import RUN_RECORD_SCHEMA

        assert validate_file(record_file) == RUN_RECORD_SCHEMA
        record = json.loads(record_file.read_text())
        assert record["extra"]["command"] == "profile"
        assert record["events"]["mma_ops"] > 0

    def test_run_json_schema(self, capsys):
        from repro.telemetry.validate import validate_run_record

        assert main(["run", "Heat-2D", "--size", "16", "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        validate_run_record(record)
        assert record["name"] == "Heat-2D"
        assert record["extra"]["shape"] == [16, 16]
        assert record["events"]["mma_ops"] > 0

    def test_plan_json_schema(self, capsys):
        from repro.telemetry.validate import validate_run_record

        assert main(["plan", "Box-2D49P", "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        validate_run_record(record)
        assert record["extra"]["plan"]["method"] == "pma"

    def test_run_telemetry_epilogue(self, capsys):
        assert main(["run", "Heat-2D", "--size", "16", "--telemetry"]) == 0
        out = capsys.readouterr().out
        assert "— telemetry —" in out
        assert "cli.run" in out
        # the epilogue is the span tree and nothing after it
        from repro import telemetry

        tree = telemetry.TRACER.last_root().render_tree()
        assert out.split("— telemetry —\n", 1)[1] == tree + "\n"

    def test_json_suppresses_epilogue(self, capsys):
        assert main(
            ["run", "Heat-2D", "--size", "16", "--json", "--telemetry"]
        ) == 0
        json.loads(capsys.readouterr().out)  # stdout is pure JSON



class TestBestMesh:
    @pytest.mark.parametrize(
        "n,mesh", [(1, (1, 1)), (4, (2, 2)), (6, (2, 3)), (8, (2, 4)), (7, (1, 7))]
    )
    def test_most_square_factorization(self, n, mesh):
        assert _best_mesh(n) == mesh


class TestPerfObservatoryCommands:
    @pytest.fixture(autouse=True)
    def _clean_telemetry(self):
        from repro import telemetry

        telemetry.disable()
        telemetry.reset()
        yield
        telemetry.disable()
        telemetry.reset()

    def test_profile_per_instr_prints_attribution(self, capsys):
        assert main(["profile", "Box-2D9P", "--size", "16", "--per-instr"]) == 0
        out = capsys.readouterr().out
        assert "per-opcode attribution" in out
        assert "per rank-1 PMA term" in out
        for row in ("load_x", "mma2", "split", "apex", "[driver]", "[total]"):
            assert row in out
        assert "match the uninstrumented sweep bit-exactly" in out

    def test_profile_per_instr_rejects_shards(self, capsys):
        rc = main(["profile", "Box-2D9P", "--size", "16",
                   "--per-instr", "--shards", "2"])
        assert rc == 2
        assert "single shard" in capsys.readouterr().err

    def test_profile_record_is_joinable(self, capsys, tmp_path):
        from repro.runtime import DEFAULT_PLAN_CACHE

        record_file = tmp_path / "record.json"
        assert main(["profile", "Heat-2D", "--size", "16",
                     "--per-instr", "--record", str(record_file)]) == 0
        record = json.loads(record_file.read_text())
        assert record["extra"]["plan_key"] in DEFAULT_PLAN_CACHE.keys()
        assert record["extra"]["schedule"] == "eager"
        per_instr = record["extra"]["per_instr"]
        assert per_instr["schema"] == "repro.telemetry.plan-profile/v1"
        assert per_instr["plan"]["key"] == record["extra"]["plan_key"]

    def test_perf_fidelity_table(self, capsys):
        assert main(["perf", "fidelity", "Box-2D9P", "--size", "16"]) == 0
        out = capsys.readouterr().out
        assert "Eq. 12" in out and "Eq. 16" in out
        assert "max relative error: 0.00%" in out

    def test_perf_fidelity_json_validates(self, capsys, tmp_path):
        from repro.telemetry.validate import validate_file

        out_file = tmp_path / "fid.json"
        assert main(["perf", "fidelity", "Box-2D9P", "--size", "16",
                     "--json", "--output", str(out_file)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["max_rel_error"] == 0.0
        assert validate_file(out_file) == "repro.telemetry.fidelity-report/v1"

    def test_perf_fidelity_drift_exits_1(self, capsys, tmp_path, monkeypatch):
        import repro.telemetry.perf as perf

        exact = perf.fidelity_report

        def drifted(*args, **kwargs):
            report = exact(*args, **kwargs)
            report["components"][0]["rel_error"] = 0.5
            report["max_rel_error"] = 0.5
            return report

        monkeypatch.setattr(perf, "fidelity_report", drifted)
        out_file = tmp_path / "fid.json"
        assert main(["perf", "fidelity", "Box-2D9P", "--size", "16",
                     "--output", str(out_file)]) == 1
        out = capsys.readouterr().out
        assert "max relative error: 50.00%" in out
        assert json.loads(out_file.read_text())["max_rel_error"] == 0.5
        assert main(["perf", "fidelity", "Box-2D9P", "--size", "16",
                     "--json"]) == 1
        assert json.loads(capsys.readouterr().out)["max_rel_error"] == 0.5


class TestObservabilityCommands:
    def test_chaos_negative_control_output_differs(self, capsys):
        assert main(["chaos", "run", "Box-2D9P", "--size", "48",
                     "--seed", "1", "--faults", "4", "--no-verify"]) == 0
        out = capsys.readouterr().out
        assert "negative control: output DIFFERS" in out

    def test_chaos_events_writes_a_validated_jsonl(self, capsys, tmp_path):
        from repro.telemetry.log import EVENT_SCHEMA
        from repro.telemetry.validate import validate_file

        path = tmp_path / "events.jsonl"
        assert main(["chaos", "run", "Box-2D9P", "--size", "16",
                     "--seed", "4", "--faults", "2", "--shards", "2",
                     "--events", str(path)]) == 0
        assert validate_file(path) == EVENT_SCHEMA
        docs = [json.loads(line) for line in path.read_text().splitlines()]
        assert any(d["kind"] == "fault.injected" for d in docs)
        # the whole campaign joined one trace
        trace_ids = {d["trace_id"] for d in docs if d["trace_id"]}
        assert len(trace_ids) == 1

    def test_chaos_record_folds_log_in(self, capsys, tmp_path):
        from repro.telemetry.validate import validate_file

        record_file = tmp_path / "record.json"
        assert main(["chaos", "run", "Box-2D9P", "--size", "16",
                     "--seed", "4", "--faults", "2", "--shards", "2",
                     "--record", str(record_file)]) == 0
        assert validate_file(record_file).endswith("/v6")
        record = json.loads(record_file.read_text())
        assert record["log"]["events"]
        assert "health" not in record
        roots = {s["trace_id"] for s in record["spans"]}
        assert len(roots) == 1
        # the event log joined the same trace as the spans
        logged = {e["trace_id"] for e in record["log"]["events"]
                  if e["trace_id"]}
        assert logged == roots



class TestChaosReport:
    @pytest.fixture(scope="class")
    def records(self, tmp_path_factory):
        from repro import telemetry

        root = tmp_path_factory.mktemp("chaos-report")
        faulted, clean = root / "faulted.json", root / "clean.json"
        assert main(["chaos", "run", "Box-2D9P", "--size", "16",
                     "--seed", "1", "--faults", "3",
                     "--record", str(faulted)]) == 0
        assert main(["profile", "Heat-2D", "--size", "16",
                     "--record", str(clean)]) == 0
        invalid = root / "invalid.json"
        invalid.write_text("{not json")
        telemetry.reset()
        return faulted, clean, invalid

    def test_faulted_record_renders_its_sections(self, capsys, records):
        faulted, _, _ = records
        capsys.readouterr()
        assert main(["chaos", "report", str(faulted)]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"{faulted}: Box-2D9P")
        for key in ("injected", "detected", "recovered", "retries", "shard"):
            assert f"  {key}" in out
        assert "flip_a=1" in out
        assert "injected=3  unrecovered=0" in out

    def test_fault_free_record_prints_the_fixed_line(self, capsys, records):
        _, clean, _ = records
        capsys.readouterr()
        assert main(["chaos", "report", str(clean)]) == 0
        out = capsys.readouterr().out
        assert "(no faults section — fault-free run)" in out
        assert "v1" not in out

    def test_invalid_file_exits_1(self, capsys, records):
        faulted, _, invalid = records
        capsys.readouterr()
        assert main(["chaos", "report", str(faulted), str(invalid)]) == 1
        captured = capsys.readouterr()
        assert f"{invalid}: INVALID" in captured.err
        assert f"{faulted}: Box-2D9P" in captured.out

    @pytest.fixture(scope="class")
    def unfired(self, tmp_path_factory):
        # seed 4 plans 2 faults on sites this 16x16 sweep never reaches
        path = tmp_path_factory.mktemp("chaos-unfired") / "unfired.json"
        assert main(["chaos", "run", "Box-2D9P", "--size", "16",
                     "--seed", "4", "--faults", "2",
                     "--record", str(path)]) == 0
        return path

    def test_run_without_a_fired_fault_says_so(self, capsys):
        assert main(["chaos", "run", "Box-2D9P", "--size", "16",
                     "--seed", "4", "--faults", "2"]) == 0
        out = capsys.readouterr().out
        assert "no planned fault fired (0 of 2)" in out
        assert "bit-identical" not in out

    def test_report_without_a_fired_fault_says_so(self, capsys, unfired):
        capsys.readouterr()
        assert main(["chaos", "report", str(unfired)]) == 0
        out = capsys.readouterr().out
        assert "  injected     (none)" in out
        assert "injected=0 of 2 planned  unrecovered=0" in out

    def test_json_has_one_doc_per_valid_path(self, capsys, records):
        faulted, clean, invalid = records
        capsys.readouterr()
        rc = main(["chaos", "report", "--json", str(faulted), str(invalid),
                   str(clean)])
        assert rc == 1
        docs = json.loads(capsys.readouterr().out)
        assert [d["path"] for d in docs] == [str(faulted), str(clean)]
        assert docs[0]["faults"]["injected_total"] == 3
        assert docs[1]["faults"] is None


class TestClusterCommand:
    def test_parser_accepts_cluster_args(self):
        args = build_parser().parse_args(
            ["cluster", "run", "Heat-2D", "--block-steps", "3",
             "--tiling", "diamond", "--overlap", "--executor", "thread"]
        )
        assert args.command == "cluster"
        assert args.cluster_command == "run"
        assert args.block_steps == 3
        assert args.tiling == "diamond"
        assert args.overlap is True

    def test_bare_cluster_argv_is_rejected(self, capsys):
        # the run/report/resume subcommand is required
        with pytest.raises(SystemExit) as exc:
            main(["cluster", "Heat-2D", "--size", "16", "--steps", "2"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_cluster_passes_reference(self, capsys):
        assert main(["cluster", "run", "Heat-2D", "--size", "16",
                     "--steps", "3", "--block-steps", "2", "--overlap"]) == 0
        out = capsys.readouterr().out
        assert "reference check: PASS" in out
        assert "halo bytes exchanged" in out

    def test_cluster_json_carries_halo_ledger_and_phases(self, capsys):
        assert main(["cluster", "run", "Heat-1D", "--size", "8",
                     "--steps", "5", "--block-steps", "2", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["halo_bytes_exchanged"] > 0
        assert doc["phases"] == [2, 2, 1]  # ragged final round
        assert doc["exit_code"] == 0

    def test_cluster_mesh_dimension_mismatch_is_exit_2(self, capsys):
        assert main(["cluster", "run", "Heat-2D", "--mesh", "2"]) == 2
        assert "2D" in capsys.readouterr().err

    def test_cluster_crash_recovers_and_records(self, capsys, tmp_path):
        from repro.telemetry.validate import validate_file

        record = tmp_path / "rec.json"
        assert main(["cluster", "run", "Heat-2D", "--size", "16",
                     "--steps", "2", "--simulate", "--crash-rank", "1",
                     "--record", str(record), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["recovered_bit_identical"] is True
        assert doc["faults"]["shard"]["crashes"] >= 1
        assert doc["faults"]["unrecovered"] == 0
        assert doc["counters"]["mma_ops"] > 0
        assert validate_file(record).endswith("/v6")
        rec = json.loads(record.read_text())
        assert (rec["extra"]["halo_bytes_exchanged"]
                == doc["halo_bytes_exchanged"])
        # a traced cluster run embeds its observatory report (v4)
        assert rec["cluster"]["schema"].startswith(
            "repro.telemetry.cluster-report/"
        )
        assert rec["cluster"]["halo"]["reconciled"] is True

    def test_cluster_checkpoint_resume_round_trip(self, capsys, tmp_path):
        from repro.telemetry.validate import validate_file

        ckdir, record = str(tmp_path / "ckpt"), tmp_path / "resume.json"
        assert main(["cluster", "run", "Heat-2D", "--size", "16",
                     "--steps", "6", "--block-steps", "2",
                     "--checkpoint-dir", ckdir, "--halt-after-round", "1",
                     # traced, so the snapshot carries its trace id
                     "--events", str(tmp_path / "run.jsonl")]) == 3
        capsys.readouterr()
        assert main(["cluster", "resume", "--checkpoint-dir", ckdir,
                     "--record", str(record), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["bit_identical"] is True
        assert doc["resilience"]["checkpoints"]["restored"] == 1
        assert validate_file(record).endswith("/v6")
        rec = json.loads(record.read_text())
        # one trace: the resumed spans continue the snapshot's trace id
        trace_ids = {s["trace_id"] for s in rec["spans"]}
        assert trace_ids == {rec["extra"]["trace_id"]}

    @pytest.mark.parametrize("damage,message", [
        ("empty", "no checkpoints found"),
        ("no-meta", "missing run metadata"),
        ("other-plan", "does not match the checkpointed plan"),
    ])
    def test_cluster_resume_unusable_checkpoint_is_exit_2(
        self, capsys, tmp_path, damage, message
    ):
        ckdir = tmp_path / "ckpt"
        ckdir.mkdir()
        if damage != "empty":
            assert main(["cluster", "run", "Heat-2D", "--size", "16",
                         "--steps", "6", "--block-steps", "2",
                         "--checkpoint-dir", str(ckdir),
                         "--halt-after-round", "1"]) == 3
            # the run metadata is not part of the content hash, so the
            # edited manifest still loads
            for manifest in ckdir.glob("ckpt-*.json"):
                doc = json.loads(manifest.read_text())
                if damage == "no-meta":
                    del doc["meta"]
                else:
                    doc["meta"]["block_steps"] = 3
                manifest.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["cluster", "resume", "--checkpoint-dir", str(ckdir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1

    def test_cluster_elastic_resume_uses_the_snapshot_mesh(
        self, capsys, tmp_path
    ):
        # the sticky rank kill re-partitions the 2x2 mesh into 3x1
        # before the snapshot; resume must rebuild on the snapshot's mesh
        ckdir = str(tmp_path / "ckpt")
        assert main(["cluster", "run", "Heat-2D", "--size", "24",
                     "--steps", "9", "--block-steps", "3",
                     "--mesh", "2", "2", "--kill-rank", "1", "--elastic",
                     "--checkpoint-dir", ckdir,
                     "--halt-after-round", "1"]) == 3
        capsys.readouterr()
        assert main(["cluster", "resume", "--checkpoint-dir", ckdir,
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["bit_identical"] is True
        assert doc["mesh"] == [3, 1]

    def test_cluster_report_gantt_and_artifacts(self, capsys, tmp_path):
        from repro.telemetry.validate import validate_file

        report_file = tmp_path / "report.json"
        lanes_file = tmp_path / "lanes.json"
        record_file = tmp_path / "rec.json"
        assert main(["cluster", "report", "Heat-2D", "--size", "32",
                     "--steps", "4", "--block-steps", "2", "--overlap",
                     "--executor", "thread",
                     "--output", str(report_file),
                     "--chrome-trace", str(lanes_file),
                     "--record", str(record_file)]) == 0
        out = capsys.readouterr().out
        assert "legend:" in out
        assert "critical path" in out
        assert "overlap efficiency" in out
        assert validate_file(report_file).startswith(
            "repro.telemetry.cluster-report/"
        )
        assert validate_file(lanes_file).startswith(
            "repro.telemetry.chrome-trace/"
        )
        assert validate_file(record_file).endswith("/v6")
        report = json.loads(report_file.read_text())
        # modeled hiding: each rank's measured compute x its interior
        # share covers the sub-microsecond modeled transfer
        assert report["overlap"]["efficiency"] > 0
        assert report["halo"]["reconciled"] is True
        # the record carries the report's headline numbers in its
        # cluster section
        cluster = json.loads(record_file.read_text())["cluster"]
        assert cluster["overlap"]["efficiency"] == report["overlap"]["efficiency"]
        assert "max_over_mean" in cluster["imbalance"]

    def test_cluster_report_json_is_the_report(self, capsys):
        assert main(["cluster", "report", "Heat-1D", "--size", "16",
                     "--steps", "2", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"].startswith("repro.telemetry.cluster-report/")
        assert len(doc["ranks"]) == 2
        for row in doc["ranks"]:
            assert sum(row["lanes_ns"].values()) == row["wall_ns"]
