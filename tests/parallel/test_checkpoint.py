"""Checkpoint/restart: deterministic snapshots at temporal-round
barriers, bit-identical resume, tamper detection, halt-and-resume."""

import json

import numpy as np
import pytest

from repro import telemetry
from repro.faults import FaultPlan, FaultSpec, RecoveryPolicy
from repro.parallel.checkpoint import (
    CheckpointConfig,
    CheckpointError,
    CheckpointHalt,
    list_checkpoints,
    load_checkpoint,
    save_checkpoint,
)
from repro.parallel.cluster import ClusterRuntime
from repro.parallel.plan import distribute
from repro.stencil.kernels import get_kernel

FAST_POLICY = RecoveryPolicy(
    shard_timeout_s=20.0, shard_retries=2, backoff_base_s=0.001,
    backoff_cap_s=0.01,
)


def _heat2d_plan(shape=(24, 24), mesh=(2, 2), block_steps=3):
    w = get_kernel("Heat-2D").weights
    return w, distribute(w, shape, mesh, block_steps=block_steps)


class TestCheckpointConfig:
    def test_interval_validated(self, tmp_path):
        with pytest.raises(CheckpointError):
            CheckpointConfig(dir=str(tmp_path), every=0)

    def test_keep_validated(self, tmp_path):
        with pytest.raises(CheckpointError):
            CheckpointConfig(dir=str(tmp_path), keep=0)


class TestSaveLoadRoundTrip:
    def test_fields_survive(self, tmp_path, rng):
        blocks = {0: rng.normal(size=(4, 5)), 1: rng.normal(size=(4, 5))}
        ck = save_checkpoint(
            directory=str(tmp_path),
            plan_key="deadbeef" * 8,
            round_index=2,
            phases=(3, 3, 1),
            steps=7,
            exchanged_bytes=1234,
            round_log=[{"round": 0, "halo_bytes": 600}],
            blocks=blocks,
            mesh=(2, 1),
            global_shape=(8, 5),
            trace_id="abc123",
            meta={"kernel": "Heat-2D"},
        )
        loaded = load_checkpoint(str(tmp_path))
        assert loaded.plan_key == ck.plan_key
        assert loaded.round_index == 2
        assert tuple(loaded.phases) == (3, 3, 1)
        assert loaded.steps == 7
        assert loaded.exchanged_bytes == 1234
        assert loaded.round_log == [{"round": 0, "halo_bytes": 600}]
        assert loaded.trace_id == "abc123"
        assert loaded.meta == {"kernel": "Heat-2D"}
        for rank in blocks:
            assert np.array_equal(loaded.blocks[rank], blocks[rank])
        assert loaded.content_hash == ck.content_hash

    def test_tampered_block_rejected(self, tmp_path, rng):
        blocks = {0: rng.normal(size=(4, 4))}
        save_checkpoint(
            directory=str(tmp_path),
            plan_key="k" * 64,
            round_index=0,
            phases=(1,),
            steps=1,
            exchanged_bytes=0,
            round_log=[],
            blocks=blocks,
            mesh=(1,),
            global_shape=(4, 4),
        )
        npz = tmp_path / "ckpt-000000.npz"
        tampered = dict(np.load(npz))
        tampered["rank_0"] = tampered["rank_0"] + 1e-9
        np.savez(npz, **tampered)
        with pytest.raises(CheckpointError, match="content verification"):
            load_checkpoint(str(tmp_path))

    def test_tampered_manifest_rejected(self, tmp_path, rng):
        save_checkpoint(
            directory=str(tmp_path),
            plan_key="k" * 64,
            round_index=0,
            phases=(1,),
            steps=1,
            exchanged_bytes=0,
            round_log=[],
            blocks={0: rng.normal(size=(3, 3))},
            mesh=(1,),
            global_shape=(3, 3),
        )
        manifest = tmp_path / "ckpt-000000.json"
        doc = json.loads(manifest.read_text())
        doc["exchanged_bytes"] = 999
        manifest.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="content verification"):
            load_checkpoint(str(tmp_path))

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(str(tmp_path / "nope"))

    def test_keep_prunes_oldest(self, tmp_path, rng):
        for i in range(4):
            save_checkpoint(
                directory=str(tmp_path),
                plan_key="k" * 64,
                round_index=i,
                phases=(1, 1, 1, 1),
                steps=4,
                exchanged_bytes=0,
                round_log=[],
                blocks={0: rng.normal(size=(3, 3))},
                mesh=(1,),
                global_shape=(3, 3),
                keep=2,
            )
        assert list_checkpoints(str(tmp_path)) == [2, 3]


class TestRunCheckpointResume:
    def test_resume_every_round_bit_identical(self, tmp_path, rng):
        w, plan = _heat2d_plan()
        x = rng.normal(size=(24, 24))
        baseline = ClusterRuntime(plan).run(x, 9).field

        ckdir = str(tmp_path / "ck")
        full = ClusterRuntime(plan).run(
            x, 9, checkpoint=CheckpointConfig(dir=ckdir)
        )
        assert np.array_equal(full.field, baseline)
        rounds = list_checkpoints(ckdir)
        assert rounds == [0, 1, 2]
        for r in rounds[:-1]:
            resumed = ClusterRuntime(plan).run(
                x, 9, resume_from=load_checkpoint(ckdir, round_index=r)
            )
            assert np.array_equal(resumed.field, baseline)
            # three-ledger reconciliation survives the resume
            assert resumed.exchanged_bytes == full.exchanged_bytes
            assert sum(
                e["halo_bytes"] for e in resumed.round_log
            ) == resumed.exchanged_bytes

    def test_resume_string_path(self, tmp_path, rng):
        w, plan = _heat2d_plan()
        x = rng.normal(size=(24, 24))
        ckdir = str(tmp_path)
        ClusterRuntime(plan).run(x, 9, checkpoint=CheckpointConfig(dir=ckdir))
        resumed = ClusterRuntime(plan).run(x, 9, resume_from=ckdir)
        assert np.array_equal(
            resumed.field, ClusterRuntime(plan).run(x, 9).field
        )

    def test_halt_after_raises_and_resumes(self, tmp_path, rng):
        w, plan = _heat2d_plan()
        x = rng.normal(size=(24, 24))
        baseline = ClusterRuntime(plan).run(x, 9).field
        ckdir = str(tmp_path)
        with pytest.raises(CheckpointHalt) as exc:
            ClusterRuntime(plan).run(
                x, 9,
                checkpoint=CheckpointConfig(dir=ckdir, halt_after=1),
            )
        assert exc.value.round_index == 1
        assert list_checkpoints(ckdir) == [0, 1]
        resumed = ClusterRuntime(plan).run(x, 9, resume_from=ckdir)
        assert np.array_equal(resumed.field, baseline)
        assert resumed.resumed_halo_bytes > 0
        assert resumed.resilience is not None
        assert resumed.resilience["checkpoints"]["restored"] == 1

    def test_wrong_plan_rejected(self, tmp_path, rng):
        w, plan = _heat2d_plan()
        x = rng.normal(size=(24, 24))
        ckdir = str(tmp_path)
        ClusterRuntime(plan).run(x, 9, checkpoint=CheckpointConfig(dir=ckdir))
        other = distribute(w, (24, 24), (4, 1), block_steps=3)
        with pytest.raises(CheckpointError, match="plan"):
            ClusterRuntime(other).run(x, 9, resume_from=ckdir)

    def test_wrong_schedule_rejected(self, tmp_path, rng):
        w, plan = _heat2d_plan()
        x = rng.normal(size=(24, 24))
        ckdir = str(tmp_path)
        ClusterRuntime(plan).run(x, 9, checkpoint=CheckpointConfig(dir=ckdir))
        with pytest.raises(CheckpointError, match="schedule"):
            ClusterRuntime(plan).run(x, 6, resume_from=ckdir)

    def test_every_two_rounds(self, tmp_path, rng):
        w, plan = _heat2d_plan()
        x = rng.normal(size=(24, 24))
        ckdir = str(tmp_path)
        ClusterRuntime(plan).run(
            x, 9, checkpoint=CheckpointConfig(dir=ckdir, every=2)
        )
        assert list_checkpoints(ckdir) == [1]

    def test_checkpoint_events_and_ledger(self, tmp_path, rng):
        w, plan = _heat2d_plan()
        x = rng.normal(size=(24, 24))
        ckdir = str(tmp_path)
        with telemetry.capture():
            result = ClusterRuntime(plan).run(
                x, 9, checkpoint=CheckpointConfig(dir=ckdir)
            )
            kinds = [e.kind for e in telemetry.EVENT_LOG.events()]
            assert kinds.count("checkpoint.saved") == 3
        assert result.resilience["checkpoints"]["saved"] == 3

    def test_resume_preserves_trace_id(self, tmp_path, rng):
        w, plan = _heat2d_plan()
        x = rng.normal(size=(24, 24))
        ckdir = str(tmp_path)
        with telemetry.capture():
            with pytest.raises(CheckpointHalt):
                ClusterRuntime(plan).run(
                    x, 9,
                    checkpoint=CheckpointConfig(dir=ckdir, halt_after=0),
                )
        ckpt = load_checkpoint(ckdir)
        assert ckpt.trace_id
        with telemetry.capture():
            ClusterRuntime(plan).run(x, 9, resume_from=ckpt)
            spans = [
                s for s in telemetry.TRACER.finished
                if s.name == "cluster.run"
            ]
            assert spans and all(
                s.trace_id == ckpt.trace_id for s in spans
            )

    def test_resume_under_faults_restores_injector_state(
        self, tmp_path, rng
    ):
        """A fault that fired before the checkpoint must not re-fire
        after the resume (the injector state rides in the snapshot)."""
        w, plan = _heat2d_plan()
        x = rng.normal(size=(24, 24))
        baseline = ClusterRuntime(plan).run(x, 9).field
        faults = FaultPlan(
            specs=(FaultSpec(kind="halo_corrupt", site=0, shard=1),)
        )
        ckdir = str(tmp_path)
        with pytest.raises(CheckpointHalt):
            ClusterRuntime(plan).run(
                x, 9,
                faults=faults,
                policy=FAST_POLICY,
                checkpoint=CheckpointConfig(dir=ckdir, halt_after=1),
            )
        resumed = ClusterRuntime(plan).run(
            x, 9,
            faults=FaultPlan(
                specs=(FaultSpec(kind="halo_corrupt", site=0, shard=1),)
            ),
            policy=FAST_POLICY,
            resume_from=ckdir,
        )
        assert np.array_equal(resumed.field, baseline)
        report = resumed.fault_report
        # the spec fired pre-checkpoint; zero fresh injections post-resume
        assert report.counts["halo_detections"] == 0
