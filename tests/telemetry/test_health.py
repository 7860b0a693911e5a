"""Shard health registry: heartbeats, binding, snapshots, run-records."""

import json
import threading

from repro import telemetry
from repro.telemetry.health import (
    ENV_HEALTH_FILE,
    HEALTH,
    HealthRegistry,
    current_beat,
    render_snapshot,
)


class TestShardLifecycle:
    def test_beat_advances_progress_and_clock(self):
        reg = HealthRegistry()
        sweep = reg.start_sweep("s")
        shard = sweep.shard(0, rows="0:16")
        shard.beat(0, 12)
        shard.beat(4)
        shard.beat(4)
        assert shard.tiles_done == 8
        assert shard.tiles_total == 12
        assert shard.beats == 3

    def test_bind_marks_terminal_states(self):
        reg = HealthRegistry()
        sweep = reg.start_sweep("s")
        with reg.bind(sweep.shard(0)) as shard:
            assert shard.state == "running"
        assert shard.state == "done"
        try:
            with reg.bind(sweep.shard(1)):
                raise RuntimeError("worker died")
        except RuntimeError:
            pass
        assert sweep.shard(1).state == "failed"
        assert sweep.shard(0).state == "done"
        assert sweep.done  # done means all terminal; failed counts

    def test_retry_restarts_progress_but_keeps_history(self):
        reg = HealthRegistry()
        sweep = reg.start_sweep("s")
        shard = sweep.shard(0)
        with reg.bind(shard):
            shard.beat(6, 12)
        shard.bump_retries()
        assert shard.state == "retrying"
        with reg.bind(shard):
            assert shard.state == "running"
            assert shard.tiles_done == 0  # progress restarted
        assert shard.retries == 1

    def test_sweep_done_requires_every_shard_terminal(self):
        reg = HealthRegistry()
        sweep = reg.start_sweep("s")
        assert not sweep.done  # no shards yet
        a, b = sweep.shard(0), sweep.shard(1)
        with reg.bind(a):
            pass
        assert not sweep.done
        with reg.bind(b):
            pass
        assert sweep.done


class TestThreadBinding:
    def test_current_beat_is_none_unbound(self):
        assert current_beat() is None

    def test_current_beat_is_thread_local(self):
        # current_beat reads the process-wide HEALTH registry
        sweep = HEALTH.start_sweep("s")
        other: list = []

        def probe():
            other.append(current_beat())

        with HEALTH.bind(sweep.shard(0)):
            assert current_beat() is not None
            t = threading.Thread(target=probe)
            t.start()
            t.join()
        assert other == [None]
        assert current_beat() is None

    def test_sharded_sweep_reports_real_progress(self, rng):
        import numpy as np

        import repro
        from repro.stencil.kernels import get_kernel

        k = get_kernel("Box-2D9P")
        padded = np.pad(rng.normal(size=(48, 48)), k.weights.radius)
        compiled = repro.compile(k.weights)
        telemetry.reset()
        compiled.apply_simulated(padded, shards=3)
        (sweep,) = HEALTH.sweeps()
        assert sweep.done
        shards = sweep.as_dict()["shards"]
        assert len(shards) == 3
        for shard in shards:
            assert shard["state"] == "done"
            assert shard["tiles_done"] == shard["tiles_total"] > 0


class TestSnapshots:
    def test_snapshot_shape_and_render(self):
        reg = HealthRegistry()
        sweep = reg.start_sweep("demo")
        with reg.bind(sweep.shard(0, rows="0:16")) as shard:
            shard.beat(3, 12)
        snap = reg.snapshot()
        assert "generated" in snap
        (s,) = snap["sweeps"]
        assert s["name"] == "demo"
        assert s["done"] is True
        text = render_snapshot(snap)
        assert "demo" in text
        assert "3/12" in text
        # the registry's own render goes through the same snapshot shape
        assert reg.render().splitlines()[0] == text.splitlines()[0]

    def test_empty_registry_renders_placeholder(self):
        assert HealthRegistry().render() == "(no sweeps registered)"

    def test_file_publishing_is_atomic_json(self, tmp_path):
        path = tmp_path / "health.json"
        reg = HealthRegistry()
        reg.configure_file(path, min_interval_s=0.0)
        sweep = reg.start_sweep("s")
        with reg.bind(sweep.shard(0)) as shard:
            shard.beat(1, 4)
        doc = json.loads(path.read_text())
        assert doc["sweeps"][0]["shards"][0]["state"] == "done"
        assert not path.with_suffix(".json.tmp").exists()

    def test_env_var_configures_publishing(self, tmp_path, monkeypatch):
        path = tmp_path / "live.json"
        monkeypatch.setenv(ENV_HEALTH_FILE, str(path))
        reg = HealthRegistry()
        reg.start_sweep("from-env")
        assert path.exists()  # the env var alone opted publishing in
        reg.write_file()
        assert json.loads(path.read_text())["sweeps"][0]["name"] == "from-env"

    def test_eviction_keeps_only_recent_finished_sweeps(self):
        reg = HealthRegistry(max_finished=2)
        for i in range(4):
            sweep = reg.start_sweep(f"s{i}")
            with reg.bind(sweep.shard(0)):
                pass
        assert len(reg.sweeps()) <= 3  # ring: evicts finished beyond max


class TestPublishing:
    def test_run_record_folds_health_in(self):
        sweep = HEALTH.start_sweep("record-me")
        with HEALTH.bind(sweep.shard(0)) as shard:
            shard.beat(2, 4)
        record = telemetry.run_record("t", log=False)
        (s,) = record["health"]["sweeps"]
        assert s["name"] == "record-me"
        telemetry.validate_run_record(record)

    def test_run_record_omits_empty_health(self):
        record = telemetry.run_record("t")
        assert "health" not in record
