"""Cross-worker trace propagation and backend-downgrade signalling."""

import numpy as np
import pytest

import repro
from repro import telemetry
from repro.errors import BackendError
from repro.faults import FaultPlan, FaultSpec, RecoveryPolicy
from repro.parallel import ClusterRuntime, distribute
from repro.stencil.kernels import get_kernel
from repro.telemetry.log import EVENT_LOG
from repro.telemetry.spans import TRACER


@pytest.fixture(autouse=True)
def _clean_telemetry():
    telemetry.disable()
    telemetry.reset()
    yield
    telemetry.disable()
    telemetry.reset()


def _compiled(backend=None):
    return repro.compile(get_kernel("Box-2D9P").weights, backend=backend)


def _padded(rng, interior=48):
    k = get_kernel("Box-2D9P")
    return np.pad(rng.normal(size=(interior, interior)), k.weights.radius)


FAST = RecoveryPolicy(backoff_base_s=0.0, backoff_cap_s=0.0)


class TestShardedTrace:
    def test_sharded_sweep_is_one_trace(self, rng):
        compiled = _compiled()
        telemetry.enable()
        compiled.apply_simulated(_padded(rng), shards=3)
        (root,) = TRACER.roots()
        assert root.name == "runtime.apply_simulated"
        spans = list(root.walk())
        assert {s.trace_id for s in spans} == {root.trace_id}
        shard_spans = [s for s in spans if s.name == "runtime.shard"]
        assert len(shard_spans) == 3
        assert all(s.parent is root for s in shard_spans)

    def test_faulted_sweep_stays_one_trace_with_joined_events(self, rng):
        plan = FaultPlan(
            specs=(
                FaultSpec(kind="shard_crash", site=1),
                FaultSpec(kind="flip_acc", site=3, shard=0),
            )
        )
        compiled = _compiled()
        padded = _padded(rng)
        reference, _ = compiled.apply_simulated(padded)
        telemetry.enable()
        out, _ = compiled.apply_simulated(
            padded, shards=3, faults=plan, verify="abft", policy=FAST
        )
        np.testing.assert_array_equal(out, reference)

        # every span of the supervised sweep shares the root's trace
        (root,) = TRACER.roots()
        assert {s.trace_id for s in root.walk()} == {root.trace_id}

        # and every supervisor/injector decision joined that same trace
        kinds = {e.kind for e in EVENT_LOG.events()}
        assert "fault.injected" in kinds
        assert "shard.crash" in kinds
        assert "shard.backoff" in kinds
        assert "shard.recovered" in kinds
        for event in EVENT_LOG.events():
            assert event.trace_id == root.trace_id, event.kind

    def test_disabled_telemetry_still_logs_decisions(self, rng):
        plan = FaultPlan(specs=(FaultSpec(kind="shard_crash", site=0),))
        compiled = _compiled()
        assert not telemetry.is_enabled()
        compiled.apply_simulated(
            _padded(rng), shards=2, faults=plan, verify="abft", policy=FAST
        )
        assert TRACER.roots() == []
        crash = [e for e in EVENT_LOG.events() if e.kind == "shard.crash"]
        assert crash  # the log is always on...
        assert crash[0].trace_id is None  # ...but has no trace to join

    def test_trace_lands_in_the_run_record(self, rng):
        compiled = _compiled()
        with telemetry.capture():
            compiled.apply_simulated(_padded(rng), shards=2)
            record = telemetry.run_record("sharded")
        trace_ids = {s["trace_id"] for s in record["spans"]}
        assert len(trace_ids) == 1
        telemetry.validate_run_record(record)


class TestBackendDowngrade:
    def _downgrades(self):
        return [
            e for e in EVENT_LOG.events() if e.kind == "backend.downgrade"
        ]

    @pytest.mark.parametrize("path", ["single", "shards=2", "cluster"])
    def test_defaulted_vectorized_downgrades_loudly(self, rng, path):
        # one downgrade per call, however many shards, ranks and rounds
        # the call fans out to
        weights = get_kernel("Box-2D9P").weights
        x = rng.normal(size=(16, 16))

        def run(backend=None, **kwargs):
            if path == "cluster":
                plan = distribute(weights, x.shape, (2, 2), backend=backend)
                cluster = ClusterRuntime(plan)
                return cluster.run(x, 2, simulate=True, **kwargs).field
            shards = 2 if path == "shards=2" else 1
            padded = np.pad(x, weights.radius)
            compiled = _compiled(backend=backend)
            return compiled.apply_simulated(padded, shards=shards, **kwargs)[0]

        out = run("vectorized", verify="abft")
        np.testing.assert_array_equal(out, run())
        (event,) = self._downgrades()
        assert event.level == "warning"
        assert event.fields["requested"] == "vectorized"
        assert event.fields["resolved"] == "interpreter"

    def test_env_default_vectorized_downgrades_loudly(self, rng, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "vectorized")
        compiled = _compiled()
        compiled.apply_simulated(_padded(rng, 16), verify="abft")
        assert len(self._downgrades()) == 1

    def test_explicit_vectorized_with_faults_is_a_typed_error(self, rng):
        compiled = _compiled()
        with pytest.raises(BackendError):
            compiled.apply_simulated(
                _padded(rng, 16), backend="vectorized", verify="abft"
            )
        # a refusal is not a downgrade: nothing was silently resolved
        assert not self._downgrades()

    def test_plain_vectorized_run_does_not_signal(self, rng):
        compiled = _compiled(backend="vectorized")
        compiled.apply_simulated(_padded(rng, 16))
        assert not self._downgrades()
