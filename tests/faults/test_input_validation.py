"""Early NaN/Inf rejection and typed worker-exception wrapping."""

import numpy as np
import pytest

import repro
from repro.errors import (
    ExecutionError,
    FaultError,
    InputValidationError,
    ReproError,
    ShapeError,
)
from tests.faults.conftest import padded_grid


def _compiled(kernel_name="Box-2D9P"):
    k, x = padded_grid(kernel_name, size=32)
    return repro.compile(k.weights), x


class TestErrorTaxonomy:
    def test_input_validation_error_is_shape_error_sibling(self):
        assert issubclass(InputValidationError, ReproError)
        assert issubclass(InputValidationError, ValueError)
        assert issubclass(ShapeError, ValueError)
        assert not issubclass(InputValidationError, ShapeError)

    def test_execution_and_fault_errors_are_typed(self):
        assert issubclass(ExecutionError, ReproError)
        assert issubclass(ExecutionError, RuntimeError)
        assert issubclass(FaultError, ReproError)
        assert issubclass(FaultError, RuntimeError)


class TestNonFiniteRejection:
    @pytest.mark.parametrize("poison", [np.nan, np.inf, -np.inf])
    def test_apply_rejects(self, poison):
        compiled, x = _compiled()
        x[4, 7] = poison
        with pytest.raises(InputValidationError, match="non-finite"):
            compiled.apply(x)

    def test_apply_simulated_rejects(self):
        compiled, x = _compiled()
        x[0, 0] = np.nan
        with pytest.raises(InputValidationError, match="non-finite"):
            compiled.apply_simulated(x)

    def test_apply_simulated_sharded_rejects(self):
        compiled, x = _compiled()
        x[10, 3] = np.inf
        with pytest.raises(InputValidationError, match="non-finite"):
            compiled.apply_simulated(x, shards=2)

    def test_message_counts_poisoned_values(self):
        compiled, x = _compiled()
        x[:3, 0] = np.nan
        with pytest.raises(InputValidationError, match="3 non-finite"):
            compiled.apply(x)

    def test_clean_grid_unaffected(self):
        compiled, x = _compiled()
        out = compiled.apply(x)
        assert np.isfinite(out).all()


class TestWorkerExceptionWrapping:
    def test_repro_errors_pass_through_unwrapped(self):
        compiled, x = _compiled()
        bad = [x, np.nan * x]
        # the stack itself raises on the poisoned grid — typed, unwrapped
        with pytest.raises(ReproError) as excinfo:
            compiled.runtime.apply_batch(bad)
        assert not isinstance(excinfo.value, ExecutionError)

    def test_sharded_wraps_with_shard_context(self):
        compiled, x = _compiled()

        class Boom(RuntimeError):
            pass

        original = compiled.plan.engine.apply_simulated
        calls = []

        def sabotaged(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise Boom("worker died")
            return original(*args, **kwargs)

        compiled.plan.engine.apply_simulated = sabotaged
        try:
            with pytest.raises(
                ExecutionError, match=r"shard \d of \d \(rows \d+:\d+\)"
            ):
                compiled.runtime.apply_simulated_sharded(x, shards=2)
        finally:
            compiled.plan.engine.apply_simulated = original

class TestClusterNonFinite:
    """A cluster run checks finiteness where data enters (scatter and
    checkpoint restore) and once per round on the folded blocks; the
    ranks' engine calls on their own windows are unchecked."""

    @staticmethod
    def _runtime(weights=None, shape=(16, 16)):
        from repro.parallel.cluster import ClusterRuntime
        from repro.parallel.plan import distribute
        from repro.stencil.kernels import get_kernel

        w = weights if weights is not None else get_kernel("Heat-2D").weights
        return ClusterRuntime(distribute(w, shape, (2, 2), block_steps=2))

    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    @pytest.mark.parametrize("poison", [np.nan, np.inf])
    def test_poisoned_global_field_rejected(self, executor, poison):
        x = np.random.default_rng(0).normal(size=(16, 16))
        x[5, 9] = poison
        with pytest.raises(InputValidationError, match="cluster input"):
            self._runtime().run(x, 4, executor=executor, overlap=True)

    def test_poisoned_checkpoint_block_rejected_on_resume(self, tmp_path):
        from repro.parallel.checkpoint import (
            CheckpointConfig,
            CheckpointHalt,
            load_checkpoint,
        )

        x = np.random.default_rng(0).normal(size=(16, 16))
        cfg = CheckpointConfig(dir=str(tmp_path), halt_after=0)
        with pytest.raises(CheckpointHalt):
            self._runtime().run(x, 6, checkpoint=cfg)
        ck = load_checkpoint(str(tmp_path))
        ck.blocks[1] = ck.blocks[1].copy()
        ck.blocks[1][2, 3] = np.nan
        with pytest.raises(InputValidationError, match="checkpoint block"):
            self._runtime().run(x, 6, resume_from=ck)

    def test_mid_run_overflow_fails_typed(self):
        from repro.stencil.kernels import get_kernel
        from repro.stencil.weights import StencilWeights

        base = get_kernel("Box-2D9P").weights
        loud = StencilWeights(base.pattern, base.array * 1e3)
        x = np.full((16, 16), 1e300)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(InputValidationError, match="after round"):
                self._runtime(loud).run(x, 6)


class TestVerifyModeValidatedOnce:
    """``arm_faults`` normalizes ``verify=`` at the entry point: an
    unknown mode fails before any sweep opens."""

    @staticmethod
    def _spans(run):
        from repro import telemetry

        with telemetry.capture() as tracer:
            with pytest.raises(InputValidationError, match="unknown verify mode"):
                run()
        return {s.name for root in tracer.roots() for s in root.walk()}

    @pytest.mark.parametrize("shards", [1, 2])
    def test_apply_simulated_rejects_before_sweeping(self, shards):
        compiled, x = _compiled()
        names = self._spans(
            lambda: compiled.apply_simulated(x, verify="bogus", shards=shards)
        )
        assert not names & {"runtime.shard", "tcu.sweep"}

    def test_functional_cluster_run_rejects_the_mode_not_the_kind(self):
        runtime = TestClusterNonFinite._runtime()
        x = np.random.default_rng(0).normal(size=(16, 16))
        names = self._spans(lambda: runtime.run(x, 2, verify="bogus"))
        assert not names & {"runtime.shard", "tcu.sweep"}

    def test_true_means_abft(self):
        from repro.faults import arm_faults

        _, armed = arm_faults(
            True, None, None, backend="interpreter", plan_default=None
        )
        assert armed.verify == "abft"
        compiled, x = _compiled()
        want = compiled.apply_simulated(x, verify="abft")
        got = compiled.apply_simulated(x, verify=True)
        assert np.array_equal(got[0], want[0])
        assert got[1] == want[1]
