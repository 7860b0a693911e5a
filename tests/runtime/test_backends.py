"""The unified ``backend=`` execution API.

Covers the registry itself, the backend-equivalence matrix (bit-identical
grids AND EventCounters across interpreter / vectorized and the eager
tile path, over 1D/2D/3D kernels and schedules), the fault-mode
composition rules, plan-key/plan-cache backend coverage, the
``REPRO_BACKEND`` session default, and a hypothesis property over random
grid shapes.
"""

import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.config import OptimizationConfig
from repro.errors import BackendError
from repro.runtime import PlanCache
from repro.faults import FaultInjector, FaultPlan, arm_faults
from repro.runtime import backends
from repro.runtime.backends import (
    DEFAULT_BACKEND,
    check_fault_support,
    default_backend,
    resolve_backend,
)
from repro.runtime.plan import plan_key
from repro.stencil.kernels import get_kernel
from repro.tcu.device import Device


def _padded(weights, shape, seed=0):
    rng = np.random.default_rng(seed)
    return np.pad(rng.normal(size=shape), weights.radius)


def _race(work, n):
    """Run ``work(i)`` for ``i < n`` on ``n`` threads switching every
    10 us; returns the results in order, failing on any error."""
    runs: list = [None] * n
    errors: list = []

    def run(i):
        try:
            runs[i] = work(i)
        except BaseException as exc:  # surfaced by the assert below
            errors.append(exc)

    threads = [
        threading.Thread(target=run, args=(i,), daemon=True) for i in range(n)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        deadline = time.monotonic() + 60
        for t in threads:
            t.join(timeout=max(0.0, deadline - time.monotonic()))
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    return runs


BACKENDS = ("interpreter", "vectorized")


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_builtin_backends_registered_in_order(self):
        assert backends.BACKENDS == BACKENDS

    def test_get_backend_attributes(self):
        # fault support: every backend but the vectorized walk
        assert check_fault_support("interpreter", True) == "interpreter"
        assert check_fault_support(None, True) == DEFAULT_BACKEND
        with pytest.raises(BackendError, match="does not support"):
            check_fault_support("vectorized", True)

    def test_unknown_backend_is_typed_error(self):
        with pytest.raises(BackendError, match="unknown execution backend"):
            default_backend("simd")

    def test_oracle_is_not_a_backend(self, monkeypatch):
        # the eager tile path is reachable only through tile_source
        with pytest.raises(BackendError, match="interpreter, vectorized"):
            default_backend("oracle")
        monkeypatch.setenv("REPRO_BACKEND", "oracle")
        with pytest.raises(BackendError, match="REPRO_BACKEND='oracle'"):
            default_backend()


# ---------------------------------------------------------------------------
# backend-equivalence matrix: grids and counters bit-identical
# ---------------------------------------------------------------------------
EQUIV_CASES = [
    ("1D5P", (257,)),
    ("Heat-1D", (130,)),
    ("Box-2D9P", (24, 40)),
    ("Star-2D13P", (17, 23)),
    ("Box-2D49P", (32, 32)),
    ("Heat-3D", (4, 12, 16)),
    ("Box-3D27P", (3, 10, 12)),
]


class TestBackendEquivalence:
    @pytest.mark.parametrize("name,shape", EQUIV_CASES)
    def test_matrix(self, name, shape, eager_tiles):
        k = get_kernel(name)
        compiled = repro.compile(k.weights, cache=None)
        padded = _padded(k.weights, shape)
        results = {
            b: compiled.apply_simulated(padded, backend=b) for b in BACKENDS
        }
        with eager_tiles():
            results["eager"] = compiled.apply_simulated(
                padded, backend="interpreter"
            )
        out0, ev0 = results["interpreter"]
        for b in ("vectorized", "eager"):
            out, ev = results[b]
            assert np.array_equal(out0, out), b
            assert ev0 == ev, b

    @pytest.mark.parametrize("schedule", ["eager", "prefetch"])
    def test_vectorized_tracks_schedule(self, schedule):
        k = get_kernel("Box-2D9P")
        config = OptimizationConfig(schedule=schedule)
        compiled = repro.compile(k.weights, config=config, cache=None)
        padded = _padded(k.weights, (24, 28))
        out_i, ev_i = compiled.apply_simulated(padded)
        out_v, ev_v = compiled.apply_simulated(padded, backend="vectorized")
        assert np.array_equal(out_i, out_v)
        assert ev_i == ev_v

    def test_compiled_in_backend_is_apply_default(self):
        k = get_kernel("Box-2D9P")
        compiled = repro.compile(k.weights, cache=None, backend="vectorized")
        assert compiled.plan.backend == "vectorized"
        reference = repro.compile(k.weights, cache=None)
        padded = _padded(k.weights, (16, 24))
        out_v, ev_v = compiled.apply_simulated(padded)  # no backend= arg
        out_i, ev_i = reference.apply_simulated(padded)
        assert np.array_equal(out_i, out_v)
        assert ev_i == ev_v

    def test_sharded_backend_equivalence(self):
        k = get_kernel("Box-2D9P")
        compiled = repro.compile(k.weights, cache=None)
        padded = _padded(k.weights, (48, 40))
        out_i, ev_i = compiled.apply_simulated(padded, shards=3)
        out_v, ev_v = compiled.apply_simulated(
            padded, shards=3, backend="vectorized"
        )
        assert np.array_equal(out_i, out_v)
        assert ev_i == ev_v

    def test_threads_share_one_plan(self):
        # cluster thread ranks share one plan: the vectorized walk keeps
        # no per-plan scratch, and the probe cache fills under a race
        k = get_kernel("Star-2D13P")
        compiled = repro.compile(k.weights, cache=None)
        inputs = [
            _padded(k.weights, (20 + 5 * i, 44 - 3 * i), seed=i) for i in range(8)
        ]
        runs = _race(
            lambda i: [
                compiled.apply_simulated(inputs[i], backend="vectorized")
                for _ in range(3)
            ],
            len(inputs),
        )
        for padded, results in zip(inputs, runs):
            want_out, want_ev = compiled.apply_simulated(
                padded, backend="vectorized"
            )
            for out, ev in results:
                assert np.array_equal(out, want_out)
                assert ev == want_ev

    def test_threads_share_one_plan_functional(self):
        # the strip-walked functional kernel keeps no buffers on the
        # shared engine: racing apply/apply_batch calls on multi-strip
        # shapes match serial runs bit for bit
        k = get_kernel("Box-2D49P")
        compiled = repro.compile(k.weights, cache=None)
        grids = [
            _padded(k.weights, (38, 6000 + 7 * i), seed=i) for i in range(8)
        ]
        batches = [
            np.stack(
                [_padded(k.weights, (20 + i, 3000), seed=10 * i + j) for j in range(3)]
            )
            for i in range(8)
        ]
        runs = _race(
            lambda i: [
                (compiled.apply(grids[i]), compiled.apply_batch(batches[i]))
                for _ in range(3)
            ],
            len(grids),
        )
        for grid, batch, results in zip(grids, batches, runs):
            want_one = compiled.apply(grid)
            want_batch = compiled.apply_batch(batch)
            for one, many in results:
                assert np.array_equal(one, want_one)
                assert np.array_equal(many, want_batch)

    def test_cuda_core_plan_falls_back_silently(self):
        # no lowered tile program exists; an explicit vectorized request
        # runs the same eager CUDA-core path instead of erroring
        k = get_kernel("Box-2D9P")
        config = OptimizationConfig(use_tensor_cores=False)
        compiled = repro.compile(k.weights, config=config, cache=None)
        assert compiled.program is None
        padded = _padded(k.weights, (16, 16))
        out_i, ev_i = compiled.apply_simulated(padded)
        out_v, ev_v = compiled.apply_simulated(padded, backend="vectorized")
        assert np.array_equal(out_i, out_v)
        assert ev_i == ev_v


# ---------------------------------------------------------------------------
# fault-mode composition rules
# ---------------------------------------------------------------------------
class TestFaultModeRules:
    def test_explicit_vectorized_with_verify_raises(self):
        k = get_kernel("Box-2D9P")
        compiled = repro.compile(k.weights, cache=None)
        padded = _padded(k.weights, (16, 16))
        with pytest.raises(BackendError, match="does not support"):
            compiled.apply_simulated(
                padded, verify="abft", backend="vectorized"
            )

    def test_defaulted_vectorized_downgrades_for_verify(self):
        # plan compiled for the vectorized backend: fault mode silently
        # falls back to the interpreter rather than erroring
        k = get_kernel("Box-2D9P")
        compiled = repro.compile(k.weights, cache=None, backend="vectorized")
        padded = _padded(k.weights, (16, 16))
        out, ev = compiled.apply_simulated(padded, verify="abft")
        ref_out, ref_ev = repro.compile(k.weights, cache=None).apply_simulated(
            padded, verify="abft"
        )
        assert np.array_equal(out, ref_out)
        assert ev == ref_ev

    def test_resolve_backend_rules_directly(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert resolve_backend(None) == DEFAULT_BACKEND
        assert resolve_backend(None, plan_default="vectorized") == "vectorized"
        assert (
            resolve_backend("interpreter", plan_default="vectorized")
            == "interpreter"
        )
        # defaulted vectorized + fault mode -> silent downgrade
        assert (
            resolve_backend(None, plan_default="vectorized", fault_mode=True)
            == DEFAULT_BACKEND
        )
        with pytest.raises(BackendError, match="does not support"):
            resolve_backend("vectorized", fault_mode=True)
        with pytest.raises(BackendError, match="unknown execution backend"):
            resolve_backend("nope")


class TestSingleRefusal:
    """Direct engine calls meet the sweep driver's one refusal."""

    CASES = [("1D5P", (130,)), ("Box-2D9P", (16, 16)), ("Heat-3D", (3, 8, 8))]

    @staticmethod
    def _engine(name, shape):
        k = get_kernel(name)
        plan = repro.compile(k.weights, cache=None).plan
        return plan.engine, _padded(k.weights, shape)

    @pytest.mark.parametrize("name,shape", CASES)
    def test_vectorized_with_armed_run_raises(self, name, shape):
        engine, padded = self._engine(name, shape)
        _, armed = arm_faults(
            "abft", None, None, backend="interpreter", plan_default=None
        )
        with pytest.raises(BackendError, match="does not support"):
            engine.apply_simulated(padded, backend="vectorized", armed=armed)

    @pytest.mark.parametrize("name,shape", CASES)
    def test_vectorized_with_device_injector_raises(self, name, shape):
        engine, padded = self._engine(name, shape)
        device = Device(injector=FaultInjector(FaultPlan(specs=())))
        with pytest.raises(BackendError, match="does not support"):
            engine.apply_simulated(padded, device=device, backend="vectorized")

    @pytest.mark.filterwarnings(
        "ignore:invalid value encountered:RuntimeWarning"
    )
    @pytest.mark.parametrize("name,shape", CASES)
    def test_armed_engine_call_matches_compiled_fault_run(self, name, shape):
        # the engine hands ``armed`` to the sweep driver untouched: same
        # grid, counters and fault ledger as the compiled entry point
        k = get_kernel(name)
        compiled = repro.compile(k.weights, cache=None)
        padded = _padded(k.weights, shape)
        plan = FaultPlan.random(seed=1, count=3, max_mma_site=8)
        want_out, want_ev = compiled.apply_simulated(
            padded, verify="abft", faults=plan
        )
        _, armed = arm_faults(
            "abft", plan, None, backend="interpreter", plan_default=None
        )
        out, ev = compiled.plan.engine.apply_simulated(padded, armed=armed)
        assert np.array_equal(out, want_out)
        assert ev == want_ev
        assert armed.report.as_dict() == compiled.last_fault_report.as_dict()
        assert armed.report.total_injected == 3

    def test_unknown_backend_on_direct_engine_call(self):
        engine, padded = self._engine("Box-2D9P", (16, 16))
        with pytest.raises(BackendError, match="unknown execution backend"):
            engine.apply_simulated(padded, backend="simd")


# ---------------------------------------------------------------------------
# plan-key v3 / plan-cache coverage
# ---------------------------------------------------------------------------
class TestPlanKeyAndCache:
    def test_plan_key_covers_backend(self):
        k = get_kernel("Box-2D9P")
        w = k.weights.as_matrix()
        keys = {plan_key(w, 2, backend=b) for b in BACKENDS}
        assert len(keys) == len(BACKENDS)

    def test_default_key_matches_explicit_interpreter(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        k = get_kernel("Box-2D9P")
        w = k.weights.as_matrix()
        assert plan_key(w, 2) == plan_key(w, 2, backend="interpreter")

    def test_cache_roundtrip_per_backend(self):
        k = get_kernel("Box-2D9P")
        cache = PlanCache(maxsize=8)
        vec = repro.compile(k.weights, cache=cache, backend="vectorized")
        interp = repro.compile(k.weights, cache=cache, backend="interpreter")
        assert vec.plan.key != interp.plan.key
        again = repro.compile(k.weights, cache=cache, backend="vectorized")
        assert again.plan is vec.plan  # cache hit, no recompilation
        assert cache.stats().hits >= 1

    def test_unknown_backend_rejected_at_compile(self):
        k = get_kernel("Box-2D9P")
        with pytest.raises(BackendError, match="unknown execution backend"):
            repro.compile(k.weights, cache=None, backend="fpga")

    def test_unknown_backend_rejected_at_cached_compile(self):
        k = get_kernel("Box-2D9P")
        cache = PlanCache(maxsize=4)
        with pytest.raises(BackendError, match="unknown execution backend"):
            repro.compile(k.weights, cache=cache, backend="fpga")
        with pytest.raises(BackendError, match="unknown execution backend"):
            repro.compile(k.weights, backend="fpga")  # the default cache
        assert len(cache) == 0


# ---------------------------------------------------------------------------
# REPRO_BACKEND session default
# ---------------------------------------------------------------------------
class TestEnvDefault:
    def test_env_selects_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "vectorized")
        assert default_backend() == "vectorized"
        k = get_kernel("Box-2D9P")
        compiled = repro.compile(k.weights, cache=None)
        assert compiled.plan.backend == "vectorized"

    def test_env_unset_or_blank_is_interpreter(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert default_backend() == "interpreter"
        monkeypatch.setenv("REPRO_BACKEND", "  ")
        assert default_backend() == "interpreter"

    def test_env_invalid_is_typed_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "turbo")
        with pytest.raises(BackendError, match="REPRO_BACKEND"):
            default_backend()

    def test_env_default_matches_interpreter_numerics(self, monkeypatch):
        k = get_kernel("Box-2D9P")
        ref = repro.compile(k.weights, cache=None)
        padded = _padded(k.weights, (16, 24))
        ref_out, ref_ev = ref.apply_simulated(padded)
        monkeypatch.setenv("REPRO_BACKEND", "vectorized")
        compiled = repro.compile(k.weights, cache=None)
        out, ev = compiled.apply_simulated(padded)
        assert np.array_equal(out, ref_out)
        assert ev == ref_ev


# ---------------------------------------------------------------------------
# hypothesis property: random grid shapes
# ---------------------------------------------------------------------------
class TestShapeProperty:
    @given(
        rows=st.integers(min_value=9, max_value=48),
        cols=st.integers(min_value=9, max_value=48),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=12, deadline=None)
    def test_2d_vectorized_matches_interpreter(self, rows, cols, seed):
        k = get_kernel("Box-2D9P")
        compiled = repro.compile(k.weights)  # default cache: reuse the plan
        padded = _padded(k.weights, (rows, cols), seed=seed)
        out_i, ev_i = compiled.apply_simulated(padded)
        out_v, ev_v = compiled.apply_simulated(padded, backend="vectorized")
        assert np.array_equal(out_i, out_v)
        assert ev_i == ev_v

    @given(
        n=st.integers(min_value=65, max_value=400),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=10, deadline=None)
    def test_1d_vectorized_matches_interpreter(self, n, seed):
        k = get_kernel("1D5P")
        compiled = repro.compile(k.weights)
        padded = _padded(k.weights, (n,), seed=seed)
        out_i, ev_i = compiled.apply_simulated(padded)
        out_v, ev_v = compiled.apply_simulated(padded, backend="vectorized")
        assert np.array_equal(out_i, out_v)
        assert ev_i == ev_v
