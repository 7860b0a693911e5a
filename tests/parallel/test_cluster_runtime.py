"""ClusterRuntime: executors, fault recovery, process-trace revival,
temporal tiling across dimensions, the per-run halo ledger."""

import os
import threading
import types
from concurrent.futures import Future

import numpy as np
import pytest

from repro import telemetry
from repro.core.config import OptimizationConfig
from repro.errors import BackendError, ExecutionError, FaultError
from repro.faults import FaultPlan, FaultSpec, RecoveryPolicy
from repro.parallel.cluster import ClusterRuntime
from repro.parallel.distributed import process_advance
from repro.parallel.plan import distribute
from repro.parallel.temporal import temporal_halo_bytes
from repro.stencil.kernels import get_kernel
from repro.stencil.reference import reference_iterate

FAST_POLICY = RecoveryPolicy(
    shard_timeout_s=20.0, shard_retries=2, backoff_base_s=0.001,
    backoff_cap_s=0.01,
)


class TestClusterResult:
    def test_result_surface(self, rng):
        w = get_kernel("Heat-2D").weights
        x = rng.normal(size=(16, 16))
        plan = distribute(w, x.shape, (2, 2), block_steps=3)
        result = ClusterRuntime(plan).run(x, 7)
        assert result.phases == (3, 3, 1)
        assert result.rounds == 3
        assert result.steps == 7
        assert result.exchanged_bytes > 0
        assert result.counters is None  # functional run
        assert np.allclose(
            result.field, reference_iterate(x, w, 7), atol=1e-9
        )

    def test_zero_steps_identity(self, rng):
        w = get_kernel("Heat-2D").weights
        x = rng.normal(size=(12, 12))
        plan = distribute(w, x.shape, (2, 2))
        result = ClusterRuntime(plan).run(x, 0)
        assert np.array_equal(result.field, x)
        assert result.exchanged_bytes == 0
        assert result.rounds == 0

    def test_bad_executor_rejected(self, rng):
        w = get_kernel("Heat-2D").weights
        plan = distribute(w, (12, 12), (1, 1))
        with pytest.raises(ValueError):
            ClusterRuntime(plan).run(np.zeros((12, 12)), 1, executor="mpi")


class TestHaloLedger:
    """Each run counts only its own exchange and retransmit traffic."""

    @staticmethod
    def _run(barrier=None):
        w = get_kernel("Box-2D9P").weights
        x = np.random.default_rng(7).normal(size=(64, 64))
        runtime = ClusterRuntime(distribute(w, x.shape, (2, 2)))
        if barrier is not None:
            barrier.wait()
        return runtime.run(x, 8)

    def test_concurrent_runs_count_only_their_own_bytes(self):
        solo = self._run()
        assert solo.exchanged_bytes > 0
        barrier = threading.Barrier(4)
        results = [None] * 4

        def worker(i):
            results[i] = self._run(barrier)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for result in results:
            assert result.exchanged_bytes == solo.exchanged_bytes
            assert result.round_log == solo.round_log


class TestProcessExecutor:
    def test_trajectory_bit_identical_to_serial(self, rng):
        w = get_kernel("Heat-2D").weights
        x = rng.normal(size=(16, 16))
        plan = distribute(w, x.shape, (2, 1))
        runtime = ClusterRuntime(plan)
        serial = runtime.run(x, 3).field
        proc = runtime.run(x, 3, executor="process")
        assert np.array_equal(proc.field, serial)
        assert proc.worker_pids
        assert os.getpid() not in proc.worker_pids

    def test_children_compile_the_same_plan(self, rng):
        w = get_kernel("Heat-2D").weights
        x = rng.normal(size=(12, 12))
        plan = distribute(w, x.shape, (2, 1))
        result = ClusterRuntime(plan).run(x, 2, executor="process")
        # both sides compile through repro.compile: one plan key
        assert result.rank_plan_keys == (plan.compiled.key,)

    @pytest.mark.parametrize(
        "dist_kw, run_kw",
        [
            ({"config": OptimizationConfig(use_bvs=False)}, {}),
            ({"tile_shape": (16, 16)}, {}),
            ({"backend": "interpreter"}, {"backend": "vectorized"}),
        ],
        ids=["no-bvs", "tile-16x16", "vectorized-run"],
    )
    def test_children_compile_the_parents_plan(self, dist_kw, run_kw):
        # the child compiles the rank plan's own inputs (config, tile
        # shape, compiled backend), not a default plan of the weights
        w = get_kernel("Box-2D9P").weights
        x = np.random.default_rng(0).normal(size=(64, 64))
        plan = distribute(w, x.shape, (2, 1), **dist_kw)
        runtime = ClusterRuntime(plan)
        serial = runtime.run(x, 2, simulate=True, **run_kw)
        proc = runtime.run(x, 2, simulate=True, executor="process", **run_kw)
        assert np.array_equal(proc.field, serial.field)
        assert proc.counters == serial.counters
        assert proc.rank_plan_keys == (plan.compiled.key,)

    def test_child_reaching_another_plan_raises(self):
        w = get_kernel("Box-2D9P").weights
        plan = distribute(w, (16, 16), (2, 1))

        class SwappedConfigPool:
            """Runs the worker inline on a payload with another config."""

            def submit(self, fn, payload):
                payload["compile"]["config"] = OptimizationConfig(use_bvs=False)
                future = Future()
                try:
                    future.set_result(fn(payload))
                except Exception as exc:
                    future.set_exception(exc)
                return future

        sub = plan.part.subdomains[1]
        window = np.zeros(tuple(n + 2 for n in sub.shape))
        context = types.SimpleNamespace(is_recording=False)
        with pytest.raises(ExecutionError, match="rank 1 compiled plan"):
            process_advance(SwappedConfigPool(), 1, window, sub, plan, 1, context)

    def test_process_spans_revive_into_one_trace(self, rng):
        w = get_kernel("Heat-2D").weights
        x = rng.normal(size=(12, 12))
        plan = distribute(w, x.shape, (2, 1))
        runtime = ClusterRuntime(plan)
        with telemetry.capture() as tracer:
            runtime.run(x, 2, executor="process")
        roots = tracer.roots()
        spans = [s for root in roots for s in root.walk()]
        rank_spans = [s for s in spans if s.name == "cluster.rank"]
        # one revived lane per rank per round
        assert len(rank_spans) == 4
        assert {s.attrs["pid"] for s in rank_spans} & set(
            runtime.last_result.worker_pids
        )
        assert len({s.trace_id for s in spans}) == 1

    def test_revived_spans_are_monotonic_and_disjoint(self, rng):
        """Cross-process revival rebases worker clocks onto the parent
        timeline: per rank, the revived round lanes must come back in
        dispatch order, non-overlapping, and inside the run span."""
        w = get_kernel("Heat-2D").weights
        x = rng.normal(size=(16, 16))
        plan = distribute(w, x.shape, (2, 2), block_steps=2)
        runtime = ClusterRuntime(plan)
        with telemetry.capture() as tracer:
            runtime.run(x, 4, executor="process")
        run = next(
            s for root in tracer.roots() for s in root.walk()
            if s.name == "cluster.run"
        )
        rank_spans = [s for s in run.walk() if s.name == "cluster.rank"]
        assert rank_spans
        by_rank: dict[int, list] = {}
        for span in rank_spans:
            assert run.start_ns <= span.start_ns
            assert span.end_ns <= run.end_ns
            assert span.start_ns <= span.end_ns
            by_rank.setdefault(span.attrs["rank"], []).append(span)
        for lanes in by_rank.values():
            ordered = sorted(lanes, key=lambda s: s.start_ns)
            # dispatch order == round order: revival preserved it
            assert [s.attrs["round"] for s in ordered] == sorted(
                s.attrs["round"] for s in lanes
            )
            for prev, nxt in zip(ordered, ordered[1:]):
                assert prev.end_ns <= nxt.start_ns
            for span in ordered:
                for child in span.children:
                    assert span.start_ns <= child.start_ns
                    assert child.end_ns <= span.end_ns

    def test_process_simulated_counters_match_serial(self, rng):
        w = get_kernel("Heat-2D").weights
        x = rng.normal(size=(16, 16))
        plan = distribute(w, x.shape, (2, 1))
        runtime = ClusterRuntime(plan)
        serial = runtime.run(x, 2, simulate=True)
        proc = runtime.run(x, 2, simulate=True, executor="process")
        assert np.array_equal(proc.field, serial.field)
        assert proc.counters.as_dict() == serial.counters.as_dict()


class TestThreadFanOut:
    def test_rank_failure_is_typed_and_names_the_rank(self, rng):
        w = get_kernel("Heat-2D").weights
        x = rng.normal(size=(16, 16))
        runtime = ClusterRuntime(distribute(w, x.shape, (2, 2)))
        original = runtime._rank

        def sabotaged(st, rnd, rank):
            if rank == 2:
                raise RuntimeError("worker died")
            return original(st, rnd, rank)

        runtime._rank = sabotaged
        with pytest.raises(ExecutionError, match=r"rank 2 of 4") as excinfo:
            runtime.run(x, 2, executor="thread")
        assert isinstance(excinfo.value.__cause__, RuntimeError)


class TestFaultRecovery:
    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_rank_crash_recovers(self, rng, executor):
        w = get_kernel("Heat-2D").weights
        x = rng.normal(size=(16, 16))
        plan = distribute(w, x.shape, (2, 1))
        runtime = ClusterRuntime(plan)
        clean = runtime.run(x, 2).field
        faults = FaultPlan(
            specs=(FaultSpec(kind="shard_crash", site=1),)
        )
        result = runtime.run(
            x, 2, faults=faults, policy=FAST_POLICY, executor=executor
        )
        assert np.array_equal(result.field, clean)
        counts = result.fault_report.counts
        assert counts["shard_crashes"] >= 1
        assert counts["shard_recoveries"] >= 1
        assert counts["unrecovered"] == 0

    def test_crash_recovers_under_overlap_and_temporal(self, rng):
        w = get_kernel("Heat-2D").weights
        x = rng.normal(size=(20, 20))
        plan = distribute(w, x.shape, (2, 2))
        runtime = ClusterRuntime(plan)
        clean = runtime.run(x, 4, block_steps=2).field
        faults = FaultPlan(
            specs=(FaultSpec(kind="shard_crash", site=2),)
        )
        result = runtime.run(
            x,
            4,
            block_steps=2,
            overlap=True,
            faults=faults,
            policy=FAST_POLICY,
        )
        assert np.array_equal(result.field, clean)
        assert result.fault_report.counts["shard_recoveries"] >= 1

    def test_shard_events_emitted(self, rng):
        from repro.telemetry.log import EVENT_LOG

        w = get_kernel("Heat-2D").weights
        x = rng.normal(size=(12, 12))
        plan = distribute(w, x.shape, (2, 1))
        faults = FaultPlan(
            specs=(FaultSpec(kind="shard_crash", site=0),)
        )
        with telemetry.capture():
            ClusterRuntime(plan).run(
                x, 1, faults=faults, policy=FAST_POLICY
            )
            kinds = {e.kind for e in EVENT_LOG.events()}
        assert "shard.crash" in kinds
        assert "shard.recovered" in kinds

    def test_process_rejects_verified_sweeps(self, rng):
        # worker processes run unverified sweeps: rather than silently
        # dropping verify= and the injected MMA fault, the process
        # executor refuses the run before any rank starts
        w = get_kernel("Box-2D9P").weights
        x = rng.normal(size=(32, 32))
        runtime = ClusterRuntime(distribute(w, x.shape, (2, 1)))
        kwargs = dict(
            simulate=True,
            verify="abft",
            faults=FaultPlan([FaultSpec("flip_acc", site=0, sticky=True)]),
        )
        for executor in ("serial", "thread"):
            with pytest.raises(FaultError):
                runtime.run(x, 2, executor=executor, **kwargs)
        ledger = runtime.halo.exchanged_bytes
        with pytest.raises(BackendError, match="process"):
            runtime.run(x, 2, executor="process", **kwargs)
        assert runtime.halo.exchanged_bytes == ledger

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"verify": "abft"},
            {"faults": FaultPlan([FaultSpec("flip_a", site=0)])},
            {"faults": FaultPlan([FaultSpec("drop_commit", site=0)])},
        ],
        ids=["verify", "mma-fault", "stage-fault"],
    )
    @pytest.mark.parametrize(
        "executor, simulate",
        [("process", True), ("serial", False), ("thread", False)],
        ids=["process", "serial-functional", "thread-functional"],
    )
    def test_process_rejects_sweep_level_fault_modes(
        self, rng, kwargs, executor, simulate
    ):
        # sweep-level modes hook the simulated sweep: ranks that run none
        # in this process refuse them before any rank runs, instead of
        # reporting a run that verified or injected nothing
        w = get_kernel("Heat-2D").weights
        x = rng.normal(size=(16, 16))
        runtime = ClusterRuntime(distribute(w, x.shape, (2, 1)))
        ledger = runtime.halo.exchanged_bytes
        with pytest.raises(BackendError):
            runtime.run(x, 2, simulate=simulate, executor=executor, **kwargs)
        assert runtime.halo.exchanged_bytes == ledger


class TestTemporalAcrossDimensions:
    def test_temporal_1d(self, rng):
        w = get_kernel("1D5P").weights
        x = rng.normal(size=(64,))
        plan = distribute(w, x.shape, (4,))
        runtime = ClusterRuntime(plan)
        blocked = runtime.run(x, 6, block_steps=3)
        assert np.array_equal(blocked.field, runtime.run(x, 6).field)
        assert np.allclose(blocked.field, reference_iterate(x, w, 6), atol=1e-9)
        _, modelled = temporal_halo_bytes(runtime, steps=6, block_steps=3)
        assert blocked.exchanged_bytes == modelled

    @pytest.mark.parametrize("boundary", ["constant", "periodic"])
    def test_temporal_3d(self, rng, boundary):
        w = get_kernel("Heat-3D").weights
        x = rng.normal(size=(6, 12, 12))
        cluster = ClusterRuntime(
            distribute(w, x.shape, (1, 2, 2), boundary=boundary)
        )
        blocked = cluster.run(x, 4, block_steps=2)
        assert np.array_equal(blocked.field, cluster.run(x, 4).field)
        assert np.allclose(
            blocked.field,
            reference_iterate(x, w, 4, boundary=boundary),
            atol=1e-9,
        )
        assert blocked.exchanged_bytes > 0

    @pytest.mark.parametrize("boundary", ["constant", "periodic"])
    def test_diamond_matches_trapezoid(self, rng, boundary):
        w = get_kernel("Heat-2D").weights
        x = rng.normal(size=(24, 24))
        cluster = ClusterRuntime(
            distribute(w, x.shape, (2, 2), boundary=boundary)
        )
        trap = cluster.run(x, 8, block_steps=4)
        diam = cluster.run(x, 8, block_steps=4, tiling="diamond")
        assert np.array_equal(diam.field, trap.field)
        # diamond: shallower halos, more messages — fewer bytes per
        # round but twice the rounds at half depth
        assert diam.exchanged_bytes != trap.exchanged_bytes
        _, modelled = temporal_halo_bytes(
            cluster, steps=8, block_steps=4, tiling="diamond"
        )
        assert diam.exchanged_bytes == modelled

    def test_temporal_through_process_executor(self, rng):
        w = get_kernel("Heat-2D").weights
        x = rng.normal(size=(16, 16))
        cluster = ClusterRuntime(distribute(w, x.shape, (2, 1)))
        sync = cluster.run(x, 4, block_steps=2).field
        proc = cluster.run(x, 4, block_steps=2, executor="process").field
        assert np.array_equal(proc, sync)


class TestTimingModel:
    def test_overlap_step_model(self):
        w = get_kernel("Heat-2D").weights
        cluster = ClusterRuntime(distribute(w, (256, 256), (2, 2)))
        sync = cluster.timings(steps=10)
        over = cluster.timings(steps=10, overlap=True)
        assert sync.step_s == sync.compute_s + sync.comm_s
        assert over.step_s == max(over.comm_s, over.interior_s) + (
            over.boundary_s
        )
        assert over.step_s <= sync.step_s
        assert over.gstencil_per_s >= sync.gstencil_per_s > 0

    def test_temporal_blocking_cuts_comm(self):
        w = get_kernel("Heat-2D").weights
        cluster = ClusterRuntime(distribute(w, (256, 256), (2, 2)))
        per_step = cluster.timings(steps=10)
        blocked = cluster.timings(steps=10, block_steps=4)
        assert blocked.comm_s < per_step.comm_s
        assert blocked.block_steps == 4

    def test_interior_plus_boundary_is_compute(self):
        w = get_kernel("Heat-2D").weights
        cluster = ClusterRuntime(distribute(w, (128, 128), (2, 2)))
        t = cluster.timings()
        assert t.interior_s + t.boundary_s == pytest.approx(t.compute_s)
