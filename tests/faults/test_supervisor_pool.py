"""The one worker pool every fan-out shares.

``supervise_tasks`` runs every call on one process-wide thread pool:
the worker set stays fixed across calls, a call never runs more than
``max_workers`` of its tasks at once, nested calls complete, ladder
state never leaks from one call into the next, and a forked child
starts without the parent's pool.
"""

import json
import multiprocessing
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import telemetry
from repro.errors import ExecutionError
from repro.faults import FaultInjector, FaultPlan, FaultSpec, RecoveryPolicy
from repro.faults import supervisor
from repro.faults.supervisor import supervise_tasks
from repro.parallel import ClusterRuntime, distribute
from repro.stencil.kernels import get_kernel
from repro.telemetry.spans import TRACER

pytestmark = [
    pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning"),
]

SRC = Path(__file__).resolve().parents[2] / "src"


def _pool_idents() -> set[int]:
    return {
        t.ident
        for t in threading.enumerate()
        if t.name.startswith("repro-worker")
    }


def _cluster():
    """A ``cluster-temporal``-shaped run: Box-2D9P on a 2x2 mesh,
    trapezoid rounds of 4 steps, overlapped thread ranks."""
    w = get_kernel("Box-2D9P").weights
    plan = distribute(w, (64, 64), (2, 2), block_steps=4, tiling="trapezoid")
    runtime = ClusterRuntime(plan)
    x = np.random.default_rng(3).normal(size=(64, 64))
    return lambda: runtime.run(
        x, 8, overlap=True, executor="thread", max_workers=2
    ).field


def _verified_sharded():
    w = get_kernel("Box-2D9P").weights
    compiled = repro.compile(w)
    x = np.pad(np.random.default_rng(3).normal(size=(48, 48)), w.radius)
    return lambda: compiled.apply_simulated(
        x, verify="abft", shards=2, max_workers=2
    )[0]


class TestOnePool:
    def test_worker_set_and_thread_count_stay_fixed(self, monkeypatch):
        runs = [_cluster(), _verified_sharded()]
        firsts = [run() for run in runs]  # warm: builds the pool
        idents = _pool_idents()
        count = threading.active_count()
        assert 0 < len(idents) <= supervisor._POOL_SIZE
        ran_on: set[int] = set()
        original = supervisor._call

        def spy(gate, fn, args):
            ran_on.add(threading.get_ident())
            return original(gate, fn, args)

        monkeypatch.setattr(supervisor, "_call", spy)
        for _ in range(20):
            for run, first in zip(runs, firsts):
                assert run().tobytes() == first.tobytes()
                assert _pool_idents() == idents
                assert threading.active_count() <= count
        assert ran_on and ran_on <= idents

    @pytest.mark.parametrize("limit", [1, 2])
    def test_max_workers_bounds_concurrency(self, limit):
        lock = threading.Lock()
        running = [0]
        peak = [0]

        def task(i):
            with lock:
                running[0] += 1
                peak[0] = max(peak[0], running[0])
            time.sleep(0.005)
            with lock:
                running[0] -= 1
            return i

        tasks = {i: () for i in range(8)}
        assert supervise_tasks(tasks, task, max_workers=limit) == {
            i: i for i in range(8)
        }
        assert peak[0] <= limit
        # the ladder path takes the same gate
        report = FaultInjector(FaultPlan(specs=())).report
        policy = RecoveryPolicy(shard_timeout_s=5.0)
        peak[0] = 0
        supervise_tasks(tasks, task, policy, report, max_workers=limit)
        assert peak[0] <= limit

    def test_concurrent_calls_keep_their_own_bound(self):
        # more calling threads than cores, each with its own one-at-a-time
        # call on the shared pool, under a short switch interval: a call
        # that ran two of its tasks at once, or lost one, fails
        calls, peaks, done = 6, {}, {}
        lock = threading.Lock()

        def call(c):
            running = [0]

            def task(i):
                with lock:
                    running[0] += 1
                    peaks[c] = max(peaks.get(c, 0), running[0])
                time.sleep(0.001)
                with lock:
                    running[0] -= 1
                return c * 100 + i

            done[c] = supervise_tasks(
                {i: () for i in range(6)}, task, max_workers=1
            )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=call, args=(c,), daemon=True)
                for c in range(calls)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert peaks == {c: 1 for c in range(calls)}
        assert done == {
            c: {i: c * 100 + i for i in range(6)} for c in range(calls)
        }

    def test_call_returns_after_every_task(self):
        finished = []

        def task(i):
            if i == 0:
                raise ValueError("boom")
            time.sleep(0.05)
            finished.append(i)

        with pytest.raises(ExecutionError):
            supervise_tasks({i: () for i in range(3)}, task, max_workers=3)
        assert sorted(finished) == [1, 2]

    def test_nested_call_completes(self):
        # twice as many outer tasks as workers, each fanning out again:
        # with every worker inside an outer task, a nested call that
        # queued onto the pool would wait forever
        n = 2 * supervisor._POOL_SIZE

        def inner(j, i):
            return i * 10 + j

        def outer(i):
            return supervise_tasks({j: (i,) for j in range(3)}, inner)

        done = []
        thread = threading.Thread(
            target=lambda: done.append(
                supervise_tasks({i: () for i in range(n)}, outer)
            ),
            daemon=True,
        )
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive(), "nested supervise_tasks deadlocked"
        assert done[0] == {
            i: {j: i * 10 + j for j in range(3)} for i in range(n)
        }

    def test_span_stack_is_empty_at_every_task_start(self, monkeypatch):
        depths = []
        original = supervisor._call

        def spy(gate, fn, args):
            depths.append(TRACER.current())
            return original(gate, fn, args)

        def leaky(i):
            with TRACER.span("leak.probe"):
                if i == 1:
                    raise ValueError("leave the span by an exception")

        monkeypatch.setattr(supervisor, "_call", spy)
        with telemetry.capture():
            cluster, sharded = _cluster(), _verified_sharded()
            for _ in range(2):
                cluster()
                sharded()
                with pytest.raises(ExecutionError):
                    supervise_tasks({i: () for i in range(4)}, leaky)
        assert depths and all(top is None for top in depths)


_NEXT_CALL = """
import hashlib, json
import numpy as np
import repro
from repro.faults import FaultInjector, FaultPlan, FaultSpec, RecoveryPolicy

def next_call():
    w = repro.get_kernel("Box-2D9P").weights
    x = np.pad(np.random.default_rng(5).normal(size=(48, 48)), w.radius)
    inj = FaultInjector(FaultPlan(specs=(FaultSpec(kind="shard_crash", site=2),)))
    out, events = repro.compile(w).apply_simulated(
        x, shards=3, faults=inj, verify="abft",
        policy=RecoveryPolicy(shard_timeout_s=5.0, backoff_base_s=0.001,
                              backoff_cap_s=0.01),
    )
    return {
        "out": hashlib.sha256(out.tobytes()).hexdigest(),
        "events": events.as_dict(),
        "report": inj.report.as_dict(),
    }
"""


class TestLadderLeavesNoState:
    def test_next_call_matches_a_fresh_process(self):
        scope: dict = {}
        exec(_NEXT_CALL, scope)
        next_call = scope["next_call"]
        fresh = subprocess.run(
            [
                sys.executable,
                "-c",
                _NEXT_CALL + "print(json.dumps(next_call()))",
            ],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True,
            text=True,
            check=True,
        )
        w = get_kernel("Box-2D9P").weights
        x = np.pad(np.random.default_rng(4).normal(size=(48, 48)), w.radius)
        inj = FaultInjector(
            FaultPlan(
                specs=(
                    FaultSpec(kind="shard_crash", site=0),
                    FaultSpec(kind="shard_hang", site=1, hang_s=0.4),
                )
            )
        )
        repro.compile(w).apply_simulated(
            x,
            shards=3,
            faults=inj,
            policy=RecoveryPolicy(
                shard_timeout_s=0.1, backoff_base_s=0.001, backoff_cap_s=0.01
            ),
        )
        counts = inj.report.as_dict()
        assert counts["shard"]["crashes"] == 1
        assert counts["shard"]["timeouts"] >= 1
        assert next_call() == json.loads(fresh.stdout.strip().splitlines()[-1])


def _child_pool_state(queue):
    queue.put(supervisor._POOL is None)


class TestProcessesAfterThreads:
    def test_process_run_after_thread_runs(self):
        w = get_kernel("Heat-2D").weights
        x = np.random.default_rng(2).normal(size=(16, 16))
        runtime = ClusterRuntime(distribute(w, x.shape, (2, 1)))
        serial = runtime.run(x, 4, block_steps=2).field
        for _ in range(3):
            runtime.run(x, 4, block_steps=2, executor="thread", overlap=True)
        assert supervisor._POOL is not None
        proc = runtime.run(x, 4, block_steps=2, executor="process")
        assert proc.field.tobytes() == serial.tobytes()

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="needs the fork start method",
    )
    def test_forked_child_does_not_inherit_the_pool(self):
        supervise_tasks({0: ()}, lambda i: i)
        assert supervisor._POOL is not None
        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        child = ctx.Process(target=_child_pool_state, args=(queue,))
        child.start()
        assert queue.get(timeout=30) is True
        child.join(timeout=30)
        assert child.exitcode == 0
