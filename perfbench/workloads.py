"""The four reference workloads: one op shape each, inputs from the seed.

Every workload is a closed loop with one client: the runner calls
:meth:`Workload.op` again only after the previous op returned.  All ops
of a workload have the same kernel, grid shape and execution path, so
the per-op latency distribution has one mode.

A workload exposes:

* ``cold_setup()`` -- the cold ``repro.compile`` / ``distribute`` of its
  plan (the runner clears the plan cache first, then times this plus
  the first op as ``setup_s``);
* ``reference()`` -- the expected outputs, computed once through an
  independent path before any timed op;
* ``op()`` -- one timed operation, returning ``(output, extra)``;
* ``check(output, extra)`` -- bit-for-bit comparison with the
  reference, run outside the timed region;
* ``counts(extra)`` -- exact per-op counts for the traced ledger.
"""

from __future__ import annotations

import numpy as np

import repro
from repro.parallel import ClusterRuntime, distribute

#: backend the plans are compiled for, pinned so the ``REPRO_BACKEND``
#: environment default cannot change the plan under test
PLAN_BACKEND = "interpreter"


def _kernel(name: str):
    return repro.get_kernel(name).weights


def _event_counts(events) -> dict[str, int]:
    return {
        "tcu.mma_ops": events.mma_ops,
        "tcu.global_load_bytes": events.global_load_bytes,
        "tcu.global_store_bytes": events.global_store_bytes,
        "tcu.shared_load_requests": events.shared_load_requests,
    }


class Workload:
    """Shared shape of the four workloads (see the module docstring)."""

    name = ""
    #: stencil point-updates one op completes (grid points x steps)
    points_per_op = 0

    def __init__(self, seed: int, workers: int) -> None:
        self.rng = np.random.default_rng(seed)
        self.workers = workers
        self.expected = None

    def cold_setup(self) -> None:
        raise NotImplementedError

    def reference(self) -> None:
        raise NotImplementedError

    def op(self):
        raise NotImplementedError

    def check(self, output, extra) -> bool:
        return self.expected is not None and np.array_equal(output, self.expected)

    def counts(self, extra) -> dict[str, int]:
        return {}


class FunctionalSteps(Workload):
    """Plain single-device baseline: plan-cache hit + 4 functional steps."""

    name = "functional-steps"
    shape = (512, 512)
    steps = 4
    points_per_op = 512 * 512 * 4

    def __init__(self, seed: int, workers: int) -> None:
        super().__init__(seed, workers)
        self.weights = _kernel("Box-2D9P")
        self.x = self.rng.normal(size=self.shape)

    def cold_setup(self) -> None:
        repro.compile(self.weights, backend=PLAN_BACKEND)

    def op(self):
        compiled = repro.compile(self.weights, backend=PLAN_BACKEND)
        y = self.x
        for _ in range(self.steps):
            y = compiled.apply_grid(y, boundary="constant")
        return y, None

    def reference(self) -> None:
        # the functional path is in the bounded contract class: each step
        # is checked against reference_apply at the tier-1 tolerance, and
        # later ops must reproduce this output bit for bit
        compiled = repro.compile(self.weights, backend=PLAN_BACKEND)
        h = compiled.radius
        y = self.x
        for _ in range(self.steps):
            nxt = compiled.apply_grid(y, boundary="constant")
            want = repro.reference_apply(np.pad(y, h), self.weights)
            if not np.allclose(nxt, want, rtol=1e-7, atol=1e-12):
                return
            y = nxt
        self.expected = y


class SimVectorized(Workload):
    """Vectorized TCU simulation: the batched walk plus the counter probe."""

    name = "sim-vectorized"
    shape = (256, 256)
    points_per_op = 256 * 256

    def __init__(self, seed: int, workers: int) -> None:
        super().__init__(seed, workers)
        self.weights = _kernel("Star-2D13P")
        self.padded = np.pad(self.rng.normal(size=self.shape), self.weights.radius)
        self.expected_events = None

    def cold_setup(self) -> None:
        repro.compile(self.weights, backend=PLAN_BACKEND)

    def op(self):
        compiled = repro.compile(self.weights, backend=PLAN_BACKEND)
        return compiled.apply_simulated(self.padded, backend="vectorized")

    def reference(self) -> None:
        compiled = repro.compile(self.weights, backend=PLAN_BACKEND)
        self.expected, self.expected_events = compiled.apply_simulated(
            self.padded, backend="interpreter"
        )

    def check(self, output, events) -> bool:
        return super().check(output, events) and events == self.expected_events

    def counts(self, events) -> dict[str, int]:
        return _event_counts(events)


class ClusterTemporal(Workload):
    """2x2 mesh, trapezoid temporal blocking, overlapped thread executor."""

    name = "cluster-temporal"
    shape = (512, 512)
    mesh = (2, 2)
    steps = 16
    block_steps = 4
    points_per_op = 512 * 512 * 16

    def __init__(self, seed: int, workers: int) -> None:
        super().__init__(seed, workers)
        self.weights = _kernel("Box-2D9P")
        self.field = self.rng.normal(size=self.shape)
        self.cluster = None

    def _plan(self):
        return distribute(
            self.weights,
            self.shape,
            mesh=self.mesh,
            block_steps=self.block_steps,
            tiling="trapezoid",
            backend=PLAN_BACKEND,
        )

    def cold_setup(self) -> None:
        self.cluster = ClusterRuntime(self._plan())

    def op(self):
        result = self.cluster.run(
            self.field,
            steps=self.steps,
            overlap=True,
            executor="thread",
            max_workers=self.workers,
        )
        return result.field, result

    def reference(self) -> None:
        self.expected = (
            ClusterRuntime(self._plan())
            .run(
                self.field,
                steps=self.steps,
                block_steps=1,
                overlap=False,
                executor="serial",
            )
            .field
        )

    def counts(self, result) -> dict[str, int]:
        return {
            "parallel.rounds": result.rounds,
            "parallel.halo_bytes": result.exchanged_bytes,
        }


class VerifiedSharded(Workload):
    """Interpreter sweep under ABFT verification, two supervised shards."""

    name = "verified-sharded"
    shape = (48, 48)
    shards = 2
    points_per_op = 48 * 48

    def __init__(self, seed: int, workers: int) -> None:
        super().__init__(seed, workers)
        self.weights = _kernel("Box-2D9P")
        self.padded = np.pad(self.rng.normal(size=self.shape), self.weights.radius)
        self.compiled = None
        self.expected_mma_ops = None

    def cold_setup(self) -> None:
        self.compiled = repro.compile(self.weights, backend=PLAN_BACKEND)

    def op(self):
        out, events = self.compiled.apply_simulated(
            self.padded,
            backend="interpreter",
            verify="abft",
            shards=self.shards,
            max_workers=self.workers,
        )
        return out, (events, self.compiled.last_fault_report)

    def reference(self) -> None:
        compiled = repro.compile(self.weights, backend=PLAN_BACKEND)
        self.expected, events = compiled.apply_simulated(
            self.padded, backend="vectorized"
        )
        # shards compute exactly the unsharded tiles; only DRAM halo
        # reads duplicate at the seam
        self.expected_mma_ops = events.mma_ops

    def check(self, output, extra) -> bool:
        events, report = extra
        return (
            super().check(output, extra)
            and report.total_detected == 0
            and events.mma_ops == self.expected_mma_ops
        )

    def counts(self, extra) -> dict[str, int]:
        events, report = extra
        return {**_event_counts(events), "faults.detections": report.total_detected}


WORKLOADS = {
    cls.name: cls
    for cls in (FunctionalSteps, SimVectorized, ClusterTemporal, VerifiedSharded)
}
