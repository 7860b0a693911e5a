"""The cluster runtime: executing a :class:`DistributedPlan`.

:class:`ClusterRuntime` timesteps a global 1D/2D/3D problem across a
device mesh by driving the *runtime* — every rank executes the plan's
compiled :class:`~repro.runtime.facade.CompiledStencil`, so distributed
runs honor ``backend=``, the plan cache, fault injection/ABFT, and the
trace/event telemetry planes exactly like single-device sweeps.
One round loop over named phase methods (exchange, halo guard, rank
dispatch and advance, fold, checkpoint, elastic re-plan) serves every
mode:

* per-step exchange (``block_steps=1``, the classic halo pipeline),
* temporal blocking (trapezoid/diamond rounds from the plan's
  :class:`~repro.parallel.plan.HaloSchedule`),
* overlapped execution (``overlap=True``): the halo transfer is issued
  asynchronously (``cp.async`` model) and each rank computes its
  halo-independent interior *while the transfer is in flight*, then
  finishes the boundary strips after arrival — bit-identical to the
  synchronous exchange by the overlap-equivalence suite,
* serial / thread / process executors; process ranks run in worker
  processes under the shared recovery ladder with their spans revived
  into the parent trace.

A run's fault arguments are decided once, in ``_start``, by
:func:`repro.faults.arm_faults`: a clean run arms nothing, a fault run
carries one :class:`~repro.faults.ArmedFaults` record (injector,
report, policy) through every phase.  ``verify=`` and
MMA/staging faults need simulated ranks in this process; functional and
process ranks refuse them before any rank runs.

It produces the exact global trajectory (validated against the
single-grid reference) plus a scaling-time model
(:class:`ClusterTimings`) with an NVLink-like interconnect.  Build one
with ``ClusterRuntime(distribute(weights, shape, mesh))``.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from repro import telemetry
from repro.errors import FaultError
from repro.faults import HALO_KINDS, ArmedFaults, arm_faults
from repro.parallel.checkpoint import (
    CheckpointConfig,
    CheckpointError,
    CheckpointHalt,
    ClusterCheckpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.parallel.decomposition import Partition
from repro.parallel.distributed import (
    advance_window,
    frame_regions,
    interior_of,
    process_advance,
    strip_window,
)
from repro.parallel.halo import AsyncHaloHandle, HaloExchanger
from repro.parallel.plan import DistributedPlan, HaloSchedule, distribute
from repro.perf.costmodel import time_per_point
from repro.perf.machine import A100, MachineSpec
from repro.runtime.executor import validate_finite
from repro.stencil.weights import StencilWeights
from repro.tcu.counters import EventCounters
from repro.telemetry.context import TraceContext
from repro.telemetry.log import emit as emit_event
from repro.telemetry.spans import TRACER

__all__ = [
    "ClusterRuntime",
    "ClusterResult",
    "ClusterTimings",
    "NVLINK_BANDWIDTH",
    "NVLINK_LATENCY",
    "EXECUTORS",
]

#: per-direction NVLink3 bandwidth of an A100 system, B/s
NVLINK_BANDWIDTH = 600e9

#: per-message NVLink hop latency, s — the fixed cost every exchange
#: round pays once, which temporal blocking amortizes over block_steps
NVLINK_LATENCY = 1e-7

#: rank execution strategies ``ClusterRuntime.run`` understands
EXECUTORS = ("serial", "thread", "process")


@dataclass(frozen=True)
class ClusterTimings:
    """Modelled per-step timing of one cluster configuration.

    The original fields model the synchronous pipeline (``step_s =
    compute_s + comm_s``); the defaulted extensions model the
    overlapped one, where the interior sweep hides the transfer:
    ``step_s = max(comm_s, interior_s) + boundary_s``.  ``comm_s`` is
    always the *per-step equivalent* interconnect time (a temporal
    round's deep exchange amortized over its ``block_steps``).
    """

    num_devices: int
    compute_s: float  # slowest device's sweep
    comm_s: float  # largest halo transfer, per-step equivalent
    steps: int
    overlap: bool = False
    interior_s: float = 0.0  # halo-independent part of compute_s
    boundary_s: float = 0.0  # strips that must wait for arrival
    points: int = 0  # global grid points updated per step
    block_steps: int = 1

    @property
    def step_s(self) -> float:
        if self.overlap:
            return max(self.comm_s, self.interior_s) + self.boundary_s
        return self.compute_s + self.comm_s

    @property
    def total_s(self) -> float:
        return self.step_s * self.steps

    def speedup_over(self, other: "ClusterTimings") -> float:
        """How much faster this configuration is than ``other``."""
        return other.total_s / self.total_s

    @property
    def comm_fraction(self) -> float:
        return self.comm_s / self.step_s if self.step_s else 0.0

    @property
    def gstencil_per_s(self) -> float:
        """Modelled throughput in giga stencil-point updates per second."""
        return self.points / self.step_s / 1e9 if self.step_s else 0.0


@dataclass
class ClusterResult:
    """Everything one :meth:`ClusterRuntime.run` produced."""

    field: np.ndarray
    steps: int
    phases: tuple[int, ...]
    exchanged_bytes: int
    counters: EventCounters | None = None
    fault_report: object | None = None
    backend: str | None = None
    executor: str = "serial"
    overlap: bool = False
    worker_pids: tuple[int, ...] = ()
    rank_plan_keys: tuple[str, ...] = ()
    #: per-round exchange ledger: one dict per halo exchange with
    #: ``round`` / ``steps`` / ``depth`` / ``halo_bytes`` (this round's
    #: bit-exact contribution to :attr:`exchanged_bytes`) and
    #: ``comm_bytes_max`` (the largest single-rank receive, the volume
    #: the :class:`ClusterTimings` interconnect model charges)
    round_log: tuple[dict, ...] = ()
    #: the plan this run executed (the report needs its partition and
    #: timing model); ``None`` only for hand-built results
    plan: DistributedPlan | None = None
    #: trace id of the run's ``cluster.run`` span (None when telemetry
    #: was off) — :meth:`report` finds the span forest by it
    trace_id: str | None = None
    #: halo bytes inherited from the checkpoint a resumed run restarted
    #: from (already part of :attr:`exchanged_bytes` and the restored
    #: :attr:`round_log`, which both span the *whole* run)
    resumed_halo_bytes: int = 0
    #: resilience ledger (checkpoints saved/restored, halo detections
    #: and retransmits, elastic re-plans) — ``None`` when the run used
    #: none of the resilience machinery
    resilience: dict | None = None

    @property
    def rounds(self) -> int:
        """Halo exchanges performed (messages per rank)."""
        return len(self.phases)

    def report(self, tracer=None):
        """Post-process this run into a cluster observatory report.

        Delegates to :func:`repro.telemetry.cluster.build_cluster_report`
        against the merged trace (the run must have executed under
        ``telemetry.capture()`` / an enabled tracer).  Raises
        :class:`~repro.telemetry.validate.TelemetryError` when no
        ``cluster.run`` span of this run is in the tracer's buffer.
        """
        from repro.telemetry.cluster import build_cluster_report

        return build_cluster_report(self, tracer=tracer)


def _fresh_resilience() -> dict:
    return {
        "checkpoints": {"saved": 0, "restored": 0},
        "halo": {"detections": 0, "retransmits": 0, "recoveries": 0},
        "replans": [],
        "reassignments": 0,
    }


@dataclass
class _Run:
    """Mutable state of one :meth:`ClusterRuntime.run`, threaded through
    its phase methods."""

    schedule: HaloSchedule
    steps: int
    overlap: bool
    executor: str
    simulate: bool
    max_workers: int | None
    checkpoint: CheckpointConfig | None
    elastic: bool
    phases: tuple[int, ...] = ()
    backend: str | None = None  # resolved; simulated runs only
    armed: ArmedFaults | None = None  # None: a clean run
    halo_guard: bool = False
    resumed: ClusterCheckpoint | None = None
    blocks: dict[int, np.ndarray] = field(default_factory=dict)
    last_round_done: int = -1
    exchanged: int = 0
    round_bytes: int = 0  # the open round's bytes, across elastic retries
    resumed_bytes: int = 0
    round_log: list[dict] = field(default_factory=list)
    counters: EventCounters | None = None
    pids: set[int] = field(default_factory=set)
    plan_keys: set[str] = field(default_factory=set)
    saved_rounds: set[int] = field(default_factory=set)
    resilience: dict = field(default_factory=_fresh_resilience)
    pool: ProcessPoolExecutor | None = None
    ctx: TraceContext | None = None
    trace_id: str | None = None


@dataclass
class _Round:
    """One round's halo exchange, feeding every rank's advance."""

    index: int
    steps: int
    depth: int
    exchanger: HaloExchanger
    windows: dict[int, np.ndarray] | None = None  # synchronous exchange
    handle: AsyncHaloHandle | None = None  # overlapped, still in flight


class ClusterRuntime:
    """A mesh of simulated devices executing one distributed plan."""

    def __init__(
        self, plan: DistributedPlan, machine: MachineSpec = A100
    ) -> None:
        self.plan = plan
        self.machine = machine
        self.part: Partition = plan.part
        # one exchanger per halo depth, shared across runs (each run
        # keeps its own byte ledger from its exchange calls)
        self._exchangers: dict[int, HaloExchanger] = {}
        self.last_result: ClusterResult | None = None
        self.last_fault_report = None
        #: free-form run description stored in checkpoint manifests so
        #: ``repro cluster resume`` can rebuild the plan (the CLI fills
        #: this in; library callers may leave it empty)
        self.checkpoint_meta: dict = {}

    # ------------------------------------------------------------------
    def exchanger(self, depth: int) -> HaloExchanger:
        """The shared halo exchanger for one halo depth."""
        ex = self._exchangers.get(depth)
        if ex is None:
            ex = self.plan.exchanger(depth)
            self._exchangers[depth] = ex
        return ex

    @property
    def halo(self) -> HaloExchanger:
        """The per-step (radius-deep) halo exchanger."""
        return self.exchanger(self.plan.radius)

    def scatter(self, global_field: np.ndarray) -> dict[int, np.ndarray]:
        """Distribute a global field onto the device mesh.

        The one finiteness check of a run's input: ranks apply the
        engine directly to windows the run produced itself.
        """
        global_field = np.asarray(global_field, dtype=np.float64)
        if global_field.shape != self.part.global_shape:
            raise ValueError(
                f"field shape {global_field.shape} != partition "
                f"{self.part.global_shape}"
            )
        validate_finite(global_field, "cluster input field")
        return {
            sub.rank: global_field[sub.slices].copy()
            for sub in self.part.subdomains
        }

    def gather(self, blocks: dict[int, np.ndarray]) -> np.ndarray:
        """Reassemble the global field."""
        out = np.empty(self.part.global_shape, dtype=np.float64)
        for sub in self.part.subdomains:
            out[sub.slices] = blocks[sub.rank]
        return out

    # ------------------------------------------------------------------
    def run(
        self,
        global_field: np.ndarray,
        steps: int,
        *,
        block_steps: int | None = None,
        tiling: str | None = None,
        overlap: bool = False,
        executor: str = "serial",
        simulate: bool = False,
        backend: str | None = None,
        verify: str | None = None,
        faults=None,
        policy=None,
        max_workers: int | None = None,
        checkpoint: CheckpointConfig | None = None,
        resume_from: ClusterCheckpoint | str | None = None,
        elastic: bool = False,
    ) -> ClusterResult:
        """Timestep the global problem; returns a :class:`ClusterResult`.

        ``block_steps`` / ``tiling`` override the plan's halo schedule
        for this run (temporal blocking); ``overlap=True`` issues each
        exchange asynchronously and computes interiors while it is in
        flight; ``executor`` picks how ranks run within a round
        (``"serial"`` / ``"thread"`` / ``"process"``).  ``simulate=True``
        runs the faithful TCU sweep per rank (merged
        :class:`~repro.tcu.counters.EventCounters` on the result) under
        ``backend=``; ``verify`` / ``faults`` / ``policy`` arm the
        fault-tolerance ladder — injected ``shard``/``rank`` faults
        target ranks and recover through the shared supervisor, and
        armed halo faults are caught by strip-checksum verification of
        every exchanged window (with bounded retransmission).
        ``verify=`` and MMA/staging faults hook the simulated sweep, so
        they need ``simulate=True`` ranks in this process: functional
        ranks and ``executor="process"`` (whose workers run unverified
        sweeps) reject them with a :class:`~repro.errors.BackendError`
        before any rank runs.

        ``checkpoint`` snapshots the run at temporal-round barriers
        (see :class:`~repro.parallel.checkpoint.CheckpointConfig`);
        ``resume_from`` continues a checkpointed run — ``global_field``
        is ignored then (the blocks come from the snapshot) and the
        completed trajectory is bit-identical to an uninterrupted run.
        ``elastic=True`` lets a rank that exhausts its recovery ladder
        be *dropped*: the surviving ranks re-partition the grid via
        :func:`~repro.parallel.plan.distribute`, replay the failed
        round from its barrier state, and finish the sweep —
        bit-identically, because the per-point update chains are
        partition-independent.  All modes produce bit-identical
        trajectories (the equivalence suite asserts it).
        """
        st = _Run(
            schedule=self.plan.schedule,
            steps=steps,
            overlap=overlap,
            executor=executor,
            simulate=simulate,
            max_workers=max_workers,
            checkpoint=checkpoint,
            elastic=elastic,
        )
        self._start(
            st, global_field, block_steps, tiling, verify, faults, policy,
            backend, resume_from,
        )
        with self._run_span(st) as run_span:
            st.ctx = TraceContext.capture()
            st.trace_id = run_span.trace_id
            try:
                if executor == "process":
                    st.pool = ProcessPoolExecutor(
                        max_workers=max_workers
                        or min(self.part.num_devices, os.cpu_count() or 1)
                    )
                round_i = st.last_round_done + 1
                while round_i < len(st.phases):
                    rnd = self._exchange(st, round_i)
                    try:
                        if st.halo_guard and rnd.depth > 0:
                            self._guard_halos(st, rnd)
                        results = self._dispatch(st, rnd)
                    except FaultError as exc:
                        dead = getattr(exc, "failed_task", None)
                        if not st.elastic or dead is None or (
                            self.part.num_devices <= 1
                        ):
                            raise
                        self._replan(st, dead, round_i)
                        continue
                    self._fold(st, rnd, results)
                    self._checkpoint(st, round_i)
                    round_i += 1
            except KeyboardInterrupt:
                self._interrupted(st)
                raise
            finally:
                if st.pool is not None:
                    st.pool.shutdown(wait=True)
            self._close_span(st, run_span)

        result = ClusterResult(
            field=self.gather(st.blocks),
            steps=steps,
            phases=st.phases,
            exchanged_bytes=st.exchanged,
            counters=st.counters,
            fault_report=st.armed.report if st.armed is not None else None,
            backend=st.backend,
            executor=executor,
            overlap=overlap,
            worker_pids=tuple(sorted(st.pids)),
            rank_plan_keys=tuple(sorted(st.plan_keys)),
            round_log=tuple(st.round_log),
            plan=self.plan,
            trace_id=st.trace_id,
            resumed_halo_bytes=st.resumed_bytes,
            resilience=(
                st.resilience
                if checkpoint is not None
                or st.resumed is not None
                or elastic
                or st.halo_guard
                else None
            ),
        )
        self.last_result = result
        return result

    # ------------------------------------------------------------------
    # run phases
    # ------------------------------------------------------------------
    def _start(
        self, st: _Run, global_field, block_steps, tiling, verify, faults,
        policy, backend, resume_from,
    ) -> None:
        """Validate a run's options and complete its state: the
        effective schedule, the armed faults, the backend and the
        round-0 blocks (scattered, or restored from a checkpoint)."""
        if st.executor not in EXECUTORS:
            raise ValueError(
                f"executor must be one of {EXECUTORS}, got {st.executor!r}"
            )
        if block_steps is not None or tiling is not None:
            st.schedule = replace(
                st.schedule,
                block_steps=(
                    st.schedule.block_steps
                    if block_steps is None
                    else block_steps
                ),
                tiling=st.schedule.tiling if tiling is None else tiling,
            )
        st.phases = st.schedule.phases(st.steps)  # validates steps >= 0
        if st.simulate:
            st.counters = EventCounters()
        st.backend, st.armed = arm_faults(
            verify,
            faults,
            policy,
            backend=backend,
            plan_default=self.plan.backend,
            kind=(
                "functional"
                if not st.simulate
                else "process" if st.executor == "process" else "sweep"
            ),
        )
        if st.armed is not None:
            self.last_fault_report = st.armed.report
            injector = st.armed.injector
            st.halo_guard = injector is not None and bool(
                injector.plan.by_kind(*HALO_KINDS)
            )

        if isinstance(resume_from, str):
            resume_from = load_checkpoint(resume_from)
        if resume_from is None:
            st.blocks = self.scatter(global_field)
        else:
            self._restore(st, resume_from)

    def _restore(self, st: _Run, ck: ClusterCheckpoint) -> None:
        """Continue from a checkpoint's barrier state and ledgers."""
        if ck.plan_key != self.plan.key:
            raise CheckpointError(
                "checkpoint was taken against a different distributed "
                f"plan (checkpoint {ck.plan_key[:12]}…, current "
                f"{self.plan.key[:12]}…)"
            )
        phases = [int(p) for p in st.phases]
        if list(ck.phases) != phases or ck.steps != st.steps:
            raise CheckpointError(
                "checkpoint phase schedule does not match this run "
                f"(checkpoint {ck.phases} over {ck.steps} steps, current "
                f"{phases} over {st.steps})"
            )
        st.resumed = ck
        st.blocks = {
            rank: np.array(block, dtype=np.float64)
            for rank, block in ck.blocks.items()
        }
        for rank, block in st.blocks.items():
            validate_finite(block, f"checkpoint block of rank {rank}")
        st.exchanged = st.resumed_bytes = int(ck.exchanged_bytes)
        st.round_log = [dict(entry) for entry in ck.round_log]
        st.last_round_done = ck.round_index
        st.resilience["checkpoints"]["restored"] = 1
        armed = st.armed
        if armed is not None and armed.injector is not None and ck.fault_state:
            armed.injector.load_state(ck.fault_state)

    def _run_span(self, st: _Run):
        """The run's root ``cluster.run`` span (continuing the trace of
        a resumed run, so its rounds merge into one tree)."""
        attrs = dict(
            category="parallel",
            plan=self.plan.key[:16],
            devices=self.plan.num_devices,
            steps=st.steps,
            rounds=len(st.phases),
            tiling=st.schedule.tiling,
            overlap=st.overlap,
            executor=st.executor,
        )
        if st.resumed is not None:
            attrs["resumed_from_round"] = st.resumed.round_index
            if st.resumed.trace_id and TRACER.enabled:
                return TraceContext(st.resumed.trace_id, None).span(
                    "cluster.run", **attrs
                )
        return telemetry.span("cluster.run", **attrs)

    def _exchange(self, st: _Run, round_i: int) -> _Round:
        """Issue one round's halo exchange.

        Overlapped runs commit it asynchronously (``cp.async``): the
        blocks are snapshotted into the staging buffer before this
        returns and the transfer materializes on the exchanger's
        background lane while ranks compute their interiors.  Halo
        verification needs the materialized windows before any rank
        computes, so the halo guard forces the synchronous path.  The
        round's bytes join ``st.round_bytes``, which keeps an aborted
        elastic attempt's traffic in the round's ledger entry.
        """
        k = st.phases[round_i]
        depth = st.schedule.depth(k)
        rnd = _Round(round_i, k, depth, self.exchanger(depth))
        mode = "async" if st.overlap and not st.halo_guard else "sync"
        with telemetry.span(
            "cluster.exchange",
            category="parallel",
            round=round_i,
            depth=depth,
            mode=mode,
        ) as span:
            if mode == "async":
                rnd.handle = rnd.exchanger.exchange_async(st.blocks)
            else:
                rnd.windows = rnd.exchanger.exchange(st.blocks)
            moved = rnd.exchanger.total_bytes_per_exchange()
            st.round_bytes += moved
            span.annotate(bytes=moved)
        return rnd

    def _guard_halos(self, st: _Run, rnd: _Round) -> None:
        """Verify every exchanged window's frame strips at tolerance 0
        against the sender-side checksums, with a bounded
        retransmission ladder; an exhausted window escalates to a rank
        failure (``failed_task`` set) so the elastic re-plan treats the
        corrupting link's receiver as dead."""
        from repro.faults.abft import halo_frame_checksums

        # only runs when halo faults are armed (``st.halo_guard``)
        report, injector = st.armed.report, st.armed.injector
        halo = st.resilience["halo"]
        windows, round_i, depth = rnd.windows, rnd.index, rnd.depth
        retransmits = st.armed.policy.max_halo_retransmits
        # sender-side strip checksums, before any wire fault
        sent = {
            rank: halo_frame_checksums(win, depth)
            for rank, win in windows.items()
        }
        injector.on_halo(windows, round_i, depth)
        for rank in sorted(windows):
            if halo_frame_checksums(windows[rank], depth) == sent[rank]:
                continue
            report.bump("halo_detections")
            halo["detections"] += 1
            emit_event(
                "halo.corrupt_detected",
                level="warning",
                message=(
                    f"halo window of rank {rank} failed strip-checksum "
                    f"verification in round {round_i}"
                ),
                rank=rank,
                round=round_i,
                depth=depth,
            )
            for retry in range(retransmits):
                report.bump("halo_retransmits")
                halo["retransmits"] += 1
                win = rnd.exchanger.retransmit(rank)
                st.round_bytes += rnd.exchanger.bytes_per_exchange(rank)
                # sticky wire faults re-corrupt the replacement
                injector.on_halo_window(win, round_i, rank, depth)
                windows[rank] = win
                if halo_frame_checksums(win, depth) == sent[rank]:
                    report.bump("halo_recoveries")
                    halo["recoveries"] += 1
                    emit_event(
                        "halo.recovered",
                        message=(
                            f"rank {rank} halo verified after "
                            "retransmission"
                        ),
                        rank=rank,
                        round=round_i,
                        attempt=retry + 1,
                    )
                    break
            else:
                report.bump("unrecovered")
                emit_event(
                    "halo.unrecovered",
                    level="error",
                    message=(
                        f"halo window of rank {rank} exhausted "
                        f"{retransmits} retransmissions"
                    ),
                    rank=rank,
                    round=round_i,
                )
                error = FaultError(
                    f"halo window of rank {rank} stayed corrupted after "
                    f"{retransmits} retransmissions"
                )
                error.failed_task = rank
                raise error

    def _dispatch(self, st: _Run, rnd: _Round) -> dict[int, tuple]:
        """Run every rank's round on the executor; ``{rank: (block,
        counters | None, info | None)}``.  Thread and process ranks fan
        out through the shared supervisor, under its recovery ladder
        (timeouts, retries, backoff) in fault runs; serial non-fault
        runs stay inline."""
        ranks = range(self.part.num_devices)
        if st.executor == "serial" and st.armed is None:
            return {r: self._rank(st, rnd, r) for r in ranks}
        from repro.faults.supervisor import supervise_tasks

        armed = st.armed
        return supervise_tasks(
            {r: (r,) for r in ranks},
            lambda _task, rank: self._rank(st, rnd, rank),
            armed.policy if armed is not None else None,
            armed.report if armed is not None else None,
            max_workers=1 if st.executor == "serial" else st.max_workers,
            describe=lambda args: f"rank {args[0]}",
            title="cluster rank {i} of {n}",
        )

    def _rank(self, st: _Run, rnd: _Round, rank: int) -> tuple:
        """One rank's round: ``(block, counters | None, info | None)``.

        Process ranks fire their shard/rank faults here in the
        dispatcher, where the supervisor's timeout/retry can see them
        (the context-attached span keeps the ``fault.inject`` child in
        the run's trace), then advance whole windows in a worker.
        """
        sub = self.part.subdomains[rank]
        injector = st.armed.injector if st.armed is not None else None
        if st.executor == "process":
            if injector is not None:
                with st.ctx.span(
                    "cluster.dispatch",
                    category="parallel",
                    rank=rank,
                    round=rnd.index,
                ):
                    injector.on_shard(rank)
                    injector.on_rank(rank)
            return process_advance(
                st.pool,
                rank,
                self._window(rnd, rank, st.ctx.span),
                sub,
                self.plan,
                rnd.steps,
                st.ctx,
                simulate=st.simulate,
                backend=st.backend,
                round_i=rnd.index,
            )
        with st.ctx.span(
            "cluster.rank",
            category="parallel",
            rank=rank,
            steps=rnd.steps,
            round=rnd.index,
        ) as span:
            if injector is not None:
                injector.on_shard(rank)
                injector.on_rank(rank)
            runtime = self.plan.compiled.runtime
            if not st.simulate:
                # the input was checked at scatter/restore and each
                # round's output at the fold: call the engine directly
                engine_apply = runtime.plan.engine.apply
                return self._advance(st, rnd, sub, engine_apply), None, None
            local = EventCounters()

            def apply_fn(win: np.ndarray) -> np.ndarray:
                out, ev = runtime.apply_simulated(
                    win, backend=st.backend, armed=st.armed
                )
                local.__iadd__(ev)
                return out

            out = self._advance(st, rnd, sub, apply_fn)
            span.add_events(local)
            return out, local, None

    def _advance(self, st: _Run, rnd: _Round, sub, apply_fn) -> np.ndarray:
        """Advance one rank's block through the round in this process.

        The one overlap decision: while the transfer is in flight, a
        functional rank whose block holds a ``depth``-inset interior
        computes that interior from its own block, waits, then stitches
        the frame strips from the arrived window.  Every other case —
        a synchronous exchange, a simulated sweep (its tiling of the
        whole window is part of the bit/counter contract), or a block
        too small for an interior — waits and advances the whole window.
        """
        rank, depth = sub.rank, rnd.depth
        gshape, h = self.plan.global_shape, self.plan.radius
        boundary = st.schedule.boundary
        lane = dict(category="parallel", rank=rank, round=rnd.index)
        interior = None
        if rnd.handle is not None and not st.simulate:
            interior, strips = frame_regions(st.blocks[rank].shape, depth)
        if interior is None:
            win = self._window(rnd, rank, telemetry.span)
            origin = tuple(s.start - depth for s in sub.slices)
            with telemetry.span("cluster.compute", **lane):
                return advance_window(
                    apply_fn, win, origin, gshape, boundary, rnd.steps, h
                )
        with telemetry.span("cluster.interior", **lane):
            core = interior_of(
                apply_fn, st.blocks[rank], sub, gshape, boundary, rnd.steps, h
            )
        win = self._window(rnd, rank, telemetry.span)
        out = np.empty(sub.shape, dtype=np.float64)
        out[interior] = core
        with telemetry.span("cluster.stitch", **lane):
            for region in strips:
                origin = tuple(
                    s.start + r.start - depth
                    for s, r in zip(sub.slices, region)
                )
                out[region] = advance_window(
                    apply_fn,
                    strip_window(win, region, depth),
                    origin,
                    gshape,
                    boundary,
                    rnd.steps,
                    h,
                )
        return out

    @staticmethod
    def _window(rnd: _Round, rank: int, span) -> np.ndarray:
        """A rank's exchanged window, waiting (under a ``cluster.wait``
        span opened by ``span``) when the transfer is still in flight."""
        if rnd.handle is None:
            return rnd.windows[rank]
        with span(
            "cluster.wait", category="parallel", rank=rank, round=rnd.index
        ):
            return rnd.handle.wait()[rank]

    def _fold(self, st: _Run, rnd: _Round, results: dict) -> None:
        """Commit a completed round: the new blocks (checked finite, so a
        run that overflows fails typed), merged counters and the round's
        exchange-ledger entry."""
        for rank in sorted(results):
            out, ev, info = results[rank]
            validate_finite(out, f"rank {rank} block after round {rnd.index}")
            st.blocks[rank] = out
            if ev is not None:
                st.counters += ev
            if info:
                st.pids.add(info["pid"])
                st.plan_keys.add(info["plan_key"])
        moved, st.round_bytes = st.round_bytes, 0
        st.exchanged += moved
        st.round_log.append(
            {
                "round": rnd.index,
                "steps": rnd.steps,
                "depth": rnd.depth,
                "halo_bytes": moved,
                "comm_bytes_max": max(
                    rnd.exchanger.bytes_per_exchange(s.rank)
                    for s in self.part.subdomains
                ),
            }
        )
        st.last_round_done = rnd.index

    def _checkpoint(self, st: _Run, round_i: int) -> None:
        """Snapshot the barrier after ``round_i`` when the checkpoint
        cadence asks for it, halting the run on ``halt_after``."""
        cfg = st.checkpoint
        if cfg is None:
            return
        halt = cfg.halt_after == round_i
        if halt or (round_i + 1) % cfg.every == 0:
            ck = self._save(st, round_i)
            if halt:
                raise CheckpointHalt(ck.path, round_i)

    def _save(self, st: _Run, round_i: int) -> ClusterCheckpoint:
        armed = st.armed
        ck = save_checkpoint(
            st.checkpoint.dir,
            plan_key=self.plan.key,
            round_index=round_i,
            phases=[int(p) for p in st.phases],
            steps=int(st.steps),
            exchanged_bytes=int(st.exchanged),
            round_log=[dict(entry) for entry in st.round_log],
            blocks=st.blocks,
            mesh=tuple(self.part.mesh),
            global_shape=tuple(self.plan.global_shape),
            trace_id=st.trace_id,
            fault_state=(
                armed.injector.state_dict()
                if armed is not None and armed.injector is not None
                else None
            ),
            meta=dict(self.checkpoint_meta),
            keep=st.checkpoint.keep,
        )
        st.saved_rounds.add(round_i)
        st.resilience["checkpoints"]["saved"] += 1
        return ck

    def _replan(self, st: _Run, dead: int, round_i: int) -> None:
        """Elastic re-plan: drop rank ``dead`` and re-partition.

        ``st.blocks`` still hold the round-start barrier state (results
        only fold after every rank succeeds), so shrinking the mesh and
        replaying the round is lossless — and bit-identical, because the
        per-point update chains are partition-independent.
        """
        global_now = self.gather(st.blocks)
        old_mesh = tuple(self.part.mesh)
        gshape = self.plan.global_shape
        new_mesh = (self.part.num_devices - 1,) + (1,) * (len(gshape) - 1)
        self.plan = distribute(
            self.plan.source_weights,
            gshape,
            new_mesh,
            boundary=st.schedule.boundary,
            block_steps=st.schedule.block_steps,
            tiling=st.schedule.tiling,
            backend=self.plan.backend,
        )
        st.schedule = self.plan.schedule
        self.part = self.plan.part
        self._exchangers = {}
        st.blocks = self.scatter(global_now)
        if st.armed is not None:
            if st.armed.injector is not None:
                # survivors are renumbered: the dead rank's (possibly
                # sticky) faults must not transfer onto whoever inherits
                # its index
                st.armed.injector.disarm_rank(dead)
            report = st.armed.report
            report.bump("rank_reassignments")
            if report.counts.get("unrecovered", 0) > 0:
                # the supervisor booked the exhausted ladder as
                # unrecovered before the replan ran; the re-partition
                # *is* the recovery
                report.bump("unrecovered", -1)
        st.resilience["reassignments"] += 1
        st.resilience["replans"].append(
            {
                "round": int(round_i),
                "dead_rank": int(dead),
                "old_mesh": [int(m) for m in old_mesh],
                "new_mesh": [int(m) for m in new_mesh],
            }
        )
        emit_event(
            "rank.reassigned",
            level="warning",
            message=(
                f"rank {dead} exhausted its recovery ladder; "
                f"re-partitioned {old_mesh} -> {new_mesh}, replaying "
                f"round {round_i}"
            ),
            dead_rank=int(dead),
            round=int(round_i),
            old_mesh=list(old_mesh),
            new_mesh=list(new_mesh),
        )

    def _interrupted(self, st: _Run) -> None:
        """Ctrl-C: don't leak the pool or lose the run's progress — kill
        the workers, flush what we know, and leave the last completed
        barrier behind as a resumable checkpoint."""
        if st.pool is not None:
            st.pool.shutdown(wait=False, cancel_futures=True)
            for proc in list(
                (getattr(st.pool, "_processes", None) or {}).values()
            ):
                try:
                    proc.terminate()
                except Exception:  # pragma: no cover - defensive
                    pass
            st.pool = None
        done = st.last_round_done + 1
        emit_event(
            "run.interrupted",
            level="warning",
            message=(
                f"cluster run interrupted after {done} of "
                f"{len(st.phases)} rounds"
            ),
            rounds_done=done,
            rounds_total=len(st.phases),
        )
        if (
            st.checkpoint is not None
            and st.last_round_done >= 0
            and st.last_round_done not in st.saved_rounds
        ):
            self._save(st, st.last_round_done)

    def _close_span(self, st: _Run, run_span) -> None:
        """Annotate the root span with the run's counters, fault totals
        and halo bytes."""
        if st.counters is not None:
            run_span.add_events(st.counters)
        if st.armed is not None:
            st.armed.finish(run_span)
        run_span.annotate(halo_bytes=st.exchanged)

    # ------------------------------------------------------------------
    # scaling model
    # ------------------------------------------------------------------
    def timings(
        self,
        steps: int = 1,
        *,
        overlap: bool = False,
        block_steps: int = 1,
        weights: StencilWeights | None = None,
    ) -> ClusterTimings:
        """Modelled per-step time: slowest sweep + largest halo transfer.

        The sweep time reuses the single-GPU cost model on a
        representative measured footprint scaled to the largest block.
        ``block_steps > 1`` amortizes one deep exchange over the round
        (the per-step-equivalent ``comm_s`` drops ~``block_steps``×);
        ``overlap=True`` splits the sweep into the interior hidden
        behind the transfer and the boundary strips that wait for it.
        """
        from repro.baselines.lorastencil import LoRAStencilMethod
        from repro.stencil.kernels import BenchmarkKernel

        weights = (
            weights if weights is not None else self.plan.source_weights
        )
        if not isinstance(weights, StencilWeights):
            raise ValueError(
                "the timing model needs StencilWeights (the plan was "
                "distributed from a raw array); pass weights="
            )
        part = self.part
        biggest = max(
            part.subdomains, key=lambda s: int(np.prod(s.shape))
        )
        kernel = BenchmarkKernel(
            name="cluster-kernel",
            weights=weights,
            problem_size=biggest.shape,
            iterations=steps,
            blocking=(32, 64),
        )
        method = LoRAStencilMethod(kernel)
        measure = tuple(min(s, 64) for s in biggest.shape)
        fp = method.footprint(measure)
        per_point = time_per_point(fp, method.traits(), self.machine)
        block_points = int(np.prod(biggest.shape))
        compute = per_point * block_points
        depth = self.plan.radius * block_steps
        ex = self.exchanger(depth)
        comm_bytes = max(
            ex.bytes_per_exchange(s.rank) for s in part.subdomains
        )
        # one deep exchange per round: a fixed per-message latency plus
        # the volume over the link, amortized over the round's steps —
        # the latency term is what temporal blocking actually cuts
        # (deep corner halos make the *volume* slightly superlinear).
        # The transfer formula is shared with the cluster observatory
        # so measured reports reconcile exactly with this model.
        from repro.telemetry.cluster import modeled_transfer_s

        comm = modeled_transfer_s(comm_bytes) / block_steps
        interior_points = int(
            np.prod([max(0, n - 2 * depth) for n in biggest.shape])
        )
        return ClusterTimings(
            num_devices=part.num_devices,
            compute_s=compute,
            comm_s=comm,
            steps=steps,
            overlap=overlap,
            interior_s=per_point * interior_points,
            boundary_s=per_point * (block_points - interior_points),
            points=int(np.prod(self.plan.global_shape)),
            block_steps=block_steps,
        )
