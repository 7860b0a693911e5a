"""Per-instruction IR profiling of simulated sweeps.

The lowering pipeline (PR 3) made every sweep interpret a scheduled
:class:`~repro.tcu.program.TileProgram`; this module attributes *where*
a sweep's wall-time and hardware events go inside that program.
:func:`profile_plan` is the one entry: it puts an :class:`InstrProfiler`
on a fresh :class:`~repro.tcu.device.Device`, whose warps hand it to the
interpreter, and the profiler receives, per interpreted instruction, the
wall-clock nanoseconds and the
:class:`~repro.tcu.counters.EventCounters` delta of that instruction
alone.  The aggregate is a :class:`PlanProfile` keyed by
the plan-v2 content hash:

* **per opcode** — ``load_x`` / ``mma`` / ``split`` / ``mma2`` /
  ``apex`` rows (the RDG gather, MCM steps, BVS split and pyramid apex
  of Sections III-B/III-C);
* **per rank-1 PMA term** — every instruction carrying a ``term`` in
  its metadata is charged to that pyramid layer; ``load_x`` rows land
  in a shared bucket because fragment *reuse across terms* is the point
  of RDG (Eq. 12);
* **per lowering pass** — the plan's recorded
  :attr:`~repro.core.lowering.LoweredProgram.pass_times`;
* **driver residue** — whatever the sweep booked outside the program
  (block staging ``copy_to_shared``, DRAM stores, point-wise 3D
  planes), computed as ``sweep total - sum(instruction deltas)`` so
  the profile's books close against the uninstrumented sweep total
  **bit-exactly**.

Profiling is strictly opt-in: without a profiler the interpreter runs
its bare dispatch loop, preserving the <2% disabled-telemetry overhead
bound (``benchmarks/bench_telemetry_overhead.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.errors import PerfError
from repro.tcu.counters import EventCounters
from repro.tcu.device import Device

__all__ = [
    "PLAN_PROFILE_SCHEMA",
    "OpStats",
    "InstrProfiler",
    "PlanProfile",
    "profile_plan",
    "profile_shape",
]

#: schema identifier stamped into :meth:`PlanProfile.as_dict`
PLAN_PROFILE_SCHEMA = "repro.telemetry.plan-profile/v1"

#: bucket for instructions shared across rank-1 terms (the RDG reuse)
SHARED_BUCKET = "(shared)"


class OpStats:
    """Accumulated count / wall-time / event delta of one profile row."""

    __slots__ = ("count", "time_ns", "events")

    def __init__(self) -> None:
        self.count = 0
        self.time_ns = 0
        self.events = EventCounters()

    def add(self, ns: int, delta: EventCounters, count: int = 1) -> None:
        """Fold one instruction's wall-time and event delta in.

        ``count`` lets a batched execution charge many per-tile
        instruction instances in one call (the vectorized backend runs
        each instruction once across all tiles).
        """
        self.count += count
        self.time_ns += ns
        self.events += delta

    def as_dict(self) -> dict:
        """JSON-ready view of this row."""
        return {
            "count": self.count,
            "time_ns": self.time_ns,
            "events": self.events.as_dict(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OpStats(count={self.count}, time_ns={self.time_ns})"


class InstrProfiler:
    """Collects per-instruction attribution during a sweep.

    Rides on a :class:`~repro.tcu.device.Device` and is duck-typed
    against the interpreter (``record``) and the sweep drivers
    (``note_sweep``), so :mod:`repro.tcu` never imports the telemetry
    layer.  Not thread-safe by design — one profiler per (single-shard)
    sweep, which :func:`profile_plan` guarantees.
    """

    def __init__(self) -> None:
        self.by_op: dict[str, OpStats] = {}
        self.by_term: dict[str, OpStats] = {}
        self.sweeps: list[tuple[str, int, EventCounters]] = []

    # -- interpreter hook --------------------------------------------------
    def record(
        self, ins, ns: int, delta: EventCounters, count: int = 1
    ) -> None:
        """Charge one executed instruction (called by the interpreter loop).

        The vectorized backend passes ``count=n_tiles``: one batched
        execution stands for that many per-tile instruction instances,
        keeping :meth:`instr_count` backend-invariant.
        """
        stats = self.by_op.get(ins.op)
        if stats is None:
            stats = self.by_op[ins.op] = OpStats()
        stats.add(ns, delta, count)
        term = ins.meta.get("term")
        if term is not None:
            key = f"term {term}"
        elif ins.op == "apex":
            key = "apex"
        else:
            key = SHARED_BUCKET
        tstats = self.by_term.get(key)
        if tstats is None:
            tstats = self.by_term[key] = OpStats()
        tstats.add(ns, delta, count)

    # -- sweep-driver hook -------------------------------------------------
    def note_sweep(self, spec, events: EventCounters) -> None:
        """Record one completed block sweep (geometry + event total)."""
        self.sweeps.append((spec.shape_label, spec.ndim, events.snapshot()))

    # -- aggregates --------------------------------------------------------
    def program_events(self) -> EventCounters:
        """Events attributed to interpreted instructions (all opcodes)."""
        total = EventCounters()
        for stats in self.by_op.values():
            total += stats.events
        return total

    def program_time_ns(self) -> int:
        """Wall-time spent inside interpreted instructions."""
        return sum(s.time_ns for s in self.by_op.values())

    def instr_count(self) -> int:
        """How many instruction executions were recorded."""
        return sum(s.count for s in self.by_op.values())


@dataclass(frozen=True)
class PlanProfile:
    """Aggregated per-instruction attribution of one profiled sweep."""

    plan_key: str
    schedule: str
    ndim: int
    shape: tuple[int, ...]
    n_sweeps: int
    wall_time_ns: int
    by_op: dict[str, OpStats] = field(repr=False)
    by_term: dict[str, OpStats] = field(repr=False)
    pass_times: tuple[tuple[str, float], ...] = field(repr=False)
    total_events: EventCounters = field(repr=False)

    # -- derived -----------------------------------------------------------
    @property
    def program_events(self) -> EventCounters:
        """Events charged to interpreted instructions."""
        total = EventCounters()
        for stats in self.by_op.values():
            total += stats.events
        return total

    @property
    def driver_events(self) -> EventCounters:
        """Sweep residue outside the program: ``total - program``.

        Block staging stores, DRAM reads/writes, and (3D) point-wise
        plane traffic.  By construction ``program + driver == total``
        bit-exactly.
        """
        return self.total_events.diff(self.program_events)

    @property
    def program_time_ns(self) -> int:
        return sum(s.time_ns for s in self.by_op.values())

    @property
    def instr_count(self) -> int:
        return sum(s.count for s in self.by_op.values())

    # -- serialization -----------------------------------------------------
    def as_dict(self) -> dict:
        """JSON-ready view (schema :data:`PLAN_PROFILE_SCHEMA`)."""
        return {
            "schema": PLAN_PROFILE_SCHEMA,
            "plan": {
                "key": self.plan_key,
                "schedule": self.schedule,
                "ndim": self.ndim,
            },
            "shape": list(self.shape),
            "n_sweeps": self.n_sweeps,
            "wall_time_ns": self.wall_time_ns,
            "instr_count": self.instr_count,
            "by_op": {op: s.as_dict() for op, s in self.by_op.items()},
            "by_term": {t: s.as_dict() for t, s in self.by_term.items()},
            "driver": {
                "time_ns": max(self.wall_time_ns - self.program_time_ns, 0),
                "events": self.driver_events.as_dict(),
            },
            "total_events": self.total_events.as_dict(),
            "pass_times": [[name, s] for name, s in self.pass_times],
        }

    # -- reporting ---------------------------------------------------------
    def render(self) -> str:
        """Human-readable per-opcode / per-term attribution tables."""
        shape = "x".join(map(str, self.shape))
        lines = [
            f"plan {self.plan_key[:16]}…  schedule={self.schedule}  "
            f"{self.ndim}D {shape}  ({self.n_sweeps} sweep"
            f"{'s' if self.n_sweeps != 1 else ''}, "
            f"{self.instr_count:,} instructions, "
            f"{self.wall_time_ns / 1e6:.1f} ms wall)"
        ]
        if self.pass_times:
            passes = "  ".join(
                f"{name}={s * 1e3:.2f}ms" for name, s in self.pass_times
            )
            lines.append(f"lowering passes: {passes}")
        lines.append("")
        lines.append("per-opcode attribution:")
        lines += self._table(self.by_op)
        lines.append("")
        lines.append("per rank-1 PMA term:")
        lines += self._table(self.by_term, totals=False)
        return "\n".join(lines)

    def _table(self, rows: dict[str, OpStats], totals: bool = True) -> list[str]:
        header = (
            f"  {'row':<12} {'count':>9} {'time(ms)':>9} {'mma':>9} "
            f"{'sh.ld':>9} {'sh.st':>9} {'shfl':>7} {'cc.flops':>11} "
            f"{'dram(B)':>11}"
        )
        out = [header]

        def fmt(label: str, count, time_ns, ev: EventCounters) -> str:
            return (
                f"  {label:<12} {count if count != '' else '':>9} "
                f"{time_ns / 1e6:>9.2f} {ev.mma_ops:>9,} "
                f"{ev.shared_load_requests:>9,} "
                f"{ev.shared_store_requests:>9,} {ev.shuffle_ops:>7,} "
                f"{ev.cuda_core_flops:>11,} {ev.dram_bytes:>11,}"
            )

        for label in sorted(rows):
            s = rows[label]
            out.append(fmt(label, s.count, s.time_ns, s.events))
        if totals:
            out.append(
                fmt(
                    "[program]",
                    self.instr_count,
                    self.program_time_ns,
                    self.program_events,
                )
            )
            out.append(
                fmt(
                    "[driver]",
                    "",
                    max(self.wall_time_ns - self.program_time_ns, 0),
                    self.driver_events,
                )
            )
            out.append(
                fmt("[total]", "", self.wall_time_ns, self.total_events)
            )
        return out


def profile_shape(ndim: int, size: int) -> tuple[int, ...]:
    """Default grid shapes, matching the ``repro run`` conventions."""
    if ndim == 1:
        return (size * size,)
    if ndim == 2:
        return (size, size)
    return (min(size, 8), size, size)


def profile_plan(
    plan,
    padded: np.ndarray | None = None,
    *,
    size: int = 64,
    seed: int = 0,
    backend: str | None = None,
) -> PlanProfile:
    """Run one instrumented sweep of ``plan``; returns its profile.

    The one place a profiled run is decided.  ``padded`` defaults to a
    seeded random grid of edge ``size`` padded by the plan's radius.
    The sweep runs on one fresh device carrying the profiler, through
    the vectorized backend when ``backend`` or the plan's default asks
    for it and through the interpreter otherwise.  The vectorized
    backend attributes the same event totals per instruction (derived
    from a one-tile probe, scaled) and charges ``n_tiles`` instruction
    instances per batched execution, so its per-op/per-term breakdown
    *and* instruction counts match the interpreter's bit-for-bit.
    Raises :class:`~repro.errors.PerfError` for CUDA-core plans, which
    lower to no tensor-core program.
    """
    if not plan.config.use_tensor_cores:
        raise PerfError(
            "per-instruction profiling requires the lowered tensor-core "
            "program (no CUDA-core configuration)"
        )
    backend = backend or plan.backend
    if padded is None:
        rng = np.random.default_rng(seed)
        x = rng.normal(size=profile_shape(plan.ndim, size))
        padded = np.pad(x, plan.radius)
    else:
        padded = np.asarray(padded, dtype=np.float64)

    profiler = InstrProfiler()
    t0 = time.perf_counter_ns()
    _, events = plan.engine.apply_simulated(
        padded, device=Device(profiler=profiler), backend=backend
    )
    wall = time.perf_counter_ns() - t0

    interior = tuple(s - 2 * plan.radius for s in padded.shape)
    return PlanProfile(
        plan_key=plan.key,
        schedule=plan.schedule,
        ndim=plan.ndim,
        shape=interior,
        n_sweeps=len(profiler.sweeps),
        wall_time_ns=wall,
        by_op=profiler.by_op,
        by_term=profiler.by_term,
        pass_times=tuple(plan.lowered.pass_times),
        total_events=events.snapshot(),
    )
