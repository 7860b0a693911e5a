"""The vectorized execution backend: batched NumPy over whole sweeps.

The per-thread interpreter (:func:`repro.tcu.program.execute_program`)
steps one warp tile at a time, fragment by fragment — the reference
semantics, and ~1s for a single 256x256 Box-2D9P sweep.  This module
walks the *same scheduled* :class:`~repro.tcu.program.TileProgram`
once for the whole sweep, in the RDG shape of the paper (§III-B: load
the input once, gather both dimensions from it):

* the banded U/V operands are materialized once per plan from the
  engine's fragments (``Fragment.from_matrix``/``to_matrix`` is an exact
  permutation gather, so matrix-domain math is bit-identical to
  fragment-domain math);
* **U phase** (``mma``): each k-block step of a (term, row-block) chain
  is one ``np.matmul(U, rows)`` over a full-width row strip — a no-copy
  ``(n_a, 4, W)`` view of a zero-extended copy of the padded grid
  (shared memory is zero-initialized and clamp-filled, so the strip
  columns match the staged blocks exactly, including edge tiles).  The
  schedule's per-``wb`` chains are column slices of that one strip, so
  each step is computed once and shared by every chain that repeats it;
* **V phase** (``split`` + ``mma2``): ``split`` gathers one contiguous
  ``(n_a, 8, n_b, 4)`` operand from the strip, and each ``mma2`` is one
  ``(n_a*8*n_b, 4) @ (4, 8)`` gemm whose result is already in grid
  order ``[a, i, b, j]``;
* the walk follows the plan's *scheduled* order, accumulates in place
  and drops every value after its last use (a liveness table computed
  once per program).

Bit identity with the interpreter rests on one rule: every product is a
k=4 BLAS gemm on BLAS-able operands (unit inner stride), and sums are
added in the schedule's order.  An elementwise add is the same IEEE add
whatever the batch shape; ``einsum`` and reassociated contractions are
**not** bit-identical, and are deliberately not used.

EventCounters are *derived*, not measured: the per-tile program cost is
probed by interpreting the program once against a scratch shared tile
(counter deltas are value-independent — bank conflicts depend only on
addresses, shuffle groups only on ownership maps — and shift-invariant
across tile origins), then scaled by the tile count; staging and DRAM
traffic is priced block-for-block with the driver's arithmetic.  The
result matches the interpreter **bit-for-bit**, which the
schedule-equivalence property suite pins.

Fault injection and ABFT verification hook the per-thread execution the
vectorized path skips, so the sweep driver
(:func:`repro.core.sweep.run_block_sweep`) refuses this backend for an
armed run or a device with an attached injector, through
:func:`repro.runtime.backends.check_fault_support`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.core.rdg import RDGTileCompute
from repro.tcu.counters import EventCounters
from repro.tcu.memory import SharedMemory
from repro.tcu.program import (
    TileProgram,
    execute_program,
    execute_program_1d,
)
from repro.tcu.warp import Warp
from repro.telemetry.spans import TRACER

__all__ = ["VectorProgram", "build_vector_program", "run_vector_sweep"]

_FP64_BYTES = 8
_STORE_LANES = 32

#: max flat offset a 1D tile reads past its base, plus one
#: (k-block kb, element (r, q) -> base + 4*kb + 8*q + r)
_1D_TAIL = 56


class _ProbeRecorder:
    """Collects per-instruction counter deltas from one probe tile."""

    __slots__ = ("deltas",)

    def __init__(self) -> None:
        self.deltas: list[EventCounters] = []

    def record(self, ins, ns: int, delta: EventCounters) -> None:
        self.deltas.append(delta)


def _slots(program: TileProgram, strips: bool) -> tuple[tuple, int]:
    """The walk's liveness table: rename registers to values.

    Returns ``(slots, n_values)`` with one ``(ins, dst, src, run,
    free)`` slot per scheduled instruction: ``dst``/``src`` are integer
    value ids, ``run`` is False when an earlier slot already produced
    ``dst``, and ``free`` lists the values no later running slot reads.
    With ``strips`` (2D) every ``load_x`` of k-block ``kb`` names the
    same row strip and every ``mma`` with the same (term, rb, kb,
    operands) the same strip product, whichever ``wb`` chain issued it;
    otherwise every register is its own value.
    """
    ids: dict = {}
    value_of: dict[str, int] = {}
    last: dict[int, int] = {}
    slots = []
    for i, ins in enumerate(program.instrs):
        src = tuple(value_of[r] for r in ins.srcs)
        if strips and ins.op == "load_x":
            keys = [("x", ins.meta["kb"])]
        elif strips and ins.op == "mma":
            keys = [(ins.meta["term"], ins.meta["rb"], ins.meta["kb"]) + src]
        else:
            keys = ins.dst
        run = not keys or any(k not in ids for k in keys)
        dst = tuple(ids.setdefault(k, len(ids)) for k in keys)
        value_of.update(zip(ins.dst, dst))
        if run:
            last.update(dict.fromkeys(dst + src, i))
        slots.append((ins, dst, src, run, []))
    for v, i in last.items():
        slots[i][4].append(v)
    return tuple(slots), len(ids)


@dataclass
class VectorProgram:
    """A scheduled tile program with batched operands, ready to sweep.

    Built once per plan by :func:`build_vector_program` (the lowering
    pipeline's ``vectorize`` pass); holds dense matrix-domain copies of
    the fragment operands the interpreter indexes per tile, the walk's
    liveness table, plus a lazy per-``smem_shape`` probe cache of the
    program's exact per-tile event cost.  Nothing here is written
    during a sweep except the probe cache, so thread ranks can share one
    program.
    """

    program: TileProgram
    kind: str  # "2d" | "1d"
    #: 2D: (term, rb, kb) -> (8, 4) banded-U block
    u_ops: dict = field(repr=False)
    #: 2D: (term, wb, ob, half) -> (4, 8) banded-V block (half 0 = "lo")
    v_ops: dict = field(repr=False)
    #: scalar apex weights, indexed by the apex instruction's ``scalar``
    scalar_weights: tuple = ()
    _probe_cache: dict = field(default_factory=dict, repr=False)
    #: the scheduled instructions with renamed values and last uses
    slots: tuple = field(init=False, repr=False)
    n_values: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.slots, self.n_values = _slots(self.program, self.kind == "2d")

    # -- per-tile event cost ------------------------------------------------
    def probe(
        self, smem_shape: tuple[int, int]
    ) -> tuple[tuple[EventCounters, ...], EventCounters]:
        """Interpret the program once on a scratch shared tile.

        Returns ``(per-instruction deltas in schedule order, per-tile
        total)``.  Counter deltas are value-independent and invariant
        under the tile-origin address shift, so one probe per shared
        shape prices every tile of every block exactly.
        """
        cached = self._probe_cache.get(smem_shape)
        if cached is None:
            counters = EventCounters()
            warp = Warp(counters)
            smem = SharedMemory(smem_shape, counters, name="probe")
            recorder = _ProbeRecorder()
            if self.kind == "1d":
                execute_program_1d(self.program, warp, smem, 0, recorder)
            else:
                execute_program(self.program, warp, smem, 0, 0, recorder)
            cached = (tuple(recorder.deltas), counters.snapshot())
            self._probe_cache[smem_shape] = cached
        return cached

    # -- batched instruction walks ------------------------------------------
    def execute_batch_2d(
        self, ext: np.ndarray, n_a: int, n_b: int, profiler=None, deltas=None
    ) -> np.ndarray:
        """Run the scheduled program over an ``n_a x n_b`` grid of tiles.

        ``ext`` is the zero-extended padded grid, ``((n_a-1)*t_r +
        k_rows, (n_b-1)*t_c + w_cols)``; returns the ``(n_a*t_r,
        n_b*t_c)`` output grid.
        """
        tile = self.program.tile
        t_r, t_c = tile.out_rows, tile.out_cols
        radius = tile.radius
        s_row, s_col = ext.strides
        # BVS splits even/odd columns; the naive split, halves
        step_c, odd_c = (2, 1) if tile.config.use_bvs else (1, 4)
        out = np.zeros((n_a, t_r, n_b, t_c), dtype=np.float64)
        out_final: dict[tuple[int, int], np.ndarray] = {}

        def assemble() -> None:
            for (rb, ob), acc in out_final.items():
                out[:, 8 * rb : 8 * rb + 8, :, 8 * ob : 8 * ob + 8] = (
                    acc.reshape(n_a, 8, n_b, 8)
                )

        def step(ins, dst, src, env) -> None:
            op = ins.op
            if op == "load_x":
                # the k-block's 4-row strip of every tile row, full width
                env[dst[0]] = as_strided(
                    ext[4 * ins.meta["kb"] :],
                    (n_a, 4, ext.shape[1]),
                    (t_r * s_row, s_row, s_col),
                )
            elif op == "mma":
                m = ins.meta
                d = np.matmul(self.u_ops[(m["term"], m["rb"], m["kb"])], env[src[0]])
                if len(src) > 1:
                    d += env[src[1]]
                env[dst[0]] = d
            elif op == "split":
                # tile b's wb window starts at column b*t_c + 8*wb
                t = env[src[0]][:, :, 8 * ins.meta["wb"] :]
                s0, s1, s2 = t.strides
                for d, off in zip(dst, (0, odd_c)):
                    env[d] = np.ascontiguousarray(
                        as_strided(
                            t[:, :, off:],
                            (n_a, 8, n_b, 4),
                            (s0, s1, t_c * s2, step_c * s2),
                        )
                    ).reshape(-1, 4)
            elif op == "mma2":
                m = ins.meta
                half = 0 if m["half"] == "lo" else 1
                d = env[src[0]] @ self.v_ops[(m["term"], m["wb"], m["ob"], half)]
                if len(src) > 1:
                    d += env[src[1]]
                env[dst[0]] = d
                out_final[(m["rb"], m["ob"])] = d
            elif op == "apex":
                # replicate the interpreter exactly: (re)assign every
                # output block, then add the scalar apex term over the
                # whole tile
                assemble()
                w = self.scalar_weights[ins.meta["scalar"]]
                grid = out.reshape(n_a * t_r, n_b * t_c)
                grid += w * ext[
                    radius : radius + n_a * t_r, radius : radius + n_b * t_c
                ]
            else:  # pragma: no cover - defensive
                raise ValueError(f"unknown op {op!r}")

        self._walk(step, n_a * n_b, profiler, deltas)

        if not self.scalar_weights:
            assemble()
        return out.reshape(n_a * t_r, n_b * t_c)

    def execute_batch_1d(
        self, ext: np.ndarray, n_tiles: int, t_c: int, profiler=None, deltas=None
    ) -> np.ndarray:
        """Run the scheduled 1D program over all tiles of a flat sweep
        (tile ``i`` starts at ``ext[i * t_c]``); returns the
        ``(n_tiles, 8, 8)`` accumulator batch."""
        result: np.ndarray | None = None
        (s,) = ext.strides

        def step(ins, dst, src, env) -> None:
            nonlocal result
            if ins.op == "load_x":
                # element (r, q) of tile i reads ext[i*t_c + 4*kb + 8*q + r]
                env[dst[0]] = np.ascontiguousarray(
                    as_strided(
                        ext[4 * ins.meta["kb"] :], (n_tiles, 4, 8), (t_c * s, s, 8 * s)
                    )
                )
            elif ins.op == "mma":
                d = np.matmul(self.u_ops[ins.meta["kb"]], env[src[0]])
                if len(src) > 1:
                    d += env[src[1]]
                env[dst[0]] = d
                if ins.meta.get("final"):
                    result = d
            else:  # pragma: no cover - defensive
                raise ValueError(f"unknown 1D op {ins.op!r}")

        self._walk(step, n_tiles, profiler, deltas)
        if result is None:
            raise ValueError("1D program has no final mma instruction")
        return result

    def _walk(self, step, n_tiles: int, profiler, deltas) -> None:
        """Step the scheduled slots, one batched op each.

        Each running slot calls ``step(ins, dst, src, env)``; a slot
        whose value an earlier slot already produced is skipped, and
        every value is dropped from ``env`` after its last use.

        With a profiler, each instruction is charged its wall-time and
        its probed per-tile event delta scaled by the tile count —
        integer scaling is exact, so per-term/per-op attribution sums to
        the interpreter's totals bit-for-bit (at one record per batched
        instruction instead of one per tile; a skipped slot costs ~0 ns).
        """
        env: list = [None] * self.n_values
        if profiler is None:
            for ins, dst, src, run, free in self.slots:
                if run:
                    step(ins, dst, src, env)
                for v in free:
                    env[v] = None
            return
        for (ins, dst, src, run, free), delta in zip(self.slots, deltas):
            t0 = time.perf_counter_ns()
            if run:
                step(ins, dst, src, env)
            for v in free:
                env[v] = None
            profiler.record(
                ins,
                time.perf_counter_ns() - t0,
                delta.scaled(n_tiles),
                count=n_tiles,
            )


def build_vector_program(program: TileProgram) -> VectorProgram:
    """Materialize the batched operands of a scheduled program."""
    tile = program.tile
    if isinstance(tile, RDGTileCompute):
        u_ops = {}
        v_ops = {}
        for ti, rows in enumerate(tile._u_frags):
            for rb, blocks in enumerate(rows):
                for kb, frag in enumerate(blocks):
                    u_ops[(ti, rb, kb)] = frag.to_matrix()
        for ti, wbs in enumerate(tile._v_frags):
            for wb, obs in enumerate(wbs):
                for ob, halves in enumerate(obs):
                    for half, frag in enumerate(halves):
                        v_ops[(ti, wb, ob, half)] = frag.to_matrix()
        scalars = tuple(
            term.scalar_weight for term in tile.decomposition.scalar_terms
        )
        return VectorProgram(
            program=program,
            kind="2d",
            u_ops=u_ops,
            v_ops=v_ops,
            scalar_weights=scalars,
        )
    # 1D engines: one banded-U fragment per k-block
    u_ops = {kb: frag.to_matrix() for kb, frag in enumerate(tile._u_frags)}
    return VectorProgram(program=program, kind="1d", u_ops=u_ops, v_ops={})


# ---------------------------------------------------------------------------
# the batched sweep driver
# ---------------------------------------------------------------------------
def run_vector_sweep(
    padded2d: np.ndarray,
    spec,
    vector: VectorProgram,
    device=None,
    profiler=None,
) -> tuple[np.ndarray, EventCounters]:
    """Sweep one grid with the vectorized backend.

    Mirrors :func:`repro.core.sweep.run_block_sweep` — same spec, same
    return convention, same ``tcu.sweep`` telemetry span — but computes
    every tile of the sweep in one batched instruction walk and prices
    the driver's staging/DRAM traffic analytically, block for block.
    """
    from repro.tcu.device import Device

    device = device or Device()
    start = device.snapshot()
    counters = device.counters
    rows, cols = spec.interior
    t_r, t_c = spec.tile
    block_r, block_c = spec.blocked()
    smem_shape = spec.smem_shape()
    device.peak_shared_bytes = max(
        device.peak_shared_bytes,
        smem_shape[0] * smem_shape[1] * _FP64_BYTES,
    )

    with TRACER.span(
        "tcu.sweep", category="tcu", ndim=spec.ndim, shape=spec.shape_label
    ) as span:
        # -- staging traffic, priced block-for-block ------------------------
        for br in range(0, rows, block_r):
            for bc in range(0, cols, block_c):
                avail_r = min(smem_shape[0], padded2d.shape[0] - br)
                avail_c = min(smem_shape[1], padded2d.shape[1] - bc)
                if avail_r <= 0 or avail_c <= 0:
                    continue
                size = avail_r * avail_c
                counters.global_load_bytes += size * _FP64_BYTES
                counters.shared_store_requests += max(
                    1, math.ceil(size / _STORE_LANES)
                )
                if spec.use_async_copy:
                    counters.async_copies += 1
                else:
                    counters.register_intermediate_bytes += size * _FP64_BYTES

        # -- all tiles at once ----------------------------------------------
        n_a = -(-rows // t_r)
        n_b = -(-cols // t_c)
        n_tiles = n_a * n_b
        deltas, per_tile = vector.probe(smem_shape)

        if vector.kind == "1d":
            k_rows = vector.program.tile.k_rows
            ext = np.zeros(
                (n_b - 1) * t_c + k_rows + _1D_TAIL, dtype=np.float64
            )
            flat = padded2d.reshape(-1)
            ext[: flat.shape[0]] = flat
            accs = vector.execute_batch_1d(ext, n_tiles, t_c, profiler, deltas)
            # accumulator (r, q) holds output base + 8*q + r
            out = accs.transpose(0, 2, 1).reshape(-1)[:cols].reshape(1, cols)
        else:
            tile = vector.program.tile
            ext = np.zeros(
                ((n_a - 1) * t_r + tile.k_rows, (n_b - 1) * t_c + tile.w_cols),
                dtype=np.float64,
            )
            ext[: padded2d.shape[0], : padded2d.shape[1]] = padded2d
            grid = vector.execute_batch_2d(ext, n_a, n_b, profiler, deltas)
            out = np.ascontiguousarray(grid[:rows, :cols])

        counters += per_tile.scaled(n_tiles)
        counters.global_store_bytes += rows * cols * _FP64_BYTES
        events = device.events_since(start)
        span.add_events(events)
    if profiler is not None:
        profiler.note_sweep(spec, events)
    return out, events
