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
* the walk follows the plan's *scheduled* order and accumulates in
  place.  Every value has a fixed home in one flat per-thread float64
  arena: :meth:`VectorProgram.plan` lays the values out once per batch
  geometry by a first-fit scan over the liveness table's last uses, and
  products are written into their homes (``out=``/``np.copyto``).  The
  zero-extended input copy, when one is needed, sits at the arena's
  head.  Only the grid a walk returns is fresh memory; no arena view
  ever reaches a caller, so a warm sweep makes one large allocation.

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

Fault injection and ABFT recovery hook the per-thread execution the
vectorized path skips, so the sweep driver
(:func:`repro.core.sweep.run_block_sweep`) refuses this backend for an
armed run or a device with an attached injector, through
:func:`repro.runtime.backends.check_fault_support`.  The walk does
serve a guarded interpreter sweep as its ABFT reference: one
:func:`walk_tiles` pass over the sweep gives every tile's expected output.
"""

from __future__ import annotations

import math
import threading
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

__all__ = ["VectorProgram", "build_vector_program", "run_vector_sweep", "walk_tiles"]

_FP64_BYTES = 8
_STORE_LANES = 32

#: max flat offset a 1D tile reads past its base, plus one
#: (k-block kb, element (r, q) -> base + 4*kb + 8*q + r)
_1D_TAIL = 56

#: arena homes start on 64-byte boundaries (8 float64s)
_LINE = 8


class _Arena(threading.local):
    """The walk's memory: one flat float64 buffer per thread.

    Grown when a plan needs more and never shrunk, so a warm walk
    allocates nothing but its result.  It is keyed by thread rather
    than by program: thread ranks may share one :class:`VectorProgram`,
    and a freshly compiled program still finds the thread's warm arena.
    The views of the last plan walked are kept, so a repeated walk
    builds none.
    """

    buf = np.empty(0)
    homes: tuple | None = None
    views: list = []

    def take(self, size: int) -> np.ndarray:
        """The buffer, at least ``size`` float64s long."""
        if self.buf.size < size:
            self.buf = np.empty(size, dtype=np.float64)
            self.homes = None
        return self.buf

    def env(self, size: int, homes: tuple) -> list:
        """A fresh value table with every home of a plan as a view of
        the buffer, ``None`` for the rest."""
        buf = self.take(size)
        if homes is not self.homes:
            self.views = [
                None if home is None else np.ndarray(home[1], np.float64, buf, home[0])
                for home in homes
            ]
            self.homes = homes
        return list(self.views)


_ARENA = _Arena()


def _cache_lines(shape: tuple[int, ...]) -> int:
    """Float64s a home of ``shape`` takes, rounded up to whole lines."""
    return -(-math.prod(shape) // _LINE) * _LINE


def _first_fit(lives: list[tuple[int, int, int]], base: int) -> tuple[list[int], int]:
    """First-fit offsets for ``(first, last, size)`` lifetimes in order
    of ``first``.

    Each block takes the lowest offset from ``base`` that clears every
    block still live at its first slot (a block is live through its
    ``last`` slot).  Returns the offsets and the end of the highest
    block.
    """
    offsets: list[int] = []
    live: list[tuple[int, int, int]] = []
    top = base
    for first, last, size in lives:
        live = sorted(block for block in live if block[2] >= first)
        start = base
        for lo, hi, _ in live:
            if start + size <= lo:
                break
            start = max(start, hi)
        live.append((start, start + size, last))
        offsets.append(start)
        top = max(top, start + size)
    return offsets, top


class _ProbeRecorder:
    """Collects per-instruction counter deltas from one probe tile."""

    __slots__ = ("deltas",)

    def __init__(self) -> None:
        self.deltas: list[EventCounters] = []

    def record(self, ins, ns: int, delta: EventCounters) -> None:
        self.deltas.append(delta)


def _slots(program: TileProgram, strips: bool) -> tuple[tuple, tuple]:
    """The walk's liveness table: rename registers to values.

    Returns ``(slots, last_use)`` with one ``(ins, dst, src, run)``
    slot per scheduled instruction: ``dst``/``src`` are integer value
    ids and ``run`` is False when an earlier slot already produced
    ``dst``; ``last_use[v]`` is the last running slot that reads or
    writes value ``v``.  With ``strips`` (2D) every ``load_x`` of k-block ``kb`` names the
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
        slots.append((ins, dst, src, run))
    return tuple(slots), tuple(last[v] for v in range(len(ids)))


@dataclass
class VectorProgram:
    """A scheduled tile program with batched operands, ready to sweep.

    Built once per tile engine by :func:`build_vector_program` (the
    ``vectorize`` stage of lowering); holds dense matrix-domain copies of
    the fragment operands the interpreter indexes per tile, the walk's
    liveness table, a lazy per-``smem_shape`` probe cache of the
    program's exact per-tile event cost, and a lazy per-geometry cache
    of the walk's memory plan (:meth:`plan`).  Nothing here is written
    during a sweep except those two caches, which hold pure data, so
    thread ranks can share one program; each thread walks in its own
    arena.
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
    _plan_cache: dict = field(default_factory=dict, repr=False)
    #: the scheduled instructions with renamed values, and per value
    #: its last running slot
    slots: tuple = field(init=False, repr=False)
    last_use: tuple = field(init=False, repr=False)
    n_values: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.slots, self.last_use = _slots(self.program, self.kind == "2d")
        self.n_values = len(self.last_use)

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
            recorder = _ProbeRecorder()
            warp = Warp(counters, profiler=recorder)
            smem = SharedMemory(smem_shape, counters, name="probe")
            if self.kind == "1d":
                execute_program_1d(self.program, warp, smem, 0)
            else:
                execute_program(self.program, warp, smem, 0, 0)
            cached = (tuple(recorder.deltas), counters.snapshot())
            self._probe_cache[smem_shape] = cached
        return cached

    # -- the walk's memory plan -----------------------------------------------
    def plan(self, key: tuple[int, ...]) -> tuple[int, tuple, tuple]:
        """Where the walk's values live for one batch geometry.

        ``key`` is ``(n_a, n_b, ext width)`` for a 2D walk and
        ``(n_tiles, t_c)`` for a 1D one.  Returns ``(size, ext_shape,
        homes)``: the arena length in float64s; the shape of the
        zero-extended input, whose home is the arena's head; and per
        value id a ``(byte offset, shape)`` home in the arena, or
        ``None`` for a value that lives elsewhere (a 2D ``load_x`` strip
        is a view of the input, the 1D final accumulator is the fresh
        result).  The extra last entry is the 2D apex product's scratch.

        Offsets are a first-fit linear scan over the liveness table's
        last uses.  The last accumulator of every output block stays
        live to the end of the walk, which assembles the grid from it.
        """
        cached = self._plan_cache.get(key)
        if cached is not None:
            return cached
        tile = self.program.tile
        if self.kind == "2d":
            n_a, n_b, width = key
            ext = ((n_a - 1) * tile.out_rows + tile.k_rows, width)
            shapes = {
                "mma": (n_a, 8, width),
                "split": (n_a * 8 * n_b, 4),
                "mma2": (n_a * 8 * n_b, 8),
                "apex": (n_a * tile.out_rows, n_b * tile.out_cols),
            }
        else:
            n_tiles, t_c = key
            ext = ((n_tiles - 1) * t_c + tile.k_rows + _1D_TAIL,)
            shapes = {"load_x": (n_tiles, 4, 8), "mma": (n_tiles, 8, 8)}
        end = len(self.slots)
        scratch = self.n_values
        first: dict[int, int] = {}
        last = dict(enumerate(self.last_use))
        last[scratch] = end
        shape_of: dict[int, tuple] = {}
        out_final: dict[tuple[int, int], int] = {}
        for i, (ins, dst, _, run) in enumerate(self.slots):
            if not run or ins.op not in shapes or ins.meta.get("final"):
                continue
            # the apex writes no value: its product takes the scratch home
            for v in dst or (scratch,):
                first.setdefault(v, i)
                shape_of[v] = shapes[ins.op]
            if ins.op == "mma2":
                out_final[(ins.meta["rb"], ins.meta["ob"])] = dst[0]
        last.update(dict.fromkeys(out_final.values(), end))
        offsets, size = _first_fit(
            [(first[v], last[v], _cache_lines(shape_of[v])) for v in first],
            _cache_lines(ext),
        )
        homes: list = [None] * (self.n_values + 1)
        for v, offset in zip(first, offsets):
            homes[v] = (offset * _FP64_BYTES, shape_of[v])
        cached = self._plan_cache[key] = (size, ext, tuple(homes))
        return cached

    # -- batched instruction walks ------------------------------------------
    def execute_batch_2d(
        self, ext: np.ndarray, n_a: int, n_b: int, profiler=None, deltas=None
    ) -> np.ndarray:
        """Run the scheduled program over an ``n_a x n_b`` grid of tiles.

        ``ext`` is the zero-extended padded grid, ``((n_a-1)*t_r +
        k_rows, (n_b-1)*t_c + w_cols)``; returns the ``(n_a*t_r,
        n_b*t_c)`` output grid in fresh memory.  Every other value of
        the walk lives in this thread's arena (:meth:`plan`).
        """
        tile = self.program.tile
        t_r, t_c = tile.out_rows, tile.out_cols
        radius = tile.radius
        s_row, s_col = ext.strides
        # BVS splits even/odd columns; the naive split, halves
        step_c, odd_c = (2, 1) if tile.config.use_bvs else (1, 4)
        size, _, homes = self.plan((n_a, n_b, ext.shape[1]))
        env = _ARENA.env(size, homes)
        out = np.zeros((n_a, t_r, n_b, t_c), dtype=np.float64)
        out_final: dict[tuple[int, int], np.ndarray] = {}

        def assemble() -> None:
            for (rb, ob), acc in out_final.items():
                out[:, 8 * rb : 8 * rb + 8, :, 8 * ob : 8 * ob + 8] = (
                    acc.reshape(n_a, 8, n_b, 8)
                )

        def step(ins, dst, src) -> None:
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
                d = np.matmul(
                    self.u_ops[(m["term"], m["rb"], m["kb"])],
                    env[src[0]],
                    out=env[dst[0]],
                )
                if len(src) > 1:
                    d += env[src[1]]
            elif op == "split":
                # tile b's wb window starts at column b*t_c + 8*wb
                t = env[src[0]][:, :, 8 * ins.meta["wb"] :]
                s0, s1, s2 = t.strides
                for d, off in zip(dst, (0, odd_c)):
                    np.copyto(
                        env[d].reshape(n_a, 8, n_b, 4),
                        as_strided(
                            t[:, :, off:],
                            (n_a, 8, n_b, 4),
                            (s0, s1, t_c * s2, step_c * s2),
                        ),
                    )
            elif op == "mma2":
                m = ins.meta
                half = 0 if m["half"] == "lo" else 1
                d = np.matmul(
                    env[src[0]],
                    self.v_ops[(m["term"], m["wb"], m["ob"], half)],
                    out=env[dst[0]],
                )
                if len(src) > 1:
                    d += env[src[1]]
                out_final[(m["rb"], m["ob"])] = d
            elif op == "apex":
                # replicate the interpreter exactly: (re)assign every
                # output block, then add the scalar apex term over the
                # whole tile
                assemble()
                w = self.scalar_weights[ins.meta["scalar"]]
                grid = out.reshape(n_a * t_r, n_b * t_c)
                grid += np.multiply(
                    w,
                    ext[radius : radius + n_a * t_r, radius : radius + n_b * t_c],
                    out=env[-1],
                )
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
        ``(n_tiles, 8, 8)`` accumulator batch in fresh memory, the
        walk's other values living in this thread's arena."""
        result: np.ndarray | None = None
        (s,) = ext.strides
        size, _, homes = self.plan((n_tiles, t_c))
        env = _ARENA.env(size, homes)

        def step(ins, dst, src) -> None:
            nonlocal result
            if ins.op == "load_x":
                # element (r, q) of tile i reads ext[i*t_c + 4*kb + 8*q + r]
                np.copyto(
                    env[dst[0]],
                    as_strided(
                        ext[4 * ins.meta["kb"] :], (n_tiles, 4, 8), (t_c * s, s, 8 * s)
                    ),
                )
            elif ins.op == "mma":
                # the final accumulator has no home: matmul allocates it
                d = np.matmul(self.u_ops[ins.meta["kb"]], env[src[0]], out=env[dst[0]])
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

        Each running slot calls ``step(ins, dst, src)``; a slot whose
        value an earlier slot already produced is skipped.

        With a profiler, each instruction is charged its wall-time and
        its probed per-tile event delta scaled by the tile count —
        integer scaling is exact, so per-term/per-op attribution sums to
        the interpreter's totals bit-for-bit (at one record per batched
        instruction instead of one per tile; a skipped slot costs ~0 ns).
        """
        if profiler is None:
            for ins, dst, src, run in self.slots:
                if run:
                    step(ins, dst, src)
            return
        for (ins, dst, src, run), delta in zip(self.slots, deltas):
            t0 = time.perf_counter_ns()
            if run:
                step(ins, dst, src)
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
def _zero_extend(
    a: np.ndarray, shape: tuple[int, ...], arena: np.ndarray
) -> np.ndarray:
    """``a`` over ``shape``, zeros past its edge: a view when ``a``
    already covers ``shape``, else a copy at the head of ``arena`` with
    only the margin past ``a``'s edge zeroed."""
    kept = tuple(map(min, a.shape, shape))
    if kept == shape:
        return a[tuple(map(slice, shape))]
    ext = np.ndarray(shape, np.float64, arena)
    region = tuple(map(slice, kept))
    ext[region] = a[region]
    for axis, k in enumerate(kept):
        ext[region[:axis] + (slice(k, None),)] = 0.0
    return ext


def walk_tiles(
    window: np.ndarray,
    shape: tuple[int, int],
    tile: tuple[int, int],
    vector: VectorProgram,
    profiler=None,
    deltas=None,
) -> np.ndarray:
    """Every tile of an output region in one batched walk: the untrimmed grid.

    ``window`` is the padded input from the region's first input row
    and column on (a whole sweep's ``padded2d``, or a view of it at one
    block's origin); ``shape`` is the region's ``(rows, cols)`` output
    extent, cut into ``tile``-shaped tiles.  Returns the ``(n_a*t_r,
    n_b*t_c)`` full-tile output grid of its ``n_a x n_b`` tiles (a 1D
    sweep: ``(1, n_b*64)``), the grid-overhanging outputs of the edge
    tiles included.  The window is zero-extended past its edge exactly
    as the driver's clamped, zero-initialized shared tiles read it (no
    copy when it already covers the walk; else a copy in this thread's
    arena), so every tile is bit-identical to the interpreter's and the
    eager tile path's.  The returned grid is fresh memory, never the
    arena's.  Books no events; ``profiler``/``deltas`` are
    :meth:`VectorProgram._walk`'s.
    """
    rows, cols = shape
    t_r, t_c = tile
    n_a = -(-rows // t_r)
    n_b = -(-cols // t_c)
    if vector.kind == "1d":
        size, ext_shape, _ = vector.plan((n_b, t_c))
        ext = _zero_extend(window.reshape(-1), ext_shape, _ARENA.take(size))
        accs = vector.execute_batch_1d(ext, n_b, t_c, profiler, deltas)
        # accumulator (r, q) holds output base + 8*q + r
        return accs.transpose(0, 2, 1).reshape(1, -1)
    width = (n_b - 1) * t_c + vector.program.tile.w_cols
    size, ext_shape, _ = vector.plan((n_a, n_b, width))
    ext = _zero_extend(window, ext_shape, _ARENA.take(size))
    return vector.execute_batch_2d(ext, n_a, n_b, profiler, deltas)


def run_vector_sweep(
    padded2d: np.ndarray,
    spec,
    vector: VectorProgram,
    device,
) -> tuple[np.ndarray, EventCounters]:
    """Sweep one grid with the vectorized backend on ``device``.

    Mirrors :func:`repro.core.sweep.run_block_sweep` — same spec, same
    return convention, same ``tcu.sweep`` telemetry span — but computes
    every tile of the sweep in one batched instruction walk and prices
    the driver's staging/DRAM traffic analytically, block for block.
    The device's ``profiler`` is charged per batched instruction.
    """
    profiler = device.profiler
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
        n_tiles = -(-rows // t_r) * -(-cols // t_c)
        deltas, per_tile = vector.probe(smem_shape)
        grid = walk_tiles(
            padded2d, spec.interior, spec.tile, vector, profiler, deltas
        )
        out = np.ascontiguousarray(grid[:rows, :cols])

        counters += per_tile.scaled(n_tiles)
        counters.global_store_bytes += rows * cols * _FP64_BYTES
        events = device.events_since(start)
        span.add_events(events)
    if profiler is not None:
        profiler.note_sweep(spec, events)
    return out, events
