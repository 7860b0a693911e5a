"""Tile programs: the RDG computation as a schedulable instruction IR.

:class:`~repro.core.rdg.RDGTileCompute` executes one tile eagerly; this
module expresses the same computation as an explicit instruction list
with named virtual registers, so it can be *re-scheduled* — the software
pipelining a production kernel does to overlap fragment loads with
tensor-core math.

Ops:

* ``load_x dst <- window(kb, wb)`` — one input-fragment load;
* ``mma dst <- (weight U[t][rb][kb], x_reg, acc_reg?)`` — Step-1 MMA;
* ``split (even, odd) <- t_acc`` — the BVS register reinterpretation;
* ``mma2 dst <- (split_reg, weight V[t][wb][ob], acc_reg?)`` — Step-2;
* ``apex out += w * centre`` — the pyramid's CUDA-core epilogue (no
  register destination: it writes the numpy output tile).

1D kernels get the same IR through :func:`build_tile_program_1d` /
:func:`execute_program_1d`: a single ``load_x``/``mma`` accumulator
chain per warp tile (no MCM, no BVS, no pyramid — Section IV-C).

Each program is decoded once, on its first execution, into
slot-indexed tuples with its weight fragments resolved (:func:`_decode`),
and one loop interprets the decode of a 2D or a 1D program alike.

Guarantees proven in the tests: *every* dependence-respecting schedule
executes to the identical numeric result and identical event counts,
and the prefetch scheduler strictly increases load→use distance (the
latency-hiding opportunity) without touching semantics.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.core.rdg import RDGTileCompute
from repro.tcu.fragment import Fragment
from repro.tcu.layouts import FragmentKind
from repro.tcu.memory import SharedMemory
from repro.tcu.warp import Warp

__all__ = [
    "Instr",
    "TileProgram",
    "build_tile_program",
    "build_tile_program_1d",
    "execute_program",
    "execute_program_1d",
    "validate_schedule",
    "schedule_prefetch",
    "load_use_distance",
]


@dataclass(frozen=True)
class Instr:
    """One tile-program instruction (SSA-ish: each dst written once)."""

    op: str  # "load_x" | "mma" | "split" | "mma2" | "apex"
    dst: tuple[str, ...]
    srcs: tuple[str, ...]
    meta: dict = field(default_factory=dict, hash=False, compare=False)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.op} {','.join(self.dst)} <- {','.join(self.srcs) or '-'}"


@dataclass
class TileProgram:
    """An ordered instruction list for one output tile.

    ``tile`` is the weight-holding kernel object the instructions index
    into: an :class:`~repro.core.rdg.RDGTileCompute` for 2D programs, or
    the 1D engine (anything with ``k_rows``/``_u_frags``/``config``) for
    programs built by :func:`build_tile_program_1d`.
    """

    tile: "RDGTileCompute | object"
    instrs: list[Instr]
    #: the decode :func:`_interpret` runs, built on first execution
    #: (schedulers build a new program rather than edit ``instrs``)
    _decoded: "_Decoded | None" = field(
        default=None, init=False, repr=False, compare=False
    )

    def writers(self) -> dict[str, int]:
        """Map register -> writing instruction index (checks SSA)."""
        out = {}
        for i, ins in enumerate(self.instrs):
            for d in ins.dst:
                if d in out:
                    raise ValueError(f"register {d} written twice")
                out[d] = i
        return out


def build_tile_program(tile: RDGTileCompute) -> TileProgram:
    """Emit the canonical (unscheduled) program for ``tile``."""
    if not tile.config.use_tensor_cores:
        raise ValueError("tile programs target the tensor-core configuration")
    instrs: list[Instr] = []
    kb_n, wb_n = tile.k_rows // 4, tile.w_cols // 8
    rb_n, ob_n = tile.out_rows // 8, tile.out_cols // 8

    for kb in range(kb_n):
        for wb in range(wb_n):
            instrs.append(
                Instr(
                    op="load_x",
                    dst=(f"x{kb}_{wb}",),
                    srcs=(),
                    meta={"kb": kb, "wb": wb},
                )
            )

    n_terms = len(tile.decomposition.matrix_terms)
    out_regs: dict[tuple[int, int], str | None] = {
        (rb, ob): None for rb in range(rb_n) for ob in range(ob_n)
    }
    for ti in range(n_terms):
        for rb in range(rb_n):
            for wb in range(wb_n):
                acc: str | None = None
                for kb in range(kb_n):
                    dst = f"t{ti}_{rb}_{wb}_{kb}"
                    instrs.append(
                        Instr(
                            op="mma",
                            dst=(dst,),
                            srcs=(f"x{kb}_{wb}",) + ((acc,) if acc else ()),
                            meta={"term": ti, "rb": rb, "kb": kb},
                        )
                    )
                    acc = dst
                even, odd = f"e{ti}_{rb}_{wb}", f"o{ti}_{rb}_{wb}"
                instrs.append(
                    Instr(
                        op="split",
                        dst=(even, odd),
                        srcs=(acc,),
                        meta={"term": ti, "rb": rb, "wb": wb},
                    )
                )
                for ob in range(ob_n):
                    for half, src in (("lo", even), ("hi", odd)):
                        prev = out_regs[(rb, ob)]
                        dst = f"acc{ti}_{rb}_{wb}_{ob}_{half}"
                        instrs.append(
                            Instr(
                                op="mma2",
                                dst=(dst,),
                                srcs=(src,) + ((prev,) if prev else ()),
                                meta={
                                    "term": ti,
                                    "rb": rb,
                                    "wb": wb,
                                    "ob": ob,
                                    "half": half,
                                },
                            )
                        )
                        out_regs[(rb, ob)] = dst
    for si in range(len(tile.decomposition.scalar_terms)):
        # the apex writes the numpy output tile, not a register: an
        # empty dst keeps the SSA ``writers()`` check honest
        instrs.append(
            Instr(
                op="apex",
                dst=(),
                srcs=tuple(r for r in out_regs.values() if r),
                meta={"scalar": si},
            )
        )
    program = TileProgram(tile=tile, instrs=instrs)
    program.writers()  # sanity: SSA property
    return program


def validate_schedule(program: TileProgram) -> None:
    """Raise if any instruction reads a register written later."""
    written: set[str] = set()
    for ins in program.instrs:
        for s in ins.srcs:
            if s not in written:
                raise ValueError(
                    f"{ins!r} reads {s!r} before it is written"
                )
        written.update(ins.dst)


def schedule_prefetch(program: TileProgram) -> TileProgram:
    """Hoist all ``load_x`` instructions to the front (prefetching) and
    keep everything else in order — the canonical latency-hiding
    schedule, still dependence-valid by construction."""
    loads = [i for i in program.instrs if i.op == "load_x"]
    rest = [i for i in program.instrs if i.op != "load_x"]
    out = TileProgram(tile=program.tile, instrs=loads + rest)
    validate_schedule(out)
    return out


def load_use_distance(program: TileProgram) -> float:
    """Mean instruction distance between each load and its first use —
    the slack available for hiding shared-memory latency."""
    writers = {d: i for i, ins in enumerate(program.instrs) for d in ins.dst}
    first_use: dict[str, int] = {}
    for i, ins in enumerate(program.instrs):
        for s in ins.srcs:
            first_use.setdefault(s, i)
    dists = [
        first_use[d] - writers[d]
        for ins in program.instrs
        if ins.op == "load_x"
        for d in ins.dst
        if d in first_use
    ]
    return float(np.mean(dists)) if dists else 0.0


#: decoded opcodes
_LOAD, _LOAD_STRIDED, _MMA, _SPLIT, _APEX = range(5)


class _Decoded(NamedTuple):
    """A program decoded for :func:`_interpret`: one ``(opcode, ins,
    dst, src, arg)`` tuple per scheduled :class:`Instr`, registers
    renamed to slots of a list that starts as ``env`` (which holds each
    ``mma``/``mma2`` weight fragment; slot 0 stays ``None`` for a
    chain's missing accumulator).  ``finals`` pairs each 8x8 block
    ``(rb, ob)`` of the result with its last accumulator's slot."""

    instrs: tuple
    env: tuple
    finals: tuple
    out_shape: tuple[int, int]
    has_apex: bool


def _decode(program: TileProgram, one_d: bool) -> _Decoded:
    """Decode ``program`` once: slot-indexed operands, weights resolved."""
    tile = program.tile
    env: list = [None]
    slots: dict[str, int] = {}

    def slot(value: Fragment | None = None) -> int:
        env.append(value)
        return len(env) - 1

    instrs = []
    finals: dict[tuple[int, int], int] = {}
    for ins in program.instrs:
        m = ins.meta
        src = tuple(slots[r] for r in ins.srcs)
        acc = src[1] if len(src) > 1 else 0
        if ins.op == "load_x" and one_d:
            op, arg = _LOAD_STRIDED, 4 * m["kb"]
        elif ins.op == "load_x":
            op, arg = _LOAD, (4 * m["kb"], 8 * m["wb"])
        elif ins.op == "mma":
            u = tile._u_frags[m["kb"]] if one_d else (
                tile._u_frags[m["term"]][m["rb"]][m["kb"]]
            )
            op, arg, src = _MMA, None, (slot(u), src[0], acc)
        elif ins.op == "mma2" and not one_d:
            half = 0 if m["half"] == "lo" else 1
            v = tile._v_frags[m["term"]][m["wb"]][m["ob"]][half]
            op, arg, src = _MMA, None, (src[0], slot(v), acc)
        elif ins.op == "split" and not one_d:
            op, arg = _SPLIT, tile.config.use_bvs
        elif ins.op == "apex" and not one_d:
            term = tile.decomposition.scalar_terms[m["scalar"]]
            op, arg = _APEX, (term.scalar_weight, tile.radius)
        else:
            raise ValueError(f"unknown {'1D ' if one_d else ''}op {ins.op!r}")
        dst = tuple(slot() for _ in ins.dst)
        slots.update(zip(ins.dst, dst))
        if ins.op == "mma2":
            finals[(m["rb"], m["ob"])] = dst[0]
        elif m.get("final"):
            finals[(0, 0)] = dst[0]
        instrs.append((op, ins, dst, src, arg))
    if one_d and not finals:
        raise ValueError("1D program has no final mma instruction")
    out_shape = (8, 8) if one_d else (tile.out_rows, tile.out_cols)
    has_apex = any(ins.op == "apex" for ins in program.instrs)
    return _Decoded(tuple(instrs), tuple(env), tuple(finals.items()), out_shape, has_apex)


def _interpret(
    program: TileProgram,
    one_d: bool,
    warp: Warp,
    smem: SharedMemory,
    row: int,
    col: int,
) -> np.ndarray:
    """Run ``program``'s decode (built on first use and cached on the
    program) on the simulator; returns the ``out_shape`` result.

    With the warp's ``profiler`` set, each instruction is bracketed by
    a wall-clock read and an :class:`~repro.tcu.counters.EventCounters`
    snapshot, and ``profiler.record(ins, ns, delta)`` receives one entry
    per :class:`Instr`, in schedule order.
    """
    code = program._decoded
    if code is None:
        code = program._decoded = _decode(program, one_d)
    env = list(code.env)
    counters, profiler = warp.counters, warp.profiler
    out = np.zeros(code.out_shape)
    for op, ins, dst, src, arg in code.instrs:
        if profiler is not None:
            before = counters.snapshot()
            t0 = time.perf_counter_ns()
        if op == _MMA:
            env[dst[0]] = warp.mma_sync(env[src[0]], env[src[1]], env[src[2]])
        elif op == _LOAD:
            env[dst[0]] = warp.load_matrix_sync(
                FragmentKind.B, smem, row + arg[0], col + arg[1]
            )
        elif op == _SPLIT:
            split = warp.split_accumulator_bvs if arg else warp.split_accumulator_naive
            env[dst[0]], env[dst[1]] = split(env[src[0]])
        elif op == _LOAD_STRIDED:
            x_tile = smem.read_fragment_strided(row + arg, (4, 8), col_stride=8)
            env[dst[0]] = Fragment._own(FragmentKind.B, x_tile)
        else:  # _APEX: the pyramid's epilogue onto the assembled blocks
            _assemble(out, code.finals, env)
            weight, radius = arg
            centre = smem.read_scalar_tile(row + radius, col + radius, out.shape)
            warp.cuda_core_axpy(out, weight, centre)
        if profiler is not None:
            profiler.record(ins, time.perf_counter_ns() - t0, counters.diff(before))
    if not code.has_apex:
        _assemble(out, code.finals, env)
    return out


def _assemble(out: np.ndarray, finals: tuple, env: list) -> None:
    """Write each output block's last accumulator into ``out``."""
    for (rb, ob), slot in finals:
        out[8 * rb : 8 * rb + 8, 8 * ob : 8 * ob + 8] = env[slot]._matrix()


def execute_program(
    program: TileProgram,
    warp: Warp,
    smem: SharedMemory,
    row: int,
    col: int,
) -> np.ndarray:
    """Interpret the program on the simulator; returns the output tile.

    Per-instruction attribution is strictly opt-in: the warp's
    ``profiler`` (see :class:`repro.telemetry.perf.InstrProfiler`)
    receives it, and when that is ``None`` the interpreter reads no
    clock and takes no snapshot.

    The schedule is not re-checked per tile: ``lower_engine`` and
    :func:`schedule_prefetch` validate each program once, and a hand-built
    program should pass :func:`validate_schedule` before it runs here.
    """
    return _interpret(program, False, warp, smem, row, col)


# ---------------------------------------------------------------------------
# 1D programs (Section IV-C: single gather, no MCM/BVS/pyramid)
# ---------------------------------------------------------------------------
def build_tile_program_1d(engine) -> TileProgram:
    """Emit the canonical program for one 1D warp tile (64 outputs).

    ``engine`` is a :class:`~repro.core.engine1d.LoRAStencil1D` (or any
    object exposing ``k_rows``, ``_u_frags`` and ``config``).  The 1D
    computation is a single accumulator chain: one strided ``load_x``
    per k-block of the window plus one ``mma`` against the banded ``U``
    fragment, so the only scheduling freedom is load placement.
    """
    if not engine.config.use_tensor_cores:
        raise ValueError("tile programs target the tensor-core configuration")
    instrs: list[Instr] = []
    kb_n = engine.k_rows // 4
    for kb in range(kb_n):
        instrs.append(
            Instr(op="load_x", dst=(f"x{kb}",), srcs=(), meta={"kb": kb})
        )
    acc: str | None = None
    for kb in range(kb_n):
        dst = f"t{kb}"
        instrs.append(
            Instr(
                op="mma",
                dst=(dst,),
                srcs=(f"x{kb}",) + ((acc,) if acc else ()),
                meta={"kb": kb, "final": kb == kb_n - 1},
            )
        )
        acc = dst
    program = TileProgram(tile=engine, instrs=instrs)
    program.writers()  # sanity: SSA property
    return program


def execute_program_1d(
    program: TileProgram,
    warp: Warp,
    smem: SharedMemory,
    base: int,
) -> np.ndarray:
    """Interpret a 1D program; returns the 8x8 accumulator tile.

    ``base`` is the tile's offset into the block's flat shared buffer
    (element ``(r, q)`` of k-block ``kb`` reads flat offset
    ``base + 4*kb + 8*q + r``, the 8-strided window layout of the 1D
    engine).  Attribution goes to the warp's ``profiler``, and the
    schedule is validated at lowering, as in :func:`execute_program`.
    """
    return _interpret(program, True, warp, smem, base, 0)
