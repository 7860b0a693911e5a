"""The pass-based lowering pipeline: weights -> plan-carried program.

The paper's method is inherently staged — weights, PMA rank-1
decomposition (Eq. 15), banded RDG ``U``/``V`` gather matrices, the
BVS-split MMA chain — and this module makes the staging explicit as a
compiler-style pass pipeline::

    weights --decompose--> engine (decomposition + gather fragments)
            --build_tile_ir--> canonical TileProgram(s)
            --schedule--> scheduled TileProgram(s)  (the plan artifact)

:func:`lower` runs the default :class:`PassPipeline` and returns the
engine plus a :class:`LoweredProgram` — the artifact a
:class:`~repro.runtime.plan.StencilPlan` carries and the sweep driver
executes (the eager :meth:`~repro.core.rdg.RDGTileCompute.compute_tile`
path survives only as the correctness oracle).  Each pass runs under a
``lowering.<pass>`` telemetry span and its wall time is recorded on the
artifact, so ``repro profile`` attributes compile cost per stage.

Schedules are pluggable: ``"eager"`` keeps the canonical emission
order, ``"prefetch"`` hoists fragment loads to the front of the tile
(:func:`repro.tcu.program.schedule_prefetch`), and
:func:`register_schedule` accepts any dependence-preserving rewrite —
the schedule-equivalence suite proves every valid schedule is
bit-identical in numerics *and* event counts, so a registered schedule
only moves the load->use distance available for latency hiding.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from repro.core.config import OptimizationConfig
from repro.core.vectorize import VectorProgram, build_vector_program
from repro.errors import LoweringError
from repro.tcu.program import (
    TileProgram,
    build_tile_program,
    build_tile_program_1d,
    load_use_distance,
    schedule_prefetch,
    validate_schedule,
)
from repro.telemetry.spans import TRACER

__all__ = [
    "LoweredTile",
    "LoweredProgram",
    "LoweringContext",
    "PassPipeline",
    "DEFAULT_PASSES",
    "lower",
    "lower_engine",
    "register_schedule",
    "get_schedule",
    "available_schedules",
    "checksum_footprint",
]

# ---------------------------------------------------------------------------
# schedule registry
# ---------------------------------------------------------------------------
#: A schedule: a dependence-preserving permutation of a tile program.
ScheduleFn = Callable[[TileProgram], TileProgram]

_SCHEDULES: dict[str, ScheduleFn] = {}


def register_schedule(name: str, fn: ScheduleFn) -> ScheduleFn:
    """Register a named schedule for the ``schedule`` pass.

    ``fn`` maps a canonical :class:`~repro.tcu.program.TileProgram` to a
    reordered one; the pipeline re-validates dependences after applying
    it, so a broken schedule fails at lowering time, not at execution.
    Returns ``fn`` (usable as a decorator via ``functools.partial``).
    """
    _SCHEDULES[name] = fn
    return fn


def get_schedule(name: str) -> ScheduleFn:
    """Look up a registered schedule; raises :class:`LoweringError`."""
    try:
        return _SCHEDULES[name]
    except KeyError:
        raise LoweringError(
            f"unknown schedule {name!r}; available: "
            f"{', '.join(available_schedules())}"
        ) from None


def available_schedules() -> tuple[str, ...]:
    """Names accepted by ``OptimizationConfig.schedule``."""
    return tuple(sorted(_SCHEDULES))


register_schedule("eager", lambda program: program)
register_schedule("prefetch", schedule_prefetch)


# ---------------------------------------------------------------------------
# lowered artifacts
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class LoweredTile:
    """One scheduled tile program plus its schedule statistics.

    ``vector`` is the batched-NumPy compilation of the same scheduled
    program (the ``vectorize`` pass artifact); ``None`` until that pass
    runs, and excluded from equality/repr — it is derived state.
    """

    program: TileProgram
    schedule: str
    load_use_distance: float
    vector: VectorProgram | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def n_instrs(self) -> int:
        """Instruction count of the scheduled program."""
        return len(self.program.instrs)

    def op_counts(self) -> dict[str, int]:
        """Histogram of opcodes (``load_x``/``mma``/``split``/…)."""
        counts: dict[str, int] = {}
        for ins in self.program.instrs:
            counts[ins.op] = counts.get(ins.op, 0) + 1
        return counts

    def render(self, limit: int | None = None) -> str:
        """The IR as text, one instruction per line (CLI ``--ir``)."""
        instrs = self.program.instrs
        lines = [f"{i:4d}  {ins!r}" for i, ins in enumerate(instrs[:limit])]
        if limit is not None and len(instrs) > limit:
            lines.append(f"      … {len(instrs) - limit} more")
        return "\n".join(lines)


@dataclass(frozen=True)
class LoweredProgram:
    """The plan-carried lowering artifact for one stencil.

    ``tiles`` holds one entry per tile kernel: a single entry for 1D/2D
    plans, one per kernel plane for 3D plans (``None`` for the
    point-wise CUDA-core planes and empty planes of the plane split).
    ``pass_times`` records ``(pass name, seconds)`` for each pipeline
    stage that produced this artifact.
    """

    ndim: int
    schedule: str
    tiles: tuple[LoweredTile | None, ...]
    pass_times: tuple[tuple[str, float], ...] = ()

    @property
    def tile(self) -> LoweredTile | None:
        """The first real tile (the only one for 1D/2D plans)."""
        for t in self.tiles:
            if t is not None:
                return t
        return None

    @property
    def n_instrs(self) -> int:
        """Total scheduled instructions across every tile program."""
        return sum(t.n_instrs for t in self.tiles if t is not None)

    @property
    def load_use_distance(self) -> float:
        """Mean load->use distance over the real tile programs."""
        dists = [t.load_use_distance for t in self.tiles if t is not None]
        return float(np.mean(dists)) if dists else 0.0

    def describe(self) -> str:
        """One-paragraph summary (plan ``describe`` / CLI output)."""
        n_real = sum(t is not None for t in self.tiles)
        parts = [
            f"schedule {self.schedule!r}",
            f"{self.n_instrs} instrs over {n_real} tile program(s)",
            f"load->use distance {self.load_use_distance:.1f}",
        ]
        return ", ".join(parts)

    def render_ir(self, limit: int | None = None) -> str:
        """Dump every tile program's IR (CLI ``plan --ir``)."""
        blocks = []
        for i, t in enumerate(self.tiles):
            header = f"tile program {i}" if len(self.tiles) > 1 else "tile program"
            if t is None:
                blocks.append(f"{header}: (CUDA-core plane, no program)")
            else:
                blocks.append(
                    f"{header}: {t.n_instrs} instrs, schedule {t.schedule!r}, "
                    f"load->use {t.load_use_distance:.1f}\n{t.render(limit)}"
                )
        return "\n\n".join(blocks)


# ---------------------------------------------------------------------------
# the pipeline
# ---------------------------------------------------------------------------
@dataclass
class LoweringContext:
    """Mutable state threaded through the passes of one lowering."""

    weights: np.ndarray
    ndim: int
    config: OptimizationConfig
    tile_shape: tuple[int, int] | None = None
    engine: object | None = None
    tile_irs: tuple[TileProgram | None, ...] = ()
    tiles: tuple[LoweredTile | None, ...] = ()
    pass_times: list[tuple[str, float]] = field(default_factory=list)


def _pass_decompose(ctx: LoweringContext) -> None:
    """Decomposition + gather-fragment build (constructs the engine)."""
    # engines import this module for their lazy self-lowering hook, so
    # resolve them at call time
    from repro.core.engine1d import LoRAStencil1D
    from repro.core.engine2d import LoRAStencil2D
    from repro.core.engine3d import LoRAStencil3D
    from repro.core.rdg import OUT_TILE

    if ctx.ndim == 1:
        ctx.engine = LoRAStencil1D(ctx.weights, config=ctx.config)
    elif ctx.ndim == 2:
        ctx.engine = LoRAStencil2D(
            ctx.weights,
            config=ctx.config,
            tile_shape=ctx.tile_shape or (OUT_TILE, OUT_TILE),
        )
    else:
        ctx.engine = LoRAStencil3D(ctx.weights, config=ctx.config)


def _pass_build_tile_ir(ctx: LoweringContext) -> None:
    """Emit the canonical (unscheduled) tile program(s)."""
    if ctx.engine is None:
        raise LoweringError("build_tile_ir pass requires a decomposed engine")
    if not ctx.config.use_tensor_cores:
        # CUDA-core fallback: no tensor-core program to build; the sweep
        # driver runs the eager scalar path instead
        ctx.tile_irs = (None,) if ctx.ndim != 3 else tuple(
            None for _ in ctx.engine.planes
        )
        return
    if ctx.ndim == 1:
        ctx.tile_irs = (build_tile_program_1d(ctx.engine),)
    elif ctx.ndim == 2:
        ctx.tile_irs = (build_tile_program(ctx.engine.tile),)
    else:
        ctx.tile_irs = tuple(
            build_tile_program(task.engine.tile) if task.engine is not None
            else None
            for task in ctx.engine.planes
        )


def _pass_schedule(ctx: LoweringContext) -> None:
    """Apply the configured schedule and compute its statistics."""
    fn = get_schedule(ctx.config.schedule)
    tiles: list[LoweredTile | None] = []
    for ir in ctx.tile_irs:
        if ir is None:
            tiles.append(None)
            continue
        program = fn(ir)
        try:
            validate_schedule(program)
        except ValueError as exc:
            raise LoweringError(
                f"schedule {ctx.config.schedule!r} broke a dependence: {exc}"
            ) from exc
        tiles.append(
            LoweredTile(
                program=program,
                schedule=ctx.config.schedule,
                load_use_distance=load_use_distance(program),
            )
        )
    ctx.tiles = tuple(tiles)


def _pass_vectorize(ctx: LoweringContext) -> None:
    """Compile each scheduled program for the vectorized backend.

    Materializes the banded U/V operands as dense matrix-domain arrays
    (once per plan) and attaches the resulting
    :class:`~repro.core.vectorize.VectorProgram` to the lowered tile.
    CUDA-core tiles (``None``) pass through: they have no program on
    either backend.
    """
    ctx.tiles = tuple(
        t if t is None else replace(t, vector=build_vector_program(t.program))
        for t in ctx.tiles
    )


#: The default pipeline: the paper's staging as named passes.
DEFAULT_PASSES: tuple[tuple[str, Callable[[LoweringContext], None]], ...] = (
    ("decompose", _pass_decompose),
    ("build_tile_ir", _pass_build_tile_ir),
    ("schedule", _pass_schedule),
    ("vectorize", _pass_vectorize),
)


class PassPipeline:
    """Runs named lowering passes over a :class:`LoweringContext`.

    Each pass executes under a ``lowering.<name>`` telemetry span and
    appends ``(name, seconds)`` to the context's ``pass_times``, so the
    cost of compilation is attributable stage by stage.  Custom
    pipelines (extra analysis passes, alternative scheduling) are plain
    lists of ``(name, fn)`` pairs.
    """

    def __init__(
        self,
        passes: tuple[tuple[str, Callable[[LoweringContext], None]], ...]
        | None = None,
    ) -> None:
        self.passes = tuple(passes) if passes is not None else DEFAULT_PASSES

    def run(self, ctx: LoweringContext) -> LoweringContext:
        """Execute every pass in order; returns the same context."""
        for name, fn in self.passes:
            start = time.perf_counter()
            with TRACER.span(f"lowering.{name}", category="lowering"):
                fn(ctx)
            ctx.pass_times.append((name, time.perf_counter() - start))
        return ctx


def lower(
    weights: np.ndarray,
    ndim: int,
    config: OptimizationConfig | None = None,
    tile_shape: tuple[int, int] | None = None,
    pipeline: PassPipeline | None = None,
) -> tuple[object, LoweredProgram]:
    """Run the full pipeline; returns ``(engine, LoweredProgram)``.

    This is what :func:`repro.runtime.plan.build_plan` calls on a plan
    cache miss.  The returned engine has the scheduled programs bound
    (via :meth:`~repro.core.engine2d.LoRAStencil2D.bind_lowered`), so
    its simulated sweeps execute through the lowered artifact.
    """
    cfg = config or OptimizationConfig()
    if cfg.use_tensor_cores:
        get_schedule(cfg.schedule)  # fail fast on unknown schedules
    ctx = LoweringContext(
        weights=np.asarray(weights, dtype=np.float64),
        ndim=ndim,
        config=cfg,
        tile_shape=tile_shape,
    )
    (pipeline or PassPipeline()).run(ctx)
    lowered = LoweredProgram(
        ndim=ndim,
        schedule=cfg.schedule,
        tiles=ctx.tiles,
        pass_times=tuple(ctx.pass_times),
    )
    _bind(ctx.engine, lowered)
    return ctx.engine, lowered


def _bind(engine, lowered: LoweredProgram) -> None:
    """Attach the scheduled tile programs to the engine(s)."""
    if lowered.ndim == 3:
        for task, tile in zip(engine.planes, lowered.tiles):
            if task.engine is not None and tile is not None:
                task.engine.bind_lowered(tile)
    else:
        engine.bind_lowered(lowered.tile)


def checksum_footprint(lowered: LoweredProgram | LoweredTile) -> dict:
    """Modeled hardware cost of carrying ABFT checksum rows (Eq. 12 chain).

    On real ``m8n8k4`` tensor cores the Huang–Abraham encoding rides as
    one extra accumulator row inside each MMA of the rank-1 chain: the
    checksum row ``e·U_k`` joins the 8-row A fragment, so each ``mma``/
    ``mma2`` instruction computes ``M + 1`` output rows instead of
    ``M``.  This helper prices that from the scheduled program alone —
    no execution — for the chaos CLI, the overhead benchmark and
    ``docs/robustness.md``:

    * ``mma_instrs`` — MMAs in the chain (``mma`` + ``mma2`` opcodes);
    * ``baseline_rows`` / ``checksum_rows`` — accumulator rows computed
      without / additionally-with the encoding;
    * ``overhead_fraction`` — ``checksum_rows / baseline_rows``, the
      classic ``1/M`` ABFT bound (0.125 for the FP64 ``m8n8k4`` shape).

    The FP64 *simulator* instead verifies by oracle replay at
    tolerance 0 (see :mod:`repro.faults.abft`); this footprint is the
    cost the hardware formulation would add.
    """
    from repro.tcu.layouts import FP64_FRAGMENT_SHAPES, FragmentKind

    tiles: tuple[LoweredTile | None, ...]
    if isinstance(lowered, LoweredTile):
        tiles = (lowered,)
    else:
        tiles = lowered.tiles
    m_rows = FP64_FRAGMENT_SHAPES[FragmentKind.ACC][0]
    n_mma = 0
    for t in tiles:
        if t is None:
            continue
        counts = t.op_counts()
        n_mma += counts.get("mma", 0) + counts.get("mma2", 0)
    baseline = n_mma * m_rows
    return {
        "mma_instrs": n_mma,
        "mma_rows": m_rows,
        "baseline_rows": baseline,
        "checksum_rows": n_mma,
        "overhead_fraction": (n_mma / baseline) if baseline else 0.0,
    }


def lower_engine(engine) -> LoweredTile | None:
    """Build + schedule the program for one already-built 1D/2D engine.

    The lazy self-lowering hook behind direct engine construction:
    ``build_tile_ir`` and ``schedule`` without the ``decompose`` pass,
    keeping the lowered program the single tensor-core execution path
    even off the plan route.  Returns ``None`` for CUDA-core
    configurations (no program to build).
    """
    if not engine.config.use_tensor_cores:
        return None
    fn = get_schedule(engine.config.schedule)
    tile = getattr(engine, "tile", None)
    ir = (
        build_tile_program(tile)
        if tile is not None
        else build_tile_program_1d(engine)
    )
    program = fn(ir)
    try:
        validate_schedule(program)
    except ValueError as exc:
        raise LoweringError(
            f"schedule {engine.config.schedule!r} broke a dependence: {exc}"
        ) from exc
    return LoweredTile(
        program=program,
        schedule=engine.config.schedule,
        load_use_distance=load_use_distance(program),
        vector=build_vector_program(program),
    )
