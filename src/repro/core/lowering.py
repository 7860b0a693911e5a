"""The lowering route: weights -> plan-carried program.

The paper's method is inherently staged — weights, PMA rank-1
decomposition (Eq. 15), banded RDG ``U``/``V`` gather matrices, the
BVS-split MMA chain — and lowering runs those stages in order::

    weights --decompose--> engine (decomposition + gather fragments)
            --build_tile_ir--> canonical TileProgram(s)
            --schedule--> scheduled TileProgram(s)  (the plan artifact)
            --vectorize--> VectorProgram(s)  (the vectorized backend's)

One function, :func:`lower_engine`, turns a built engine into a
:class:`LoweredTile` (the last three stages); every engine calls it
from its lazy ``lowered`` property.  :func:`lower` builds the engine
(``decompose``) and collects those tiles into the
:class:`LoweredProgram` a :class:`~repro.runtime.plan.StencilPlan`
carries and the sweep driver executes (the eager
:meth:`~repro.core.rdg.RDGTileCompute.compute_tile` path survives only
as the CUDA-core tile provider, the ABFT fallback and the test
reference, all reached through the engines' ``tile_source``).  Each
stage runs under a ``lowering.<stage>`` telemetry span and its wall
time is recorded on the artifact, so ``repro profile`` attributes
compile cost per stage.

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
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

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
    """Register a named schedule for the ``schedule`` stage.

    ``fn`` maps a canonical :class:`~repro.tcu.program.TileProgram` to a
    reordered one; :func:`lower_engine` re-validates dependences after
    applying it, so a broken schedule fails at lowering time, not at
    execution.
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

    Built only by :func:`lower_engine`.  ``vector`` is the batched-NumPy
    compilation of the same scheduled program (the ``vectorize``
    stage's artifact) and ``pass_times`` the ``(stage, seconds)`` this
    tile's ``build_tile_ir``/``schedule``/``vectorize`` took; both are
    excluded from equality/repr — derived state.
    """

    program: TileProgram
    schedule: str
    load_use_distance: float
    vector: VectorProgram | None = field(
        default=None, repr=False, compare=False
    )
    pass_times: tuple[tuple[str, float], ...] = field(
        default=(), repr=False, compare=False
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
    ``pass_times`` records ``(stage, seconds)`` for the four compile
    stages, each summed over every tile program.
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
# the one lowering route
# ---------------------------------------------------------------------------
#: The compile stages in order: the names of ``LoweredProgram.pass_times``
#: and of the ``lowering.<stage>`` spans.
_STAGES = ("decompose", "build_tile_ir", "schedule", "vectorize")


@contextmanager
def _stage(name: str, times: list[tuple[str, float]]) -> Iterator[None]:
    """Run one compile stage under its span; append its wall time."""
    start = time.perf_counter()
    with TRACER.span(f"lowering.{name}", category="lowering"):
        yield
    times.append((name, time.perf_counter() - start))


def lower_engine(engine) -> LoweredTile | None:
    """Lower one built 1D/2D engine; the only code that makes a tile.

    Runs ``build_tile_ir``, ``schedule`` and ``vectorize`` on the
    engine's decomposition and gather fragments.  Every engine calls
    this from its lazy ``lowered`` property, and :func:`lower` reads
    that property, so a directly constructed engine and a plan's engine
    execute the same program.  Returns ``None`` for CUDA-core
    configurations (no program to build).
    """
    cfg = engine.config
    if not cfg.use_tensor_cores:
        return None
    fn = get_schedule(cfg.schedule)
    times: list[tuple[str, float]] = []
    with _stage("build_tile_ir", times):
        tile = getattr(engine, "tile", None)
        ir = (
            build_tile_program(tile)
            if tile is not None
            else build_tile_program_1d(engine)
        )
    with _stage("schedule", times):
        program = fn(ir)
        try:
            validate_schedule(program)
        except ValueError as exc:
            raise LoweringError(
                f"schedule {cfg.schedule!r} broke a dependence: {exc}"
            ) from exc
        distance = load_use_distance(program)
    with _stage("vectorize", times):
        vector = build_vector_program(program)
    return LoweredTile(
        program=program,
        schedule=cfg.schedule,
        load_use_distance=distance,
        vector=vector,
        pass_times=tuple(times),
    )


def lower(
    weights: np.ndarray,
    ndim: int,
    config: OptimizationConfig | None = None,
    tile_shape: tuple[int, int] | None = None,
) -> tuple[object, LoweredProgram]:
    """Build the engine and collect its lowering: ``(engine, program)``.

    This is what :func:`repro.runtime.plan.build_plan` calls on a plan
    cache miss.  ``decompose`` is the engine's construction; the other
    stages run in :func:`lower_engine` when the engine's ``lowered``
    property is first read — once for 1D/2D, once per TCU plane in 3D.
    ``pass_times`` sums each stage over every tile program.
    """
    # engines import this module for their lazy ``lowered`` property, so
    # resolve them at call time
    from repro.core.engine1d import LoRAStencil1D
    from repro.core.engine2d import LoRAStencil2D
    from repro.core.engine3d import LoRAStencil3D
    from repro.core.rdg import OUT_TILE

    cfg = config or OptimizationConfig()
    if cfg.use_tensor_cores:
        get_schedule(cfg.schedule)  # fail fast, before the decomposition
    w = np.asarray(weights, dtype=np.float64)
    times: list[tuple[str, float]] = []
    with _stage("decompose", times):
        if ndim == 1:
            engine = LoRAStencil1D(w, config=cfg)
        elif ndim == 2:
            engine = LoRAStencil2D(
                w, config=cfg, tile_shape=tile_shape or (OUT_TILE, OUT_TILE)
            )
        else:
            engine = LoRAStencil3D(w, config=cfg)
    engines = [t.engine for t in engine.planes] if ndim == 3 else [engine]
    tiles = tuple(e.lowered if e is not None else None for e in engines)
    for t in tiles:
        if t is not None:
            times.extend(t.pass_times)
    totals = dict.fromkeys(_STAGES, 0.0)
    for name, seconds in times:
        totals[name] += seconds
    lowered = LoweredProgram(
        ndim=ndim,
        schedule=cfg.schedule,
        tiles=tiles,
        pass_times=tuple(totals.items()),
    )
    return engine, lowered

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

    The FP64 *simulator* instead verifies against a batched vector-walk
    reference at tolerance 0 (see :mod:`repro.faults.abft`); this
    footprint is the cost the hardware formulation would add.
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
