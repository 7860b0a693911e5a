"""Compile-once stencil plans.

A :class:`StencilPlan` captures everything about executing one stencil
kernel that is derivable from ``(weights, config, tile_shape, dtype)``
alone — independent of any particular grid:

* the rank-1 decomposition (PMA pyramid or SVD) for 2D kernels, or the
  per-plane decompositions of the 3D plane split;
* the banded ``U``/``V`` gather matrices and their register fragments
  (owned by the plan's engine);
* the BVS row permutation applied to ``V``;
* the **lowered program** — the scheduled
  :class:`~repro.tcu.program.TileProgram` artifact that
  :func:`repro.core.lowering.lower` collects from the engine (each tile
  engine lowers itself through the one route,
  :func:`~repro.core.lowering.lower_engine`), which the sweep driver
  interprets at execution time (exposed as :attr:`StencilPlan.lowered`
  and :attr:`StencilPlan.program`);
* the block schedule (thread-block tile of the simulated sweep);
* a predicted cost from :mod:`repro.perf` (analytic per-point footprint
  pushed through the A100 roofline model).

Deriving all of this once and reusing it across sweeps is the repo-level
analogue of the paper's one-time transformation phase: related systems
(ConvStencil's stencil2row, SparStencil's planning pass) pay this per
call; LoRAStencil's RDG design exists to amortize it.  Plans are content
addressed — :func:`plan_key` hashes the inputs with SHA-256, so equal
inputs map to the same key in every process (no ``PYTHONHASHSEED``
dependence) and :class:`repro.runtime.cache.PlanCache` can deduplicate
compilations.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.core.config import OptimizationConfig
from repro.core.engine1d import DEFAULT_BLOCK_1D, LoRAStencil1D
from repro.core.engine2d import DEFAULT_BLOCK_2D, LoRAStencil2D
from repro.core.engine3d import DEFAULT_BLOCK_3D, LoRAStencil3D
from repro.core.lowering import LoweredProgram, lower
from repro.core.lowrank import Decomposition
from repro.core.uvbuild import butterfly_row_order
from repro.errors import ShapeError
from repro.stencil.weights import StencilWeights
from repro.tcu.program import TileProgram

__all__ = ["StencilPlan", "plan_key", "build_plan", "canonical_weights"]

#: Bump when the plan layout changes incompatibly — keys must not collide
#: across layouts.  v2: plans carry the lowered tile program and the key
#: covers the schedule knob.  v3: the key covers the execution backend,
#: so a vectorized plan is never served where an interpreter plan was
#: requested.
_KEY_VERSION = b"repro-stencil-plan-v3"


def canonical_weights(
    weights: StencilWeights | np.ndarray,
    ndim: int | None = None,
) -> tuple[np.ndarray, int]:
    """Normalize ``weights`` to a dense float64 array plus its ndim.

    ``ndim`` is only required when it cannot be inferred (it always can
    today: :class:`~repro.stencil.weights.StencilWeights` carries it and
    a raw array's dimensionality is its own); when given, it must agree
    with the inferred value.
    """
    if isinstance(weights, StencilWeights):
        arr = np.asarray(weights.array, dtype=np.float64)
        inferred = weights.ndim
    else:
        arr = np.asarray(weights, dtype=np.float64)
        inferred = arr.ndim
    if ndim is not None and ndim != inferred:
        raise ShapeError(
            f"ndim={ndim} does not match the {inferred}D weights provided"
        )
    if inferred not in (1, 2, 3):
        raise ShapeError(
            f"stencil weights must be 1D, 2D or 3D, got {inferred}D"
        )
    if len(set(arr.shape)) != 1 or arr.shape[0] % 2 != 1:
        raise ShapeError(
            f"weight array must be square/cubic with odd side, got {arr.shape}"
        )
    return np.ascontiguousarray(arr), inferred


def plan_key(
    weights: StencilWeights | np.ndarray,
    ndim: int | None = None,
    config: OptimizationConfig | None = None,
    tile_shape: tuple[int, int] | None = None,
    dtype: np.dtype | type | str = np.float64,
    backend: str | None = None,
) -> str:
    """Content hash of one plan's inputs (stable across processes).

    The key covers the exact weight values and shape, the optimization
    config, the output tile shape, the compute dtype and the execution
    backend (``None`` resolves through
    :func:`repro.runtime.backends.default_backend`; :func:`repro.compile`
    passes the name it already resolved); two plans with equal keys are
    interchangeable.
    """
    from repro.runtime.backends import default_backend

    arr, nd = canonical_weights(weights, ndim)
    cfg = config or OptimizationConfig()
    if backend is None:
        backend = default_backend()
    h = hashlib.sha256()
    h.update(_KEY_VERSION)
    h.update(f"ndim={nd};shape={arr.shape}".encode())
    h.update(arr.tobytes())
    h.update(
        f"cfg=tc:{cfg.use_tensor_cores},bvs:{cfg.use_bvs},"
        f"ac:{cfg.use_async_copy},sched:{cfg.schedule}".encode()
    )
    h.update(f"tile={tuple(tile_shape) if tile_shape else None}".encode())
    h.update(f"dtype={np.dtype(dtype).name}".encode())
    h.update(f"backend={backend}".encode())
    return h.hexdigest()


@dataclass(frozen=True)
class StencilPlan:
    """One compiled stencil: decomposition, gather weights, schedule.

    Plans are immutable and grid-independent: the same plan executes any
    number of grids of any (valid) size, serially, batched, or sharded.
    Construct plans with :func:`build_plan` or — preferably — through
    :func:`repro.compile`, which consults the plan cache first.
    """

    key: str
    ndim: int
    radius: int
    weights: np.ndarray = field(repr=False)
    config: OptimizationConfig
    tile_shape: tuple[int, int] | None
    dtype: str
    engine: LoRAStencil1D | LoRAStencil2D | LoRAStencil3D = field(repr=False)
    decomposition: Decomposition | None
    block: tuple[int, ...]
    lowered: LoweredProgram = field(repr=False)
    #: execution backend the plan was compiled for (apply-path default)
    backend: str = "interpreter"

    # -- structure --------------------------------------------------------
    @property
    def method(self) -> str:
        """Decomposition route: ``"pma"``, ``"svd"``, ``"banded"`` (1D)
        or ``"planes"`` (3D)."""
        if self.decomposition is not None:
            return self.decomposition.method
        return "banded" if self.ndim == 1 else "planes"

    @property
    def rank(self) -> int:
        """Number of rank-1 terms (0 where no decomposition applies)."""
        return self.decomposition.rank if self.decomposition else 0

    @property
    def plane_decompositions(self) -> tuple[Decomposition | None, ...]:
        """Per-plane decompositions of a 3D plan (empty otherwise)."""
        if self.ndim != 3:
            return ()
        return tuple(
            t.engine.decomposition if t.engine is not None else None
            for t in self.engine.planes
        )

    @property
    def u_matrices(self) -> tuple[np.ndarray, ...]:
        """Banded vertical-gather matrices ``U`` (2D plans)."""
        if self.ndim != 2:
            return ()
        return tuple(self.engine.tile._u_mats)

    @property
    def v_matrices(self) -> tuple[np.ndarray, ...]:
        """Banded horizontal-gather matrices ``V`` (2D plans)."""
        if self.ndim != 2:
            return ()
        return tuple(self.engine.tile._v_mats)

    def abft_checksums(self) -> tuple[dict[str, np.ndarray], ...]:
        """Per-term ABFT checksum vectors for the rank-1 MM chain.

        For each rank-1 term ``U_k X V_k`` of a 2D plan, the
        Huang–Abraham encodings ``e·U_k`` (row checksum, absorbed into
        the left gather) and ``V_k·eᵀ`` (column checksum, absorbed into
        the right gather): with them the checksum of the tile result is
        one extra row/column carried through the same MMAs — the
        hardware formulation ``docs/robustness.md`` derives from
        Eq. 12.  2D plans only; the 1D banded chain and 3D plane split
        have no single ``(U, V)`` pair per term.
        """
        if self.ndim != 2:
            from repro.errors import PerfError

            raise PerfError(
                "ABFT checksum vectors are defined on the 2D rank-1 MM "
                f"chain (this plan is {self.ndim}D)"
            )
        from repro.faults.abft import term_checksum_vectors

        return term_checksum_vectors(self.u_matrices, self.v_matrices)

    @property
    def bvs_order(self) -> np.ndarray | None:
        """BVS row permutation applied to ``V`` (None when BVS is off)."""
        if self.ndim != 2 or not self.config.use_bvs:
            return None
        return butterfly_row_order(self.engine.tile.w_cols)

    @property
    def program(self) -> TileProgram | tuple[TileProgram | None, ...] | None:
        """The scheduled tile program(s) the executor interprets.

        A single :class:`~repro.tcu.program.TileProgram` for 1D/2D
        plans, a per-kernel-plane tuple for 3D plans (``None`` entries
        for the point-wise CUDA-core planes), or ``None`` for CUDA-core
        configurations, which lower to no tensor-core program.
        """
        if self.ndim == 3:
            if not self.config.use_tensor_cores:
                return None
            return tuple(
                t.program if t is not None else None for t in self.lowered.tiles
            )
        tile = self.lowered.tile
        return tile.program if tile is not None else None

    @property
    def schedule(self) -> str:
        """Name of the instruction schedule baked into the program."""
        return self.lowered.schedule

    @property
    def mma_per_tile(self) -> int:
        """MMA instructions one warp tile costs under this plan."""
        if self.ndim == 1:
            return self.engine.mma_per_tile
        if self.ndim == 2:
            return self.engine.tile.mma_per_tile
        return sum(
            t.engine.tile.mma_per_tile
            for t in self.engine.planes
            if t.engine is not None
        )

    # -- predicted cost ---------------------------------------------------
    @cached_property
    def predicted_time_per_point_s(self) -> float:
        """Modelled seconds per point-update (A100 roofline estimate).

        Uses an analytic per-point footprint of the plan's hot loop —
        MMAs, fragment loads and DRAM traffic per output point — priced
        by :func:`repro.perf.costmodel.time_per_point` with the
        LoRAStencil efficiency traits.  An estimate: the measured
        footprints of :mod:`repro.experiments` stay authoritative.
        """
        return _predict_time_per_point(self)

    @cached_property
    def predicted_gstencil_per_s(self) -> float:
        """Modelled sustained GStencil/s (1 / predicted time / 1e9)."""
        return 1.0 / self.predicted_time_per_point_s / 1e9

    # -- reporting --------------------------------------------------------
    def describe(self) -> str:
        """Multi-line human-readable plan summary (CLI ``plan`` output)."""
        lines = [
            f"plan {self.key[:16]}…  ({self.ndim}D, radius {self.radius}, "
            f"dtype {self.dtype})",
            f"  method          {self.method}",
            f"  rank            {self.rank}",
            f"  config          {self.config.label()}",
            f"  backend         {self.backend}",
            f"  block schedule  {'x'.join(map(str, self.block))}",
            f"  lowering        {self.lowered.describe()}",
            f"  mma per tile    {self.mma_per_tile}",
            f"  predicted       {self.predicted_gstencil_per_s:.2f} GStencil/s",
        ]
        if self.decomposition is not None:
            terms = ", ".join(
                "1x1 apex" if t.is_scalar else f"{t.size}x{t.size}"
                for t in self.decomposition.terms
            )
            lines.insert(3, f"  terms           [{terms}]")
        if self.ndim == 3:
            tc = self.engine.tensor_core_planes
            cc = self.engine.cuda_core_planes
            lines.insert(3, f"  planes          {len(tc)} TCU / {len(cc)} CUDA")
        return "\n".join(lines)


def build_plan(
    weights: StencilWeights | np.ndarray,
    ndim: int | None = None,
    config: OptimizationConfig | None = None,
    tile_shape: tuple[int, int] | None = None,
    dtype: np.dtype | type | str = np.float64,
    backend: str | None = None,
) -> StencilPlan:
    """Compile one plan from scratch (no cache consultation).

    This is the slow path :func:`repro.compile` runs on a cache miss: it
    calls :func:`repro.core.lowering.lower` — decomposition, canonical
    tile IR, instruction scheduling, operand vectorization — and wraps
    the engine and the lowered program in an immutable plan.
    ``backend`` (default: :func:`~repro.runtime.backends.default_backend`)
    becomes the plan's apply-path default.
    """
    from repro.runtime.backends import default_backend

    arr, nd = canonical_weights(weights, ndim)
    if np.dtype(dtype) != np.float64:
        raise ShapeError(
            f"only float64 plans are supported (the FP64 m8n8k4 pipeline), "
            f"got {np.dtype(dtype).name}"
        )
    cfg = config or OptimizationConfig()
    if backend is None:
        backend = default_backend()
    key = plan_key(arr, nd, cfg, tile_shape, dtype, backend=backend)

    if nd != 2 and tile_shape is not None:
        raise ShapeError("tile_shape applies to 2D plans only")
    engine, lowered = lower(arr, nd, config=cfg, tile_shape=tile_shape)
    if nd == 1:
        decomposition = None
        block: tuple[int, ...] = (DEFAULT_BLOCK_1D,)
    elif nd == 2:
        decomposition = engine.decomposition
        block = DEFAULT_BLOCK_2D
    else:
        decomposition = None
        block = DEFAULT_BLOCK_3D

    return StencilPlan(
        key=key,
        ndim=nd,
        radius=(arr.shape[0] - 1) // 2,
        weights=arr,
        config=cfg,
        tile_shape=tuple(tile_shape) if tile_shape else None,
        dtype=np.dtype(dtype).name,
        engine=engine,
        decomposition=decomposition,
        block=block,
        lowered=lowered,
        backend=backend,
    )


# ---------------------------------------------------------------------------
# cost prediction (lazy imports: repro.perf pulls in repro.baselines.base,
# whose package __init__ imports modules that import this one)
# ---------------------------------------------------------------------------
def _per_point_counters(plan: StencilPlan):
    """Analytic per-point event estimate for the plan's hot loop."""
    from repro.tcu.counters import EventCounters

    c = EventCounters()
    if plan.ndim == 1:
        tile_points = 64
        c.mma_ops = plan.engine.mma_per_tile
        c.shared_load_requests = plan.engine.k_rows // 4
        c.global_load_bytes = 8 * tile_points
        c.global_store_bytes = 8 * tile_points
        return c, tile_points
    if plan.ndim == 2:
        tile = plan.engine.tile
        tile_points = tile.points_per_tile
        c.mma_ops = tile.mma_per_tile
        c.shared_load_requests = tile.fragment_loads_per_tile
        # pyramid apex: one axpy (mul+add) per point per scalar term
        c.cuda_core_flops = (
            2 * tile_points * len(plan.engine.decomposition.scalar_terms)
        )
        c.global_load_bytes = 8 * tile_points
        c.global_store_bytes = 8 * tile_points
        return c, tile_points
    # 3D: every output point sums all kernel planes
    engine_tiles = [
        t.engine.tile for t in plan.engine.planes if t.engine is not None
    ]
    tile_points = engine_tiles[0].points_per_tile if engine_tiles else 64
    for task in plan.engine.planes:
        if task.engine is not None:
            tile = task.engine.tile
            c.mma_ops += tile.mma_per_tile
            c.shared_load_requests += tile.fragment_loads_per_tile
            c.cuda_core_flops += 2 * tile_points  # slab accumulation axpy
            c.cuda_core_flops += (
                2 * tile_points * len(task.engine.decomposition.scalar_terms)
            )
        elif task.pointwise is not None:
            c.cuda_core_flops += 2 * tile_points
    # z-streaming sweep: ~one DRAM read + one write per point
    c.global_load_bytes = 8 * tile_points
    c.global_store_bytes = 8 * tile_points
    return c, tile_points


def _predict_time_per_point(plan: StencilPlan) -> float:
    """Price the analytic footprint with the A100 roofline model."""
    from repro.baselines.base import (
        LORASTENCIL_CUDA_CORE_TRAITS,
        LORASTENCIL_TRAITS,
        FootprintScale,
    )
    from repro.perf.costmodel import time_per_point

    counters, points = _per_point_counters(plan)
    traits = (
        LORASTENCIL_TRAITS
        if plan.config.use_tensor_cores
        else LORASTENCIL_CUDA_CORE_TRAITS
    )
    return time_per_point(FootprintScale(counters=counters, points=points), traits)
