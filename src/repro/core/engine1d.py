"""LoRAStencil 1D executor.

1D stencils have no residual dimension (Section IV-C): a single matrix
multiplication gathers all dependencies, so there is no MCM, no BVS, and
no pyramid — just the banded weight matrix ``U`` applied to a window
matrix whose columns are 8-strided segments of the input.  The
simulated path interprets the engine's lowered 1D tile program
(:func:`repro.tcu.program.build_tile_program_1d`) through the shared
block-sweep driver (:mod:`repro.core.sweep`), which treats the sweep as
a ``1 x n`` grid of ``(1, 64)`` output tiles; the eager accumulator
chain survives behind :meth:`LoRAStencil1D.tile_source` with
``oracle=True`` (the ABFT fallback and the equivalence reference).

Both paths use the repository-wide convention: input is padded by the
stencil radius, output is the interior.  Callers holding *unpadded*
arrays should prefer ``repro.compile(...)`` and
:meth:`~repro.runtime.facade.CompiledStencil.apply_grid`, which pads
internally through :mod:`repro.stencil.boundary`.

Direct construction is supported; ``repro.compile(weights, ndim=1)``
builds (and caches) the same engine inside a
:class:`~repro.runtime.plan.StencilPlan`.

Tile layout: one warp updates 64 consecutive outputs arranged as an 8x8
accumulator with ``out_tile[p, q] = out[base + 8q + p]``.  The window
``X[r, q] = x[base + 8q + r]`` is read from the block's flat shared
buffer with strided fragment loads, and ``out_tile = U @ X`` accumulates
over the ``K/4`` k-blocks.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.config import OptimizationConfig
from repro.core.sweep import (
    SweepSpec,
    row_strips,
    run_block_sweep,
    validate_padded,
)
from repro.core.uvbuild import build_u_matrix
from repro.errors import ShapeError
from repro.stencil.weights import StencilWeights
from repro.tcu.counters import EventCounters
from repro.tcu.device import Device
from repro.tcu.fragment import Fragment
from repro.tcu.layouts import FragmentKind
from repro.tcu.program import execute_program_1d

__all__ = ["LoRAStencil1D", "DEFAULT_BLOCK_1D"]

#: Paper Table II blocking for the 1D kernels (outputs per block).
DEFAULT_BLOCK_1D = 1024

_TILE = 64  # outputs per warp-tile (8x8 accumulator)


def _round_up(x: int, to: int) -> int:
    return ((x + to - 1) // to) * to


class LoRAStencil1D:
    """Tensorized executor for one 1D stencil kernel."""

    def __init__(
        self,
        weights: StencilWeights | np.ndarray,
        config: OptimizationConfig | None = None,
    ) -> None:
        if isinstance(weights, StencilWeights):
            if weights.ndim != 1:
                raise ShapeError(
                    f"LoRAStencil1D requires 1D weights, got {weights.ndim}D"
                )
            w = weights.as_vector()
        else:
            w = np.asarray(weights, dtype=np.float64)
            if w.ndim != 1 or w.shape[0] % 2 != 1:
                raise ShapeError(
                    f"weight vector must have odd length, got shape {w.shape}"
                )
        self.weight_vector = w
        self.radius = (w.shape[0] - 1) // 2
        self.config = config or OptimizationConfig()

        h = self.radius
        #: window rows (k-dimension), 4-aligned
        self.k_rows = _round_up(8 + 2 * h, 4)
        u_mat = build_u_matrix(w, 8, self.k_rows, offset=0)
        self._u_mat = u_mat
        self._u_frags = [
            Fragment.from_matrix(FragmentKind.A, u_mat[:, 4 * k : 4 * k + 4])
            for k in range(self.k_rows // 4)
        ]
        self._lowered = None

    @property
    def mma_per_tile(self) -> int:
        """MMA instructions per 64 outputs."""
        return self.k_rows // 4

    # ------------------------------------------------------------------
    # lowering
    # ------------------------------------------------------------------
    @property
    def lowered(self):
        """The scheduled 1D tile program this engine executes.

        A :class:`~repro.core.lowering.LoweredTile` built on first read
        by :func:`~repro.core.lowering.lower_engine` (the plan's
        :func:`~repro.core.lowering.lower` reads it too); ``None`` for
        CUDA-core configurations.
        """
        if self._lowered is None and self.config.use_tensor_cores:
            from repro.core.lowering import lower_engine

            self._lowered = lower_engine(self)
        return self._lowered

    # ------------------------------------------------------------------
    # functional path
    # ------------------------------------------------------------------
    def apply(self, padded: np.ndarray) -> np.ndarray:
        """Apply the stencil to a padded 1D array; returns the interior."""
        padded, _ = validate_padded(padded, 1, self.radius)
        return self.apply_stack(padded)

    def apply_stack(self, padded: np.ndarray) -> np.ndarray:
        """:meth:`apply` over the last axis of a float64 array.

        Walks the last axis in strips sized by
        :func:`~repro.core.sweep.row_strips`.  Broadcasts over any
        leading (batch) axes, which count toward the strip budget, and
        does no validation: the caller has passed one grid of the stack
        through :func:`~repro.core.sweep.validate_padded`.
        """
        n = padded.shape[-1] - 2 * self.radius
        lead = padded.shape[:-1]
        out = np.zeros((*lead, n), dtype=np.float64)
        # per point: one input, one tap temporary, one output
        for c0, c1 in row_strips(n, 24 * math.prod(lead)):
            o = out[..., c0:c1]
            for t, wt in enumerate(self.weight_vector):
                o += wt * padded[..., c0 + t : c1 + t]
        return out

    # ------------------------------------------------------------------
    # simulated path
    # ------------------------------------------------------------------
    def apply_simulated(
        self,
        padded: np.ndarray,
        device: Device | None = None,
        block: int = DEFAULT_BLOCK_1D,
        backend: str | None = None,
        armed=None,
    ) -> tuple[np.ndarray, EventCounters]:
        """Warp-level execution; returns ``(interior, counters)``.

        Sweeps through the shared block-sweep driver as a ``1 x n``
        grid.  ``backend`` (``None``: the interpreter) and ``armed`` (a
        :class:`repro.faults.ArmedFaults`, ``None`` for a clean sweep)
        go straight to :func:`repro.core.sweep.run_block_sweep`, which
        picks the tile provider and the ABFT guard and refuses the
        vectorized walk in fault mode.
        """
        padded, (n,) = validate_padded(padded, 1, self.radius)
        # last tile of a block reads up to block - 64 + 8*7 + k_rows
        spec = SweepSpec(
            interior=(1, n),
            tile=(1, _TILE),
            block=(1, block),
            smem_halo=(0, self.k_rows - 8 + _TILE - 8),
            use_async_copy=self.config.use_async_copy,
            ndim=1,
            shape_label=str(n),
        )
        out, events = run_block_sweep(
            padded.reshape(1, -1),
            spec,
            self,
            device=device,
            backend=backend,
            armed=armed,
        )
        return out.reshape(-1), events

    def tile_source(self, oracle: bool = False):
        """The tile provider the sweep driver executes.

        Returns a callable computing the 64 outputs at block-local
        offset ``col`` as a flat ``(1, 64)`` row (``out[base + 8q + p] =
        acc[p, q]``), interpreting the lowered program unless
        ``oracle=True`` or the config targets CUDA cores.
        """
        lowered = None if oracle else self.lowered

        def _compute(warp, smem, row, col):
            if lowered is not None:
                acc = execute_program_1d(lowered.program, warp, smem, col)
            else:
                acc = self._compute_tile(warp, smem, col)
            return acc.T.reshape(1, -1)

        return _compute

    def _compute_tile(self, warp, smem, local_base: int) -> np.ndarray:
        """One 8x8 accumulator covering 64 consecutive outputs (eager)."""
        if not self.config.use_tensor_cores:
            window = np.empty((self.k_rows, 8), dtype=np.float64)
            for kb in range(self.k_rows // 4):
                window[4 * kb : 4 * kb + 4, :] = smem.read_fragment_strided(
                    local_base + 4 * kb, (4, 8), col_stride=8
                )
            warp.counters.cuda_core_flops += 2 * 8 * self.k_rows * 8
            return self._u_mat @ window
        acc = None
        for kb in range(self.k_rows // 4):
            x_tile = smem.read_fragment_strided(
                local_base + 4 * kb, (4, 8), col_stride=8
            )
            x_frag = Fragment.from_matrix(FragmentKind.B, x_tile)
            acc = warp.mma_sync(self._u_frags[kb], x_frag, acc)
        return acc.to_matrix()
