"""LoRAStencil 2D executor.

Two execution paths share one decomposition:

* :meth:`LoRAStencil2D.apply` — the *functional* path: each rank-1 term
  is a separable filter (vertical pass with ``u``, horizontal with
  ``v``), vectorized with NumPy one cache-sized row strip at a time.
  Used for correctness oracles and large functional runs.  Its kernel,
  :meth:`LoRAStencil2D.apply_stack`, broadcasts over leading axes, so
  runtime batches and 3D plane stacks run it once per call.
* :meth:`LoRAStencil2D.apply_simulated` — the *faithful* path: the grid
  is swept block by block exactly like the CUDA implementation — global
  -> shared copies (``cp.async`` when enabled), 8x8 output tiles
  computed by interpreting the engine's **lowered tile program** (see
  :mod:`repro.core.lowering`) on the TCU simulator, and accumulator
  stores back to DRAM — producing both the numeric result and the
  hardware event counts the figures consume.  The block-sweep
  orchestration itself lives in :func:`repro.core.sweep.run_block_sweep`
  (shared with the 1D and 3D engines); this engine only contributes the
  tile provider.  :meth:`LoRAStencil2D.tile_source` with
  ``oracle=True`` computes tiles through the eager
  :meth:`~repro.core.rdg.RDGTileCompute.compute_tile` path instead —
  the ABFT ladder's last-resort fallback and the reference the
  schedule-equivalence suite compares against.

Both paths use the repository-wide convention: input is padded by the
stencil radius, output is the interior.  Callers holding *unpadded*
grids should prefer ``repro.compile(...)`` and
:meth:`~repro.runtime.facade.CompiledStencil.apply_grid`, which pads
internally through :mod:`repro.stencil.boundary`.

Direct construction is supported; ``repro.compile(weights, ...)``
builds (and caches) the same engine inside a
:class:`~repro.runtime.plan.StencilPlan`.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.config import OptimizationConfig
from repro.core.lowrank import Decomposition, decompose
from repro.core.rdg import OUT_TILE, RDGTileCompute
from repro.core.sweep import (
    SweepSpec,
    row_strips,
    run_block_sweep,
    validate_padded,
)
from repro.errors import ShapeError
from repro.stencil.weights import StencilWeights
from repro.tcu.counters import EventCounters
from repro.tcu.device import Device
from repro.tcu.program import execute_program

__all__ = ["LoRAStencil2D", "DEFAULT_BLOCK_2D"]

#: Paper Table II blocking for the 2D kernels (rows x cols of outputs).
DEFAULT_BLOCK_2D = (32, 64)


class LoRAStencil2D:
    """Low-rank tensorized executor for one 2D stencil kernel."""

    def __init__(
        self,
        weights: StencilWeights | np.ndarray,
        config: OptimizationConfig | None = None,
        decomposition: Decomposition | None = None,
        tile_shape: tuple[int, int] = (OUT_TILE, OUT_TILE),
    ) -> None:
        if isinstance(weights, StencilWeights):
            if weights.ndim != 2:
                raise ShapeError(
                    f"LoRAStencil2D requires 2D weights, got {weights.ndim}D"
                )
            w = weights.as_matrix()
        else:
            w = np.asarray(weights, dtype=np.float64)
            if w.ndim != 2 or w.shape[0] != w.shape[1] or w.shape[0] % 2 != 1:
                raise ShapeError(
                    f"weight matrix must be square with odd side, got {w.shape}"
                )
        self.weight_matrix = w
        self.radius = (w.shape[0] - 1) // 2
        self.config = config or OptimizationConfig()
        self.decomposition = decomposition or decompose(w)
        self.tile = RDGTileCompute(
            self.decomposition,
            self.radius,
            self.config,
            out_rows=tile_shape[0],
            out_cols=tile_shape[1],
        )
        self._lowered = None

    # ------------------------------------------------------------------
    # lowering
    # ------------------------------------------------------------------
    @property
    def lowered(self):
        """The scheduled tile program this engine executes.

        A :class:`~repro.core.lowering.LoweredTile` built on first read
        by :func:`~repro.core.lowering.lower_engine` (the plan's
        :func:`~repro.core.lowering.lower` reads it too); ``None`` for
        CUDA-core configurations, which have no tensor-core program.
        """
        if self._lowered is None and self.config.use_tensor_cores:
            from repro.core.lowering import lower_engine

            self._lowered = lower_engine(self)
        return self._lowered

    def tile_source(self, oracle: bool = False):
        """The tile provider the sweep driver executes.

        Interprets the lowered program by default; ``oracle=True`` (or a
        CUDA-core config, which has no program) selects the eager
        :meth:`~repro.core.rdg.RDGTileCompute.compute_tile` path.
        """
        lowered = None if oracle else self.lowered
        if lowered is None:
            return self.tile.compute_tile
        program = lowered.program

        def _compute(warp, smem, row, col):
            return execute_program(program, warp, smem, row, col)

        return _compute

    # ------------------------------------------------------------------
    # functional path
    # ------------------------------------------------------------------
    def apply(self, padded: np.ndarray) -> np.ndarray:
        """Apply the stencil to a padded array; returns the interior.

        Computes ``sum_k U_k X V_k`` as a sum of separable filters —
        mathematically identical to the simulated MCM.
        """
        padded, _ = validate_padded(padded, 2, self.radius)
        return self.apply_stack(padded)

    def apply_stack(self, padded: np.ndarray) -> np.ndarray:
        """:meth:`apply` over the last two axes of a float64 array.

        Walks the output in row strips sized by
        :func:`~repro.core.sweep.row_strips` and runs every rank-1 term
        on a strip while its input rows are in cache (the CPU form of
        §III-B's RDG: load a tile once, reuse it for every term).  Each
        output element sees the same operations in the same order as a
        whole-grid pass, so the result does not depend on the strip
        height.  Broadcasts over any leading axes (a batch, or the
        z-planes of a 3D sweep), which count toward the strip budget,
        and does no validation: the caller has passed one grid of the
        stack through :func:`~repro.core.sweep.validate_padded`.
        """
        h = self.radius
        width = padded.shape[-1]
        rows, cols = padded.shape[-2] - 2 * h, width - 2 * h
        lead = padded.shape[:-2]
        out = np.zeros((*lead, rows, cols), dtype=np.float64)
        row_bytes = 8 * math.prod(lead) * (2 * width + cols)
        for r0, r1 in row_strips(rows, row_bytes):
            n = r1 - r0
            o = out[..., r0:r1, :]
            for term in self.decomposition.matrix_terms:
                pd, s = term.pad, term.size
                # the horizontal pass reads only columns [pd, pd+s-1+cols)
                x = padded[..., r0 + pd : r1 + pd + s - 1, pd : pd + s - 1 + cols]
                tmp = np.zeros((*lead, n, s - 1 + cols), dtype=np.float64)
                for t in range(s):
                    tmp += term.u[t] * x[..., t : t + n, :]
                for r in range(s):
                    o += term.v[r] * tmp[..., r : r + cols]
            for term in self.decomposition.scalar_terms:
                o += term.scalar_weight * padded[..., r0 + h : r1 + h, h : h + cols]
        return out

    # ------------------------------------------------------------------
    # simulated path
    # ------------------------------------------------------------------
    def apply_simulated(
        self,
        padded: np.ndarray,
        device: Device | None = None,
        block: tuple[int, int] | None = None,
        backend: str | None = None,
        armed=None,
    ) -> tuple[np.ndarray, EventCounters]:
        """Warp-level execution on the TCU simulator.

        Returns ``(interior, counters)`` where ``counters`` holds the
        events of this sweep only.  ``backend`` (``"interpreter"`` |
        ``"vectorized"``; ``None``: the interpreter) and
        ``armed`` (a :class:`repro.faults.ArmedFaults`, ``None`` for a
        clean sweep) go straight to the sweep driver, which picks the
        tile provider and the ABFT guard and refuses the vectorized walk
        in fault mode — see :func:`repro.core.sweep.run_block_sweep`.
        """
        padded, (rows, cols) = validate_padded(padded, 2, self.radius)
        t = self.tile
        spec = SweepSpec(
            interior=(rows, cols),
            tile=(t.out_rows, t.out_cols),
            block=block or DEFAULT_BLOCK_2D,
            smem_halo=(t.k_rows - t.out_rows, t.w_cols - t.out_cols),
            use_async_copy=self.config.use_async_copy,
            ndim=2,
            shape_label=f"{rows}x{cols}",
        )
        return run_block_sweep(
            padded,
            spec,
            self,
            device=device,
            backend=backend,
            armed=armed,
        )

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    @property
    def rank(self) -> int:
        """Number of rank-1 terms in the decomposition."""
        return self.decomposition.rank

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LoRAStencil2D(radius={self.radius}, rank={self.rank}, "
            f"method={self.decomposition.method!r}, config={self.config.label()})"
        )
