"""LoRAStencil 3D executor (Algorithm 2).

A 3D kernel of radius ``h`` is a stack of ``2h+1`` 2D weight planes.
Each output plane ``z`` accumulates, for kernel plane ``i``, the 2D
stencil of that plane applied to input slab ``z + i``:

* planes with a **single** nonzero weight (the off-centre planes of star
  kernels) are point-wise multiply-accumulate on the **CUDA cores**;
* every other plane runs the full 2D LoRAStencil on the **tensor
  cores** — this is where the two compute units of the GPU overlap
  (Section IV-C).

All paths use the repository-wide convention: input is padded by the
stencil radius on every axis, output is the interior.  Callers holding
*unpadded* volumes should prefer ``repro.compile(...)`` and
:meth:`~repro.runtime.facade.CompiledStencil.apply_grid`, which pads
internally through :mod:`repro.stencil.boundary`.

Direct construction is supported; ``repro.compile(weights, ndim=3)``
builds (and caches) the same engine inside a
:class:`~repro.runtime.plan.StencilPlan`.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.config import OptimizationConfig
from repro.core.engine2d import LoRAStencil2D
from repro.core.sweep import row_strips, validate_padded
from repro.errors import ShapeError
from repro.stencil.weights import StencilWeights
from repro.tcu.counters import EventCounters
from repro.tcu.device import Device
from repro.telemetry.spans import TRACER

__all__ = ["LoRAStencil3D", "DEFAULT_BLOCK_3D"]

#: Paper Table II blocking for the 3D kernels.
DEFAULT_BLOCK_3D = (8, 64)


class _PlaneTask:
    """One kernel plane: either a point-wise weight or a 2D engine."""

    def __init__(self, index: int, plane: np.ndarray, config: OptimizationConfig):
        self.index = index
        self.plane = plane
        nz = np.argwhere(plane != 0.0)
        if len(nz) == 1:
            self.pointwise: tuple[int, int, float] | None = (
                int(nz[0][0]),
                int(nz[0][1]),
                float(plane[nz[0][0], nz[0][1]]),
            )
            self.engine: LoRAStencil2D | None = None
        elif len(nz) == 0:
            self.pointwise = None
            self.engine = None
        else:
            self.pointwise = None
            self.engine = LoRAStencil2D(plane, config=config)


class LoRAStencil3D:
    """Plane-decomposed tensorized executor for one 3D stencil kernel."""

    def __init__(
        self,
        weights: StencilWeights | np.ndarray,
        config: OptimizationConfig | None = None,
    ) -> None:
        if isinstance(weights, StencilWeights):
            if weights.ndim != 3:
                raise ShapeError(
                    f"LoRAStencil3D requires 3D weights, got {weights.ndim}D"
                )
            w = weights.array
        else:
            w = np.asarray(weights, dtype=np.float64)
            if w.ndim != 3 or len(set(w.shape)) != 1 or w.shape[0] % 2 != 1:
                raise ShapeError(
                    f"weight array must be a cube with odd side, got {w.shape}"
                )
        self.weight_array = w
        self.radius = (w.shape[0] - 1) // 2
        self.config = config or OptimizationConfig()
        self.planes = [
            _PlaneTask(i, w[i], self.config) for i in range(w.shape[0])
        ]

    @property
    def tensor_core_planes(self) -> list[int]:
        """Kernel plane indices executed on the TCU."""
        return [p.index for p in self.planes if p.engine is not None]

    @property
    def cuda_core_planes(self) -> list[int]:
        """Kernel plane indices executed point-wise on CUDA cores."""
        return [p.index for p in self.planes if p.pointwise is not None]

    # ------------------------------------------------------------------
    # functional path
    # ------------------------------------------------------------------
    def apply(self, padded: np.ndarray) -> np.ndarray:
        """Apply the stencil to a padded 3D array; returns the interior."""
        padded, _ = validate_padded(padded, 3, self.radius)
        return self.apply_stack(padded)

    def apply_stack(self, padded: np.ndarray) -> np.ndarray:
        """:meth:`apply` over the last three axes of a float64 array.

        Walks the output in chunks of z-planes sized by
        :func:`~repro.core.sweep.row_strips`.  Within a chunk every
        kernel plane runs on its own slabs (a TCU plane once on the
        whole chunk, :meth:`LoRAStencil2D.apply_stack`), so input slabs
        are reused across planes while they are in cache (§IV-C's slab
        reuse).  Broadcasts over any leading (batch) axes, which count
        toward the strip budget, and does no validation: the caller has
        passed one grid of the stack through
        :func:`~repro.core.sweep.validate_padded`.
        """
        h = self.radius
        zs, rs, cs = (s - 2 * h for s in padded.shape[-3:])
        lead = padded.shape[:-3]
        out = np.zeros((*lead, zs, rs, cs), dtype=np.float64)
        in_plane = padded.shape[-2] * padded.shape[-1]
        plane_bytes = 8 * math.prod(lead) * (2 * in_plane + rs * cs)
        for z0, z1 in row_strips(zs, plane_bytes):
            o = out[..., z0:z1, :, :]
            for task in self.planes:
                i = task.index
                slabs = padded[..., i + z0 : i + z1, :, :]
                if task.pointwise is not None:
                    pi, pj, wt = task.pointwise
                    o += wt * slabs[..., pi : pi + rs, pj : pj + cs]
                elif task.engine is not None:
                    o += task.engine.apply_stack(slabs)
        return out

    # ------------------------------------------------------------------
    # simulated path
    # ------------------------------------------------------------------
    def apply_simulated(
        self,
        padded: np.ndarray,
        device: Device | None = None,
        block: tuple[int, int] | None = None,
        profiler=None,
        backend: str | None = None,
        armed=None,
    ) -> tuple[np.ndarray, EventCounters]:
        """Warp-level execution; returns ``(interior, counters)``.

        TCU planes dispatch per-slab 2D sweeps through the shared
        block-sweep driver (each plane engine interprets its own lowered
        tile program); the point-wise planes charge CUDA-core FLOPs and
        DRAM traffic without touching the tensor cores (Alg. 2's
        dual-unit split).  ``backend``, ``armed`` (a
        :class:`repro.faults.ArmedFaults`) and ``profiler`` thread into
        every plane engine's sweep, where the sweep driver decides what
        they mean (:func:`repro.core.sweep.run_block_sweep`); the
        point-wise planes carry no MM chain to checksum, and their
        traffic lands in the profile's driver residue.
        """
        padded, (zs, rs, cs) = validate_padded(padded, 3, self.radius)
        device = device or Device()
        start = device.snapshot()
        warp = device.warp()
        out = np.zeros((zs, rs, cs), dtype=np.float64)
        block = block or DEFAULT_BLOCK_3D

        with TRACER.span(
            "tcu.sweep", category="tcu", ndim=3, shape=f"{zs}x{rs}x{cs}"
        ) as span:
            for task in self.planes:
                if task.pointwise is not None:
                    pi, pj, wt = task.pointwise
                    gmem = device.global_array(padded, name=f"plane{task.index}")
                    slab = gmem.read(
                        (
                            slice(task.index, task.index + zs),
                            slice(pi, pi + rs),
                            slice(pj, pj + cs),
                        )
                    )
                    for z in range(zs):
                        warp.cuda_core_axpy(out[z], wt, slab[z])
                elif task.engine is not None:
                    for z in range(zs):
                        tile, _ = task.engine.apply_simulated(
                            padded[z + task.index],
                            device=device,
                            block=block,
                            profiler=profiler,
                            backend=backend,
                            armed=armed,
                        )
                        warp.cuda_core_axpy(out[z], 1.0, tile)
            gmem_out = device.global_array(np.zeros_like(out), name="output")
            gmem_out.write((slice(None), slice(None), slice(None)), out)
            events = device.events_since(start)
            span.add_events(events)
        return out, events

    # ------------------------------------------------------------------
    # z-streaming simulated path
    # ------------------------------------------------------------------
    def apply_simulated_streaming(
        self,
        padded: np.ndarray,
        device: Device | None = None,
    ) -> tuple[np.ndarray, EventCounters]:
        """Warp-level execution with z-streaming slab reuse.

        The production sweep keeps a rolling window of ``2h+1`` input
        slabs resident in shared memory: advancing one output plane
        copies exactly *one* new slab from DRAM, which every kernel
        plane then reuses.  Relative to :meth:`apply_simulated` (which
        re-copies a slab once per kernel plane) this divides the DRAM
        read traffic by roughly the number of planes touching each slab
        — the correction the performance footprints apply, here measured
        rather than assumed.
        """
        padded, (zs, rs, cs) = validate_padded(padded, 3, self.radius)
        device = device or Device()
        start = device.snapshot()
        warp = device.warp()
        gmem_in = device.global_array(padded, name="input")
        out = np.zeros((zs, rs, cs), dtype=np.float64)

        # shared-slab geometry covering every engine plane's tile windows
        # (including the last, possibly grid-overhanging, tile row/col)
        def _round_up(x: int, to: int) -> int:
            return ((x + to - 1) // to) * to

        engines = [t.engine for t in self.planes if t.engine is not None]
        slab_rows, slab_cols = padded.shape[1:]
        for e in engines:
            t = e.tile
            slab_rows = max(slab_rows, _round_up(rs, t.out_rows) - t.out_rows + t.k_rows)
            slab_cols = max(slab_cols, _round_up(cs, t.out_cols) - t.out_cols + t.w_cols)
        slab_shape = (slab_rows, slab_cols)

        resident: dict[int, "object"] = {}
        sources: dict[int, "object"] = {}  # per-plane lowered tile providers

        def slab(z_idx: int):
            """Fetch (once) the shared copy of input slab ``z_idx``."""
            if z_idx not in resident:
                smem = device.shared(slab_shape, name=f"slab{z_idx}")
                avail_r = min(slab_shape[0], padded.shape[1])
                avail_c = min(slab_shape[1], padded.shape[2])
                gmem_in.copy_to_shared(
                    (z_idx, slice(0, avail_r), slice(0, avail_c)),
                    smem,
                    0,
                    0,
                    use_async=self.config.use_async_copy,
                )
                resident[z_idx] = smem
            return resident[z_idx]

        for z in range(zs):
            # slide the window: drop the slab that fell out of range
            resident.pop(z - 1, None)
            for task in self.planes:
                smem = slab(z + task.index)
                if task.pointwise is not None:
                    pi, pj, wt = task.pointwise
                    centre = smem.read_scalar_tile(pi, pj, (rs, cs))
                    warp.cuda_core_axpy(out[z], wt, centre)
                elif task.engine is not None:
                    tile_engine = task.engine.tile
                    source = sources.setdefault(
                        task.index, task.engine.tile_source()
                    )
                    t_r, t_c = tile_engine.out_rows, tile_engine.out_cols
                    for tr in range(0, rs, t_r):
                        for tc in range(0, cs, t_c):
                            result = source(warp, smem, tr, tc)
                            vr, vc = min(t_r, rs - tr), min(t_c, cs - tc)
                            out[z, tr : tr + vr, tc : tc + vc] += result[:vr, :vc]
        gmem_out = device.global_array(np.zeros_like(out), name="output")
        gmem_out.write((slice(None), slice(None), slice(None)), out)
        return out, device.events_since(start)
