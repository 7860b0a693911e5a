"""The shared block-sweep driver behind every simulated engine.

Before this module, each of ``engine1d``/``engine2d``/``engine3d``
carried its own copy of the same orchestration: validate the padded
input, round the requested thread-block to warp-tile multiples, size a
shared-memory staging tile, copy global -> shared (``cp.async`` when
enabled), loop warp tiles over the block, trim the grid-overhanging
edge tiles, and book the hardware events into one
:class:`~repro.tcu.counters.EventCounters` span.  That orchestration now
lives here once, and so does the choice of backend and fault guard
(:func:`run_block_sweep`).  An engine shrinks to a *tile source* — its
``tile_source()`` callable computing one warp tile from shared memory,
and its ``lowered`` program for the vectorized walk — plus a
:class:`SweepSpec` describing its geometry:

* 2D sweeps pass their interior/tile/block shapes directly;
* 1D sweeps run as a ``1 x n`` sweep whose provider returns the 64
  outputs of the 8x8 accumulator as a flat ``(1, 64)`` row;
* 3D sweeps keep their plane decomposition and dispatch per-plane 2D
  sweeps (plus CUDA-core point-wise planes) — see
  :class:`~repro.core.engine3d.LoRAStencil3D`.

The driver reproduces the exact memory traffic of the engines it
replaced — same block rounding, same shared-tile shapes, same clamped
fills — so event counts are bit-for-bit stable across the refactor
(the schedule-equivalence suite pins this).

The engines' functional kernels use two helpers from here: the pad
check (:func:`validate_padded`) and :func:`row_strips`, which sizes the
cache-resident strips their ``apply_stack`` walks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import ShapeError
from repro.tcu.counters import EventCounters
from repro.tcu.device import Device
from repro.telemetry.health import current_beat
from repro.telemetry.spans import TRACER

__all__ = ["SweepSpec", "row_strips", "run_block_sweep", "validate_padded"]

#: Working-set budget of one functional strip (input rows, term
#: temporary and output rows together): about the size of L2.
_STRIP_BUDGET = 2 << 20


def _round_up(x: int, to: int) -> int:
    return ((x + to - 1) // to) * to


@dataclass(frozen=True)
class SweepSpec:
    """Geometry and labels of one block sweep (a 2D view of the grid).

    ``interior``/``tile``/``block`` are ``(rows, cols)`` shapes of the
    output, one warp tile, and the *requested* thread block (rounded up
    to tile multiples by the driver, clamped to the rounded interior).
    ``smem_halo`` is the extra shared rows/cols a block stages beyond
    its output shape (the input-window overhang).  ``ndim`` and
    ``shape_label`` only annotate the telemetry span — a 1D sweep runs
    as a ``1 x n`` spec but still reports ``ndim=1``.
    """

    interior: tuple[int, int]
    tile: tuple[int, int]
    block: tuple[int, int]
    smem_halo: tuple[int, int]
    use_async_copy: bool
    ndim: int
    shape_label: str

    def blocked(self) -> tuple[int, int]:
        """The effective block shape after tile rounding and clamping."""
        rows, cols = self.interior
        t_r, t_c = self.tile
        block_r = min(
            _round_up(rows, t_r), _round_up(max(self.block[0], t_r), t_r)
        )
        block_c = min(
            _round_up(cols, t_c), _round_up(max(self.block[1], t_c), t_c)
        )
        return block_r, block_c

    def smem_shape(self) -> tuple[int, int]:
        """Shared staging tile: the effective block plus its halo."""
        block_r, block_c = self.blocked()
        return block_r + self.smem_halo[0], block_c + self.smem_halo[1]


def validate_padded(
    padded: np.ndarray, ndim: int, radius: int
) -> tuple[np.ndarray, tuple[int, ...]]:
    """Check the pad convention; returns ``(float64 array, interior)``.

    Raises :class:`~repro.errors.ShapeError` when the dimensionality is
    wrong or the array is too small to contain one interior point after
    removing the ``radius`` halo.  This is the one pad check: every
    engine path, the runtime's batch stack (one grid of it) and its
    sharded sweep call it.
    """
    padded = np.asarray(padded, dtype=np.float64)
    if padded.ndim != ndim:
        raise ShapeError(f"expected {ndim}D input, got {padded.ndim}D")
    interior = tuple(s - 2 * radius for s in padded.shape)
    if min(interior) <= 0:
        raise ShapeError(
            f"padded input {padded.shape} too small for radius {radius}"
        )
    return padded, interior


def row_strips(n: int, bytes_per_row: int) -> Sequence[tuple[int, int]]:
    """Split ``[0, n)`` into equal ``(start, stop)`` strips for the
    functional kernels.

    Each strip's working set (``bytes_per_row`` per row) fits
    :data:`_STRIP_BUDGET`, so a strip stays in cache while every term
    reads it — the CPU form of the paper's RDG tile reuse (§III-B) and
    3D slab reuse (§IV-C).  A window that fits runs as one strip; only
    the last strip may be shorter.
    """
    per = _STRIP_BUDGET // max(1, bytes_per_row) or 1
    if n <= per:
        return ((0, n),)
    step = -(-n // -(-n // per))  # ceil(n / number of strips)
    return [(r0, min(r0 + step, n)) for r0 in range(0, n, step)]


def run_block_sweep(
    padded2d: np.ndarray,
    spec: SweepSpec,
    engine,
    device: Device | None = None,
    profiler=None,
    backend: str | None = None,
    armed=None,
) -> tuple[np.ndarray, EventCounters]:
    """Sweep one grid block by block; returns ``(interior, counters)``.

    ``padded2d`` is the padded input viewed as 2D (1D engines reshape to
    ``(1, n)``).  ``engine`` supplies its scheduled program
    (``engine.lowered``) and its tile provider
    (``engine.tile_source(oracle=, profiler=)``): a callable
    ``(warp, smem, row, col) -> out_tile`` computing one warp tile of
    the spec's tile shape from the block's shared staging tile, ``(row,
    col)`` being the tile's block-local input-window origin.  The driver
    owns everything else: global arrays, block rounding, the shared
    fill (clamped at the grid edge; shared memory is zero-initialized so
    out-of-range reads contribute through zero weights only), the tile
    loop with edge trimming, and the ``tcu.sweep`` telemetry span whose
    events are the sweep's own.

    This is the one place a backend meets fault mode.  ``backend``
    (``None``: the interpreter) picks the tile provider: the lowered
    program, or ``"oracle"``'s eager tile path.  ``"vectorized"`` runs
    the plan's :class:`~repro.core.vectorize.VectorProgram` over all
    tiles at once (bit-identical numerics and counters, no per-tile
    hooks); a CUDA-core engine has no program to batch and silently
    runs the interpreter path instead.  ``armed`` (a
    :class:`repro.faults.ArmedFaults`; ``None`` for a clean sweep)
    attaches its injector to the device — offered every staging copy
    (``on_stage``; warp-level MMA injection happens inside the tile
    provider's ``mma_sync`` calls) — and, under ``verify="abft"``,
    builds the :class:`repro.faults.abft.SweepGuard` that scrubs each
    staged block against its DRAM source and ABFT-verifies each
    computed tile, recovering per the armed policy.  The vectorized
    walk meeting an armed run or a device with an attached injector is
    a typed :class:`~repro.errors.BackendError`.  The unguarded path
    pays one ``is not None`` check per hook.

    ``profiler`` (a :class:`repro.telemetry.perf.InstrProfiler`) only
    receives the sweep's geometry and event total here
    (``note_sweep``); per-instruction attribution happens inside the
    tile provider, which closes over the same profiler.
    """
    from repro.runtime.backends import check_fault_support

    backend = check_fault_support(
        backend,
        armed is not None or getattr(device, "injector", None) is not None,
    )
    beat = current_beat()
    n_tiles = (
        -(-spec.interior[0] // spec.tile[0])
        * -(-spec.interior[1] // spec.tile[1])
    )
    lowered = engine.lowered if backend == "vectorized" else None
    if lowered is not None and lowered.vector is not None:
        from repro.core.vectorize import run_vector_sweep

        out = run_vector_sweep(
            padded2d, spec, lowered.vector, device=device, profiler=profiler
        )
        if beat is not None:
            beat(n_tiles, n_tiles)  # one-shot: all tiles at once
        return out
    compute_tile = engine.tile_source(
        oracle=backend == "oracle", profiler=profiler
    )
    device = device or Device()
    guard = None
    if armed is not None:
        from repro.faults.abft import make_guard

        guard = make_guard(engine, armed, label=f"{spec.ndim}d")
        if armed.injector is not None:
            device.injector = armed.injector
    injector = device.injector
    start = device.snapshot()
    warp = device.warp()
    rows, cols = spec.interior
    t_r, t_c = spec.tile
    block_r, block_c = spec.blocked()
    smem_shape = spec.smem_shape()

    gmem_in = device.global_array(padded2d, name="input")
    gmem_out = device.global_array(
        np.zeros((rows, cols), dtype=np.float64), name="output"
    )

    if beat is not None:
        beat(0, n_tiles)
    with TRACER.span(
        "tcu.sweep", category="tcu", ndim=spec.ndim, shape=spec.shape_label
    ) as span:
        for br in range(0, rows, block_r):
            for bc in range(0, cols, block_c):
                smem = device.shared(smem_shape, name="block")
                avail_r = min(smem_shape[0], padded2d.shape[0] - br)
                avail_c = min(smem_shape[1], padded2d.shape[1] - bc)
                if avail_r > 0 and avail_c > 0:
                    stage_site = (
                        injector.stage_site() if injector is not None else None
                    )

                    def _stage(
                        smem=smem,
                        br=br,
                        bc=bc,
                        ar=avail_r,
                        ac=avail_c,
                        site=stage_site,
                    ):
                        gmem_in.copy_to_shared(
                            (slice(br, br + ar), slice(bc, bc + ac)),
                            smem,
                            0,
                            0,
                            use_async=spec.use_async_copy,
                        )
                        if injector is not None:
                            injector.on_stage(smem, ar, ac, site=site)

                    _stage()
                    if guard is not None:
                        guard.check_stage(
                            smem, padded2d, br, bc, avail_r, avail_c, _stage
                        )
                r_lim = min(block_r, rows - br)
                c_lim = min(block_c, cols - bc)
                for tr in range(0, r_lim, t_r):
                    for tc in range(0, c_lim, t_c):
                        mark = (
                            injector.mma_mark()
                            if injector is not None
                            else None
                        )
                        out_tile = compute_tile(warp, smem, tr, tc)
                        if guard is not None:
                            out_tile = guard.check_tile(
                                out_tile,
                                compute_tile,
                                warp,
                                smem,
                                tr,
                                tc,
                                mma_mark=mark,
                            )
                        vr = min(t_r, rows - (br + tr))
                        vc = min(t_c, cols - (bc + tc))
                        gmem_out.write(
                            (
                                slice(br + tr, br + tr + vr),
                                slice(bc + tc, bc + tc + vc),
                            ),
                            out_tile[:vr, :vc],
                        )
                if beat is not None:
                    # one heartbeat per block: the monitored cadence
                    beat(-(-r_lim // t_r) * -(-c_lim // t_c))
        events = device.events_since(start)
        span.add_events(events)
    if profiler is not None:
        profiler.note_sweep(spec, events)
    return gmem_out.data, events
