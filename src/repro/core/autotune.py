"""Configuration autotuner.

Given a 2D kernel, search the execution-configuration space the
repository exposes — temporal fusion factor (Section IV-A) and output
tile shape (Section III-B's reuse/compute tradeoff) — measure each
candidate's footprint on the simulator, and pick the configuration the
cost model ranks fastest.  This automates the choices the paper makes
by hand (3x fusion for radius-1 kernels, 8x8 tiles for radius 3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.base import (
    LORASTENCIL_TRAITS,
    FootprintScale,
    MethodTraits,
)
from repro.core.engine2d import LoRAStencil2D
from repro.core.fusion import fuse_kernel
from repro.perf.costmodel import gstencil_per_second
from repro.perf.machine import A100, MachineSpec
from repro.stencil.weights import StencilWeights

__all__ = ["Candidate", "TuneResult", "autotune_2d", "DEFAULT_TRAITS"]

#: the autotuner ranks candidates with LoRAStencil's own calibration
DEFAULT_TRAITS = LORASTENCIL_TRAITS


@dataclass(frozen=True)
class Candidate:
    """One evaluated (fusion, tile) configuration."""

    fusion: int
    tile_shape: tuple[int, int]
    gstencil_per_s: float
    mma_per_point: float
    loads_per_point: float


@dataclass(frozen=True)
class TuneResult:
    """Autotuning outcome: the winner plus the whole candidate table."""

    best: Candidate
    candidates: tuple[Candidate, ...]

    def build_engine(self, weights: StencilWeights) -> LoRAStencil2D:
        """Instantiate the winning engine for ``weights``."""
        if self.best.fusion > 1:
            weights = fuse_kernel(weights, self.best.fusion).fused
        return LoRAStencil2D(
            weights.as_matrix(), tile_shape=self.best.tile_shape
        )


def autotune_2d(
    weights: StencilWeights,
    fusion_options: tuple[int, ...] = (1, 2, 3),
    tile_options: tuple[tuple[int, int], ...] = ((8, 8), (8, 16), (16, 16)),
    measure_grid: tuple[int, int] = (48, 48),
    traits: MethodTraits = DEFAULT_TRAITS,
    machine: MachineSpec = A100,
    seed: int = 0,
) -> TuneResult:
    """Measure every (fusion, tile) candidate and return the ranking.

    Fused candidates amortize one sweep over ``fusion`` timesteps, so
    all scores are per *base* timestep and directly comparable.
    """
    if weights.ndim != 2:
        raise ValueError(f"autotune_2d needs a 2D kernel, got {weights.ndim}D")
    rng = np.random.default_rng(seed)
    candidates: list[Candidate] = []
    for fusion in fusion_options:
        fused = fuse_kernel(weights, fusion).fused if fusion > 1 else weights
        h = fused.radius
        x = rng.normal(size=tuple(s + 2 * h for s in measure_grid))
        for tile_shape in tile_options:
            engine = LoRAStencil2D(fused.as_matrix(), tile_shape=tile_shape)
            _, counters = engine.apply_simulated(x)
            points = measure_grid[0] * measure_grid[1] * fusion
            fp = FootprintScale(counters=counters, points=points)
            candidates.append(
                Candidate(
                    fusion=fusion,
                    tile_shape=tile_shape,
                    gstencil_per_s=gstencil_per_second(fp, traits, machine),
                    mma_per_point=counters.mma_ops / points,
                    loads_per_point=counters.shared_load_requests / points,
                )
            )
    ranked = sorted(candidates, key=lambda c: c.gstencil_per_s, reverse=True)
    return TuneResult(best=ranked[0], candidates=tuple(ranked))
