"""Sustained simulated execution: multi-iteration runs with double
buffering on the device.

The per-sweep engines return fresh arrays; a production stencil run
ping-pongs two DRAM buffers across thousands of timesteps.
:class:`SimulationDriver` reproduces that structure on the simulator —
one :class:`~repro.tcu.device.Device` whose counters accumulate over the
whole run — and reports sustained statistics (events per point-step,
peak shared usage, modelled sustained GStencil/s).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.base import FootprintScale, MethodTraits
from repro.core.engine2d import LoRAStencil2D
from repro.perf.costmodel import gstencil_per_second
from repro.perf.machine import A100, MachineSpec
from repro.stencil.grid import Grid
from repro.stencil.weights import StencilWeights
from repro.tcu.counters import EventCounters
from repro.tcu.device import Device

__all__ = ["RunReport", "SimulationDriver"]


@dataclass(frozen=True)
class RunReport:
    """Everything one sustained run produced."""

    final: np.ndarray
    steps: int
    points: int
    counters: EventCounters
    peak_shared_bytes: int

    @property
    def point_steps(self) -> int:
        return self.points * self.steps

    def footprint(self) -> FootprintScale:
        """Per point-step footprint of the sustained run."""
        return FootprintScale(counters=self.counters, points=self.point_steps)

    def sustained_gstencil(
        self,
        traits: MethodTraits,
        machine: MachineSpec = A100,
    ) -> float:
        """Modelled sustained GStencil/s for this run's footprint."""
        return gstencil_per_second(self.footprint(), traits, machine)


class SimulationDriver:
    """Double-buffered multi-step simulated execution (2D)."""

    def __init__(
        self,
        weights: StencilWeights,
        boundary: str = "constant",
        engine: LoRAStencil2D | None = None,
    ) -> None:
        if weights.ndim != 2:
            raise ValueError(
                f"SimulationDriver supports 2D stencils, got {weights.ndim}D"
            )
        self.weights = weights
        self.boundary = boundary
        if engine is None:
            engine = LoRAStencil2D(weights.as_matrix())
        self.engine = engine

    def run(self, initial: np.ndarray, steps: int) -> RunReport:
        """Run ``steps`` simulated sweeps, accumulating device counters."""
        if steps < 0:
            raise ValueError(f"steps must be >= 0, got {steps}")
        initial = np.asarray(initial, dtype=np.float64)
        device = Device()
        grid = Grid(initial, self.weights.radius, boundary=self.boundary)
        for _ in range(steps):
            grid.step(
                lambda padded: self.engine.apply_simulated(
                    padded, device=device
                )[0]
            )
        return RunReport(
            final=grid.interior,
            steps=steps,
            points=int(np.prod(initial.shape)),
            counters=device.counters.snapshot(),
            peak_shared_bytes=device.peak_shared_bytes,
        )
