"""Device: the top-level simulator handle.

A :class:`Device` ties one :class:`~repro.tcu.counters.EventCounters`
ledger to the memories and warps created from it, and tracks the peak
shared-memory allocation (the quantity the occupancy model in
:mod:`repro.perf.occupancy` consumes — ConvStencil's stencil2row
matrices lose occupancy exactly here).
"""

from __future__ import annotations

import numpy as np

from repro.tcu.counters import EventCounters
from repro.tcu.memory import GlobalMemory, SharedMemory
from repro.tcu.warp import Warp

__all__ = ["Device"]


class Device:
    """One simulated GPU context: counters + memory factories + warps.

    ``injector`` (a :class:`repro.faults.injector.FaultInjector`) arms
    deterministic fault injection on every warp created from this
    device and on the block-sweep staging copies.  ``profiler`` (a
    :class:`repro.telemetry.perf.InstrProfiler`) rides the same way:
    every warp created from this device hands it to the program
    interpreter, and the sweep drivers note each sweep's total on it.
    ``None`` (the default for both) keeps the fast path branch-free
    beyond one attribute check.
    """

    def __init__(self, injector=None, profiler=None) -> None:
        self.counters = EventCounters()
        self.peak_shared_bytes = 0
        self.injector = injector
        self.profiler = profiler

    def shared(self, shape: tuple[int, int], name: str = "smem") -> SharedMemory:
        """Allocate a shared-memory tile (per thread block)."""
        smem = SharedMemory(shape, self.counters, name=name)
        self.peak_shared_bytes = max(self.peak_shared_bytes, smem.nbytes)
        return smem

    def global_array(self, array: np.ndarray, name: str = "gmem") -> GlobalMemory:
        """Wrap an array as DRAM-resident."""
        return GlobalMemory(array, self.counters, name=name)

    def warp(self) -> Warp:
        """A warp wired to this device's counters, fault injector and
        profiler."""
        return Warp(
            self.counters, injector=self.injector, profiler=self.profiler
        )

    # -- measurement helpers ------------------------------------------------
    def snapshot(self) -> EventCounters:
        """Counter snapshot for later differencing."""
        return self.counters.snapshot()

    def events_since(self, snapshot: EventCounters) -> EventCounters:
        """Events accumulated since ``snapshot`` was taken."""
        return self.counters.diff(snapshot)
