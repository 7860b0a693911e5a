"""Common baseline interface and calibration traits.

A :class:`StencilMethod` binds to one stencil kernel and produces

* exact functional output (``apply``), and
* an :class:`~repro.tcu.counters.EventCounters` *footprint per grid
  point and timestep* (``footprint_per_point``) that the cost model
  turns into GStencil/s.

Footprints are measured on the TCU simulator when the method has a
simulated implementation, and computed from the method's published
algorithmic structure otherwise; either way they scale linearly to the
paper's full problem sizes.

:class:`MethodTraits` carries the per-method efficiency calibration.
The *counters* encode each algorithm's structure (they vary per kernel);
the *traits* encode how close each implementation runs to hardware peaks
(one constant set per method, fixed across all kernels).  See DESIGN.md
Section 6 for the calibration policy.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.stencil.kernels import BenchmarkKernel
from repro.stencil.weights import StencilWeights
from repro.tcu.counters import EventCounters

__all__ = [
    "MethodTraits",
    "StencilMethod",
    "FootprintScale",
    "LORASTENCIL_TRAITS",
    "LORASTENCIL_CUDA_CORE_TRAITS",
]


@dataclass(frozen=True)
class MethodTraits:
    """Efficiency calibration of one method (fractions of hardware peak).

    Attributes
    ----------
    tcu_efficiency:
        Achieved fraction of tensor-core FP64 peak.
    cuda_efficiency:
        Achieved fraction of CUDA-core FP64 peak.
    dram_efficiency:
        Achieved fraction of HBM bandwidth.
    smem_efficiency:
        Achieved fraction of shared-memory throughput.
    issue_efficiency:
        Achieved fraction of the warp-scheduler instruction issue rate —
        the binding resource for fine-grained CUDA-core stencils.
    launch_overhead:
        Multiplicative slack for everything the counters do not see
        (synchronization, tail effects); >= 1.
    time_scale:
        Final multiplicative factor on modelled time.  1.0 for every
        method except TCStencil, whose FP16-only implementation the
        paper converts to FP64 terms by dividing its speed by 4
        (Section V-A) — i.e. ``time_scale = 4``.
    fixed_time_s:
        Additive seconds per point-update: the latency floor of
        latency-bound CUDA-core implementations (index arithmetic,
        dependent loads, predication) that no throughput term captures.
    """

    tcu_efficiency: float = 0.60
    cuda_efficiency: float = 0.25
    dram_efficiency: float = 0.80
    smem_efficiency: float = 0.80
    issue_efficiency: float = 0.50
    launch_overhead: float = 1.0
    time_scale: float = 1.0
    fixed_time_s: float = 0.0


#: LoRAStencil's calibration on tensor cores: the baseline method, the
#: plan's cost prediction and the autotuner all price with this one set.
LORASTENCIL_TRAITS = MethodTraits(
    tcu_efficiency=0.86,
    cuda_efficiency=0.40,
    dram_efficiency=0.85,
    smem_efficiency=0.85,
    issue_efficiency=0.60,
)

#: Fig. 9 level 0: the dense banded MCM on CUDA cores reaches a small
#: fraction of FP64 peak (unfused inner products over mostly-zero bands).
LORASTENCIL_CUDA_CORE_TRAITS = MethodTraits(
    cuda_efficiency=0.157,
    dram_efficiency=0.85,
    smem_efficiency=0.85,
    issue_efficiency=0.60,
)


@dataclass(frozen=True)
class FootprintScale:
    """A measured footprint together with the grid it was measured on."""

    counters: EventCounters
    points: int

    def per_point(self) -> dict[str, float]:
        """Event rates per grid point-timestep."""
        return {k: v / self.points for k, v in self.counters.as_dict().items()}


class StencilMethod(abc.ABC):
    """One evaluated system, bound to a single benchmark kernel."""

    #: Display name used in figures/tables.
    name: str = "method"
    #: Whether the method runs its arithmetic on the tensor cores.
    uses_tensor_cores: bool = False

    def __init__(self, kernel: BenchmarkKernel) -> None:
        self.kernel = kernel
        self.weights: StencilWeights = kernel.weights

    # -- functional -------------------------------------------------------
    @abc.abstractmethod
    def apply(self, padded: np.ndarray) -> np.ndarray:
        """Exact stencil application (padded -> interior)."""

    # -- performance --------------------------------------------------------
    @abc.abstractmethod
    def footprint(self, grid_shape: tuple[int, ...] | None = None) -> FootprintScale:
        """Hardware-event footprint for one sweep of ``grid_shape``.

        ``grid_shape`` defaults to a method-appropriate measurement grid;
        the result is meant to be read per point and scaled.
        """

    @abc.abstractmethod
    def traits(self) -> MethodTraits:
        """Efficiency calibration for the cost model."""

    # -- conveniences ---------------------------------------------------------
    def default_measure_grid(self) -> tuple[int, ...]:
        """A small grid that exercises the full blocking structure."""
        ndim = self.weights.ndim
        if ndim == 1:
            return (4096,)
        if ndim == 2:
            return (128, 128)
        return (8, 32, 32)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.kernel.name})"
