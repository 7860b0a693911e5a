"""repro — a full reproduction of *LoRAStencil: Low-Rank Adaptation of
Stencil Computation on Tensor Cores* (SC 2024).

Public API tour — compile once, execute many:

>>> import numpy as np
>>> import repro
>>> kernel = repro.get_kernel("Box-2D49P")
>>> stencil = repro.compile(kernel.weights)     # cached StencilPlan
>>> x = np.random.default_rng(0).normal(size=(64, 64))
>>> out = stencil.apply_grid(x)                 # pads internally
>>> padded = np.pad(x, stencil.radius)
>>> out_sim, events = stencil.apply_simulated(padded)  # TCU simulation
>>> bool(np.allclose(out_sim, repro.reference_apply(padded, kernel.weights)))
True

:func:`repro.compile` derives the PMA/SVD decomposition, banded gather
matrices, BVS permutation and block schedule once per distinct
``(weights, config, tile_shape, dtype)`` and memoizes the resulting
:class:`~repro.runtime.plan.StencilPlan` in a content-addressed
:class:`~repro.runtime.cache.PlanCache`.  The returned
:class:`~repro.runtime.facade.CompiledStencil` executes single grids,
vectorized batches (:meth:`apply_batch`) and sharded simulated sweeps
with merged event counters.

Subpackages: :mod:`repro.stencil` (substrate), :mod:`repro.tcu`
(tensor-core simulator), :mod:`repro.core` (RDG/PMA/BVS engines),
:mod:`repro.runtime` (plans, plan cache, batched/sharded execution),
:mod:`repro.baselines` (the Fig. 8 line-up), :mod:`repro.perf`
(A100 cost model), :mod:`repro.analysis` (Eq. 12-16 closed forms),
:mod:`repro.experiments` (figure/table drivers).

Direct engine construction (``LoRAStencil2D(...)``) is supported and
computes identically to :func:`repro.compile`'s ``apply``; the compiled
facade adds the plan cache, the simulated backends and telemetry.
"""

from repro.errors import (
    BackendError,
    DecompositionError,
    KernelNotFoundError,
    LoweringError,
    PerfError,
    ReproError,
    ShapeError,
)
from repro.stencil import (
    Grid,
    KERNELS,
    Shape,
    StencilPattern,
    StencilWeights,
    box_weights,
    compose_weights,
    get_kernel,
    is_radially_symmetric,
    list_kernels,
    radially_symmetric_weights,
    reference_apply,
    reference_iterate,
    star_weights,
)
from repro.core import (
    Decomposition,
    LoRAStencil1D,
    LoRAStencil2D,
    LoRAStencil3D,
    OptimizationConfig,
    Rank1Term,
    fuse_kernel,
)
from repro.core.lowrank import decompose, pyramidal_decompose, svd_decompose
from repro.runtime import (
    CompiledStencil,
    PlanCache,
    Runtime,
    StencilPlan,
    compile,
)
from repro.tcu import Device, EventCounters
from repro.perf import A100, gstencil_per_second
from repro.core.autotune import autotune_2d
from repro.parallel import ClusterRuntime, distribute
from repro.precision import TCStencilFP16, precision_sweep
from repro.codegen import generate_cuda_kernel
from repro.validation import convergence_study, estimated_order

__version__ = "1.1.0"

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "KernelNotFoundError",
    "DecompositionError",
    "ShapeError",
    "LoweringError",
    "PerfError",
    "BackendError",
    # stencil substrate
    "Shape",
    "StencilPattern",
    "StencilWeights",
    "Grid",
    "KERNELS",
    "get_kernel",
    "list_kernels",
    "box_weights",
    "star_weights",
    "radially_symmetric_weights",
    "compose_weights",
    "is_radially_symmetric",
    "reference_apply",
    "reference_iterate",
    # core
    "Rank1Term",
    "Decomposition",
    "decompose",
    "pyramidal_decompose",
    "svd_decompose",
    "LoRAStencil1D",
    "LoRAStencil2D",
    "LoRAStencil3D",
    "OptimizationConfig",
    "fuse_kernel",
    # runtime
    "compile",
    "CompiledStencil",
    "StencilPlan",
    "PlanCache",
    "Runtime",
    # hardware + perf
    "Device",
    "EventCounters",
    "A100",
    "gstencil_per_second",
    # extensions
    "autotune_2d",
    "ClusterRuntime",
    "distribute",
    "TCStencilFP16",
    "precision_sweep",
    "generate_cuda_kernel",
    "convergence_study",
    "estimated_order",
]
