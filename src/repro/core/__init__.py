"""LoRAStencil core: the paper's primary contribution.

Pipeline (Fig. 3):

1. :mod:`repro.core.lowrank` — decompose the stencil weight matrix into
   rank-1 terms: Pyramidal Matrix Adaptation (Section III-C) for radially
   symmetric matrices, SVD (Section II-D) for the general case.
2. :mod:`repro.core.uvbuild` — expand each rank-1 pair ``(u, v)`` into
   the banded weight matrices ``U`` and ``V`` (Eq. 5/6) plus their
   fragment/butterfly layouts.
3. :mod:`repro.core.rdg` — Residual Dimension Gathering: the warp-level
   Matrix Chain Multiplication ``U X V`` on the TCU simulator
   (Section III-B), with Butterfly Vector Swapping (Section III-D)
   applied between the two gathers.
4. :mod:`repro.core.engine1d` / :mod:`repro.core.engine2d` /
   :mod:`repro.core.engine3d` — end-to-end stencil executors
   (functional NumPy fast path + faithful simulated path).
5. :mod:`repro.core.fusion` — temporal kernel fusion (Section IV-A).
"""

from repro.core.lowrank import Decomposition, PivotError, Rank1Term
from repro.core.uvbuild import build_u_matrix, build_v_matrix, butterfly_row_order
from repro.core.config import OptimizationConfig
from repro.core.engine1d import LoRAStencil1D
from repro.core.engine2d import LoRAStencil2D
from repro.core.engine3d import LoRAStencil3D
from repro.core.fusion import FusedKernel, fuse_kernel, fragment_waste, fusion_saving

__all__ = [
    "Rank1Term",
    "Decomposition",
    "PivotError",
    "build_u_matrix",
    "build_v_matrix",
    "butterfly_row_order",
    "OptimizationConfig",
    "LoRAStencil1D",
    "LoRAStencil2D",
    "LoRAStencil3D",
    "FusedKernel",
    "fuse_kernel",
    "fragment_waste",
    "fusion_saving",
]
