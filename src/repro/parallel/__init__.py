"""Multi-GPU domain decomposition (scale-out substrate).

The paper evaluates a single A100; production stencil codes
(atmospheric models, RTM seismic imaging — the paper's motivating
applications) decompose the grid across many GPUs with halo exchange.
This package provides that substrate *through the runtime*: a
distributed run is compiled by the same lowering route, cached in the
same plan cache, and observed by the same telemetry as a single-device
sweep.

* :func:`repro.parallel.decomposition.partition` — block-partition a
  1D/2D/3D grid onto a device mesh;
* :func:`repro.parallel.plan.distribute` — straight-line distribution:
  partition, then :class:`~repro.parallel.plan.HaloSchedule`, then one
  rank plan compiled through ``repro.compile`` (process ranks compile
  that plan's own inputs), yielding a
  :class:`~repro.parallel.plan.DistributedPlan`;
* :class:`repro.parallel.halo.HaloExchanger` — halo exchange
  (synchronous or ``cp.async``-modeled double-buffered) with exact
  per-device byte accounting;
* :class:`repro.parallel.cluster.ClusterRuntime` — executes a
  distributed plan: per-step / temporal rounds, overlapped transfers,
  serial/thread/process executors, fault tolerance, scaling model;
* :func:`repro.parallel.temporal.temporal_halo_bytes` — the halo-byte
  model of trapezoid and diamond temporal tiling (communication
  avoidance), which ``ClusterRuntime.run(block_steps=, tiling=)``
  executes.

Everything is deterministic and validated bit-for-bit against the
single-grid reference trajectory in the test suite.
"""

from repro.parallel.decomposition import Partition, Subdomain, partition
from repro.parallel.halo import AsyncHaloHandle, HaloExchanger
from repro.parallel.plan import (
    TILINGS,
    DistributedPlan,
    HaloSchedule,
    distribute,
)
from repro.parallel.distributed import (
    advance_window,
    frame_regions,
    interior_of,
    strip_window,
)
from repro.parallel.checkpoint import (
    CHECKPOINT_SCHEMA,
    CheckpointConfig,
    CheckpointError,
    CheckpointHalt,
    ClusterCheckpoint,
    list_checkpoints,
    load_checkpoint,
    save_checkpoint,
)
from repro.parallel.cluster import (
    EXECUTORS,
    ClusterResult,
    ClusterRuntime,
    ClusterTimings,
)
from repro.parallel.temporal import temporal_halo_bytes

__all__ = [
    "Partition",
    "Subdomain",
    "partition",
    "HaloExchanger",
    "AsyncHaloHandle",
    "DistributedPlan",
    "HaloSchedule",
    "TILINGS",
    "distribute",
    "advance_window",
    "frame_regions",
    "interior_of",
    "strip_window",
    "ClusterRuntime",
    "ClusterResult",
    "ClusterTimings",
    "EXECUTORS",
    "CHECKPOINT_SCHEMA",
    "CheckpointConfig",
    "CheckpointError",
    "CheckpointHalt",
    "ClusterCheckpoint",
    "save_checkpoint",
    "load_checkpoint",
    "list_checkpoints",
    "temporal_halo_bytes",
]
