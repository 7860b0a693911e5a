"""Distribution: grid → ``DistributedPlan``.

:func:`distribute` is straight-line code over three steps:

* partition — block-partition the global grid onto the device mesh
  (:func:`repro.parallel.decomposition.partition`);
* halo schedule — derive the :class:`HaloSchedule`: how deep each
  exchange is and how many local steps each round advances, for
  per-step, trapezoid and diamond temporal tilings;
* compile — compile the rank plan through ``repro.compile``, which
  lowers it by the one route of :mod:`repro.core.lowering`.  Every rank
  runs the *same* stencil, so the plan cache collapses the mesh onto
  one :class:`~repro.runtime.plan.StencilPlan`; the per-rank
  ``TileProgram``/``VectorProgram`` views are shared read-only
  references, exactly like SM-replicated SASS.  Process ranks compile
  that plan's own inputs and check they reach its key.

The resulting :class:`DistributedPlan` is what the cluster runtime
(:mod:`repro.parallel.cluster`) executes: it carries the partition, the
halo schedule, and the compiled single-device plan — so distributed
runs inherit ``backend=``, the plan cache, fault injection/ABFT and
telemetry from the runtime instead of bypassing them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any

from repro.core.config import OptimizationConfig
from repro.parallel.decomposition import Partition, partition
from repro.parallel.halo import HaloExchanger

__all__ = ["HaloSchedule", "DistributedPlan", "distribute", "TILINGS"]

#: temporal tilings the halo schedule understands
TILINGS = ("trapezoid", "diamond")


@dataclass(frozen=True)
class HaloSchedule:
    """When to exchange, how deep, and how far each round advances.

    ``block_steps = 1`` is the classic per-step exchange.  For
    ``block_steps = k > 1``:

    * ``trapezoid`` — one ``k*h``-deep exchange per round, then ``k``
      local steps on a shrinking window (the overlapped trapezoid);
    * ``diamond`` — each ``k``-step round splits into two half-rounds
      of ``ceil(k/2)`` and ``floor(k/2)`` steps.  Halos are about half
      as deep (less redundant ghost-zone compute, smaller messages) at
      the price of one extra message per round — the communication
      shape of diamond tiling, still bit-exact because every half-round
      is itself an exact trapezoid.

    A step count that does not divide ``block_steps`` ends with a
    ragged final round advancing the remainder (never an error).
    """

    radius: int
    block_steps: int
    tiling: str = "trapezoid"
    boundary: str = "constant"

    def __post_init__(self) -> None:
        if self.block_steps < 1:
            raise ValueError(
                f"block_steps must be >= 1, got {self.block_steps}"
            )
        if self.tiling not in TILINGS:
            raise ValueError(
                f"tiling must be one of {TILINGS}, got {self.tiling!r}"
            )
        if self.boundary not in ("constant", "periodic"):
            raise ValueError(
                f"boundary must be 'constant' or 'periodic', "
                f"got {self.boundary!r}"
            )

    def phases(self, steps: int) -> tuple[int, ...]:
        """Local step count of every exchange round covering ``steps``.

        One entry per halo exchange; entries sum to ``steps``.  The
        final round is ragged when ``steps % block_steps != 0``.
        """
        if steps < 0:
            raise ValueError(f"steps must be >= 0, got {steps}")
        out: list[int] = []
        remaining = steps
        while remaining > 0:
            r = min(self.block_steps, remaining)
            if self.tiling == "diamond" and r > 1:
                out.extend((-(-r // 2), r // 2))
            else:
                out.append(r)
            remaining -= r
        return tuple(out)

    def depth(self, phase_steps: int) -> int:
        """Halo depth one exchange needs to cover ``phase_steps`` steps."""
        return self.radius * phase_steps

    def rounds(self, steps: int) -> int:
        """Number of exchanges (messages per rank) covering ``steps``."""
        return len(self.phases(steps))

    def describe(self) -> str:
        """Human-readable one-line schedule summary."""
        return (
            f"{self.tiling} tiling, block_steps={self.block_steps}, "
            f"radius={self.radius}, boundary={self.boundary!r}"
        )


@dataclass(frozen=True)
class DistributedPlan:
    """A partitioned, scheduled, per-rank-compiled distributed stencil.

    The cluster-level analogue of :class:`~repro.runtime.plan.
    StencilPlan`: immutable after :func:`distribute`, cheap to share.
    ``compiled`` is the single-device :class:`~repro.runtime.facade.
    CompiledStencil` every rank executes (plan-cache-deduplicated).
    """

    key: str
    part: Partition
    schedule: HaloSchedule
    backend: str
    compiled: Any = field(repr=False, compare=False)
    #: the weights object handed to :func:`distribute` (a
    #: :class:`~repro.stencil.weights.StencilWeights` when the caller had
    #: one) — the scaling-time model needs its pattern metadata
    source_weights: Any = field(default=None, repr=False, compare=False)

    @property
    def ndim(self) -> int:
        return self.part.ndim

    @property
    def radius(self) -> int:
        return self.schedule.radius

    @property
    def global_shape(self) -> tuple[int, ...]:
        return self.part.global_shape

    @property
    def mesh(self) -> tuple[int, ...]:
        return self.part.mesh

    @property
    def num_devices(self) -> int:
        return self.part.num_devices

    def program(self, rank: int = 0):
        """The rank's scheduled ``TileProgram`` (shared across ranks)."""
        return self.compiled.plan.program

    def exchanger(self, depth: int | None = None) -> HaloExchanger:
        """A fresh halo exchanger over this plan's partition.

        ``depth`` defaults to the stencil radius (per-step exchange);
        temporal rounds pass ``schedule.depth(phase_steps)``.
        """
        return HaloExchanger(
            self.part,
            self.radius if depth is None else depth,
            self.schedule.boundary,
        )

    def describe(self) -> str:
        """Human-readable one-line plan summary."""
        return (
            f"DistributedPlan {self.key[:12]}…: grid {self.global_shape} "
            f"on mesh {self.mesh} ({self.num_devices} device(s)), "
            f"{self.schedule.describe()}, backend {self.backend!r}, "
            f"rank plan {self.compiled.key[:12]}…"
        )


#: ``distribute(cache=)`` left out: compile through the process-wide cache
_CACHE_DEFAULT = object()


def distribute(
    weights,
    global_shape: tuple[int, ...],
    mesh: tuple[int, ...],
    *,
    boundary: str = "constant",
    block_steps: int = 1,
    tiling: str = "trapezoid",
    backend: str | None = None,
    config: OptimizationConfig | None = None,
    tile_shape: tuple[int, int] | None = None,
    cache=_CACHE_DEFAULT,
) -> DistributedPlan:
    """Partition, schedule and compile one distributed stencil.

    The cluster-level front door, in three straight steps: partition
    the grid onto the mesh, derive the :class:`HaloSchedule`, and
    compile the rank plan through ``facade.compile``.  Returns the
    immutable :class:`DistributedPlan` the cluster runtime executes.
    ``backend``, ``config``, ``tile_shape`` and ``cache`` thread
    straight into ``repro.compile`` — a distributed plan is a
    single-device plan plus a partition and a halo schedule, never a
    separate compilation universe.
    """
    # resolved at call time: ``facade.compile`` stays patchable, and
    # repro.runtime imports nothing from repro.parallel
    from repro.runtime import facade
    from repro.runtime.plan import canonical_weights

    arr, ndim = canonical_weights(weights, None)
    global_shape = tuple(int(n) for n in global_shape)
    mesh = tuple(int(m) for m in mesh)
    if len(global_shape) != ndim:
        raise ValueError(
            f"{ndim}D stencil cannot partition a "
            f"{len(global_shape)}D grid {global_shape}"
        )
    part = partition(global_shape, mesh)
    schedule = HaloSchedule(
        radius=(arr.shape[0] - 1) // 2,
        block_steps=block_steps,
        tiling=tiling,
        boundary=boundary,
    )
    kwargs: dict[str, Any] = {} if cache is _CACHE_DEFAULT else {"cache": cache}
    compiled = facade.compile(
        weights,
        ndim=ndim,
        config=config,
        tile_shape=tile_shape,
        backend=backend,
        **kwargs,
    )
    digest = hashlib.sha256()
    digest.update(b"repro-distributed-plan-v1")
    digest.update(compiled.key.encode())
    digest.update(repr((global_shape, mesh)).encode())
    digest.update(
        repr((boundary, block_steps, tiling, compiled.plan.backend)).encode()
    )
    return DistributedPlan(
        key=digest.hexdigest(),
        part=part,
        schedule=schedule,
        backend=compiled.plan.backend,
        compiled=compiled,
        source_weights=weights,
    )
