"""The unified ``repro.compile`` entry point.

One call replaces the three engine constructors::

    compiled = repro.compile(weights)          # ndim inferred
    out = compiled.apply(padded)               # old pad convention
    out = compiled.apply_grid(x, boundary="periodic")  # pads internally
    outs = compiled.apply_batch(grids)         # vectorized batch
    out, events = compiled.apply_simulated(x)  # faithful TCU sweep

``compile`` consults the module-level :data:`DEFAULT_PLAN_CACHE` (an LRU
keyed by a content hash of ``(weights, config, tile_shape, dtype)``), so
re-compiling an identical stencil is a dictionary lookup — no PMA/SVD,
no gather-matrix rebuild.  Pass ``cache=None`` to force a fresh build,
or your own :class:`~repro.runtime.cache.PlanCache` to isolate tenants.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import OptimizationConfig
from repro.errors import ShapeError
from repro.faults import arm_faults
from repro.runtime.backends import default_backend
from repro.runtime.cache import PlanCache
from repro.runtime.executor import Runtime
from repro.runtime.plan import StencilPlan, build_plan, plan_key
from repro.stencil.boundary import BoundaryCondition, parse_boundary
from repro.stencil.weights import StencilWeights
from repro.tcu.counters import EventCounters
from repro.tcu.device import Device
from repro import telemetry

__all__ = ["CompiledStencil", "compile", "DEFAULT_PLAN_CACHE"]

#: Process-wide plan cache ``repro.compile`` uses by default.
DEFAULT_PLAN_CACHE = PlanCache(maxsize=128)

_MISSING = object()


class CompiledStencil:
    """A compiled stencil: one plan plus every way to execute it.

    Thin handle over ``(StencilPlan, Runtime)``; cheap to construct,
    safe to share across threads (the plan is immutable and the engines
    are read-only after compilation).
    """

    def __init__(self, plan: StencilPlan, cache: PlanCache | None = None) -> None:
        self.plan = plan
        self.cache = cache
        self.runtime = Runtime(plan)
        #: the :class:`repro.faults.FaultReport` of the most recent fault
        #: run (``verify``/``faults``/``policy`` given) on this handle;
        #: ``None`` until one ran.  Clean runs leave it untouched.
        self.last_fault_report = None

    # -- structure --------------------------------------------------------
    @property
    def key(self) -> str:
        """Content hash identifying the plan."""
        return self.plan.key

    @property
    def ndim(self) -> int:
        """Stencil dimensionality (1, 2 or 3)."""
        return self.plan.ndim

    @property
    def radius(self) -> int:
        """Stencil radius ``h`` (inputs must be padded by this much)."""
        return self.plan.radius

    @property
    def rank(self) -> int:
        """Number of rank-1 terms in the plan's decomposition."""
        return self.plan.rank

    @property
    def engine(self):
        """The underlying ``LoRAStencil{1,2,3}D`` engine instance."""
        return self.plan.engine

    @property
    def lowered(self):
        """The plan's :class:`~repro.core.lowering.LoweredProgram`."""
        return self.plan.lowered

    @property
    def program(self):
        """The scheduled tile program(s) the simulated sweep interprets.

        See :attr:`repro.runtime.plan.StencilPlan.program`; ``None`` for
        CUDA-core configurations.
        """
        return self.plan.program

    @property
    def schedule(self) -> str:
        """Name of the instruction schedule baked into the plan."""
        return self.plan.schedule

    # -- execution --------------------------------------------------------
    def apply(self, padded: np.ndarray) -> np.ndarray:
        """Apply to one *padded* grid; returns the interior.

        Keeps the repository-wide pad convention: the input carries a
        halo of ``radius`` ghost cells per side that the caller chose
        how to fill.  Use :meth:`apply_grid` to pad internally.
        """
        with telemetry.span(
            "runtime.apply", category="runtime", plan=self.key[:16]
        ):
            return self.runtime.apply(padded)

    def apply_grid(
        self,
        x: np.ndarray,
        boundary: str | BoundaryCondition = "constant",
    ) -> np.ndarray:
        """Apply to one *unpadded* grid, padding internally.

        ``boundary`` is a :mod:`repro.stencil.boundary` condition object
        or shorthand (``"constant"``, ``"periodic"``, ``"edge"``,
        ``"reflect"``); the output has the same shape as ``x``.
        """
        with telemetry.span(
            "runtime.apply_grid", category="runtime", plan=self.key[:16]
        ):
            cond = parse_boundary(boundary)
            padded = cond.pad(np.asarray(x, dtype=np.float64), self.radius)
            return self.runtime.apply(padded)

    def apply_batch(self, grids) -> np.ndarray:
        """Apply to many equally shaped padded grids at once.

        Vectorized over the batch axis: the engine's functional kernel
        runs once for the whole stack, bit-identical to looping
        :meth:`apply`.
        """
        with telemetry.span(
            "runtime.apply_batch", category="runtime", plan=self.key[:16]
        ):
            return self.runtime.apply_batch(grids)

    def apply_simulated(
        self,
        padded: np.ndarray,
        device: Device | None = None,
        shards: int = 1,
        max_workers: int | None = None,
        profiler=None,
        verify=None,
        faults=None,
        policy=None,
        backend: str | None = None,
    ) -> tuple[np.ndarray, EventCounters]:
        """Faithful TCU sweep; returns ``(interior, counters)``.

        ``backend`` selects the execution backend (``"interpreter"`` |
        ``"vectorized"`` | ``"oracle"``); it defaults to the plan's
        compiled-in backend.  The interpreter steps the plan's lowered
        tile program; ``backend="oracle"`` runs the eager tile path
        instead — bit-identical by the schedule-equivalence guarantee;
        ``backend="vectorized"`` batches every tile of the sweep with
        bit-identical numerics and counters, but rejects fault-tolerant
        execution (below) with a :class:`~repro.errors.BackendError`.
        ``shards > 1`` splits the sweep along the first interior axis
        over a thread pool, one simulated device per shard, and merges
        the per-shard event counters (``device`` is then ignored);
        ``shards`` must be an ``int`` >= 1, anything else (``bool``
        included) raises :class:`~repro.errors.ShapeError`.
        ``profiler`` opts the single-shard sweep into per-instruction
        attribution; the profiler accumulators are not thread-safe, so
        it cannot be combined with ``shards > 1``.

        Fault tolerance (see :mod:`repro.faults` and
        ``docs/robustness.md``): ``verify="abft"`` checksum-verifies
        every tile and staging copy at tolerance 0, recovering
        corrupted work under ``policy`` (a
        :class:`repro.faults.RecoveryPolicy`, also governing shard
        timeout/retry when sharded); ``faults`` (a
        :class:`repro.faults.FaultPlan` or
        :class:`repro.faults.FaultInjector`) arms deterministic fault
        injection.  The resulting ledger is exposed as
        :attr:`last_fault_report` and stamped into run-records'
        ``faults`` section.
        """
        if (
            isinstance(shards, bool)
            or not isinstance(shards, (int, np.integer))
            or shards < 1
        ):
            raise ShapeError(f"shards must be an int >= 1, got {shards!r}")
        if profiler is not None and shards > 1:
            from repro.errors import PerfError

            raise PerfError(
                "per-instruction profiling does not support sharded "
                "execution (profiler accumulators are per-thread)"
            )
        with telemetry.span(
            "runtime.apply_simulated",
            category="runtime",
            plan=self.key[:16],
            shards=shards,
        ) as sp:
            # armed inside the span so a backend.downgrade decision
            # joins the sweep's trace like every other decision
            backend, armed = arm_faults(
                verify,
                faults,
                policy,
                backend=backend,
                plan_default=self.plan.backend,
            )
            if armed is not None:
                self.last_fault_report = armed.report
            if shards > 1:
                out, events = self.runtime.apply_simulated_sharded(
                    padded,
                    shards=shards,
                    max_workers=max_workers,
                    backend=backend,
                    armed=armed,
                )
            else:
                out, events = self.runtime.apply_simulated(
                    padded,
                    device=device,
                    profiler=profiler,
                    backend=backend,
                    armed=armed,
                )
            sp.add_events(events)
            if armed is not None:
                armed.finish(sp)
            return out, events

    def profile(
        self,
        padded: np.ndarray | None = None,
        size: int = 64,
        seed: int = 0,
        backend: str | None = None,
    ):
        """Per-instruction profile of one simulated sweep.

        Delegates to :meth:`repro.runtime.plan.StencilPlan.profile`;
        returns a :class:`repro.telemetry.perf.PlanProfile`.
        ``backend`` selects the profiled execution backend (vectorized
        profiles attribute the same event totals in one record per
        batched instruction).
        """
        return self.plan.profile(padded, size=size, seed=seed, backend=backend)

    def apply_simulated_batch(
        self,
        grids,
        max_workers: int | None = None,
    ) -> tuple[np.ndarray, EventCounters]:
        """Simulated sweep of a batch of grids with merged counters."""
        with telemetry.span(
            "runtime.apply_simulated_batch",
            category="runtime",
            plan=self.key[:16],
        ) as sp:
            out, events = self.runtime.apply_simulated_batch(grids, max_workers)
            sp.add_events(events)
            return out, events

    def describe(self) -> str:
        """Human-readable plan summary."""
        return self.plan.describe()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompiledStencil(key={self.key[:12]}…, ndim={self.ndim}, "
            f"radius={self.radius}, method={self.plan.method!r})"
        )


def compile(
    weights: StencilWeights | np.ndarray,
    ndim: int | None = None,
    config: OptimizationConfig | None = None,
    tile_shape: tuple[int, int] | None = None,
    dtype: np.dtype | type | str = np.float64,
    cache: PlanCache | None = _MISSING,  # type: ignore[assignment]
    backend: str | None = None,
) -> CompiledStencil:
    """Compile (or fetch from cache) a stencil execution plan.

    The single entry point unifying ``LoRAStencil1D/2D/3D``: dimension
    is inferred from the weights (or forced via ``ndim``), the heavy
    derivation work happens at most once per distinct
    ``(weights, config, tile_shape, dtype, backend)`` thanks to the
    plan cache.

    Parameters
    ----------
    weights:
        :class:`~repro.stencil.weights.StencilWeights` or a dense odd-
        sided array (vector, matrix, or cube).
    ndim:
        Optional dimensionality check/override.
    config:
        :class:`~repro.core.config.OptimizationConfig` toggles.
    tile_shape:
        2D output warp-tile shape (multiples of 8); 2D plans only.
    dtype:
        Compute dtype; only ``float64`` (the FP64 MMA pipeline) today.
    cache:
        ``PlanCache`` to consult (default: the process-wide
        :data:`DEFAULT_PLAN_CACHE`); ``None`` compiles uncached.
    backend:
        Execution backend the plan's apply paths default to
        (``"interpreter"`` | ``"vectorized"`` | ``"oracle"``); defaults
        to :func:`repro.runtime.backends.default_backend` (the
        ``REPRO_BACKEND`` environment variable, else the interpreter).
        Part of the plan key: plans compiled for different backends
        never alias in the cache.
    """
    if cache is _MISSING:
        cache = DEFAULT_PLAN_CACHE
    backend = default_backend(backend)
    with telemetry.span("runtime.compile", category="runtime") as sp:
        if cache is None:
            sp.annotate(cache="bypass")
            return CompiledStencil(
                build_plan(
                    weights, ndim, config, tile_shape, dtype, backend=backend
                ),
                None,
            )
        key = plan_key(weights, ndim, config, tile_shape, dtype, backend=backend)
        plan = cache.get_or_build(
            key,
            lambda: build_plan(
                weights, ndim, config, tile_shape, dtype, backend=backend
            ),
        )
        sp.annotate(key=key[:16])
        return CompiledStencil(plan, cache)
