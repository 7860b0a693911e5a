"""Plan execution: single grids, vectorized batches, sharded sweeps.

A :class:`Runtime` binds one compiled :class:`~repro.runtime.plan.StencilPlan`
to its execution strategies:

* :meth:`Runtime.apply` — one grid, the plan engine's functional path;
* :meth:`Runtime.apply_batch` — many same-shaped grids at once.  The
  engine's functional kernel (``apply_stack``) broadcasts over the
  leading batch axis, so its rank-1 term loops run *once* for the whole
  batch and the per-call Python overhead (the compile-per-call tax this
  subsystem exists to remove) is paid once per batch instead of once
  per grid;
* :meth:`Runtime.apply_simulated` / :meth:`Runtime.apply_simulated_batch`
  / :meth:`Runtime.apply_simulated_sharded` — the faithful TCU path.
  Sharded variants give every shard its own
  :class:`~repro.tcu.device.Device` and merge the per-shard
  :class:`~repro.tcu.counters.EventCounters` into one footprint, the
  way per-SM counters aggregate on real hardware.

The simulated paths take a backend and fault run already decided by
the caller (:func:`repro.faults.arm_faults`, called once per entry
point): they neither resolve the backend nor arm faults themselves.

Every fan-out runs through :func:`repro.faults.supervisor.supervise_tasks`:
without a recovery policy it is the plain thread-pool fan-out (a worker's
non-Repro failure surfaces as a typed :class:`~repro.errors.ExecutionError`
naming the grid or shard), with one it is the recovery ladder.

Shard boundaries align to the plan's warp-tile rows, so a sharded sweep
computes exactly the same tiles as an unsharded one (identical
``mma_ops`` and fragment loads); only the DRAM halo reads duplicate at
the seams, which is the true cost of sharding.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.sweep import validate_padded
from repro.errors import InputValidationError, ShapeError
from repro.runtime.plan import StencilPlan
from repro.tcu.counters import EventCounters
from repro.tcu.device import Device
from repro.telemetry.context import TraceContext
from repro.telemetry.health import HEALTH

__all__ = ["Runtime"]


def validate_finite(arr: np.ndarray, what: str = "input grid") -> None:
    """Reject NaN/Inf poison before it enters a sweep.

    Raises :class:`~repro.errors.InputValidationError` (the
    :class:`~repro.errors.ShapeError` sibling: the shape is fine, the
    contents are not) so poison is attributable to the caller instead
    of surfacing as a silently-NaN interior ten layers down.
    """
    if not np.isfinite(arr).all():
        bad = int(arr.size - np.count_nonzero(np.isfinite(arr)))
        raise InputValidationError(
            f"{what} contains {bad} non-finite value(s) (NaN/Inf); "
            "sanitize inputs before applying the stencil"
        )


def _shard_bounds(n: int, shards: int, align: int) -> list[tuple[int, int]]:
    """Split ``[0, n)`` into ``shards`` contiguous chunks, each (except
    possibly the last) a multiple of ``align`` long."""
    if shards < 1:
        raise ShapeError(f"shards must be >= 1, got {shards}")
    shards = min(shards, max(1, n // align))
    per = -(-n // shards)  # ceil
    per = -(-per // align) * align  # round up to alignment
    bounds = []
    start = 0
    while start < n:
        end = min(start + per, n)
        bounds.append((start, end))
        start = end
    return bounds


class Runtime:
    """Executes one compiled plan over one, many, or sharded grids."""

    def __init__(self, plan: StencilPlan) -> None:
        self.plan = plan

    # ------------------------------------------------------------------
    # functional paths
    # ------------------------------------------------------------------
    def apply(self, padded: np.ndarray) -> np.ndarray:
        """Apply the plan to one padded grid; returns the interior."""
        padded = np.asarray(padded, dtype=np.float64)
        validate_finite(padded)
        return self.plan.engine.apply(padded)

    def apply_batch(self, grids: Sequence[np.ndarray] | np.ndarray) -> np.ndarray:
        """Apply the plan to a batch of equally shaped padded grids.

        ``grids`` is a sequence of padded arrays (or one stacked array
        with a leading batch axis); returns the stacked interiors with
        the same leading axis.  Bit-identical to looping :meth:`apply`:
        the engine's kernel runs once, broadcast over the whole batch.
        """
        return self.plan.engine.apply_stack(self._stack(grids))

    # ------------------------------------------------------------------
    # simulated paths
    # ------------------------------------------------------------------
    def apply_simulated(
        self,
        padded: np.ndarray,
        device: Device | None = None,
        profiler=None,
        backend: str | None = None,
        armed=None,
    ) -> tuple[np.ndarray, EventCounters]:
        """One faithful TCU sweep; returns ``(interior, counters)``.

        ``backend`` is the execution backend the caller resolved
        (``"interpreter"`` | ``"vectorized"`` | ``"oracle"``; default:
        the plan's compiled-in backend).  The interpreter steps the
        plan's lowered tile program, ``"oracle"`` runs the engine's
        eager tile computation instead (the correctness oracle the
        schedule-equivalence suite compares against — results are
        guaranteed bit-identical), and ``"vectorized"`` batches every
        tile of the sweep (bit-identical grids and counters, but no
        fault tolerance).  ``profiler`` opts into per-instruction
        attribution (see :mod:`repro.telemetry.perf`).

        ``armed`` (a :class:`repro.faults.ArmedFaults` from
        :func:`repro.faults.arm_faults`; ``None`` for a clean sweep)
        passes through the engine to the sweep driver, which builds the
        ABFT guard from it and attaches its injector to the device.
        """
        padded = np.asarray(padded, dtype=np.float64)
        validate_finite(padded)
        return self.plan.engine.apply_simulated(
            padded,
            device=device,
            profiler=profiler,
            backend=backend or self.plan.backend,
            armed=armed,
        )

    def apply_simulated_batch(
        self,
        grids: Sequence[np.ndarray] | np.ndarray,
        max_workers: int | None = None,
    ) -> tuple[np.ndarray, EventCounters]:
        """Simulated sweep of every grid in the batch, grid-sharded.

        Each grid runs on its own :class:`~repro.tcu.device.Device` in a
        thread pool; the per-grid counters merge by summation into one
        batch footprint.  Returns ``(stacked interiors, merged counters)``.
        """
        from repro.faults.supervisor import supervise_tasks

        batch = self._stack(grids)
        ctx = TraceContext.capture()

        def _run_grid(i: int):
            with ctx.span(
                "runtime.batch_grid", category="runtime", grid=i
            ) as sp:
                out, counters = self.apply_simulated(batch[i], device=Device())
                sp.add_events(counters)
                return out, counters

        results = supervise_tasks(
            {i: () for i in range(len(batch))},
            _run_grid,
            max_workers=max_workers,
            title="grid {i} of {n} in simulated batch",
        )
        outs = np.stack([results[i][0] for i in range(len(batch))])
        merged = EventCounters()
        for i in range(len(batch)):
            merged += results[i][1]
        return outs, merged

    def apply_simulated_sharded(
        self,
        padded: np.ndarray,
        shards: int = 2,
        max_workers: int | None = None,
        backend: str | None = None,
        armed=None,
    ) -> tuple[np.ndarray, EventCounters]:
        """One grid's simulated sweep, tile-sharded along the first axis.

        The interior splits into ``shards`` contiguous chunks aligned to
        the plan's warp-tile rows; each shard sweeps its halo-extended
        sub-grid on a private device, and the per-shard counters merge
        into one footprint.  With ``shards=1`` this is exactly
        :meth:`apply_simulated`.

        Workers are not treated as infallible: any worker exception is
        wrapped in a typed :class:`~repro.errors.ExecutionError`
        carrying the shard index and row range.  In a fault run
        (``armed`` given, as in :meth:`apply_simulated`) shards are
        *supervised* under its policy: a crashed worker or one
        exceeding the per-shard timeout is resubmitted with capped
        exponential backoff, then recomputed inline in the calling
        thread as graceful degradation; only an exhausted policy raises
        a typed :class:`~repro.errors.FaultError` — never a partial
        grid.  ``backend`` (resolved by the caller; default: the plan's)
        threads into every shard's sweep.
        """
        from repro.faults.supervisor import supervise_tasks

        backend = backend or self.plan.backend
        h = self.plan.radius
        padded, interior = validate_padded(padded, self.plan.ndim, h)
        validate_finite(padded)
        bounds = _shard_bounds(interior[0], shards, self._shard_align())
        ctx = TraceContext.capture()
        sweep_health = HEALTH.start_sweep(f"sharded-{self.plan.key[:12]}")
        policy, report = (armed.policy, armed.report) if armed else (None, None)

        def _worker(i: int, s0: int, s1: int):
            sub = padded[s0 : s1 + 2 * h]
            with ctx.span(
                "runtime.shard",
                category="runtime",
                shard=i,
                rows=f"{s0}:{s1}",
            ) as sp:
                # inside the span: an injected crash/hang renders as part
                # of this shard's lane, not as an orphan root
                if armed is not None and armed.injector is not None:
                    armed.injector.on_shard(i)
                with HEALTH.bind(sweep_health.shard(i, rows=f"{s0}:{s1}")):
                    out, counters = self.plan.engine.apply_simulated(
                        sub, backend=backend, armed=armed
                    )
                    sp.add_events(counters)
                    return out, counters

        try:
            results = supervise_tasks(
                dict(enumerate(bounds)),
                _worker,
                policy,
                report,
                max_workers=max_workers,
                health=sweep_health,
            )
        finally:
            HEALTH.write_file()

        out = np.concatenate(
            [results[i][0] for i in range(len(bounds))], axis=0
        )
        merged = EventCounters()
        for i in range(len(bounds)):
            merged += results[i][1]
        return out, merged

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _shard_align(self) -> int:
        """Interior rows per indivisible shard unit (warp-tile rows)."""
        if self.plan.ndim == 1:
            return 64
        if self.plan.ndim == 2:
            return self.plan.engine.tile.out_rows
        return 1  # 3D shards along z: planes are independent

    def _stack(self, grids: Sequence[np.ndarray] | np.ndarray) -> np.ndarray:
        if isinstance(grids, np.ndarray) and grids.ndim == self.plan.ndim + 1:
            batch = np.asarray(grids, dtype=np.float64)
        else:
            items = [np.asarray(g, dtype=np.float64) for g in grids]
            if not items:
                raise ShapeError("apply_batch needs at least one grid")
            shapes = {g.shape for g in items}
            if len(shapes) != 1:
                raise ShapeError(
                    f"all grids in a batch must share one shape, got {shapes}"
                )
            batch = np.stack(items)
        if batch.shape[0] == 0:
            raise ShapeError("apply_batch needs at least one grid")
        validate_padded(batch[0], self.plan.ndim, self.plan.radius)
        validate_finite(batch, "input batch")
        return batch
