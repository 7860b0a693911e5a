"""Plan execution: single grids, vectorized batches, sharded sweeps.

A :class:`Runtime` binds one compiled :class:`~repro.runtime.plan.StencilPlan`
to its execution strategies:

* :meth:`Runtime.apply` — one grid, the plan engine's functional path;
* :meth:`Runtime.apply_batch` — many same-shaped grids at once.  The
  rank-1 term loops run *once* for the whole batch with NumPy
  broadcasting over the leading batch axis, so the per-call Python
  overhead (the compile-per-call tax this subsystem exists to remove)
  is paid once per batch instead of once per grid;
* :meth:`Runtime.apply_batch_threaded` — the same batch fanned out over
  a :mod:`concurrent.futures` thread pool (NumPy releases the GIL in
  its inner loops), for batches of grids too large to stack;
* :meth:`Runtime.apply_simulated` / :meth:`Runtime.apply_simulated_batch`
  / :meth:`Runtime.apply_simulated_sharded` — the faithful TCU path.
  Sharded variants give every shard its own
  :class:`~repro.tcu.device.Device` and merge the per-shard
  :class:`~repro.tcu.counters.EventCounters` into one footprint, the
  way per-SM counters aggregate on real hardware.

Shard boundaries align to the plan's warp-tile rows, so a sharded sweep
computes exactly the same tiles as an unsharded one (identical
``mma_ops`` and fragment loads); only the DRAM halo reads duplicate at
the seams, which is the true cost of sharding.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Sequence

import numpy as np

from repro.errors import (
    ExecutionError,
    InputValidationError,
    ReproError,
    ShapeError,
)
from repro.runtime.backends import resolve_backend
from repro.runtime.plan import StencilPlan
from repro.tcu.counters import EventCounters
from repro.tcu.device import Device
from repro.telemetry.context import TraceContext
from repro.telemetry.health import HEALTH

__all__ = ["Runtime"]


def _validate_finite(arr: np.ndarray, what: str = "input grid") -> None:
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
        #: the :class:`repro.faults.FaultReport` of the most recent
        #: guarded/supervised execution (``None`` when fault tolerance
        #: was off)
        self.last_fault_report = None

    # ------------------------------------------------------------------
    # functional paths
    # ------------------------------------------------------------------
    def apply(self, padded: np.ndarray) -> np.ndarray:
        """Apply the plan to one padded grid; returns the interior."""
        padded = np.asarray(padded, dtype=np.float64)
        _validate_finite(padded)
        return self.plan.engine.apply(padded)

    def apply_batch(self, grids: Sequence[np.ndarray] | np.ndarray) -> np.ndarray:
        """Apply the plan to a batch of equally shaped padded grids.

        ``grids`` is a sequence of padded arrays (or one stacked array
        with a leading batch axis); returns the stacked interiors with
        the same leading axis.  Mathematically identical to looping
        :meth:`apply`, but the term loops broadcast over the whole batch.
        """
        batch = self._stack(grids)
        if self.plan.ndim == 1:
            return self._batch_1d(batch)
        if self.plan.ndim == 2:
            return self._batch_2d(batch)
        return self._batch_3d(batch)

    def apply_batch_threaded(
        self,
        grids: Sequence[np.ndarray] | np.ndarray,
        max_workers: int | None = None,
    ) -> np.ndarray:
        """Batch apply with one functional call per grid on a thread pool.

        Same contract as :meth:`apply_batch`; use this variant when the
        stacked batch would be too large to broadcast in one piece —
        NumPy releases the GIL inside the slice arithmetic, so the
        per-grid applies overlap.
        """
        batch = self._stack(grids)
        ctx = TraceContext.capture()

        def _apply_grid(i: int, grid: np.ndarray) -> np.ndarray:
            with ctx.span("runtime.batch_grid", category="runtime", grid=i):
                return self.plan.engine.apply(grid)

        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            futures = [
                pool.submit(_apply_grid, i, grid)
                for i, grid in enumerate(batch)
            ]
            outs = []
            for i, future in enumerate(futures):
                try:
                    outs.append(future.result())
                except ReproError:
                    raise
                except Exception as exc:
                    raise ExecutionError(
                        f"grid {i} of {len(futures)} in threaded batch "
                        f"failed: {exc}"
                    ) from exc
        return np.stack(outs)

    # ------------------------------------------------------------------
    # simulated paths
    # ------------------------------------------------------------------
    def apply_simulated(
        self,
        padded: np.ndarray,
        device: Device | None = None,
        profiler=None,
        verify=None,
        faults=None,
        policy=None,
        report=None,
        backend: str | None = None,
    ) -> tuple[np.ndarray, EventCounters]:
        """One faithful TCU sweep; returns ``(interior, counters)``.

        ``backend`` selects the execution backend (``"interpreter"`` |
        ``"vectorized"`` | ``"oracle"``), defaulting to the plan's
        compiled-in backend; the interpreter steps the plan's lowered
        tile program, ``"oracle"`` runs the engine's eager tile
        computation instead (the correctness oracle the schedule-
        equivalence suite compares against — results are guaranteed
        bit-identical), and ``"vectorized"`` batches every tile of the
        sweep (bit-identical grids and counters, but no fault
        tolerance).  ``profiler`` opts into per-instruction attribution
        (see :mod:`repro.telemetry.perf`).

        ``verify="abft"`` checksum-verifies every tile and staging copy
        (tolerance 0) with recovery bounded by ``policy`` (a
        :class:`repro.faults.RecoveryPolicy`); ``faults`` (a
        :class:`repro.faults.FaultPlan` or armed
        :class:`repro.faults.FaultInjector`) injects deterministic
        corruption; both tally into ``report`` (a
        :class:`repro.faults.FaultReport`).
        """
        fault_mode = (
            bool(verify)
            or faults is not None
            or policy is not None
            or report is not None
        )
        backend = resolve_backend(
            backend, plan_default=self.plan.backend, fault_mode=fault_mode
        )
        padded = np.asarray(padded, dtype=np.float64)
        _validate_finite(padded)
        if faults is not None:
            from repro.faults import as_injector

            injector = as_injector(faults)
            if device is None:
                device = Device(injector=injector)
            else:
                device.injector = injector
            if report is None:
                report = injector.report
        if verify and report is None:
            from repro.faults import FaultReport

            report = FaultReport()
        if report is not None:
            self.last_fault_report = report
        return self.plan.engine.apply_simulated(
            padded,
            device=device,
            profiler=profiler,
            verify=verify,
            policy=policy,
            report=report,
            backend=backend,
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
        batch = self._stack(grids)
        ctx = TraceContext.capture()

        def _run_grid(item):
            i, grid = item
            with ctx.span(
                "runtime.batch_grid", category="runtime", grid=i
            ) as sp:
                out, counters = self.apply_simulated(grid, device=Device())
                sp.add_events(counters)
                return out, counters

        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            futures = [
                pool.submit(_run_grid, (i, grid))
                for i, grid in enumerate(batch)
            ]
            results = []
            for i, future in enumerate(futures):
                try:
                    results.append(future.result())
                except ReproError:
                    raise
                except Exception as exc:
                    raise ExecutionError(
                        f"grid {i} of {len(futures)} in simulated batch "
                        f"failed: {exc}"
                    ) from exc
        outs = np.stack([out for out, _ in results])
        merged = EventCounters()
        for _, counters in results:
            merged += counters
        return outs, merged

    def apply_simulated_sharded(
        self,
        padded: np.ndarray,
        shards: int = 2,
        max_workers: int | None = None,
        verify=None,
        faults=None,
        policy=None,
        report=None,
        backend: str | None = None,
    ) -> tuple[np.ndarray, EventCounters]:
        """One grid's simulated sweep, tile-sharded along the first axis.

        The interior splits into ``shards`` contiguous chunks aligned to
        the plan's warp-tile rows; each shard sweeps its halo-extended
        sub-grid on a private device, and the per-shard counters merge
        into one footprint.  With ``shards=1`` this is exactly
        :meth:`apply_simulated`.

        Workers are not treated as infallible: any worker exception is
        wrapped in a typed :class:`~repro.errors.ExecutionError`
        carrying the shard index and row range.  When fault tolerance
        is active (``verify``/``faults``/``policy`` given), shards are
        *supervised*: a crashed worker or one exceeding the policy's
        per-shard timeout is resubmitted with capped exponential
        backoff, then recomputed inline in the calling thread as
        graceful degradation; only an exhausted policy raises a typed
        :class:`~repro.errors.FaultError` — never a partial grid.

        ``backend`` threads into every shard's sweep (the vectorized
        backend batches each shard's tiles on its private device; it
        rejects fault-tolerant execution with a typed
        :class:`~repro.errors.BackendError`).
        """
        fault_mode = (
            bool(verify) or faults is not None or policy is not None
        )
        backend = resolve_backend(
            backend, plan_default=self.plan.backend, fault_mode=fault_mode
        )
        padded = np.asarray(padded, dtype=np.float64)
        if padded.ndim != self.plan.ndim:
            raise ShapeError(
                f"expected {self.plan.ndim}D input, got {padded.ndim}D"
            )
        _validate_finite(padded)
        h = self.plan.radius
        n0 = padded.shape[0] - 2 * h
        if n0 <= 0:
            raise ShapeError(
                f"padded input {padded.shape} too small for radius {h}"
            )
        bounds = _shard_bounds(n0, shards, self._shard_align())
        ctx = TraceContext.capture()
        sweep_health = HEALTH.start_sweep(f"sharded-{self.plan.key[:12]}")

        injector = None
        if faults is not None:
            from repro.faults import as_injector

            injector = as_injector(faults)
            if report is None:
                report = injector.report
        supervised = (
            injector is not None or bool(verify) or policy is not None
        )
        if supervised:
            from repro.faults import FaultReport, RecoveryPolicy

            policy = policy or RecoveryPolicy()
            report = report if report is not None else FaultReport()
        self.last_fault_report = report

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
                if injector is not None:
                    injector.on_shard(i)
                with HEALTH.bind(sweep_health.shard(i, rows=f"{s0}:{s1}")):
                    device = Device(injector=injector)
                    out, counters = self.plan.engine.apply_simulated(
                        sub,
                        device=device,
                        verify=verify,
                        policy=policy,
                        report=report,
                        backend=backend,
                    )
                    sp.add_events(counters)
                    return out, counters

        try:
            if not supervised:
                results_list = []
                with ThreadPoolExecutor(max_workers=max_workers) as pool:
                    futures = [
                        pool.submit(_worker, i, s0, s1)
                        for i, (s0, s1) in enumerate(bounds)
                    ]
                    for i, future in enumerate(futures):
                        s0, s1 = bounds[i]
                        try:
                            results_list.append(future.result())
                        except ReproError:
                            raise
                        except Exception as exc:
                            raise ExecutionError(
                                f"shard {i} of {len(bounds)} (rows {s0}:{s1}) "
                                f"failed: {exc}"
                            ) from exc
                results = dict(enumerate(results_list))
            else:
                results = self._supervise_shards(
                    bounds, _worker, policy, report, max_workers, sweep_health
                )
        finally:
            HEALTH.publish()
            HEALTH.write_file()

        out = np.concatenate(
            [results[i][0] for i in range(len(bounds))], axis=0
        )
        merged = EventCounters()
        for i in range(len(bounds)):
            merged += results[i][1]
        return out, merged

    def _supervise_shards(
        self, bounds, worker, policy, report, max_workers, sweep_health=None
    ) -> dict[int, tuple]:
        """Run shard workers under the recovery policy.

        Delegates to the shared :func:`repro.faults.supervisor.
        supervise_tasks` ladder (timeout/crash → capped exponential-
        backoff resubmission → inline recomputation → typed
        :class:`~repro.errors.FaultError`) — the same supervisor the
        cluster runtime runs its ranks and temporal rounds under.
        """
        from repro.faults.supervisor import supervise_tasks

        return supervise_tasks(
            dict(enumerate(bounds)),
            worker,
            policy,
            report,
            max_workers=max_workers,
            health=sweep_health,
        )

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
        if batch.ndim != self.plan.ndim + 1:
            raise ShapeError(
                f"batch for a {self.plan.ndim}D plan must have "
                f"{self.plan.ndim + 1} axes, got {batch.ndim}"
            )
        if batch.shape[0] == 0:
            raise ShapeError("apply_batch needs at least one grid")
        _validate_finite(batch, "input batch")
        return batch

    def _batch_1d(self, batch: np.ndarray) -> np.ndarray:
        h = self.plan.radius
        n = batch.shape[1] - 2 * h
        if n <= 0:
            raise ShapeError(
                f"padded length {batch.shape[1]} too small for radius {h}"
            )
        out = np.zeros((batch.shape[0], n), dtype=np.float64)
        for t, wt in enumerate(self.plan.engine.weight_vector):
            out += wt * batch[:, t : t + n]
        return out

    def _batch_2d(self, batch: np.ndarray) -> np.ndarray:
        return _batched_2d(self.plan.engine, batch)

    def _batch_3d(self, batch: np.ndarray) -> np.ndarray:
        h = self.plan.radius
        zs, rs, cs = (s - 2 * h for s in batch.shape[1:])
        if min(zs, rs, cs) <= 0:
            raise ShapeError(
                f"padded batch {batch.shape[1:]} too small for radius {h}"
            )
        b = batch.shape[0]
        out = np.zeros((b, zs, rs, cs), dtype=np.float64)
        for task in self.plan.engine.planes:
            if task.pointwise is not None:
                pi, pj, wt = task.pointwise
                out += wt * batch[
                    :,
                    task.index : task.index + zs,
                    pi : pi + rs,
                    pj : pj + cs,
                ]
            elif task.engine is not None:
                slabs = batch[:, task.index : task.index + zs]
                folded = slabs.reshape(b * zs, *slabs.shape[2:])
                out += _batched_2d(task.engine, folded).reshape(b, zs, rs, cs)
        return out


def _batched_2d(engine, batch: np.ndarray) -> np.ndarray:
    """Sum of separable rank-1 filters over a stack of padded 2D grids."""
    h = engine.radius
    rows, cols = batch.shape[1] - 2 * h, batch.shape[2] - 2 * h
    if rows <= 0 or cols <= 0:
        raise ShapeError(
            f"padded batch {batch.shape[1:]} too small for radius {h}"
        )
    b = batch.shape[0]
    out = np.zeros((b, rows, cols), dtype=np.float64)
    for term in engine.decomposition.matrix_terms:
        pd, s = term.pad, term.size
        tmp = np.zeros((b, rows, batch.shape[2]), dtype=np.float64)
        for t in range(s):
            tmp += term.u[t] * batch[:, pd + t : pd + t + rows, :]
        for r in range(s):
            out += term.v[r] * tmp[:, :, pd + r : pd + r + cols]
    for term in engine.decomposition.scalar_terms:
        out += term.scalar_weight * batch[:, h : h + rows, h : h + cols]
    return out
