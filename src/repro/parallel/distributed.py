"""Distributed window advance: shrinking windows, halo frames, workers.

The numerical core the cluster runtime executes, shared by every
dimension (1D/2D/3D), both boundaries, and all three executors
(serial / thread / process):

* :func:`advance_window` — advance ``steps`` local timesteps on a
  halo-deep window, re-imposing the global Dirichlet boundary on
  out-of-domain cells between steps (the exact trapezoid of
  temporal blocking, generalized to N dimensions);
* :func:`frame_regions` — split a block into a ``depth``-inset
  interior and the boundary frame strips: the strips a halo window's
  checksums cover and its wire faults corrupt;
* :func:`process_advance` / :func:`_process_worker` — one rank's round
  dispatched to a worker *process*: the child compiles the parent's
  rank plan from its inputs (weights, config, tile shape, dtype,
  backend) through ``repro.compile`` against its own per-process plan
  cache (warm across rounds), records spans on a private tracer, and
  ships them back as dicts; the parent revives them under its captured
  :class:`~repro.telemetry.context.TraceContext` — one merged trace
  across process boundaries.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "advance_window",
    "frame_regions",
    "process_advance",
]

Region = tuple  # tuple[slice, ...] over block output coordinates


def _impose_dirichlet(
    cur: np.ndarray,
    origin: Sequence[int],
    global_shape: Sequence[int],
) -> None:
    """Zero every window cell lying outside the global domain.

    The constant-boundary condition holds exact zeros outside the
    domain; re-imposing them between local steps reproduces the
    step-by-step global pad bit for bit (0.0 is exactly representable,
    so this is not an approximation).
    """
    for ax, n in enumerate(global_shape):
        lead = min(max(-origin[ax], 0), cur.shape[ax])
        if lead:
            cur[(slice(None),) * ax + (slice(0, lead),)] = 0.0
        end = max(n - origin[ax], 0)  # the first cell past the domain
        if end < cur.shape[ax]:
            cur[(slice(None),) * ax + (slice(end, None),)] = 0.0


def advance_window(
    apply_fn: Callable[[np.ndarray], np.ndarray],
    window: np.ndarray,
    origin: Sequence[int],
    global_shape: Sequence[int],
    boundary: str,
    steps: int,
    h: int,
) -> np.ndarray:
    """Advance ``steps`` local timesteps on a shrinking window.

    ``window`` is padded ``steps * h`` deep per side; ``origin`` is the
    global coordinate of ``window[0, ...]`` (negative along global
    edges).  Each application shrinks the window by ``h`` per side; for
    the constant boundary, out-of-domain cells are re-zeroed between
    steps.  Returns the final array (the window shrunk to its core).

    ``apply_fn`` is any padded-in/interior-out stencil application —
    the functional engine, a simulated-sweep closure accumulating
    counters, either backend: the per-output-point FP chains are
    independent of the window extent, so the trajectory is bit-identical
    to a global-grid advance restricted to the same cells.
    """
    cur = window
    origin = list(origin)
    for s in range(steps):
        cur = apply_fn(cur)
        origin = [o + h for o in origin]
        if boundary == "constant" and s + 1 < steps:
            _impose_dirichlet(cur, origin, global_shape)
    return cur


def frame_regions(
    shape: Sequence[int], depth: int
) -> tuple[Region | None, list[Region]]:
    """Split a block into a ``depth``-inset interior and frame strips.

    Returns ``(interior, strips)`` over block output coordinates; the
    strips tile the complement of the interior (the onion
    decomposition: axis 0 takes the full-width top/bottom slabs, axis 1
    the remaining left/right strips, and so on).  When the block is too
    small to hold an interior, ``interior`` is ``None`` and the single
    strip covers the whole block.
    """
    shape = tuple(int(n) for n in shape)
    if depth <= 0:
        return tuple(slice(0, n) for n in shape), []
    if any(n <= 2 * depth for n in shape):
        return None, [tuple(slice(0, n) for n in shape)]
    interior = tuple(slice(depth, n - depth) for n in shape)
    strips: list[Region] = []
    for ax in range(len(shape)):
        lead = [slice(depth, shape[a] - depth) for a in range(ax)]
        tail = [slice(0, shape[a]) for a in range(ax + 1, len(shape))]
        strips.append(tuple(lead + [slice(0, depth)] + tail))
        strips.append(
            tuple(lead + [slice(shape[ax] - depth, shape[ax])] + tail)
        )
    return interior, strips


def interior_of(
    apply_fn: Callable[[np.ndarray], np.ndarray],
    block: np.ndarray,
    sub,
    global_shape: Sequence[int],
    boundary: str,
    steps: int,
    h: int,
) -> np.ndarray:
    """The interior region advanced ``steps`` steps from the block alone.

    The dependency cone of output cells ``steps * h`` away from the
    block edge never leaves the block, so this needs *no halo*.
    Returns the advanced interior (shape shrunk by ``steps * h`` per
    side).  Nothing in the package calls it: the benchmark ledger
    (``perfbench/ledger.py`` ``PATCHES``) still wraps it by name, so it
    stays until that entry goes.
    """
    origin = tuple(s.start for s in sub.slices)
    return advance_window(
        apply_fn, block, origin, global_shape, boundary, steps, h
    )


# ---------------------------------------------------------------------------
# multi-process rank workers
# ---------------------------------------------------------------------------
def _process_worker(payload: dict) -> dict:
    """One rank's round, executed inside a worker process.

    Compiles the parent's rank plan from its shipped inputs through
    ``repro.compile`` (the child's process-wide plan cache keeps the
    plan warm across rounds — the pool reuses worker processes), raises
    :class:`~repro.errors.ExecutionError` naming the rank if that
    reaches a different plan key, advances the shipped window, and
    returns the block plus serialized counters/spans for parent-side
    revival.
    """
    from repro.errors import ExecutionError
    from repro.runtime import facade
    from repro.telemetry.export import span_to_dict
    from repro.telemetry.spans import Tracer
    from repro.tcu.counters import EventCounters

    t0_ns = time.perf_counter_ns()
    compiled = facade.compile(payload["weights"], **payload["compile"])
    if compiled.key != payload["plan_key"]:
        raise ExecutionError(
            f"rank {payload['rank']} compiled plan {compiled.key[:12]}…, "
            f"not the parent's {payload['plan_key'][:12]}…"
        )
    tracer = Tracer()
    if payload.get("traced"):
        tracer.enable()
    counters = EventCounters() if payload["simulate"] else None

    def apply_fn(win: np.ndarray) -> np.ndarray:
        if counters is None:
            # the parent checked the input at scatter/restore
            return compiled.plan.engine.apply(win)
        out, ev = compiled.runtime.apply_simulated(
            win, backend=payload["backend"]
        )
        counters.__iadd__(ev)
        return out

    with tracer.span(
        "cluster.rank",
        category="parallel",
        rank=payload["rank"],
        pid=os.getpid(),
        steps=payload["steps"],
        round=payload.get("round", 0),
    ) as sp:
        with tracer.span(
            "cluster.compute",
            category="parallel",
            rank=payload["rank"],
            round=payload.get("round", 0),
        ):
            out = advance_window(
                apply_fn,
                payload["window"],
                payload["origin"],
                payload["global_shape"],
                payload["boundary"],
                payload["steps"],
                payload["h"],
            )
        if counters is not None:
            sp.add_events(counters)
    return {
        "out": out,
        "counters": counters.as_dict() if counters is not None else None,
        "spans": [span_to_dict(r) for r in tracer.roots()],
        "t0_ns": t0_ns,
        "pid": os.getpid(),
        "plan_key": compiled.key,
    }


def process_advance(
    pool,
    rank: int,
    window: np.ndarray,
    sub,
    plan,
    steps: int,
    context,
    simulate: bool = False,
    backend: str | None = None,
    round_i: int = 0,
) -> tuple[np.ndarray, "object | None", dict]:
    """Dispatch one rank's round to the process pool and join it.

    Blocks until the child finishes; revives the child's spans under
    ``context`` (rebased onto the dispatch instant, so the lane renders
    where the parent handed the work off) and returns
    ``(block, counters | None, info)`` where ``info`` carries the
    worker ``pid`` and the child's ``plan_key`` (the parent's: the
    child compiles the rank plan's own inputs and checks the key).
    """
    from repro.tcu.counters import EventCounters
    from repro.telemetry.context import revive_spans

    depth = steps * plan.radius
    rank_plan = plan.compiled.plan
    payload = {
        "weights": rank_plan.weights,
        # the rank plan's own compile inputs, so the child builds its key
        "compile": {
            "ndim": rank_plan.ndim,
            "config": rank_plan.config,
            "tile_shape": rank_plan.tile_shape,
            "dtype": rank_plan.dtype,
            "backend": rank_plan.backend,
        },
        "plan_key": rank_plan.key,
        # the run's backend drives only the sweep
        "backend": backend if backend is not None else plan.backend,
        "simulate": simulate,
        "window": np.ascontiguousarray(window),
        "origin": tuple(s.start - depth for s in sub.slices),
        "global_shape": plan.global_shape,
        "boundary": plan.schedule.boundary,
        "steps": steps,
        "h": plan.radius,
        "rank": rank,
        "round": round_i,
        "traced": context.is_recording,
    }
    dispatch_ns = time.perf_counter_ns()
    result = pool.submit(_process_worker, payload).result()
    if result["spans"]:
        revive_spans(
            result["spans"],
            context,
            rebase_ns=dispatch_ns - result["t0_ns"],
        )
    counters = (
        EventCounters(**result["counters"])
        if result["counters"] is not None
        else None
    )
    info = {"pid": result["pid"], "plan_key": result["plan_key"]}
    return result["out"], counters, info
