"""Lowering benchmarks: interpreted IR vs the eager tile path.

Lowering makes the scheduled :class:`~repro.tcu.program.TileProgram`
the single simulated execution path, keeping the eager tile
computation only as a fallback and correctness reference, reached
through the engines' ``tile_source(oracle=True)``.  This benchmark pins down
what that costs and what it buys on the paper's flagship small kernel
(Box-2D9P over a 256x256 grid):

* the IR-interpreted sweep and the eager sweep are **bit-identical** in
  numerics and hardware event counts (the schedule-equivalence
  contract, re-checked here at full grid scale);
* the interpreter overhead of executing through the lowered program is
  bounded (same MMA count, same fragment loads — only Python dispatch
  differs);
* lowering itself (decompose -> build_tile_ir -> schedule ->
  vectorize) is a negligible one-time cost against a single 256x256
  sweep.
"""

from __future__ import annotations

import time
from unittest import mock

import numpy as np

from repro.core.config import OptimizationConfig
from repro.core.engine2d import LoRAStencil2D
from repro.experiments.report import format_table
from repro.runtime import compile as compile_stencil
from repro.stencil.kernels import get_kernel

GRID = (256, 256)


def _time(fn, repeat: int = 3) -> float:
    """Best-of-``repeat`` wall-clock seconds for one call of ``fn``."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _eager_tiles():
    """Sweep 2D plans through the eager tile path, not the lowered program."""
    original = LoRAStencil2D.tile_source
    return mock.patch.object(
        LoRAStencil2D,
        "tile_source",
        lambda self, oracle=False: original(self, oracle=True),
    )


def test_ir_sweep_matches_eager_at_scale(benchmark, write_result):
    """256x256 Box-2D9P: lowered-program sweep vs eager tile sweep."""
    k = get_kernel("Box-2D9P")
    h = k.weights.radius
    compiled = compile_stencil(k.weights, cache=None)
    rng = np.random.default_rng(0)
    padded = np.pad(rng.normal(size=GRID), h)

    def sweep():
        return compiled.apply_simulated(padded, backend="interpreter")

    out_ir, ev_ir = sweep()
    with _eager_tiles():
        out_eager, ev_eager = sweep()
        t_eager = _time(sweep)
    assert np.array_equal(out_ir, out_eager)
    assert ev_ir == ev_eager

    t_ir = _time(sweep)
    t_lower = _time(
        lambda: compile_stencil(k.weights, cache=None), repeat=5
    )
    benchmark(sweep)

    lowered = compiled.lowered
    pass_lines = ", ".join(
        f"{name} {seconds * 1e3:.2f} ms" for name, seconds in lowered.pass_times
    )
    text = format_table(
        [
            ["path", "time / sweep", "mma_ops", "shared loads"],
            ["interpreted IR", f"{t_ir * 1e3:.1f} ms",
             f"{ev_ir.mma_ops:,}", f"{ev_ir.shared_load_requests:,}"],
            ["eager tile path", f"{t_eager * 1e3:.1f} ms",
             f"{ev_eager.mma_ops:,}", f"{ev_eager.shared_load_requests:,}"],
            ["overhead", f"{t_ir / t_eager:.3f}x", "", ""],
            ["lowering (one-time)", f"{t_lower * 1e3:.3f} ms",
             f"{lowered.n_instrs} instrs", lowered.schedule],
        ],
        f"lowered IR vs eager sweep — Box-2D9P on {GRID[0]}x{GRID[1]} "
        f"({pass_lines})",
    )
    write_result("lowering_ir_vs_eager", text)

    # the interpreter adds Python dispatch, not hardware work; allow a
    # generous envelope so the gate flags regressions, not jitter
    assert t_ir < 3.0 * t_eager, (
        f"IR interpretation ({t_ir * 1e3:.1f} ms) more than 3x the eager "
        f"sweep ({t_eager * 1e3:.1f} ms)"
    )
    # compiling the plan is tiny next to one full-grid sweep
    assert t_lower < t_ir


def test_schedule_choice_preserves_counters(write_result):
    """Prefetch-scheduled plans sweep to identical events as eager ones."""
    k = get_kernel("Box-2D9P")
    h = k.weights.radius
    rng = np.random.default_rng(1)
    padded = np.pad(rng.normal(size=(64, 64)), h)

    rows = [["schedule", "load->use", "mma_ops", "shared loads"]]
    results = []
    for schedule in ("eager", "prefetch"):
        config = OptimizationConfig(schedule=schedule)
        compiled = compile_stencil(k.weights, config=config, cache=None)
        out, ev = compiled.apply_simulated(padded)
        results.append((out, ev))
        rows.append(
            [schedule, f"{compiled.lowered.load_use_distance:.1f}",
             f"{ev.mma_ops:,}", f"{ev.shared_load_requests:,}"]
        )
    (out0, ev0), (out1, ev1) = results
    assert np.array_equal(out0, out1)
    assert ev0 == ev1
    write_result(
        "lowering_schedule_ablation",
        format_table(rows, "schedule ablation — Box-2D9P on 64x64"),
    )
