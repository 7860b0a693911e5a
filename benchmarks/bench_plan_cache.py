"""Runtime subsystem benchmarks: plan-cache latency and batched execution.

Two claims the compile-once runtime makes, measured:

* a plan-cache **hit** is orders of magnitude cheaper than a cold
  compile (no PMA/SVD, no gather-matrix/fragment rebuild — one SHA-256
  over the weight bytes plus a dict lookup);
* :meth:`~repro.runtime.facade.CompiledStencil.apply_batch` over a stack
  of grids beats a Python loop of per-grid ``apply`` calls, because the
  rank-1 term loops run once for the whole batch.
"""

from __future__ import annotations

import time

import numpy as np

from repro.runtime import PlanCache, compile as compile_stencil
from repro.experiments.report import format_table
from repro.stencil.kernels import get_kernel

#: batch size for the vectorization measurement (acceptance floor is 8).
#: Small grids at a deep batch put the weight on the per-call Python
#: overhead that apply_batch amortizes (one broadcast term loop for the
#: whole stack), which is exactly what this benchmark isolates.
BATCH = 32
GRID = (32, 32)


def _time(fn, repeat: int = 5) -> float:
    """Best-of-``repeat`` wall-clock seconds for one call of ``fn``."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_cache_hit_vs_cold_compile(benchmark, write_result):
    """Compile-vs-cached latency across the Table II zoo."""
    rows = [["kernel", "cold compile", "cached", "speedup"]]
    speedups = []
    for name in ("Heat-1D", "Box-2D9P", "Box-2D49P", "Heat-3D"):
        w = get_kernel(name).weights
        cold = _time(lambda: compile_stencil(w, cache=None))
        warm_cache = PlanCache(maxsize=8)
        compile_stencil(w, cache=warm_cache)  # prime
        hit = _time(lambda: compile_stencil(w, cache=warm_cache))
        speedups.append(cold / hit)
        rows.append(
            [name, f"{cold * 1e3:.3f} ms", f"{hit * 1e6:.1f} us",
             f"{cold / hit:.0f}x"]
        )

    cache = PlanCache(maxsize=8)
    w49 = get_kernel("Box-2D49P").weights
    compile_stencil(w49, cache=cache)
    benchmark(lambda: compile_stencil(w49, cache=cache))

    text = format_table(rows, "plan cache — cold compile vs cached hit")
    write_result("plan_cache_latency", text)
    # a hit skips the decomposition + fragment build entirely; even the
    # cheapest plan must fetch several times faster than it compiles
    assert min(speedups) > 3.0
    stats = cache.stats()
    assert stats.hits >= 1 and stats.misses == 1


def test_apply_batch_beats_python_loop(benchmark, write_result):
    """A ≥8-grid vectorized batch beats the equivalent Python loop."""
    k = get_kernel("Box-2D49P")
    h = k.weights.radius
    compiled = compile_stencil(k.weights)
    rng = np.random.default_rng(0)
    grids = rng.normal(size=(BATCH, GRID[0] + 2 * h, GRID[1] + 2 * h))

    def looped():
        return np.stack([compiled.apply(g) for g in grids])

    def batched():
        return compiled.apply_batch(grids)

    np.testing.assert_array_equal(batched(), looped())
    t_loop = _time(looped)
    t_batch = _time(batched)
    benchmark(batched)

    text = format_table(
        [
            ["path", "time / sweep", "per grid"],
            ["python loop of apply", f"{t_loop * 1e3:.2f} ms",
             f"{t_loop / BATCH * 1e3:.3f} ms"],
            ["apply_batch", f"{t_batch * 1e3:.2f} ms",
             f"{t_batch / BATCH * 1e3:.3f} ms"],
            ["speedup", f"{t_loop / t_batch:.2f}x", ""],
        ],
        f"batched execution — {BATCH} x {GRID[0]}x{GRID[1]} Box-2D49P grids",
    )
    write_result("plan_batch_speedup", text)
    assert t_batch < t_loop, (
        f"apply_batch ({t_batch * 1e3:.2f} ms) not faster than looped "
        f"apply ({t_loop * 1e3:.2f} ms) over {BATCH} grids"
    )
