"""Execution-backend benchmarks: interpreter vs vectorized.

Two claims the unified ``backend=`` API makes, measured:

* the vectorized backend is bit-identical to the per-thread
  interpreter — same grids, same :class:`~repro.tcu.counters.
  EventCounters` — across the Table II zoo;
* replaying the scheduled program over *all* tiles at once (broadcast
  ``matmul`` + probe-and-scale counters) is an order of magnitude
  faster in wall-clock than interpreting it tile by tile.

Each kernel's measurement is stamped as a pair of joinable run-records
(``measure_reference`` with each backend), so the records carry the
backend, plan hash and wall time that `repro perf check` joins against.
"""

from __future__ import annotations

import time

import numpy as np

from repro.experiments.report import format_table
from repro.runtime import compile as compile_stencil
from repro.stencil.kernels import get_kernel
from repro.telemetry.perf.baseline import measure_reference
from repro.telemetry.perf.profile import profile_shape

#: kernel -> grid edge; big enough that per-tile interpretation
#: dominates, small enough for a benchmark run
WORKLOADS = [
    ("Heat-1D", 96),
    ("Box-2D9P", 128),
    ("Star-2D13P", 96),
    ("Box-2D49P", 96),
    ("Heat-3D", 32),
]

#: wall-clock floor asserted per 2D kernel (the headline >=10x on the
#: 256x256 reference workload is gated by `repro perf check`)
MIN_SPEEDUP_2D = 5.0


def _padded(weights, size, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=profile_shape(weights.ndim, size))
    return np.pad(x, weights.radius)


def _time(fn, repeat: int = 3) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_vectorized_backend_speedup(benchmark, write_result):
    """Bit-identical sweeps, order-of-magnitude faster on 2D kernels."""
    rows = [["kernel", "interpreter", "vectorized", "speedup"]]
    speedups_2d = []
    for name, size in WORKLOADS:
        k = get_kernel(name)
        compiled = compile_stencil(k.weights)
        padded = _padded(k.weights, size)

        out_i, ev_i = compiled.apply_simulated(padded)
        out_v, ev_v = compiled.apply_simulated(padded, backend="vectorized")
        assert np.array_equal(out_i, out_v), name
        assert ev_i == ev_v, name

        t_int = _time(lambda: compiled.apply_simulated(padded))
        t_vec = _time(
            lambda: compiled.apply_simulated(padded, backend="vectorized")
        )
        if k.weights.ndim == 2:
            speedups_2d.append(t_int / t_vec)
        rows.append(
            [name, f"{t_int * 1e3:.1f} ms", f"{t_vec * 1e3:.2f} ms",
             f"{t_int / t_vec:.1f}x"]
        )

    k9 = get_kernel("Box-2D9P")
    compiled = compile_stencil(k9.weights)
    padded = _padded(k9.weights, 128)
    benchmark(lambda: compiled.apply_simulated(padded, backend="vectorized"))

    text = format_table(
        rows, "execution backends — interpreter vs vectorized (bit-identical)"
    )
    write_result("backend_speedup", text)
    assert min(speedups_2d) >= MIN_SPEEDUP_2D, (
        f"vectorized backend only {min(speedups_2d):.1f}x over the "
        f"interpreter on a 2D kernel (floor {MIN_SPEEDUP_2D}x)"
    )


def test_backend_run_records_are_joinable(benchmark, write_result):
    """Run-records stamped under each backend agree on every counter."""
    interp = measure_reference(size=64, backend="interpreter")
    vec = measure_reference(size=64, backend="vectorized")
    assert interp["extra"]["backend"] == "interpreter"
    assert vec["extra"]["backend"] == "vectorized"
    # same workload, different plan (backend is in the plan key)
    assert interp["extra"]["plan_key"] != vec["extra"]["plan_key"]
    assert interp["events"] == vec["events"]

    benchmark(lambda: measure_reference(size=64, backend="vectorized"))

    rows = [["record", "backend", "timing"]]
    for record in (interp, vec):
        rows.append(
            [record["name"], record["extra"]["backend"],
             f"{record['extra']['timing_s'] * 1e3:.1f} ms"]
        )
    write_result(
        "backend_run_records",
        format_table(rows, "perf-check run-records per backend"),
    )
