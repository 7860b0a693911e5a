"""Telemetry overhead: free when disabled, cheap when enabled.

The observability layer's contract (docs/observability.md): every
instrumentation point costs one attribute check when telemetry is off,
so the instrumented facade sweep must track the bare engine sweep to
within measurement noise.  This benchmark pins that down on the
acceptance workload — a 256x256 Box-2D9P simulated sweep — and asserts
the disabled-path overhead stays under 2%.

Methodology: a single simulated sweep takes ~1 s here with ±40% machine
noise (shared box), so the overhead cannot be resolved by subtracting
two end-to-end timings.  Instead the facade's *wrapper* cost — the span
check, event attach/absorb gates, and attribute lookups that
``CompiledStencil.apply_simulated`` adds over a direct engine call — is
timed in isolation (the runtime underneath is stubbed out, thousands of
calls, microsecond precision) and divided by the best observed sweep
time.  End-to-end timings of all three paths are still reported for
context:

* ``engine`` — ``plan.engine.apply_simulated`` called directly, the
  PR-1 era hot path (it too passes one disabled span check inside the
  TCU sweep loop's entry);
* ``facade off`` — ``CompiledStencil.apply_simulated`` with telemetry
  disabled: the instrumented production path;
* ``facade on`` — the same call while spans and metric absorption are
  live (the span machinery is per sweep, not per tile, so it stays
  small too).
"""

from __future__ import annotations

import time

import numpy as np

from repro import telemetry
from repro.experiments.report import format_table
from repro.runtime import compile as compile_stencil
from repro.stencil.kernels import get_kernel
from repro.tcu.counters import EventCounters

GRID = 256
KERNEL = "Box-2D9P"
#: acceptance ceiling for disabled-telemetry overhead on the facade path
MAX_DISABLED_OVERHEAD = 0.02
#: calls per chunk when timing the wrapper in isolation
WRAPPER_CALLS = 2000


def _time_interleaved(fns: list, rounds: int = 4) -> list[float]:
    """Best-of-``rounds`` seconds for each fn, measured round-robin.

    Interleaving the candidates within each round cancels slow drift
    (turbo/thermal/co-tenant noise); the residual per-sweep jitter is
    why these numbers are context, not the asserted quantity.
    """
    for fn in fns:  # warm-up: page in inputs, stabilize allocations
        fn()
    best = [float("inf")] * len(fns)
    for _ in range(rounds):
        for i, fn in enumerate(fns):
            start = time.perf_counter()
            fn()
            best[i] = min(best[i], time.perf_counter() - start)
    return best


def _wrapper_cost_seconds(compiled, padded) -> float:
    """Per-call cost the facade adds over a direct engine call.

    Stubs ``compiled.runtime.apply_simulated`` with a constant return,
    then times facade-through-stub against the stub alone; the
    difference is exactly the instrumentation layer (span machinery,
    disabled-path gates, argument plumbing).  Min over chunks discards
    scheduler interference.
    """
    out = padded[1:-1, 1:-1].copy()
    events = EventCounters()

    def stub(padded, device=None, **kwargs):
        return out, events

    real = compiled.runtime.apply_simulated
    compiled.runtime.apply_simulated = stub
    try:
        best_facade = best_stub = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            for _ in range(WRAPPER_CALLS):
                compiled.apply_simulated(padded)
            best_facade = min(best_facade, time.perf_counter() - start)
            start = time.perf_counter()
            for _ in range(WRAPPER_CALLS):
                stub(padded)
            best_stub = min(best_stub, time.perf_counter() - start)
    finally:
        compiled.runtime.apply_simulated = real
    return max(best_facade - best_stub, 0.0) / WRAPPER_CALLS


def test_disabled_overhead_under_2pct(benchmark, write_result):
    k = get_kernel(KERNEL)
    compiled = compile_stencil(k.weights)
    rng = np.random.default_rng(0)
    padded = rng.normal(size=(GRID + 2 * compiled.radius,) * 2)

    def engine_sweep():
        telemetry.disable()
        compiled.plan.engine.apply_simulated(padded)

    def facade_off():
        telemetry.disable()
        compiled.apply_simulated(padded)

    def facade_on():
        telemetry.enable()
        compiled.apply_simulated(padded)

    t_engine, t_facade_off, t_facade_on = _time_interleaved(
        [engine_sweep, facade_off, facade_on]
    )
    telemetry.disable()
    wrapper = _wrapper_cost_seconds(compiled, padded)
    telemetry.reset()

    #: the asserted quantity: isolated wrapper cost vs. one real sweep
    overhead_off = wrapper / t_engine
    benchmark(lambda: compiled.apply_simulated(padded))

    text = format_table(
        [
            ["path", "time / sweep", "vs engine (noisy)"],
            ["engine (direct)", f"{t_engine * 1e3:.1f} ms", "—"],
            ["facade, telemetry off", f"{t_facade_off * 1e3:.1f} ms",
             f"{(t_facade_off / t_engine - 1) * 100:+.2f}%"],
            ["facade, telemetry on", f"{t_facade_on * 1e3:.1f} ms",
             f"{(t_facade_on / t_engine - 1) * 100:+.2f}%"],
            ["facade wrapper (isolated)", f"{wrapper * 1e6:.2f} us/call",
             f"{overhead_off * 100:+.4f}%"],
        ],
        f"telemetry overhead — {GRID}x{GRID} {KERNEL} simulated sweep",
    )
    write_result("telemetry_overhead", text)

    assert overhead_off < MAX_DISABLED_OVERHEAD, (
        f"disabled telemetry costs {overhead_off * 100:.2f}% on the "
        f"facade sweep (limit {MAX_DISABLED_OVERHEAD * 100:.0f}%)"
    )
