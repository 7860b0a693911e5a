"""Trace-propagation overhead: the observability plane stays free when off.

The continuous observability plane threads three mechanisms through
the sharded hot path: :class:`repro.telemetry.context.TraceContext`
capture at spawn, a null context span per shard, and level-filtered
structured-event emission.  Each is designed to cost one
attribute/``is not None`` check when nothing is watching; this
benchmark prices every one of them in isolation on the acceptance
workload — a 256x256 Box-2D9P simulated sweep — and asserts their
combined per-sweep bill keeps the disabled overhead under the same 2%
bound ``bench_telemetry_overhead`` pins for the span layer.

Methodology mirrors ``bench_telemetry_overhead``: a real sweep takes
~1 s with heavy machine noise, so the per-operation costs are timed
over thousands of calls (microsecond precision) and multiplied by a
deliberately *generous* per-sweep operation budget (eight of each, one
per shard of an eight-shard sweep).  The resulting overhead is a strict
upper bound.
"""

from __future__ import annotations

import time

import numpy as np

from repro import telemetry
from repro.experiments.report import format_table
from repro.runtime import compile as compile_stencil
from repro.stencil.kernels import get_kernel
from repro.telemetry.context import TraceContext
from repro.telemetry.log import EVENT_LOG

GRID = 256
KERNEL = "Box-2D9P"
#: shared acceptance ceiling with bench_telemetry_overhead
MAX_DISABLED_OVERHEAD = 0.02
#: calls per timed chunk for the isolated per-op costs
CALLS = 20000
#: generous per-sweep budget: one of each per shard of an 8-shard sweep
OPS_PER_SWEEP = {
    "context capture": 8,
    "null context span": 8,
    "filtered emit": 8,
}


def _per_call_seconds(fn) -> float:
    """Best-of-rounds per-call cost of ``fn`` over ``CALLS`` iterations."""
    fn()  # warm-up
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(CALLS):
            fn()
        best = min(best, time.perf_counter() - start)
    return best / CALLS


def test_trace_propagation_disabled_overhead(benchmark, write_result):
    k = get_kernel(KERNEL)
    compiled = compile_stencil(k.weights)
    rng = np.random.default_rng(0)
    padded = rng.normal(size=(GRID + 2 * compiled.radius,) * 2)

    telemetry.disable()
    t_sweep = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        compiled.plan.engine.apply_simulated(padded)
        t_sweep = min(t_sweep, time.perf_counter() - start)

    ctx = TraceContext.capture()
    assert not ctx.is_recording  # telemetry is off: the null path

    def null_span():
        with ctx.span("bench.noop", category="bench"):
            pass

    def filtered_emit():
        # debug sits below the log's default min level: the filtered
        # (hot-path) cost, not the recording cost
        EVENT_LOG.emit("bench.noop", level="debug")

    costs = {
        "context capture": _per_call_seconds(TraceContext.capture),
        "null context span": _per_call_seconds(null_span),
        "filtered emit": _per_call_seconds(filtered_emit),
    }
    per_sweep = sum(costs[name] * OPS_PER_SWEEP[name] for name in costs)
    overhead = per_sweep / t_sweep
    telemetry.reset()

    benchmark(TraceContext.capture)

    rows = [["mechanism", "per call", "ops/sweep", "per sweep"]]
    for name, cost in costs.items():
        ops = OPS_PER_SWEEP[name]
        rows.append(
            [
                name,
                f"{cost * 1e9:.0f} ns",
                str(ops),
                f"{cost * ops * 1e6:.1f} us",
            ]
        )
    rows.append(
        [
            "total vs sweep",
            "—",
            "—",
            f"{per_sweep * 1e6:.1f} us / {t_sweep * 1e3:.0f} ms "
            f"= {overhead * 100:.4f}%",
        ]
    )
    write_result(
        "trace_propagation_overhead",
        format_table(
            rows,
            f"trace-propagation overhead — {GRID}x{GRID} {KERNEL} "
            "simulated sweep (telemetry off)",
        ),
    )

    assert overhead < MAX_DISABLED_OVERHEAD, (
        f"disabled trace propagation costs {overhead * 100:.2f}% per "
        f"sweep (limit {MAX_DISABLED_OVERHEAD * 100:.0f}%)"
    )
