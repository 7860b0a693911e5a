"""ABFT verification overhead: free when disabled, bounded when on.

The fault-tolerance contract (docs/robustness.md): a sweep with no
``verify``/``faults``/``policy`` arguments never builds a guard or an
injector — the hot loop pays one ``is None`` check per block staging
and per tile, nothing more.  This benchmark pins that down on the
acceptance workload — a 256x256 Box-2D9P simulated sweep — with the
same isolated-wrapper methodology as ``bench_telemetry_overhead``:
end-to-end timings are too noisy on a shared box to resolve a sub-2%
delta, so the asserted quantity is the facade's *fault-mode dispatch*
cost measured over thousands of stubbed calls.

Three end-to-end interpreter paths are reported:

* ``verify off`` — the production path (guard/injector machinery
  entirely absent);
* ``verify on (clean)`` — ``verify="abft"``: every tile's checksums
  compared at tolerance 0 against a batched vector-walk reference, one
  walk of the plan's ``VectorProgram`` per thread block.  The walks
  cost a small fraction of the interpreted sweep, and the run
  asserts verify-on stays within ``MAX_VERIFY_RATIO`` of verify-off.
  The *hardware* cost of the scheme is the checksum-row footprint
  reported at the bottom of the table — one extra accumulator row per
  8-row MMA, a 12.5% bound (``repro.core.lowering.checksum_footprint``);
* ``verify on + 1 fault`` — one injected bit flip, detected and
  recovered (adds one tile recomputation to the clean verify cost).

The stamped run-record carries the chaos run's ``faults`` section
(schema ``repro.telemetry.run-record/v6``).
"""

from __future__ import annotations

import time

import numpy as np

from repro import telemetry
from repro.core.lowering import checksum_footprint
from repro.experiments.report import format_table
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.runtime import compile as compile_stencil
from repro.stencil.kernels import get_kernel
from repro.tcu.counters import EventCounters

GRID = 256
KERNEL = "Box-2D9P"
#: acceptance ceiling for the disabled-path dispatch cost
MAX_DISABLED_OVERHEAD = 0.02
#: acceptance ceiling for a clean verified sweep over an unverified one
MAX_VERIFY_RATIO = 1.25
#: the swept backend, pinned so ``REPRO_BACKEND`` cannot change the ratio
BACKEND = "interpreter"
#: calls per chunk when timing the dispatch in isolation
WRAPPER_CALLS = 2000


def _best_of_interleaved(fns, rounds: int = 3) -> list[float]:
    """Best-of-``rounds`` time of each of ``fns``, timed in alternation
    so a drift in machine load lands on every path alike."""
    for fn in fns:
        fn()  # warm-up
    best = [float("inf")] * len(fns)
    for _ in range(rounds):
        for i, fn in enumerate(fns):
            start = time.perf_counter()
            fn()
            best[i] = min(best[i], time.perf_counter() - start)
    return best


def _dispatch_cost_seconds(compiled, padded) -> float:
    """Per-call cost ``verify=None`` adds to the facade dispatch.

    Stubs ``compiled.runtime.apply_simulated``, then times the facade
    with all fault arguments at their defaults against the bare stub;
    the difference bounds everything the fault-tolerance feature added
    to the disabled path (the ``fault_mode`` flag test and argument
    plumbing — no report, no snapshot, no guard).
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


def test_abft_overhead(benchmark, write_result):
    telemetry.disable()
    k = get_kernel(KERNEL)
    compiled = compile_stencil(k.weights)
    rng = np.random.default_rng(0)
    padded = rng.normal(size=(GRID + 2 * compiled.radius,) * 2)

    def one_fault():
        inj = FaultInjector(
            FaultPlan(specs=(FaultSpec(kind="flip_a", site=5, lane=3),))
        )
        out, _ = compiled.apply_simulated(
            padded, verify="abft", faults=inj, backend=BACKEND
        )
        assert inj.report.as_dict()["unrecovered"] == 0
        return out

    clean = compiled.apply_simulated(padded, backend=BACKEND)[0]
    assert np.array_equal(one_fault(), clean)  # recovery is bit-exact
    t_off, t_verify, t_fault = _best_of_interleaved(
        [
            lambda: compiled.apply_simulated(padded, backend=BACKEND),
            lambda: compiled.apply_simulated(
                padded, verify="abft", backend=BACKEND
            ),
            one_fault,
        ]
    )

    dispatch = _dispatch_cost_seconds(compiled, padded)
    overhead_off = dispatch / t_off
    footprint = checksum_footprint(compiled.plan.lowered)

    benchmark(lambda: compiled.apply_simulated(padded, backend=BACKEND))

    text = format_table(
        [
            ["path", "time / sweep", "vs verify off"],
            ["verify off", f"{t_off * 1e3:.1f} ms", "—"],
            ["verify on (clean)", f"{t_verify * 1e3:.1f} ms",
             f"{t_verify / t_off:.2f}x (batched vector-walk reference)"],
            ["verify on + 1 fault", f"{t_fault * 1e3:.1f} ms",
             f"{t_fault / t_off:.2f}x"],
            ["disabled-path dispatch (isolated)",
             f"{dispatch * 1e6:.2f} us/call",
             f"{overhead_off * 100:+.4f}%"],
            ["hardware checksum footprint",
             f"{footprint['checksum_rows']} rows / "
             f"{footprint['baseline_rows']} acc rows",
             f"{footprint['overhead_fraction'] * 100:.1f}% of MMA work"],
        ],
        f"ABFT overhead — {GRID}x{GRID} {KERNEL} {BACKEND} sweep",
    )
    write_result("abft_overhead", text)

    assert overhead_off < MAX_DISABLED_OVERHEAD, (
        f"disabled fault machinery costs {overhead_off * 100:.2f}% on the "
        f"facade sweep (limit {MAX_DISABLED_OVERHEAD * 100:.0f}%)"
    )
    assert t_verify <= MAX_VERIFY_RATIO * t_off, (
        f"clean verified sweep takes {t_verify / t_off:.2f}x the unverified "
        f"one (limit {MAX_VERIFY_RATIO}x)"
    )
    assert footprint["overhead_fraction"] == 0.125
