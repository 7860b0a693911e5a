#!/usr/bin/env python3
"""Reference-workload benchmark: end-to-end metrics or the layer ledger.

Run from the repository root::

    python3 perfbench/run.py --workload functional-steps --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing patched;
``--trace 1`` measures the per-layer ledger (half the window untraced,
half traced; see ``ledger.py``).  Every op's output is checked outside
the timed region, and a wrong or missing output counts as a failed op.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records
the sample count and the thread caps of the run.

The benchmark sets no allocator or BLAS tuning knob.  The only
environment it touches caps BLAS threads at one, because the executor
pools already use every core (``nproc``), and it drops repro's own
``REPRO_BACKEND`` / ``REPRO_HEALTH_FILE`` settings so the workload is
the same whatever shell it runs from.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# listed here rather than imported from workloads.py, so arguments are
# parsed before NumPy loads (the BLAS thread cap must come first)
WORKLOAD_NAMES = (
    "functional-steps",
    "sim-vectorized",
    "cluster-temporal",
    "verified-sharded",
)

#: cold set-ups per run; ``setup_s`` is their median
SETUP_REPS = 7
#: untimed ops after set-up, so lazy state settles before timing
WARMUP_S = 1.0
WARMUP_MIN_OPS = 3
#: the window extends until p90 has at least ten samples beyond it
MIN_SAMPLES = 100
#: ...but never past this multiple of ``--seconds``
MAX_STRETCH = 3
#: length of each untraced / traced chunk of a ``--trace 1`` run
TRACE_CHUNK_S = 1.0

#: self time of each ledger layer -> per-layer metric (ms per op)
SELF_METRICS = {
    "bench.op": "bench.op_self_ms",
    "runtime.compile": "runtime.compile_ms",
    # lowering inside an op can only happen under a compile call
    "core.lower": "runtime.compile_ms",
    "runtime.facade": "runtime.facade_self_ms",
    "runtime.apply": "runtime.apply_self_ms",
    "stencil.pad": "stencil.pad_ms",
    "core.engine_apply": "core.engine_apply_ms",
    "core.engine_sim": "core.engine_sim_self_ms",
    "core.block_sweep": "core.block_sweep_self_ms",
    "core.vector_sweep": "core.vector_sweep_ms",
    "core.vector_walk": "core.vector_walk_ms",
    "core.vector_probe": "core.vector_probe_ms",
    "tcu.execute_program": "tcu.execute_program_ms",
    "faults.check_tile": "faults.check_tile_ms",
    "faults.check_stage": "faults.check_stage_ms",
    "faults.supervise": "faults.supervise_self_ms",
    "parallel.run": "parallel.run_self_ms",
    "parallel.scatter": "parallel.scatter_ms",
    "parallel.gather": "parallel.gather_ms",
    "parallel.exchange": "parallel.exchange_ms",
    "parallel.wait": "parallel.wait_ms",
    "parallel.advance": "parallel.advance_ms",
}
#: per-layer metric -> ledger layer whose calls per op it counts
CALL_METRICS = {
    "core.engine_apply_calls": "core.engine_apply",
    "tcu.tiles": "tcu.execute_program",
    "faults.tiles_verified": "faults.check_tile",
}
#: exact per-op counts the workloads read from the program's results
COUNT_METRICS = {
    "tcu.mma_ops": "count",
    "tcu.global_load_bytes": "B",
    "tcu.global_store_bytes": "B",
    "tcu.shared_load_requests": "count",
    "faults.detections": "count",
    "parallel.rounds": "count",
    "parallel.halo_bytes": "B",
}


def cap_threads() -> dict:
    """Cap BLAS threads before NumPy loads; returns the run's caps."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    for var in ("REPRO_BACKEND", "REPRO_HEALTH_FILE"):
        os.environ.pop(var, None)
    workers = min(2, nproc)
    return {
        "nproc": nproc,
        "blas_threads": 1,
        "executor_workers": workers,
        "shards": 2,
        "halo_transfer_lanes": 1,
    }


def import_repro():
    """Import repro from this checkout's ``src``, never an installed copy."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}")
    return repro


class Tally:
    """Attempted and failed ops; a raised error or wrong output fails."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


class ProcCounters:
    """Minor page faults and garbage-collector time, summed over every
    ``with`` block."""

    def __init__(self) -> None:
        self.gc_ns = 0
        self.minor_faults = 0
        self._gc_start = 0

    def __enter__(self):
        gc.callbacks.append(self._on_gc)
        self._faults0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        return self

    def _on_gc(self, phase, info) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter_ns()
        else:
            self.gc_ns += time.perf_counter_ns() - self._gc_start

    def __exit__(self, *exc) -> None:
        self.minor_faults += (
            resource.getrusage(resource.RUSAGE_SELF).ru_minflt - self._faults0
        )
        gc.callbacks.remove(self._on_gc)


class Window:
    """What one timed window measured."""

    def __init__(self) -> None:
        self.latencies_ns: list[int] = []
        self.self_ns: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)

    @property
    def ops(self) -> int:
        return len(self.latencies_ns)

    def mpts_per_s(self, points_per_op: int) -> float:
        return points_per_op * self.ops / (sum(self.latencies_ns) / 1e9) / 1e6


def attempt(wl, tally, op):
    """Run one op and check it; returns ``(ns, extra)`` or ``None``."""
    t0 = time.perf_counter_ns()
    try:
        output, extra = op()
    except Exception as exc:  # a failed op is counted, not fatal
        print(f"perfbench: op failed: {exc!r}", file=sys.stderr)
        tally.record(False)
        return None
    elapsed = time.perf_counter_ns() - t0
    tally.record(wl.check(output, extra))
    return elapsed, extra


def measure_setup(wl, tally, ledger=None):
    """Cold set-ups: clear the plan cache, build the plan, run one op.

    Returns ``(seconds, cold compile ms, lowering ms)`` per set-up; the
    two ledger lists are empty when ``ledger`` is ``None``.
    """
    from repro.runtime.facade import DEFAULT_PLAN_CACHE

    def setup():
        wl.cold_setup()
        return wl.op()

    seconds, compile_ms, lower_ms = [], [], []
    for _ in range(SETUP_REPS):
        DEFAULT_PLAN_CACHE.clear()
        done = attempt(wl, tally, (lambda: ledger.run_op(setup)) if ledger else setup)
        if done is None:
            continue
        seconds.append(done[0] / 1e9)
        if ledger is not None:
            compile_ms.append(ledger.inclusive_ns("runtime.compile") / 1e6)
            lower_ms.append(ledger.inclusive_ns("core.lower") / 1e6)
    return seconds, compile_ms, lower_ms


def warm_up(wl, tally) -> None:
    end = time.perf_counter() + WARMUP_S
    ops = 0
    while ops < WARMUP_MIN_OPS or time.perf_counter() < end:
        attempt(wl, tally, wl.op)
        ops += 1


def timed_window(wl, seconds, tally, win, ledger=None, min_samples=1) -> None:
    """Back-to-back ops for ``seconds`` (stretched to ``min_samples``),
    added to ``win``."""
    op = (lambda: ledger.run_op(wl.op)) if ledger else wl.op
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= MAX_STRETCH * seconds or (
            elapsed >= seconds and win.ops >= min_samples
        ):
            return
        done = attempt(wl, tally, op)
        if done is None:
            continue
        win.latencies_ns.append(done[0])
        for name, value in wl.counts(done[1]).items():
            win.counts[name] += value
        if ledger is not None:
            _, self_ns, calls = ledger.attribute()
            for layer, ns in self_ns.items():
                win.self_ns[layer] += ns
            for layer, n in calls.items():
                win.calls[layer] += n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end_metrics(wl, setup_s, win) -> dict:
    lat_ms = [ns / 1e6 for ns in win.latencies_ns]
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "latency_p50_ms": (statistics.median(lat_ms), "ms"),
        "latency_p90_ms": (p90(lat_ms), "ms"),
        "mpts_per_s": (win.mpts_per_s(wl.points_per_op), "Mpts/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def layer_metrics(wl, compile_ms, lower_ms, plain, proc, traced, hit_ratio):
    n = traced.ops
    metrics = {
        "runtime.plan_cache_hit_ratio": (hit_ratio, "ratio"),
        "runtime.cold_compile_ms": (statistics.median(compile_ms), "ms"),
        "core.lower_ms": (statistics.median(lower_ms), "ms"),
        "trace.op_wall_ms": (sum(traced.latencies_ns) / n / 1e6, "ms"),
    }
    for metric in dict.fromkeys(SELF_METRICS.values()):
        ns = sum(v for k, v in traced.self_ns.items() if SELF_METRICS.get(k) == metric)
        metrics[metric] = (ns / n / 1e6, "ms")
    for metric, layer in CALL_METRICS.items():
        metrics[metric] = (traced.calls.get(layer, 0) / n, "count")
    for metric, unit in COUNT_METRICS.items():
        metrics[metric] = (traced.counts.get(metric, 0) / n, unit)
    metrics["proc.minor_faults"] = (proc.minor_faults / plain.ops, "count")
    metrics["proc.gc_ms"] = (proc.gc_ns / plain.ops / 1e6, "ms")
    untraced = plain.mpts_per_s(wl.points_per_op)
    overhead = (untraced - traced.mpts_per_s(wl.points_per_op)) / untraced * 100
    metrics["trace.overhead_pct"] = (overhead, "%")
    unknown = set(traced.self_ns) - set(SELF_METRICS)
    if unknown:
        raise RuntimeError(f"ledger layers without a metric: {sorted(unknown)}")
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns ``{"info": ..., "result": ...}``."""
    caps = cap_threads()
    import_repro()
    from repro import telemetry
    from repro.runtime.facade import DEFAULT_PLAN_CACHE

    from ledger import Ledger
    from workloads import WORKLOADS

    telemetry.disable()  # the ledger measures from outside; repro's own is off
    wl = WORKLOADS[workload](seed, caps["executor_workers"])
    tally = Tally()
    wl.reference()
    ledger = Ledger() if trace else None
    if ledger is not None:
        ledger.install()
    try:
        setup_s, compile_ms, lower_ms = measure_setup(wl, tally, ledger)
    finally:
        if ledger is not None:
            ledger.uninstall()
    warm_up(wl, tally)
    win = Window()
    gc.collect()  # once, before the timed window; never between ops
    if not trace:
        timed_window(wl, seconds, tally, win, min_samples=MIN_SAMPLES)
        metrics = end_to_end_metrics(wl, setup_s, win)
    else:
        # untraced and traced chunks alternate, so machine-speed drift
        # during the run does not masquerade as tracing overhead
        plain, proc = Window(), ProcCounters()
        chunks = max(1, round(seconds / 2 / TRACE_CHUNK_S))
        before = DEFAULT_PLAN_CACHE.stats()
        for _ in range(chunks):
            with proc:
                timed_window(wl, seconds / 2 / chunks, tally, plain)
            ledger.install()
            try:
                timed_window(wl, seconds / 2 / chunks, tally, win, ledger=ledger)
            finally:
                ledger.uninstall()
        after = DEFAULT_PLAN_CACHE.stats()
        hits = after.hits - before.hits
        lookups = hits + after.misses - before.misses
        metrics = layer_metrics(
            wl, compile_ms, lower_ms, plain, proc, win,
            hits / lookups if lookups else 0.0,
        )
    lat_ms = [ns / 1e6 for ns in win.latencies_ns]
    tail = p90(lat_ms) if win.ops > 1 else 0.0
    info = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "samples": win.ops,
        "samples_above_p90": sum(v > tail for v in lat_ms),
        "setup_reps": len(setup_s),
        "closed_loop_clients": 1,
        "thread_caps": caps,
    }
    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    return {"info": info, "result": result}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(out["info"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
