"""Command-line interface.

::

    python -m repro kernels                 # Table II zoo
    python -m repro decompose Box-2D49P     # PMA pyramid of a kernel
    python -m repro plan Box-2D49P [--json] # compiled plan + cache stats
    python -m repro run Box-2D49P --size 64 # simulated sweep + events
    python -m repro profile Heat-2D --emit trace.json  # span tree + trace
    python -m repro profile Box-2D9P --per-instr  # per-opcode/term attribution
    python -m repro perf check --baseline BENCH_baseline.json  # regression gate
    python -m repro perf diff a.json b.json # compare two run-records
    python -m repro perf fidelity Box-2D9P  # paper equations vs measured (exit 1 on drift)
    python -m repro perf check --repeats 3 --record DIR  # measure + append
    python -m repro perf history --root DIR # list the run-record history
    python -m repro perf trend --root DIR   # rolling median/MAD timing gate
    python -m repro fig8 [--kernels ...]    # figure/table drivers
    python -m repro fig9 / fig10 / table3
    python -m repro precision Heat-2D       # FP16 vs FP64 error growth
    python -m repro scaling --devices 4     # multi-GPU scaling model
    python -m repro chaos run Box-2D9P      # seeded fault campaign + ABFT
    python -m repro chaos report r.json     # summarize chaos run-records
    python -m repro cluster run|report|resume Heat-2D  # distributed sweep
    python -m repro trace Box-2D49P         # warp-op trace of one tile
    python -m repro verify                  # all engines vs the reference

``run``/``fig8``/``fig9``/``fig10``/``table3`` accept ``--telemetry``
to print a span-tree epilogue; ``run`` and ``plan`` accept ``--json``
for machine-readable run-record output (schema
``repro.telemetry.run-record/v6``, see docs/observability.md).  Every
leaf parser carries its handler as the ``run`` default, and each
handler takes the parsed ``args``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import pathlib
import sys
from typing import NamedTuple

import numpy as np

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="LoRAStencil (SC'24) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _leaf(sub, "kernels", _cmd_kernels, help="list the Table II benchmark kernels")

    _leaf(sub, "decompose", _cmd_decompose,
          help="show a kernel's PMA/SVD pyramid").add_argument("kernel")

    p = _leaf(sub, "plan", _cmd_plan, help="show a kernel's compiled execution plan")
    p.add_argument("kernel")
    p.add_argument("--no-tensor-cores", action="store_true",
                   help="plan for the CUDA-core fallback path")
    p.add_argument("--schedule", default=None, metavar="NAME",
                   help="instruction schedule to lower with "
                        "(eager, prefetch, or a registered name)")
    _add_backend_flag(p)
    p.add_argument("--ir", action="store_true",
                   help="dump the lowered tile program(s)")
    p.add_argument("--json", action="store_true",
                   help="emit a machine-readable run-record instead of text")

    p = _leaf(sub, "run", _cmd_run, help="simulated sweep of one kernel")
    p.add_argument("kernel")
    p.add_argument("--size", type=int, default=64, help="grid edge (default 64)")
    p.add_argument("--seed", type=int, default=0)
    _add_backend_flag(p)
    p.add_argument("--json", action="store_true",
                   help="emit a machine-readable run-record instead of text")
    _add_telemetry_flag(p)

    p = _leaf(sub, "profile", _cmd_profile,
              help="run one kernel under tracing and print the span tree")
    p.add_argument("kernel")
    p.add_argument("--size", type=int, default=64, help="grid edge (default 64)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--shards", type=int, default=1,
                   help="shard the sweep over a thread pool (default 1)")
    p.add_argument("--emit", default=None, metavar="PATH",
                   help="write Chrome trace-event JSON "
                        "(open in chrome://tracing or Perfetto)")
    p.add_argument("--record", default=None, metavar="PATH",
                   help="write a structured JSON run-record")
    p.add_argument("--per-instr", action="store_true",
                   help="attribute events per TileProgram instruction "
                        "(opcode / rank-1 term tables; single shard only)")
    _add_backend_flag(p)

    p = sub.add_parser("perf", help="performance observatory: regression gate, "
                                    "record diffs, model fidelity")
    perf_sub = p.add_subparsers(dest="perf_command", required=True)

    pc = _leaf(perf_sub, "check", _cmd_perf_check,
               help="run the reference workload and gate against a baseline "
                    "run-record (exit 1 on regression, 2 on a missing or "
                    "unreadable baseline)")
    pc.add_argument("--baseline", default=None, metavar="PATH",
                    help="baseline run-record (default BENCH_baseline.json)")
    pc.add_argument("--update-baseline", action="store_true",
                    help="measure and (over)write the baseline instead of "
                         "checking against it")
    pc.add_argument("--size", type=int, default=None,
                    help="grid edge (default: the baseline's)")
    pc.add_argument("--seed", type=int, default=None,
                    help="input seed (default: the baseline's)")
    pc.add_argument("--repeats", type=int, default=1,
                    help="sweep repetitions; the median timing is stamped "
                         "(default 1)")
    _add_backend_flag(pc)
    pc.add_argument("--min-speedup", type=float, default=None, metavar="X",
                    help="require baseline_time / current_time >= X "
                         "(e.g. 10 to pin the vectorized backend's win)")
    pc.add_argument("--record", default=None, metavar="DIR",
                    help="append the measured record to this history dir")
    pc.add_argument("--json", action="store_true",
                    help="emit the comparison as JSON")

    pd = _leaf(perf_sub, "diff", _cmd_perf_diff,
               help="compare two run-record files (exit 1 when the second "
                    "regressed relative to the first)")
    pd.add_argument("baseline", help="baseline .json record (or .jsonl history)")
    pd.add_argument("current", help="current .json record (or .jsonl history)")
    pd.add_argument("--json", action="store_true",
                    help="emit the comparison as JSON")

    pf = _leaf(perf_sub, "fidelity", _cmd_perf_fidelity,
               help="paper-model fidelity: Eq. 12/14/16 predictions vs "
                    "measured events (exit 1 when any prediction misses)")
    pf.add_argument("kernel")
    pf.add_argument("--size", type=int, default=64,
                    help="grid edge (default 64)")
    pf.add_argument("--seed", type=int, default=0)
    pf.add_argument("--output", default=None, metavar="PATH",
                    help="also write the fidelity report as JSON")
    pf.add_argument("--json", action="store_true",
                    help="print the report as JSON instead of a table")

    ph = _leaf(perf_sub, "history", _cmd_perf_history,
               help="list the run-record history store")
    ph.add_argument("name", nargs="?", default=None,
                    help="show this record name's entries (default: list names)")
    ph.add_argument("--root", default="benchmarks/results/records/history",
                    metavar="DIR")

    pt = _leaf(perf_sub, "trend", _cmd_perf_trend,
               help="statistical timing gate: latest stored run vs the rolling "
                    "median/MAD of the record history (exit 1 regressed, "
                    "2 insufficient or unreadable history)")
    pt.add_argument("name", nargs="?", default=None,
                    help="history record name (default: the reference "
                         "workload's perf-check record)")
    pt.add_argument("--root", default="benchmarks/results/records/history",
                    metavar="DIR", help="history store directory")
    pt.add_argument("--metric", default="timing_s",
                    help="extra.<metric> to gate (default timing_s)")
    pt.add_argument("--direction", choices=["above", "below"],
                    default="above",
                    help="'above' flags values rising past the gate "
                         "(timings, imbalance); 'below' flags values "
                         "falling under it (overlap efficiency)")
    pt.add_argument("--json", action="store_true",
                    help="emit the verdict as JSON")

    p = _leaf(sub, "fig8", _cmd_fig8, help="state-of-the-art comparison")
    p.add_argument("--kernels", nargs="*", default=None)
    p.add_argument("--best", action="store_true",
                   help="include the rank-1 LoRAStencil-Best series")
    _add_telemetry_flag(p)

    _add_telemetry_flag(_leaf(
        sub, "fig9", _cmd_fig9, help="optimization breakdown (Box-2D9P)"))
    _add_telemetry_flag(_leaf(
        sub, "fig10", _cmd_fig10, help="shared-memory request comparison"))
    _add_telemetry_flag(_leaf(
        sub, "table3", _cmd_table3,
        help="compute throughput / arithmetic intensity"))

    p = _leaf(sub, "precision", _cmd_precision, help="FP16 vs FP64 error growth")
    p.add_argument("kernel")
    p.add_argument("--steps", type=int, nargs="*", default=[1, 2, 4, 8, 16])

    p = _leaf(sub, "scaling", _cmd_scaling, help="multi-GPU scaling model (Box-2D9P)")
    p.add_argument("--size", type=int, default=4096)
    p.add_argument("--devices", type=int, nargs="*", default=[1, 2, 4, 8])

    p = sub.add_parser("chaos", help="deterministic fault injection with ABFT detection/recovery")
    chaos_sub = p.add_subparsers(dest="chaos_command", required=True)
    cr = _leaf(chaos_sub, "run", _cmd_chaos_run,
               help="inject a seeded fault campaign into one kernel's sweep")
    cr.add_argument("kernel")
    cr.add_argument("--size", type=int, default=64)
    cr.add_argument("--seed", type=int, default=0,
                    help="seed for both the grid and the fault plan")
    cr.add_argument("--faults", type=int, default=4,
                    help="number of faults in the campaign")
    cr.add_argument("--shards", type=int, default=1)
    cr.add_argument("--no-verify", action="store_true",
                    help="negative control: inject without ABFT verification")
    cr.add_argument("--json", action="store_true")
    _add_artifact_flags(cr, history=False)
    cp = _leaf(chaos_sub, "report", _cmd_chaos_report,
               help="print the faults sections of run-record files")
    cp.add_argument("paths", nargs="+")
    cp.add_argument("--json", action="store_true")

    p = sub.add_parser("cluster", help="distributed sweep: partition, temporal "
                                       "rounds, overlap, recovery, per-rank observatory")
    cluster_sub = p.add_subparsers(dest="cluster_command", required=True)
    clr = _leaf(cluster_sub, "run", _cmd_cluster_run,
                help="execute one distributed sweep and check it against the "
                     "dense reference")
    _add_cluster_run_args(clr)
    clr.add_argument("--json", action="store_true")
    _add_artifact_flags(clr)
    clr.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                     help="snapshot the run into DIR at temporal-round "
                          "barriers (resumable with `repro cluster resume`)")
    clr.add_argument("--halt-after-round", type=int, default=None,
                     metavar="ROUND",
                     help="deterministic mid-run kill: checkpoint after "
                          "ROUND completes, then exit 3 (tests resume)")
    crs = _leaf(cluster_sub, "resume", _cmd_cluster_resume,
                help="resume a checkpointed distributed sweep and prove the "
                     "completed trajectory bit-identical to an uninterrupted run")
    crs.add_argument("--checkpoint-dir", required=True, metavar="DIR",
                     help="directory written by `cluster run "
                          "--checkpoint-dir`")
    crs.add_argument("--json", action="store_true")
    _add_artifact_flags(crs)
    crp = _leaf(cluster_sub, "report", _cmd_cluster_report,
                help="run one traced distributed sweep and print the cluster "
                     "observatory report (per-rank Gantt, critical path, overlap "
                     "efficiency, imbalance, halo attribution)")
    _add_cluster_run_args(crp)
    crp.add_argument("--json", action="store_true",
                     help="print the full ClusterReport JSON instead of "
                          "the ASCII Gantt")
    crp.add_argument("--gantt-width", type=int, default=72, metavar="COLS",
                     help="timeline width in characters (default 72)")
    crp.add_argument("--output", default=None, metavar="PATH",
                     help="also write the ClusterReport as JSON")
    crp.add_argument("--chrome-trace", default=None, metavar="PATH",
                     help="write per-rank timeline lanes as a Chrome "
                          "trace-event file")
    _add_artifact_flags(crp, events=False)

    p = _leaf(sub, "trace", _cmd_trace, help="print the warp-op trace of one tile")
    p.add_argument("kernel")
    p.add_argument("--limit", type=int, default=80)

    _leaf(sub, "verify", _cmd_verify, help="quick end-to-end self-check of all engines")
    return parser


def _leaf(sub, name: str, run, **kwargs) -> argparse.ArgumentParser:
    """Add the leaf subcommand ``name``; ``run(args)`` handles it."""
    p = sub.add_parser(name, **kwargs)
    p.set_defaults(run=run)
    return p


def _add_telemetry_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--telemetry",
        action="store_true",
        help="trace the command and print a span-tree epilogue",
    )


def _add_backend_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend",
        default=None,
        metavar="NAME",
        help="execution backend: interpreter or vectorized "
             "(default: REPRO_BACKEND, else interpreter)",
    )


def _add_artifact_flags(
    parser: argparse.ArgumentParser, events: bool = True, history: bool = True
) -> None:
    """The artifact flags :func:`_write_artifacts` reads; an omitted one
    still defaults to ``None`` on the namespace."""
    parser.set_defaults(events=None, record_history=None)
    parser.add_argument("--record", default=None, metavar="PATH",
                        help="write a validated run-record (counters, "
                             "faults, trace, events) to PATH")
    if history:
        parser.add_argument("--record-history", default=None, metavar="DIR",
                            help="also append the run-record to this "
                                 "history store (repro perf trend input)")
    if events:
        parser.add_argument("--events", default=None, metavar="PATH",
                            help="write the structured event log as JSONL "
                                 "to PATH")


def _add_cluster_run_args(parser: argparse.ArgumentParser) -> None:
    """The run-configuration flags ``cluster run`` / ``report`` share; a
    checkpoint manifest stores their values for ``cluster resume``."""
    parser.add_argument("kernel")
    parser.add_argument("--size", type=int, default=32,
                        help="grid extent per dimension (default 32)")
    parser.add_argument("--mesh", type=int, nargs="+", default=None,
                        metavar="N",
                        help="device mesh, one integer per grid dimension "
                             "(default: 2 per splittable dimension)")
    parser.add_argument("--steps", type=int, default=4)
    parser.add_argument("--block-steps", type=int, default=1,
                        help="local steps per halo exchange "
                             "(temporal blocking)")
    parser.add_argument("--tiling", choices=["trapezoid", "diamond"],
                        default="trapezoid")
    parser.add_argument("--overlap", action="store_true",
                        help="issue each halo exchange asynchronously "
                             "(cp.async-modeled; its hiding behind the "
                             "interior sweep is modeled)")
    parser.add_argument("--executor",
                        choices=["serial", "thread", "process"],
                        default="serial")
    parser.add_argument("--simulate", action="store_true",
                        help="run the tensor-core simulation per rank "
                             "(collects EventCounters)")
    _add_backend_flag(parser)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--crash-rank", type=int, default=None,
                        metavar="RANK",
                        help="inject one shard_crash on RANK and require "
                             "recovery to the fault-free bits")
    parser.add_argument("--halo-corrupt-round", type=int, default=None,
                        metavar="ROUND",
                        help="corrupt one exchanged halo window in flight "
                             "at exchange ROUND; strip checksums must "
                             "detect it and retransmission must recover "
                             "the fault-free bits")
    parser.add_argument("--kill-rank", type=int, default=None,
                        metavar="RANK",
                        help="inject a sticky rank_crash on RANK (fires "
                             "on every retry; pair with --elastic to "
                             "re-partition around the dead rank)")
    parser.add_argument("--elastic", action="store_true",
                        help="when a rank exhausts its recovery ladder, "
                             "drop it and re-partition the grid over the "
                             "survivors (bit-identical output)")


def _print_counters(counters, intensity: bool = True) -> None:
    """The nonzero event counters, one per line, then (by default) the
    arithmetic-intensity line."""
    for name, value in counters.as_dict().items():
        if value:
            print(f"  {name:28s} {value:>12,}")
    if intensity:
        print(f"  arithmetic intensity          {counters.arithmetic_intensity():12.2f}")


def _print_record(name: str, **sections) -> int:
    """Build, validate and print the run-record of ``run``/``plan --json``."""
    from repro import telemetry

    record = telemetry.run_record(name, **sections)
    telemetry.validate_run_record(record)
    print(json.dumps(record, indent=1, sort_keys=True))
    return 0


def _cmd_kernels(args: argparse.Namespace) -> int:
    from repro.experiments.report import format_table
    from repro.stencil.kernels import KERNELS

    rows = [["Kernel", "Points", "Problem Size", "Iterations", "Blocking"]]
    for k in KERNELS.values():
        rows.append(
            [
                k.name,
                str(k.points),
                "x".join(map(str, k.problem_size)),
                str(k.iterations),
                "x".join(map(str, k.blocking)),
            ]
        )
    print(format_table(rows, "Table II — benchmark kernels"))
    return 0


def _cmd_decompose(args: argparse.Namespace) -> int:
    from repro.core.lowrank import decompose
    from repro.stencil.kernels import get_kernel

    k = get_kernel(args.kernel)
    if k.weights.ndim == 1:
        print(f"{k.name} is 1D: a single banded matrix, no decomposition "
              "needed (Section IV-C)")
        return 0
    matrices = (
        [k.weights.as_matrix()]
        if k.weights.ndim == 2
        else list(k.weights.planes())
    )
    for i, w in enumerate(matrices):
        label = k.name if len(matrices) == 1 else f"{k.name} plane {i}"
        if np.count_nonzero(w) <= 1:
            print(f"{label}: single-point plane -> CUDA cores (Alg. 2)")
            continue
        d = decompose(w)
        terms = ", ".join(
            "1x1 apex" if t.is_scalar else f"{t.size}x{t.size}" for t in d.terms
        )
        print(f"{label}: method={d.method}, rank={d.rank}, terms=[{terms}], "
              f"reconstruction error={d.max_error(w):.2e}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.baselines.lorastencil import LoRAStencilMethod
    from repro.stencil.kernels import get_kernel
    from repro.telemetry.perf import profile_shape

    k = get_kernel(args.kernel)
    method = LoRAStencilMethod(k)
    shape = profile_shape(k.weights.ndim, args.size)
    out, events = method.simulated_sweep(shape, seed=args.seed, backend=args.backend)
    plan = method.plan
    backend = args.backend or plan.backend
    if args.json:
        return _print_record(k.name, counters=events, extra={
            "command": "run",
            "size": args.size,
            "seed": args.seed,
            "shape": list(shape),
            "plan_key": plan.key,
            "method": plan.method,
            "rank": plan.rank,
            "backend": backend,
            "arithmetic_intensity": events.arithmetic_intensity(),
        })
    print(f"{k.name}: simulated sweep over {shape} "
          f"({'fused 3x, ' if method.steps_per_sweep > 1 else ''}"
          f"engine radius {method._engine_radius()})")
    print(f"  plan {plan.key[:16]}…  "
          f"({plan.method}, rank {plan.rank}, backend {backend})")
    _print_counters(events)
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro import telemetry
    from repro.runtime import DEFAULT_PLAN_CACHE
    from repro.runtime import compile as compile_stencil
    from repro.stencil.kernels import get_kernel
    from repro.telemetry.perf import profile_shape

    if args.per_instr and args.shards > 1:
        print("profile: --per-instr requires a single shard (the "
              "profiled sweep is checked against this one)", file=sys.stderr)
        return 2
    k = get_kernel(args.kernel)
    telemetry.reset()
    telemetry.enable()
    try:
        with telemetry.TRACER.span(
            "profile", category="cli", kernel=k.name, size=args.size
        ) as root:
            with telemetry.span("setup", category="cli"):
                rng = np.random.default_rng(args.seed)
                shape = profile_shape(k.weights.ndim, args.size)
                x = np.pad(rng.normal(size=shape), k.weights.radius)
            compiled = compile_stencil(k.weights, backend=args.backend)
            out, events = compiled.apply_simulated(x, shards=args.shards)
    finally:
        telemetry.disable()

    print(f"{k.name}: profiled sweep over {shape}, plan "
          f"{compiled.key[:16]}… ({compiled.plan.method}, "
          f"rank {compiled.plan.rank}, backend {compiled.plan.backend})")
    print(f"lowering: {compiled.lowered.describe()}")
    for name, seconds in compiled.lowered.pass_times:
        print(f"  pass {name:<16} {seconds * 1e3:8.3f} ms")
    print()
    print(root.render_tree())
    print()
    print("hardware events:")
    _print_counters(events)
    profile = None
    mismatch = False
    if args.per_instr:
        profile = compiled.profile(x)
        print()
        print(profile.render())
        mismatch = profile.total_events.as_dict() != events.as_dict()
        print()
        if mismatch:
            print("per-instruction totals DO NOT match the uninstrumented "
                  "sweep — attribution is leaking events", file=sys.stderr)
        else:
            print("per-instruction totals match the uninstrumented sweep "
                  "bit-exactly")
    if args.emit:
        path = telemetry.write_chrome_trace(args.emit)
        print(f"\nchrome trace written to {path} "
              f"(open in chrome://tracing or Perfetto)")
    if args.record:
        extra = {
            "command": "profile",
            "size": args.size,
            "shards": args.shards,
            "plan_key": compiled.key,
            "schedule": compiled.schedule,
            "backend": compiled.plan.backend,
        }
        if profile is not None:
            extra["per_instr"] = profile.as_dict()
        rec = telemetry.run_record(
            k.name,
            cache_stats=DEFAULT_PLAN_CACHE.stats(),
            counters=events,
            extra=extra,
        )
        path = telemetry.write_run_record(args.record, rec)
        print(f"run record written to {path}")
    return 1 if mismatch else 0


def _reads_records(handler):
    """A ``perf`` leaf that reads run-records: a baseline, history or
    record that cannot be read or does not validate exits 2 with one
    stderr line, never 1 (the "regressed" code) and never a traceback."""

    @functools.wraps(handler)
    def run(args: argparse.Namespace) -> int:
        from repro.telemetry.validate import TelemetryError

        try:
            return handler(args)
        except (TelemetryError, OSError, json.JSONDecodeError) as exc:
            print(f"perf {args.perf_command}: cannot read history or record: "
                  f"{exc}", file=sys.stderr)
            return 2

    return run


@_reads_records
def _cmd_perf_check(args: argparse.Namespace) -> int:
    from repro.telemetry.perf import (
        DEFAULT_BASELINE,
        RunRecordStore,
        compare_records,
        load_record,
        measure_reference,
    )
    from repro.telemetry.perf.history import REFERENCE_WORKLOAD
    from repro.telemetry.validate import TelemetryError

    baseline_path = pathlib.Path(args.baseline or DEFAULT_BASELINE)
    try:
        baseline = load_record(baseline_path) if baseline_path.exists() else None
    except (TelemetryError, json.JSONDecodeError):
        if not args.update_baseline:
            raise
        baseline = None  # a baseline being replaced only lends defaults
    if baseline is None and not args.update_baseline:
        print(f"perf check: baseline {baseline_path} not found "
              f"(create it with --update-baseline)", file=sys.stderr)
        return 2
    base_extra = (baseline or {}).get("extra") or {}
    kernel = base_extra.get("kernel", REFERENCE_WORKLOAD["kernel"])
    size = args.size or base_extra.get("size", REFERENCE_WORKLOAD["size"])
    seed = (
        args.seed
        if args.seed is not None
        else base_extra.get("seed", REFERENCE_WORKLOAD["seed"])
    )

    current = measure_reference(
        kernel, size=size, seed=seed, backend=args.backend,
        repeats=args.repeats,
    )
    if args.update_baseline:
        baseline_path.parent.mkdir(parents=True, exist_ok=True)
        baseline_path.write_text(json.dumps(current, indent=1, sort_keys=True))
        print(f"baseline written to {baseline_path} "
              f"({kernel}, {size}x{size}, seed {seed}, backend "
              f"{current['extra']['backend']})")
        return 0
    if args.record:
        path = RunRecordStore(args.record).append(current)
        print(f"record appended to {path}")
    comparison = compare_records(baseline, current)
    # optional speedup gate: counters must already be bit-stable across
    # backends, so a vectorized run may additionally pin its wall-clock
    # win over an interpreter baseline
    base_time = base_extra.get("timing_s")
    cur_time = current["extra"]["timing_s"]
    speedup = (
        base_time / cur_time
        if isinstance(base_time, (int, float)) and cur_time
        else None
    )
    speedup_ok = True
    if args.min_speedup is not None:
        speedup_ok = speedup is not None and speedup >= args.min_speedup
    ok = comparison.ok and speedup_ok
    if args.json:
        print(json.dumps(
            {
                **comparison.as_dict(),
                "baseline": str(baseline_path),
                "workload": {
                    "kernel": kernel,
                    "size": size,
                    "seed": seed,
                    "backend": current["extra"]["backend"],
                },
                "ok": ok,
                "speedup": speedup,
                "min_speedup": args.min_speedup,
            },
            indent=1,
            sort_keys=True,
        ))
    else:
        print(f"workload: {kernel}, {size}x{size}, seed {seed}, "
              f"backend {current['extra']['backend']}")
        print(comparison.render())
        if speedup is not None:
            gate = ""
            if args.min_speedup is not None:
                gate = (f"  [gate >= {args.min_speedup:g}x: "
                        f"{'ok' if speedup_ok else 'FAIL'}]")
            print(f"speedup vs baseline: {speedup:.1f}x "
                  f"({base_time:.3f}s -> {cur_time:.3f}s){gate}")
        elif args.min_speedup is not None:
            print("speedup gate FAILED: baseline carries no timing_s",
                  file=sys.stderr)
    return 0 if ok else 1


@_reads_records
def _cmd_perf_diff(args: argparse.Namespace) -> int:
    from repro.telemetry.perf import compare_records, load_record

    comparison = compare_records(
        load_record(args.baseline), load_record(args.current)
    )
    if args.json:
        print(json.dumps(comparison.as_dict(), indent=1, sort_keys=True))
    else:
        print(comparison.render())
    return 0 if comparison.ok else 1


def _cmd_perf_fidelity(args: argparse.Namespace) -> int:
    """Exit 1 when any prediction misses its measured counter; the
    report is printed and written either way."""
    from repro.runtime import compile as compile_stencil
    from repro.stencil.kernels import get_kernel
    from repro.telemetry.perf import fidelity_report
    from repro.telemetry.validate import validate_fidelity_report

    k = get_kernel(args.kernel)
    compiled = compile_stencil(k.weights)
    report = fidelity_report(
        compiled.plan, size=args.size, seed=args.seed, name=f"fidelity-{k.name}"
    )
    validate_fidelity_report(report)
    rc = 1 if report["max_rel_error"] > 0 else 0
    if args.output:
        path = pathlib.Path(args.output)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(report, indent=1, sort_keys=True))
    if args.json:
        print(json.dumps(report, indent=1, sort_keys=True))
        return rc
    plan, work = report["plan"], report["workload"]
    print(f"{k.name}: model fidelity on "
          f"{'x'.join(map(str, work['shape']))} "
          f"({work['tiles']} tiles, plan {plan['key'][:16]}…, "
          f"{plan['method']} rank {plan['rank']})")
    print(f"  {'counter':<22} {'equation':<36} {'predicted':>12} "
          f"{'measured':>12} {'rel.err':>8}")
    for c in report["components"]:
        rel = c["rel_error"]
        rel_s = "n/a" if rel is None else f"{rel:+.1%}"
        print(f"  {c['name']:<22} {c['equation']:<36} "
              f"{c['predicted']:>12,} {c['measured']:>12,} {rel_s:>8}")
    model = report["model"]
    print(f"  closed-form context (radius {plan['radius']}): "
          f"memory ratio Eq.14 = {model['memory_ratio_eq14']:.3f}, "
          f"MMA ratio Eq.13/16 = {model['mma_ratio_eq13_16']:.3f}, "
          f"redundancy eliminated = {model['redundancy_eliminated']:.3f}")
    print(f"  max relative error: {report['max_rel_error']:.2%}")
    if args.output:
        print(f"  report written to {args.output}")
    return rc


@_reads_records
def _cmd_perf_history(args: argparse.Namespace) -> int:
    from repro.telemetry.perf import RunRecordStore

    store = RunRecordStore(args.root)
    if args.name is None:
        names = store.names()
        if not names:
            print(f"no history under {store.root}")
            return 0
        for name in names:
            print(f"  {name:<32} {len(store.load(name))} record(s)")
        return 0
    records = store.load(args.name)
    if not records:
        print(f"no history for {args.name!r} under {store.root}",
              file=sys.stderr)
        return 2
    for rec in records:
        events = rec.get("events") or {}
        extra = rec.get("extra") or {}
        timing = extra.get("timing_s")
        timing_s = f"  {timing:.3f}s" if isinstance(timing, (int, float)) else ""
        print(f"  {rec['timestamp']}  mma={events.get('mma_ops', 0):,} "
              f"sh.ld={events.get('shared_load_requests', 0):,} "
              f"dram={events.get('global_load_bytes', 0) + events.get('global_store_bytes', 0):,}B"
              f"{timing_s}")
    return 0


@_reads_records
def _cmd_perf_trend(args: argparse.Namespace) -> int:
    from repro.telemetry.perf import RunRecordStore, trend_gate
    from repro.telemetry.perf.history import REFERENCE_WORKLOAD

    store = RunRecordStore(args.root)
    name = args.name or f"perf-check-{REFERENCE_WORKLOAD['kernel']}"
    stats = trend_gate(store, name, metric=args.metric,
                       direction=args.direction)
    if stats.latest is None:
        print(f"perf trend: no history for {name!r} under {store.root} — "
              f"append records first (repro perf check --record, "
              f"benchmarks, or repro cluster ... --record-history)",
              file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(stats.as_dict(), indent=1, sort_keys=True))
    else:
        print(stats.render())
    if stats.insufficient:
        return 2
    return 0 if stats.ok else 1


def _cmd_fig8(args: argparse.Namespace) -> int:
    from repro.experiments import PAPER, format_table, run_fig8

    res = run_fig8(kernels=args.kernels, include_best=args.best)
    print(format_table(res.table_rows(), "Fig. 8 — modelled GStencil/s"))
    if args.kernels is None:
        print("\nmean LoRAStencil speedups (paper in parentheses):")
        for method, paper in PAPER["fig8_mean_speedup"].items():
            print(f"  vs {method:12s} "
                  f"{res.mean_lora_speedup_over(method):6.2f}x ({paper}x)")
    return 0


def _cmd_fig9(args: argparse.Namespace) -> int:
    from repro.experiments import PAPER, format_table, run_fig9

    res = run_fig9()
    print(format_table(res.table_rows(), "Fig. 9 — Box-2D9P breakdown (GStencil/s)"))
    cfgs, big = res.configs(), max(res.sizes())
    print(f"\nTCU {res.gain(cfgs[1], cfgs[0], big):.2f}x "
          f"(paper {PAPER['fig9_tcu_gain']}x) | "
          f"BVS {res.gain(cfgs[2], cfgs[1], big):.2f}x "
          f"(paper {PAPER['fig9_bvs_gain']}x) | "
          f"AC {res.gain(cfgs[3], cfgs[2], big):.3f}x "
          f"(paper {PAPER['fig9_async_copy_gain']}x)")
    return 0


def _cmd_fig10(args: argparse.Namespace) -> int:
    from repro.experiments import PAPER, format_table, run_fig10

    res = run_fig10()
    print(format_table(res.table_rows(), "Fig. 10 — shared-memory requests"))
    print(f"\nmean LoRA/Conv: loads {res.mean_ratio('loads'):.3f} "
          f"(paper {PAPER['fig10_load_ratio']}), "
          f"stores {res.mean_ratio('stores'):.3f} "
          f"(paper {PAPER['fig10_store_ratio']})")
    return 0


def _cmd_table3(args: argparse.Namespace) -> int:
    from repro.experiments import format_table, run_table3

    print(format_table(run_table3().table_rows(),
                       "Table III — CT% and AI (paper in parentheses)"))
    return 0


def _cmd_precision(args: argparse.Namespace) -> int:
    from repro.experiments.report import format_table
    from repro.precision import precision_sweep
    from repro.stencil.kernels import get_kernel

    k = get_kernel(args.kernel)
    if k.weights.ndim != 2:
        print(f"precision sweep supports 2D kernels, {k.name} is "
              f"{k.weights.ndim}D", file=sys.stderr)
        return 2
    pts = precision_sweep(k.weights, steps=tuple(args.steps))
    rows = [["steps", "max |err|", "rel L2 err"]]
    for p in pts:
        rows.append([str(p.step), f"{p.max_abs_err:.3e}", f"{p.rel_l2_err:.3e}"])
    print(format_table(rows, f"{k.name}: FP16 TCStencil pipeline vs FP64"))
    return 0


def _cmd_scaling(args: argparse.Namespace) -> int:
    from repro.experiments.report import format_table
    from repro.parallel import ClusterRuntime, distribute
    from repro.stencil.kernels import get_kernel

    k = get_kernel("Box-2D9P")
    base = None
    rows = [["devices", "mesh", "step time", "comm %", "speedup", "efficiency"]]
    size = args.size
    for n in args.devices:
        mesh = _best_mesh(n)
        plan = distribute(k.weights, (size, size), mesh)
        t = ClusterRuntime(plan).timings(steps=1)
        if base is None:
            base = t
        speedup = t.speedup_over(base)
        rows.append(
            [
                str(n),
                f"{mesh[0]}x{mesh[1]}",
                f"{t.step_s * 1e3:.3f} ms",
                f"{t.comm_fraction * 100:.1f}%",
                f"{speedup:.2f}x",
                f"{speedup / n * 100:.0f}%",
            ]
        )
    print(format_table(rows, f"strong scaling, {k.name} on {size}x{size}"))
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    """Compile (or fetch) a kernel's plan and report plan-cache stats."""
    from repro.core.config import OptimizationConfig
    from repro.runtime import DEFAULT_PLAN_CACHE
    from repro.runtime import compile as compile_stencil
    from repro.stencil.kernels import get_kernel

    k = get_kernel(args.kernel)
    config = (
        OptimizationConfig(
            use_tensor_cores=not args.no_tensor_cores,
            schedule=args.schedule or "eager",
        )
        if (args.no_tensor_cores or args.schedule)
        else None
    )
    compiled = compile_stencil(k.weights, config=config, backend=args.backend)
    if args.json:
        plan = compiled.plan
        return _print_record(k.name, cache_stats=DEFAULT_PLAN_CACHE.stats(), extra={
            "command": "plan",
            "plan": {
                "key": plan.key,
                "ndim": plan.ndim,
                "radius": plan.radius,
                "method": plan.method,
                "rank": plan.rank,
                "config": plan.config.label(),
                "block": list(plan.block),
                "mma_per_tile": plan.mma_per_tile,
                "schedule": plan.schedule,
                "backend": plan.backend,
                "n_instrs": plan.lowered.n_instrs,
                "load_use_distance": plan.lowered.load_use_distance,
                "predicted_gstencil_per_s": plan.predicted_gstencil_per_s,
            },
        })
    print(f"{k.name}:")
    print(compiled.describe())
    if args.ir:
        print()
        print(compiled.lowered.render_ir())
    again = compile_stencil(k.weights, config=config, backend=args.backend)
    shared = "hit (same plan object)" if again.plan is compiled.plan else "MISS"
    print()
    print(f"cache      {DEFAULT_PLAN_CACHE.stats().summary()}")
    print(f"recompile  {shared}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.runtime import compile as compile_stencil
    from repro.stencil.kernels import get_kernel
    from repro.tcu import Device, trace

    k = get_kernel(args.kernel)
    if k.weights.ndim != 2:
        print("trace supports 2D kernels", file=sys.stderr)
        return 2
    device = Device()
    recorder = trace.install(device.counters)
    eng = compile_stencil(k.weights).engine
    h = k.weights.radius
    x = np.zeros((8 + 2 * h, 8 + 2 * h))
    eng.apply_simulated(x, device=device)
    trace.uninstall(device.counters)
    print(f"{k.name}: one 8x8 output tile, {len(recorder.events)} warp ops")
    print(recorder.render(limit=args.limit))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    """Run a fast correctness pass of every engine on every zoo kernel."""
    from repro.baselines.registry import all_methods
    from repro.runtime import compile as compile_stencil
    from repro.stencil.kernels import KERNELS
    from repro.stencil.reference import reference_apply

    rng = np.random.default_rng(0)
    failures = 0
    for kernel in KERNELS.values():
        h = kernel.weights.radius
        shape = {
            1: (96 + 2 * h,),
            2: (16 + 2 * h, 20 + 2 * h),
            3: (4 + 2 * h, 10 + 2 * h, 12 + 2 * h),
        }[kernel.weights.ndim]
        x = rng.normal(size=shape)
        ref = reference_apply(x, kernel.weights)
        for method in all_methods(kernel):
            err = float(np.abs(method.apply(x) - ref).max())
            ok = err < 1e-9
            failures += not ok
            print(f"  {kernel.name:<12} {method.name:<12} "
                  f"max|err|={err:.2e}  {'ok' if ok else 'FAIL'}")
        # the runtime facade: compiled plan, batched over 3 grids at once
        compiled = compile_stencil(kernel.weights)
        batch = np.stack([x, x * 0.5, x + 1.0])
        berr = float(np.abs(compiled.apply_batch(batch)[0] - ref).max())
        ok = berr < 1e-9
        failures += not ok
        print(f"  {kernel.name:<12} {'compile+batch':<12} "
              f"max|err|={berr:.2e}  {'ok' if ok else 'FAIL'}")
    print(f"\n{'all engines exact' if not failures else f'{failures} FAILURES'}")
    return 1 if failures else 0


def _best_mesh(n: int) -> tuple[int, int]:
    """Most-square factorization of ``n``."""
    best = (1, n)
    for p in range(1, int(n**0.5) + 1):
        if n % p == 0:
            best = (p, n // p)
    return best


def _cmd_chaos_run(args: argparse.Namespace) -> int:
    """Seeded fault campaign: clean sweep, injected sweep, compare.

    Exit codes: 0 — every injected corruption detected/recovered and
    the output is bit-identical to the fault-free sweep (or, under
    ``--no-verify``, the negative control behaved as expected); 1 —
    recovery claimed success but the output differs (never expected);
    3 — recovery exhausted (:class:`~repro.errors.FaultError`).
    """
    from repro.core.lowering import checksum_footprint
    from repro.errors import FaultError
    from repro.faults import FaultPlan
    from repro.runtime import compile as compile_stencil
    from repro.stencil.kernels import get_kernel
    from repro.telemetry.perf import profile_shape

    k = get_kernel(args.kernel)
    compiled = compile_stencil(k.weights)
    rng = np.random.default_rng(args.seed)
    shape = profile_shape(k.weights.ndim, args.size)
    x = np.pad(rng.normal(size=shape), k.weights.radius)

    clean, _ = compiled.apply_simulated(x, shards=args.shards)

    plan = FaultPlan.random(
        seed=args.seed,
        count=args.faults,
        max_mma_site=max(4, compiled.plan.mma_per_tile) * 4,
        shards=args.shards,
    )
    verify = None if args.no_verify else "abft"
    failed = None
    out = None
    # under --record/--events the injected sweep runs traced, so the
    # record carries ONE merged trace (shard spans re-parented under the
    # facade root) next to the structured event log
    try:
        with _observed(args):
            out, events = compiled.apply_simulated(
                x, shards=args.shards, verify=verify, faults=plan
            )
    except FaultError as exc:
        failed = exc
    report = compiled.last_fault_report
    identical = out is not None and np.array_equal(out, clean)

    if args.no_verify:
        # negative control: effective corruption must reach the output
        expected = report.total_injected == 0 or not identical
        rc = 0 if expected else 1
    elif failed is not None:
        rc = 3
    else:
        rc = 0 if identical and report.as_dict()["unrecovered"] == 0 else 1

    if args.json:
        doc = {
            "kernel": k.name,
            "shape": list(shape),
            "seed": args.seed,
            "shards": args.shards,
            "verify": verify,
            "plan": [str(s) for s in plan.specs],
            "faults": report.as_dict(),
            "output_bit_identical": bool(identical),
            "fault_error": str(failed) if failed else None,
            "exit_code": rc,
        }
        print(json.dumps(doc, indent=1, sort_keys=True))
    else:
        print(f"{k.name}: chaos campaign over {shape} "
              f"(seed {args.seed}, verify={verify or 'off'}, "
              f"shards={args.shards})")
        print(plan.describe())
        print()
        print(report.describe())
        print()
        if k.weights.ndim == 2:
            foot = checksum_footprint(compiled.lowered)
            print(f"hardware ABFT footprint: {foot['checksum_rows']} checksum "
                  f"rows over {foot['baseline_rows']} accumulator rows "
                  f"({foot['overhead_fraction']:.1%} of MMA work)")
        if failed is not None:
            print(f"recovery exhausted: {failed}")
        elif args.no_verify:
            print("negative control: output "
                  + ("DIFFERS from the fault-free sweep (corruption "
                     "reached the output, as expected without ABFT)"
                     if not identical else
                     "matches the fault-free sweep "
                     + ("(no fault fired)" if report.total_injected == 0
                        else "(UNEXPECTED: injections fired but had no "
                             "effect)")))
        elif report.total_injected == 0:
            print(f"no planned fault fired (0 of {len(plan.specs)})")
        else:
            print("recovered output is "
                  + ("bit-identical to the fault-free sweep"
                     if identical else "NOT bit-identical — recovery BUG"))

    _write_artifacts(
        args,
        k.name,
        counters=None if out is None else events,
        faults=report,
        extra={
            "command": "chaos run",
            "size": args.size,
            "seed": args.seed,
            "shards": args.shards,
            "verify": verify or "off",
            "plan_key": compiled.key,
            "fault_plan": [str(s) for s in plan.specs],
            "output_bit_identical": bool(identical),
            "exit_code": rc,
        },
    )
    return rc


def _cmd_chaos_report(args: argparse.Namespace) -> int:
    """Print the ``faults`` sections of run-record files."""
    from repro import telemetry

    rc = 0
    docs = []
    for path in args.paths:
        try:
            record = json.loads(pathlib.Path(path).read_text())
            telemetry.validate_run_record(record)
        except (OSError, json.JSONDecodeError, telemetry.TelemetryError) as exc:
            print(f"{path}: INVALID — {exc}", file=sys.stderr)
            rc = 1
            continue
        faults = record.get("faults")
        docs.append({"path": path, "name": record.get("name"),
                     "faults": faults})
        if args.json:
            continue
        print(f"{path}: {record.get('name')}")
        if faults is None:
            print("  (no faults section — fault-free run)")
            continue
        for key in ("injected", "detected", "recovered", "retries", "shard"):
            section = faults.get(key)
            if isinstance(section, dict):
                body = "  ".join(f"{k}={v}" for k, v in section.items())
                print(f"  {key:<12} {body or '(none)'}")
        injected = faults.get("injected_total", 0)
        planned = (record.get("extra") or {}).get("fault_plan")
        of = f" of {len(planned)} planned" if injected == 0 and planned else ""
        print(f"  {'total':<12} injected={injected}{of}  "
              f"unrecovered={faults.get('unrecovered', 0)}")
    if args.json:
        print(json.dumps(docs, indent=1, sort_keys=True))
    return rc


class _Verdict(NamedTuple):
    """A cluster run's reference and recovery checks."""

    rc: int
    matches_ref: bool
    recovered: bool
    text: str


class _ClusterSetup(NamedTuple):
    """One cluster run built from its run-configuration flags."""

    args: argparse.Namespace
    kernel: object
    plan: object
    runtime: object
    x: np.ndarray
    faults: object

    def run(self, clean: bool = False, **kwargs):
        """The configured sweep (``kwargs`` adds ``checkpoint=`` or
        ``resume_from=``); ``clean=True`` drops the injected faults and
        the elastic re-plan — the bit-identity oracle."""
        a = self.args
        if not clean:
            kwargs.update(faults=self.faults, elastic=a.elastic)
        return self.runtime.run(
            self.x, a.steps, overlap=a.overlap, executor=a.executor,
            simulate=a.simulate, **kwargs,
        )

    def verdict(self, result, clean) -> _Verdict:
        """The reference check, plus the recovery check when ``clean``
        (the fault-free field) is given."""
        from repro.stencil.reference import reference_iterate

        a = self.args
        ref = reference_iterate(self.x, self.kernel.weights, a.steps)
        matches_ref = bool(np.allclose(result.field, ref, atol=1e-6))
        text = "reference check: " + (
            "PASS" if matches_ref else "FAIL (diverged)"
        )
        recovered = True
        if clean is not None:
            report = result.fault_report
            recovered = bool(
                np.array_equal(result.field, clean)
                and report is not None
                and report.counts["unrecovered"] == 0
            )
            text += "\nrecovery check: " + (
                "bit-identical to fault-free run" if recovered
                else "FAILED — output differs or faults unrecovered"
            )
        rc = 0 if matches_ref and recovered else 1
        return _Verdict(rc, matches_ref, recovered, text)


def _cluster_run_flags() -> tuple[str, ...]:
    """The destination of every flag :func:`_add_cluster_run_args`
    defines: the run configuration a checkpoint manifest stores."""
    probe = argparse.ArgumentParser(add_help=False)
    _add_cluster_run_args(probe)
    return tuple(vars(probe.parse_args(["-"])))


def _cluster_setup(args: argparse.Namespace) -> _ClusterSetup | None:
    """Build the kernel, plan, runtime, input and fault plan of ``cluster
    run``/``report``/``resume`` from the run-configuration flags.

    The runtime's checkpoint manifests store exactly those flag values,
    so ``cluster resume`` rebuilds the run through this same function.
    Returns ``None`` (after printing the error) on a bad ``--mesh``.
    """
    from repro.faults import FaultPlan, FaultSpec
    from repro.parallel.cluster import ClusterRuntime
    from repro.parallel.plan import distribute
    from repro.stencil.kernels import get_kernel
    from repro.telemetry.perf import profile_shape

    k = get_kernel(args.kernel)
    ndim = k.weights.ndim
    mesh = (
        tuple(args.mesh) if args.mesh is not None
        else {1: (2,), 2: (2, 2), 3: (1, 2, 2)}[ndim]
    )
    if len(mesh) != ndim:
        print(f"error: {k.name} is {ndim}D; --mesh needs {ndim} "
              f"integer(s), got {len(mesh)}", file=sys.stderr)
        return None
    shape = profile_shape(ndim, args.size)
    plan = distribute(
        k.weights, shape, mesh, block_steps=args.block_steps,
        tiling=args.tiling, backend=args.backend,
    )
    runtime = ClusterRuntime(plan)
    runtime.checkpoint_meta = {
        flag: getattr(args, flag) for flag in _cluster_run_flags()
    }
    specs = tuple(
        FaultSpec(kind=kind, site=site, sticky=kind == "rank_crash")
        for kind, site in (
            ("shard_crash", args.crash_rank),
            ("halo_corrupt", args.halo_corrupt_round),
            ("rank_crash", args.kill_rank),
        )
        if site is not None
    )
    x = np.random.default_rng(args.seed).normal(size=shape)
    faults = FaultPlan(specs=specs) if specs else None
    return _ClusterSetup(args, k, plan, runtime, x, faults)


def _observed(args: argparse.Namespace):
    """A telemetry capture when the command writes artifacts (the
    record then carries one merged trace), else a no-op context."""
    from repro import telemetry

    if args.record or args.events or args.record_history:
        return telemetry.capture()
    return contextlib.nullcontext()


def _write_artifacts(args: argparse.Namespace, name: str, **record) -> None:
    """The artifact epilogue of ``cluster run|report|resume`` and ``chaos
    run``: the ``--events`` log, then one run-record (``record`` holds
    its sections) written to ``--record`` and appended to
    ``--record-history``, both of which validate it."""
    from repro import telemetry

    say = (lambda line: None) if args.json else print
    if args.events:
        path = telemetry.write_event_log(args.events)
        say(f"event log written to {path} "
            f"({len(telemetry.EVENT_LOG)} event(s))")
    if not (args.record or args.record_history):
        return
    rec = telemetry.run_record(name, **record)
    if args.record:
        path = telemetry.write_run_record(args.record, rec)
        say(f"run record written to {path}")
    if args.record_history:
        from repro.telemetry.perf import RunRecordStore

        path = RunRecordStore(args.record_history).append(rec)
        say(f"run record appended to {path}")


def _print_cluster_result(result, resumed: bool = False) -> None:
    """The text body of ``cluster run`` and ``cluster resume``: rounds,
    halo bytes, counters and the fault report.  A resumed run's counters
    cover only the replayed rounds, so ``resumed`` leaves them out."""
    print(f"  {result.steps} step(s) in {result.rounds} round(s) "
          f"{result.phases}")
    before = (f" ({result.resumed_halo_bytes:,} before the checkpoint)"
              if resumed else "")
    print(f"  halo bytes exchanged: {result.exchanged_bytes:,}{before}")
    if result.counters is not None and not resumed:
        _print_counters(result.counters, intensity=False)
    if result.fault_report is not None:
        print()
        print(result.fault_report.describe())


def _cmd_cluster_run(args: argparse.Namespace) -> int:
    """Distributed sweep through the DistributedPlan pipeline.

    Exit codes: 0 — the run matched the dense reference (and, with
    ``--crash-rank``, recovered to the fault-free bits with nothing
    unrecovered); 1 — mismatch or unrecovered fault; 3 — halted at
    ``--halt-after-round`` (resumable).
    """
    from repro import telemetry
    from repro.parallel.checkpoint import CheckpointConfig, CheckpointHalt

    setup = _cluster_setup(args)
    if setup is None:
        return 2
    k, plan = setup.kernel, setup.plan
    clean = setup.run(clean=True).field if setup.faults is not None else None
    ckpt_cfg = CheckpointConfig(
        dir=args.checkpoint_dir, halt_after=args.halt_after_round,
    ) if args.checkpoint_dir else None
    try:
        with _observed(args):
            result = setup.run(checkpoint=ckpt_cfg)
    except CheckpointHalt as halt:
        if not args.json:
            print(f"{k.name}: halted after round {halt.round_index}; "
                  f"checkpoint at {halt.path}")
            print(f"resume with: repro cluster resume "
                  f"--checkpoint-dir {args.checkpoint_dir}")
        if args.events:
            path = telemetry.write_event_log(args.events)
            if not args.json:
                print(f"event log written to {path}")
        return 3
    except KeyboardInterrupt:
        if args.events:
            with contextlib.suppress(Exception):
                telemetry.write_event_log(args.events)
        print(f"{k.name}: interrupted", file=sys.stderr)
        return 130

    verdict = setup.verdict(result, clean)
    report = result.fault_report
    doc = {
        "kernel": k.name,
        "plan_key": plan.key,
        "rank_plan_key": plan.compiled.key,
        "shape": list(plan.global_shape),
        "mesh": list(plan.mesh),
        "backend": result.backend or plan.backend,
        "executor": result.executor,
        "overlap": result.overlap,
        "tiling": plan.schedule.tiling,
        "steps": result.steps,
        "block_steps": plan.schedule.block_steps,
        "rounds": result.rounds,
        "phases": list(result.phases),
        "halo_bytes_exchanged": result.exchanged_bytes,
        "worker_pids": list(result.worker_pids),
        "matches_reference": verdict.matches_ref,
        "recovered_bit_identical": verdict.recovered,
        "exit_code": verdict.rc,
    }
    if result.counters is not None:
        doc["counters"] = result.counters.as_dict()
    if report is not None:
        doc["faults"] = report.as_dict()
    if result.resilience is not None:
        doc["resilience"] = result.resilience

    if args.json:
        print(json.dumps(doc, indent=1, sort_keys=True))
    else:
        print(f"{k.name}: distributed sweep over {plan.global_shape} on "
              f"mesh {plan.mesh} ({plan.num_devices} device(s))")
        print(f"  {plan.schedule.describe()}")
        print(f"  executor={result.executor} overlap={result.overlap} "
              f"backend={doc['backend']}")
        _print_cluster_result(result)
        print()
        print(verdict.text)

    cluster_section = None
    if args.record or args.record_history:
        with contextlib.suppress(telemetry.TelemetryError):
            cluster_section = result.report()
    _write_artifacts(
        args,
        f"cluster-{k.name}",
        counters=result.counters,
        faults=report,
        cluster=cluster_section,
        resilience=result.resilience,
        extra={"command": "cluster", **doc},
    )
    return verdict.rc


def _cmd_cluster_resume(args: argparse.Namespace) -> int:
    """Resume a checkpointed distributed sweep from its latest barrier.

    The run is rebuilt from the run-configuration flags stored in the
    checkpoint manifest (written by ``cluster run --checkpoint-dir``) on
    the snapshot's mesh — an elastic run may have re-partitioned before
    it — keyed against the snapshot, and the remaining rounds are
    replayed.  Exit codes: 0 — the completed trajectory is
    bit-identical to an uninterrupted fault-free run; 1 — mismatch;
    2 — unusable checkpoint directory/manifest.
    """
    from repro import telemetry
    from repro.parallel.checkpoint import CheckpointError, load_checkpoint

    # the capture opens before load_checkpoint so the
    # ``checkpoint.restored`` event lands in the exported log
    with telemetry.capture():
        try:
            ckpt = load_checkpoint(args.checkpoint_dir)
        except CheckpointError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        flags = _cluster_run_flags()
        missing = [flag for flag in flags if flag not in ckpt.meta]
        if missing:
            print(f"error: checkpoint manifest is missing run metadata "
                  f"{missing}; was it written by `repro cluster run "
                  f"--checkpoint-dir`?", file=sys.stderr)
            return 2
        run_args = argparse.Namespace(**{f: ckpt.meta[f] for f in flags})
        run_args.mesh = list(ckpt.mesh)
        # plan rebuilding and the bit-identity oracle run stay out of the
        # exported trace: the record must hold exactly one trace — the
        # one the original run stamped into the snapshot
        telemetry.disable()
        setup = _cluster_setup(run_args)
        if setup is None:
            return 2
        if setup.plan.key != ckpt.plan_key:
            print(f"error: rebuilt plan {setup.plan.key[:12]}… does not "
                  f"match the checkpointed plan {ckpt.plan_key[:12]}…",
                  file=sys.stderr)
            return 2
        clean = setup.run(clean=True).field
        telemetry.enable()
        result = setup.run(resume_from=ckpt)

    identical = bool(np.array_equal(result.field, clean))
    rc = 0 if identical else 1
    report = result.fault_report
    doc = {
        "kernel": setup.kernel.name,
        "plan_key": setup.plan.key,
        "shape": list(setup.plan.global_shape),
        "mesh": list(ckpt.mesh),
        "steps": run_args.steps,
        "resumed_from_round": ckpt.round_index,
        "rounds": result.rounds,
        "phases": list(result.phases),
        "halo_bytes_exchanged": result.exchanged_bytes,
        "resumed_halo_bytes": result.resumed_halo_bytes,
        "trace_id": ckpt.trace_id,
        "bit_identical": identical,
        "exit_code": rc,
    }
    if result.resilience is not None:
        doc["resilience"] = result.resilience
    if report is not None:
        doc["faults"] = report.as_dict()

    if args.json:
        print(json.dumps(doc, indent=1, sort_keys=True))
    else:
        print(f"{setup.kernel.name}: resumed from round {ckpt.round_index} "
              f"({ckpt.path})")
        _print_cluster_result(result, resumed=True)
        print()
        print("bit-identity check: "
              + ("PASS — identical to the uninterrupted run" if identical
                 else "FAIL — trajectory diverged after resume"))

    _write_artifacts(
        args,
        f"cluster-resume-{setup.kernel.name}",
        counters=result.counters,
        faults=report,
        resilience=result.resilience,
        extra={"command": "cluster resume", **doc},
    )
    return rc


def _cmd_cluster_report(args: argparse.Namespace) -> int:
    """One traced distributed sweep, post-processed into the observatory.

    Exit codes: 0 — the run matched the dense reference (and recovered
    bit-identically under ``--crash-rank``); 1 — mismatch or
    unrecovered fault.  The report itself is always printed/written on
    either exit code.
    """
    from repro import telemetry
    from repro.telemetry.cluster import render_gantt, to_lane_trace
    from repro.telemetry.validate import validate_cluster_report

    setup = _cluster_setup(args)
    if setup is None:
        return 2
    clean = setup.run(clean=True).field if setup.faults is not None else None
    with telemetry.capture():
        result = setup.run()
    report = result.report()
    validate_cluster_report(report)
    verdict = setup.verdict(result, clean)

    if args.json:
        print(json.dumps(report, indent=1, sort_keys=True))
    else:
        print(render_gantt(report, width=args.gantt_width))
        print()
        print(verdict.text)
    if args.output:
        path = pathlib.Path(args.output)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(report, indent=1, sort_keys=True))
        if not args.json:
            print(f"cluster report written to {path}")
    if args.chrome_trace:
        path = pathlib.Path(args.chrome_trace)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(to_lane_trace(report), indent=1))
        if not args.json:
            print(f"per-rank lane trace written to {path}")
    _write_artifacts(
        args,
        f"cluster-report-{setup.kernel.name}",
        counters=result.counters,
        faults=result.fault_report,
        cluster=report,
        extra={
            "command": "cluster report",
            "kernel": setup.kernel.name,
            "executor": result.executor,
            "overlap": result.overlap,
            "exit_code": verdict.rc,
            # the trend-gated series: imbalance regresses upward,
            # overlap efficiency regresses downward
            "overlap_efficiency": report["overlap"]["efficiency"],
            "imbalance_max_over_mean": (
                report["imbalance"]["max_over_mean"]
            ),
            "critical_path_s": report["critical_path"]["s"],
            "halo_bytes": report["halo"]["total_bytes"],
        },
    )
    return verdict.rc


def main(argv: list[str] | None = None) -> int:
    """Parse ``argv`` (default ``sys.argv``) and dispatch one command.

    Any :class:`~repro.errors.ReproError` (an unknown kernel, backend or
    schedule, ...) ends in a one-line ``error:`` on stderr and exit
    status 2.  A reader closing the pipe early (``repro verify | head
    -3``) ends the output with exit status 1 and no traceback; stdout
    then points at ``os.devnull`` so the exit flush cannot raise again.
    """
    from repro.errors import ReproError

    args = build_parser().parse_args(argv)
    try:
        rc = _run(args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at exit
        return rc
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        sys.stdout = open(os.devnull, "w")
        return 1


def _run(args: argparse.Namespace) -> int:
    """Dispatch ``args``, tracing the command under ``--telemetry``."""
    if not getattr(args, "telemetry", False):
        return args.run(args)

    # --telemetry: trace the whole command, then append the span tree
    # (skipped under --json so stdout stays parseable).
    from repro import telemetry

    telemetry.reset()
    telemetry.enable()
    try:
        with telemetry.TRACER.span(f"cli.{args.command}", category="cli"):
            rc = args.run(args)
    finally:
        telemetry.disable()
    if not getattr(args, "json", False):
        root = telemetry.TRACER.last_root()
        print("\n— telemetry —")
        if root is not None:
            print(root.render_tree())
    return rc


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
