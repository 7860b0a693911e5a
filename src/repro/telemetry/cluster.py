"""The cluster observatory: post-processing one ``ClusterRuntime`` run.

A distributed run leaves three artifacts behind: the merged span forest
(every rank's lanes revived under the ``cluster.run`` root, across
threads and processes), the run's own exchange ledger
(:attr:`~repro.parallel.cluster.ClusterResult.round_log` and
:attr:`~repro.parallel.cluster.ClusterResult.exchanged_bytes`), and
the :class:`~repro.parallel.cluster.ClusterTimings` interconnect model.
:func:`build_cluster_report` folds them into one
:data:`CLUSTER_REPORT_SCHEMA` document answering the questions aggregate
GStencil/s cannot:

* **per-rank timelines** — every rank's wall time attributed to lanes
  (``compute`` / ``interior`` / ``stitch`` / ``wait`` / ``retry`` /
  ``other``), with Gantt segments for rendering
  (:func:`render_gantt`, :func:`to_lane_trace`);
* **critical path** — the rounds are global barriers, so the run's
  dependency DAG is rank×round; the critical path threads each round's
  exchange plus its slowest rank, naming the straggler per round;
* **overlap efficiency** — hidden transfer time ÷ total modeled
  transfer time.  The transfer term is :func:`modeled_transfer_s`,
  the *same* formula ``ClusterTimings`` charges, so measured reports
  reconcile exactly with the scaling model;
* **load imbalance** — max/mean and MAD across ranks per round (ragged
  temporal rounds included), plus run-level headline ratios the perf
  trend gate watches;
* **halo attribution** — per-round byte volumes, reconciled when the
  per-round log sums bit-exactly to ``ClusterResult.exchanged_bytes``.

All lane arithmetic is integer nanoseconds, so the report's invariants
are exact, not approximate: per-rank lanes sum to per-rank wall time,
and the critical path dominates every rank's wall time by construction.
This module deliberately imports nothing from :mod:`repro.parallel` at
module scope — ``parallel.cluster`` imports :mod:`repro.telemetry`, and
the shared transfer model would otherwise close an import cycle.
"""

from __future__ import annotations

import itertools
import time
from typing import Any

from repro.telemetry.spans import Span, Tracer, TRACER
from repro.telemetry.validate import TelemetryError

__all__ = [
    "CLUSTER_REPORT_SCHEMA",
    "LANE_NAMES",
    "modeled_transfer_s",
    "build_cluster_report",
    "render_gantt",
    "to_lane_trace",
]

#: schema identifier embedded in every emitted cluster report
CLUSTER_REPORT_SCHEMA = "repro.telemetry.cluster-report/v2"

#: child-span name → report lane (everything else folds into ``other``)
_SPAN_LANES = {
    "cluster.compute": "compute",
    "cluster.interior": "interior",
    "cluster.stitch": "stitch",
    "cluster.wait": "wait",
}

#: every lane a per-rank breakdown carries, in rendering order
LANE_NAMES = ("compute", "interior", "stitch", "wait", "retry", "other")

def modeled_transfer_s(comm_bytes: int) -> float:
    """Modeled wall time of one halo exchange round, in seconds.

    A fixed per-message NVLink hop latency plus the volume over the
    link — the exact term :meth:`ClusterRuntime.timings` charges (it
    calls this helper), so the observatory's overlap-efficiency
    denominator and the scaling model's ``comm_s`` never drift apart.
    Zero bytes means no message was sent (a single-device mesh), so no
    hop latency is charged either.
    """
    if comm_bytes <= 0:
        return 0.0
    # deferred: parallel.cluster imports repro.telemetry at module
    # scope, so importing it here at module scope would be a cycle
    from repro.parallel.cluster import NVLINK_BANDWIDTH, NVLINK_LATENCY

    return NVLINK_LATENCY + comm_bytes / NVLINK_BANDWIDTH


# ---------------------------------------------------------------------------
# span forest → lane accounting
# ---------------------------------------------------------------------------
def _find_run_span(tracer: Tracer, trace_id: str | None) -> Span | None:
    """The most recent ``cluster.run`` span of ``trace_id`` in the buffer."""
    found: Span | None = None
    for root in tracer.roots():
        for span in root.walk():
            if span.name != "cluster.run":
                continue
            if trace_id is not None and span.trace_id != trace_id:
                continue
            found = span
    return found


def _median(values: list[int]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0
    mid = n // 2
    if n % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def _collect_rounds(run: Span) -> tuple[dict, dict, dict]:
    """Group the run span's children by (rank, round).

    Returns ``(attempts, waits, exchanges)``: per-(rank, round) lists of
    ``cluster.rank`` spans ordered by start (retries first, the
    successful attempt last), per-(rank, round) sibling ``cluster.wait``
    spans (the process executor waits on the dispatcher thread, outside
    the revived rank span), and per-round ``cluster.exchange`` spans.
    """
    attempts: dict[tuple[int, int], list[Span]] = {}
    waits: dict[tuple[int, int], list[Span]] = {}
    exchanges: dict[int, Span] = {}
    for child in run.children:
        if child.name == "cluster.exchange":
            exchanges[int(child.attrs.get("round", 0))] = child
            continue
        rank = child.attrs.get("rank")
        if rank is None:
            continue
        key = (int(rank), int(child.attrs.get("round", 0)))
        if child.name == "cluster.rank":
            attempts.setdefault(key, []).append(child)
        elif child.name == "cluster.wait":
            waits.setdefault(key, []).append(child)
    for spans in attempts.values():
        spans.sort(key=lambda s: s.start_ns)
    return attempts, waits, exchanges


def build_cluster_report(
    result, tracer: Tracer | None = None
) -> dict[str, Any]:
    """Fold one :class:`ClusterResult` + its trace into a report.

    ``result`` must come from a run executed under
    ``telemetry.capture()`` (or an enabled tracer): the report is
    reconstructed from the run's ``cluster.run`` span forest, found by
    ``result.trace_id`` in ``tracer`` (default: the process tracer).
    Raises :class:`~repro.telemetry.validate.TelemetryError` when the
    trace is gone — evicted from the bounded buffer or never recorded.
    """
    tracer = tracer or TRACER
    if result.trace_id is None:
        raise TelemetryError(
            "cluster report: the run recorded no trace (trace_id is None); "
            "execute the run under telemetry.capture() or telemetry.enable()"
        )
    run = _find_run_span(tracer, result.trace_id)
    if run is None:
        raise TelemetryError(
            f"cluster report: no cluster.run span with trace_id "
            f"{result.trace_id!r} in the tracer buffer (evicted or cleared "
            f"before the report was built?)"
        )

    attempts, waits, exchanges = _collect_rounds(run)
    ranks = sorted({rank for rank, _ in attempts})
    rounds = sorted({r for _, r in attempts})
    t0 = run.start_ns

    def rel_s(ns: int) -> float:
        return (ns - t0) / 1e9

    # -- per-(rank, round) lane accounting, integer nanoseconds ----------
    lane_ns: dict[int, dict[str, int]] = {
        rank: {lane: 0 for lane in LANE_NAMES} for rank in ranks
    }
    round_rank_ns: dict[tuple[int, int], int] = {}
    interior_ns: dict[tuple[int, int], int] = {}
    segments: dict[int, list[dict[str, Any]]] = {rank: [] for rank in ranks}
    attempt_count: dict[int, int] = {rank: 0 for rank in ranks}
    for (rank, round_i), spans in attempts.items():
        attempt_count[rank] += len(spans)
        total = 0
        for retry in spans[:-1]:
            lane_ns[rank]["retry"] += retry.duration_ns
            total += retry.duration_ns
            segments[rank].append(
                {
                    "t0_s": rel_s(retry.start_ns),
                    "t1_s": rel_s(retry.end_ns),
                    "lane": "retry",
                    "round": round_i,
                }
            )
        success = spans[-1]
        child_total = 0
        for child in success.children:
            lane = _SPAN_LANES.get(child.name)
            if lane is None:
                continue
            lane_ns[rank][lane] += child.duration_ns
            child_total += child.duration_ns
            if lane == "interior":
                interior_ns[(rank, round_i)] = (
                    interior_ns.get((rank, round_i), 0) + child.duration_ns
                )
            segments[rank].append(
                {
                    "t0_s": rel_s(child.start_ns),
                    "t1_s": rel_s(child.end_ns),
                    "lane": lane,
                    "round": round_i,
                }
            )
        # same-thread children never exceed the parent, so the residual
        # (dispatch glue, fault hooks, uninstrumented stretches) is >= 0
        lane_ns[rank]["other"] += max(0, success.duration_ns - child_total)
        total += success.duration_ns
        for wait in waits.get((rank, round_i), ()):
            lane_ns[rank]["wait"] += wait.duration_ns
            total += wait.duration_ns
            segments[rank].append(
                {
                    "t0_s": rel_s(wait.start_ns),
                    "t1_s": rel_s(wait.end_ns),
                    "lane": "wait",
                    "round": round_i,
                }
            )
        round_rank_ns[(rank, round_i)] = total

    for segs in segments.values():
        segs.sort(key=lambda s: s["t0_s"])

    # -- critical path through the rank×round barrier DAG ----------------
    critical_ns = 0
    nodes: list[dict[str, Any]] = []
    for round_i in rounds:
        exchange = exchanges.get(round_i)
        exchange_ns = exchange.duration_ns if exchange is not None else 0
        per_rank = {
            rank: round_rank_ns.get((rank, round_i), 0) for rank in ranks
        }
        straggler = max(per_rank, key=per_rank.get) if per_rank else -1
        slowest = per_rank.get(straggler, 0)
        critical_ns += exchange_ns + slowest
        nodes.append(
            {
                "round": round_i,
                "rank": straggler,
                "exchange_s": exchange_ns / 1e9,
                "rank_s": slowest / 1e9,
            }
        )

    # -- overlap efficiency: hidden ÷ modeled transfer -------------------
    per_round_overlap: list[dict[str, Any]] = []
    hidden_total = 0.0
    transfer_total = 0.0
    for entry in result.round_log:
        round_i = entry["round"]
        transfer = modeled_transfer_s(entry["comm_bytes_max"])
        if result.overlap and ranks:
            interior_min = min(
                interior_ns.get((rank, round_i), 0) for rank in ranks
            ) / 1e9
        else:
            interior_min = 0.0
        hidden = min(transfer, interior_min)
        hidden_total += hidden
        transfer_total += transfer
        per_round_overlap.append(
            {
                "round": round_i,
                "transfer_s": transfer,
                "interior_min_s": interior_min,
                "hidden_s": hidden,
            }
        )
    efficiency = hidden_total / transfer_total if transfer_total > 0 else 0.0
    efficiency = min(1.0, max(0.0, efficiency))

    modeled = _modeled_section(result)

    # -- load imbalance across ranks, per round --------------------------
    per_round_imbalance: list[dict[str, Any]] = []
    sum_max = sum_mean = sum_mad = sum_median = 0.0
    for round_i in rounds:
        durations = [
            round_rank_ns.get((rank, round_i), 0) for rank in ranks
        ]
        peak = max(durations) if durations else 0
        mean = sum(durations) / len(durations) if durations else 0.0
        med = _median(durations)
        mad = _median([abs(d - med) for d in durations])
        sum_max += peak
        sum_mean += mean
        sum_mad += mad
        sum_median += med
        per_round_imbalance.append(
            {
                "round": round_i,
                "max_s": peak / 1e9,
                "mean_s": mean / 1e9,
                "mad_s": mad / 1e9,
                "max_over_mean": peak / mean if mean > 0 else 1.0,
            }
        )
    max_over_mean = sum_max / sum_mean if sum_mean > 0 else 1.0
    mad_frac = sum_mad / sum_median if sum_median > 0 else 0.0

    # -- halo attribution: the per-round log against the run total -------
    halo_rounds = [
        {
            "round": entry["round"],
            "steps": entry["steps"],
            "depth": entry["depth"],
            "halo_bytes": entry["halo_bytes"],
            "comm_bytes_max": entry["comm_bytes_max"],
            "transfer_s": modeled_transfer_s(entry["comm_bytes_max"]),
        }
        for entry in result.round_log
    ]
    halo_total = sum(entry["halo_bytes"] for entry in halo_rounds)
    # a resumed run inherits its pre-checkpoint rounds and bytes from the
    # manifest, so both ledgers span the whole run
    resumed = int(getattr(result, "resumed_halo_bytes", 0))

    plan = getattr(result, "plan", None)
    name = f"cluster-{plan.key[:12]}" if plan is not None else "cluster"
    return {
        "schema": CLUSTER_REPORT_SCHEMA,
        "name": name,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "trace_id": result.trace_id,
        "run": {
            "steps": result.steps,
            "rounds": len(result.phases),
            "phases": list(result.phases),
            "devices": plan.num_devices if plan is not None else len(ranks),
            "executor": result.executor,
            "overlap": bool(result.overlap),
            "backend": result.backend,
            "wall_s": run.duration_ns / 1e9,
            "wall_ns": run.duration_ns,
        },
        "ranks": [
            {
                "rank": rank,
                "lanes": {
                    f"{lane}_s": lane_ns[rank][lane] / 1e9
                    for lane in LANE_NAMES
                },
                "lanes_ns": dict(lane_ns[rank]),
                "wall_ns": sum(
                    round_rank_ns.get((rank, r), 0) for r in rounds
                ),
                "wall_s": sum(
                    round_rank_ns.get((rank, r), 0) for r in rounds
                ) / 1e9,
                "busy_s": (
                    lane_ns[rank]["compute"]
                    + lane_ns[rank]["interior"]
                    + lane_ns[rank]["stitch"]
                ) / 1e9,
                "attempts": attempt_count[rank],
                "segments": segments[rank],
            }
            for rank in ranks
        ],
        "critical_path": {
            "s": critical_ns / 1e9,
            "ns": critical_ns,
            "nodes": nodes,
        },
        "overlap": {
            "enabled": bool(result.overlap),
            "efficiency": efficiency,
            "hidden_s": hidden_total,
            "transfer_s": transfer_total,
            "modeled": modeled,
            "per_round": per_round_overlap,
        },
        "imbalance": {
            "max_over_mean": max_over_mean,
            "mad_frac": mad_frac,
            "per_round": per_round_imbalance,
        },
        "halo": {
            "total_bytes": halo_total,
            "ledger_bytes": result.exchanged_bytes,
            "resumed_bytes": resumed,
            "reconciled": halo_total == result.exchanged_bytes,
            "per_round": halo_rounds,
        },
    }


def _modeled_section(result) -> dict[str, Any] | None:
    """The ClusterTimings prediction for this run's configuration.

    ``None`` when the plan is unavailable or was distributed from a raw
    weight array (the cost model needs :class:`StencilWeights`).
    """
    plan = getattr(result, "plan", None)
    if plan is None:
        return None
    from repro.parallel.cluster import ClusterRuntime

    block_steps = max(result.phases) if result.phases else 1
    try:
        timings = ClusterRuntime(plan).timings(
            steps=max(1, result.steps),
            overlap=result.overlap,
            block_steps=block_steps,
        )
    except ValueError:
        return None
    efficiency = (
        min(timings.comm_s, timings.interior_s) / timings.comm_s
        if timings.comm_s > 0
        else 0.0
    )
    return {
        "compute_s": timings.compute_s,
        "comm_s": timings.comm_s,
        "interior_s": timings.interior_s,
        "boundary_s": timings.boundary_s,
        "step_s": timings.step_s,
        "efficiency": efficiency if result.overlap else 0.0,
    }


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------
#: lane → (glyph, paint priority); higher priority overwrites lower when
#: segments round onto the same terminal cell
_LANE_GLYPHS = {
    "compute": ("█", 1),
    "interior": ("▓", 2),
    "stitch": ("▒", 3),
    "wait": ("░", 4),
    "retry": ("x", 5),
}


def render_gantt(report: dict[str, Any], width: int = 72) -> str:
    """ASCII Gantt of the per-rank timelines plus the headline numbers."""
    wall_s = max(report["run"]["wall_s"], 1e-12)
    lines = [
        f"cluster {report['name']}  trace={report['trace_id']}  "
        f"wall={wall_s * 1e3:.2f} ms  "
        f"{report['run']['executor']} executor  "
        f"overlap={'on' if report['run']['overlap'] else 'off'}"
    ]
    for row in report["ranks"]:
        cells = ["·"] * width
        priority = [0] * width
        for seg in row["segments"]:
            glyph, prio = _LANE_GLYPHS.get(seg["lane"], ("?", 0))
            lo = int(seg["t0_s"] / wall_s * width)
            hi = int(seg["t1_s"] / wall_s * width)
            for cell in range(max(0, lo), min(width, max(hi, lo + 1))):
                if prio > priority[cell]:
                    cells[cell] = glyph
                    priority[cell] = prio
        lines.append(
            f"rank {row['rank']:>3} |{''.join(cells)}| "
            f"busy {row['busy_s'] * 1e3:.2f} ms  "
            f"wait {row['lanes']['wait_s'] * 1e3:.2f} ms"
        )
    lines.append(
        "legend: █ compute  ▓ interior  ▒ stitch  ░ wait  x retry  · idle"
    )
    crit = report["critical_path"]
    stragglers = ", ".join(
        f"r{node['round']}→rank{node['rank']}" for node in crit["nodes"]
    )
    lines.append(
        f"critical path {crit['s'] * 1e3:.2f} ms"
        + (f"  ({stragglers})" if stragglers else "")
    )
    overlap = report["overlap"]
    lines.append(
        f"overlap efficiency {overlap['efficiency']:.3f}  "
        f"(hidden {overlap['hidden_s'] * 1e6:.2f} us of "
        f"{overlap['transfer_s'] * 1e6:.2f} us modeled transfer)"
    )
    imbalance = report["imbalance"]
    lines.append(
        f"imbalance max/mean {imbalance['max_over_mean']:.3f}  "
        f"MAD/median {imbalance['mad_frac']:.3f}"
    )
    halo = report["halo"]
    lines.append(
        f"halo {halo['total_bytes']:,} B over "
        f"{len(halo['per_round'])} rounds  "
        f"(ledger reconciled: {halo['reconciled']})"
    )
    if not halo["reconciled"]:
        lines.append(
            f"  round log sums to {halo['total_bytes']:,} B but the run "
            f"exchanged {halo['ledger_bytes']:,} B"
        )
    return "\n".join(lines)


def to_lane_trace(report: dict[str, Any]) -> dict[str, Any]:
    """Chrome trace-event lanes of the report (one tid per rank).

    Unlike :func:`repro.telemetry.export.to_chrome_trace` — which emits
    the raw span forest on thread lanes — this view puts every rank on
    its own timeline row regardless of which pool thread or worker
    process executed it, which is the Gantt a straggler hunt wants.
    """
    from repro.telemetry.export import CHROME_TRACE_SCHEMA

    span_ids = itertools.count(1)
    events: list[dict[str, Any]] = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": 1,
            "args": {"name": f"repro-cluster {report['name']}"},
        }
    ]
    for row in report["ranks"]:
        tid = row["rank"] + 1
        events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": 1,
                "tid": tid,
                "args": {"name": f"rank {row['rank']}"},
            }
        )
        for seg in row["segments"]:
            events.append(
                {
                    "ph": "X",
                    "name": f"cluster.{seg['lane']}",
                    "cat": "parallel",
                    "ts": seg["t0_s"] * 1e6,
                    "dur": max(0.0, (seg["t1_s"] - seg["t0_s"]) * 1e6),
                    "pid": 1,
                    "tid": tid,
                    "args": {
                        "span_id": next(span_ids),
                        "parent_id": None,
                        "trace_id": report["trace_id"],
                        "attrs": {
                            "lane": seg["lane"],
                            "rank": row["rank"],
                            "round": seg["round"],
                        },
                    },
                }
            )
    return {
        "schema": CHROME_TRACE_SCHEMA,
        "displayTimeUnit": "ms",
        "traceEvents": events,
    }
