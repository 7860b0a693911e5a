"""Extension experiment: multi-GPU domain-decomposition scaling.

Strong and weak scaling of LoRAStencil across a simulated NVLink-
connected device mesh (the deployment shape of the paper's motivating
applications: weather models, RTM, wave propagation).
"""

from __future__ import annotations

import pytest

from repro.experiments.report import format_table
from repro.parallel import ClusterRuntime, distribute
from repro.stencil.kernels import get_kernel

DEVICES = (1, 2, 4, 8, 16)


def _mesh(n: int) -> tuple[int, int]:
    best = (1, n)
    for p in range(1, int(n**0.5) + 1):
        if n % p == 0:
            best = (p, n // p)
    return best


def test_strong_scaling(benchmark, write_result):
    w = get_kernel("Box-2D9P").weights

    def sweep():
        return {
            n: ClusterRuntime(distribute(w, (4096, 4096), _mesh(n))).timings()
            for n in DEVICES
        }

    timings = benchmark.pedantic(sweep, rounds=1, iterations=1)
    base = timings[1]
    rows = [["devices", "mesh", "step (ms)", "comm %", "speedup", "efficiency"]]
    for n, t in timings.items():
        s = t.speedup_over(base)
        rows.append(
            [
                str(n),
                "x".join(map(str, _mesh(n))),
                f"{t.step_s * 1e3:.3f}",
                f"{t.comm_fraction * 100:.1f}",
                f"{s:.2f}x",
                f"{100 * s / n:.0f}%",
            ]
        )
    write_result(
        "scaling_strong",
        format_table(rows, "strong scaling — Box-2D9P on 4096^2"),
    )
    # scaling is near-linear while halo traffic is small
    assert timings[4].speedup_over(base) > 3.0
    assert timings[16].speedup_over(base) > 10.0
    # efficiency decays monotonically with device count
    effs = [timings[n].speedup_over(base) / n for n in DEVICES]
    assert all(a >= b - 1e-9 for a, b in zip(effs, effs[1:]))


def test_temporal_scaling(benchmark, write_result):
    """GStencil/s across shards × block_steps, plus the halo ledger.

    Temporal blocking amortizes the per-message exchange latency over
    ``block_steps`` local steps: the modelled per-step-equivalent comm
    time drops ~``block_steps``× while throughput climbs.  The measured
    half executes a small grid through the runtime and checks that the
    exchange *count* really drops ``block_steps``× (the byte volume per
    round grows with halo depth — corners — which is exactly why the
    win is latency, not bandwidth).
    """
    import numpy as np

    w = get_kernel("Box-2D9P").weights
    blocks = (1, 2, 4, 8)
    shards = (4, 16)

    def sweep():
        return {
            (n, k): ClusterRuntime(
                distribute(w, (4096, 4096), _mesh(n))
            ).timings(steps=16, block_steps=k)
            for n in shards
            for k in blocks
        }

    timings = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = [["devices", "block_steps", "GStencil/s",
             "comm (us/step)", "step (ms)"]]
    for (n, k), t in timings.items():
        rows.append(
            [
                str(n),
                str(k),
                f"{t.gstencil_per_s:.2f}",
                f"{t.comm_s * 1e6:.3f}",
                f"{t.step_s * 1e3:.3f}",
            ]
        )

    # measured: execute a small grid, count rounds and bytes per config
    rng = np.random.default_rng(7)
    x = rng.normal(size=(256, 256))
    cluster = ClusterRuntime(distribute(w, (256, 256), (2, 2)))
    measured = {}
    base = None
    for k in blocks:
        result = cluster.run(x, 8, block_steps=k)
        measured[k] = (result.rounds, result.exchanged_bytes)
        if base is None:
            base = result.field
        else:
            # temporal runs stay bit-exact
            assert np.array_equal(result.field, base)
    rows.append(["", "", "", "", ""])
    rows.append(["measured 4", "block_steps", "exchanges", "halo bytes", ""])
    for k, (rounds, exchanged) in measured.items():
        rows.append(["", str(k), str(rounds), f"{exchanged:,}", ""])
    write_result(
        "scaling_temporal",
        format_table(
            rows, "temporal scaling — Box-2D9P, GStencil/s vs shards x block_steps"
        ),
    )
    for n in shards:
        # latency amortization: per-step comm drops, throughput climbs
        assert timings[(n, 8)].comm_s < timings[(n, 1)].comm_s
        assert (
            timings[(n, 8)].gstencil_per_s
            >= timings[(n, 1)].gstencil_per_s
        )
    # exchange count drops block_steps× (8 steps: 8 rounds → 1 round)
    assert measured[1][0] == 8
    assert measured[8][0] == 1


def test_overlap_observatory(benchmark, write_result):
    """Measured overlap efficiency and imbalance from the observatory.

    Runs one overlapped 2x2 thread-executor sweep under capture and
    folds the trace into a :mod:`repro.telemetry.cluster` report: the
    stamped ``overlap_efficiency`` / ``imbalance_max_over_mean`` extras
    feed the same rolling trend gates CI watches, so a regression that
    stops hiding transfers behind interior sweeps shows up here first.
    """
    import numpy as np

    from repro import telemetry
    from repro.parallel.cluster import ClusterRuntime
    from repro.parallel.plan import distribute
    from repro.telemetry.cluster import build_cluster_report

    w = get_kernel("Box-2D9P").weights
    rng = np.random.default_rng(11)
    x = rng.normal(size=(128, 128))
    plan = distribute(w, x.shape, (2, 2), block_steps=2)
    runtime = ClusterRuntime(plan)

    def sweep():
        with telemetry.capture() as tracer:
            result = runtime.run(
                x, 6, block_steps=2, overlap=True, executor="thread"
            )
        return build_cluster_report(result, tracer=tracer)

    report = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = [["rank", "busy (ms)", "wait (ms)", "retry (ms)", "wall (ms)"]]
    for row in report["ranks"]:
        rows.append(
            [
                str(row["rank"]),
                f"{row['busy_s'] * 1e3:.3f}",
                f"{row['lanes']['wait_s'] * 1e3:.3f}",
                f"{row['lanes']['retry_s'] * 1e3:.3f}",
                f"{row['wall_s'] * 1e3:.3f}",
            ]
        )
    rows.append(["", "", "", "", ""])
    rows.append(
        [
            "overlap eff",
            f"{report['overlap']['efficiency']:.3f}",
            "max/mean",
            f"{report['imbalance']['max_over_mean']:.3f}",
            "",
        ]
    )
    write_result(
        "cluster_observatory",
        format_table(
            rows, "cluster observatory — Box-2D9P 2x2 threads, overlap on"
        ),
        extra={
            "overlap_efficiency": report["overlap"]["efficiency"],
            "imbalance_max_over_mean": report["imbalance"]["max_over_mean"],
            "critical_path_s": report["critical_path"]["s"],
            "halo_bytes": report["halo"]["total_bytes"],
        },
    )
    # functional interior sweeps dwarf the modeled transfers: all hidden
    assert report["overlap"]["efficiency"] > 0.0
    assert report["halo"]["reconciled"] is True
    assert report["critical_path"]["ns"] >= max(
        row["wall_ns"] for row in report["ranks"]
    )


def test_weak_scaling(benchmark, write_result):
    """Fixed 1024^2 per device: step time should stay nearly flat."""
    w = get_kernel("Box-2D9P").weights

    def sweep():
        out = {}
        for n in (1, 4, 16):
            p, q = _mesh(n)
            plan = distribute(w, (1024 * p, 1024 * q), (p, q))
            out[n] = ClusterRuntime(plan).timings()
        return out

    timings = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = [["devices", "global grid", "step (ms)", "comm %"]]
    for n, t in timings.items():
        p, q = _mesh(n)
        rows.append(
            [
                str(n),
                f"{1024 * p}x{1024 * q}",
                f"{t.step_s * 1e3:.3f}",
                f"{t.comm_fraction * 100:.1f}",
            ]
        )
    write_result(
        "scaling_weak",
        format_table(rows, "weak scaling — 1024^2 per device, Box-2D9P"),
    )
    assert timings[16].step_s == pytest.approx(timings[1].step_s, rel=0.25)
