"""Property-based tests for the cluster observatory report.

Across random meshes, temporal tilings and executors, the report's
accounting identities are exact (integer nanoseconds), not approximate:
per-rank lanes sum to the rank's wall time, the barrier critical path
dominates every rank, overlap efficiency stays a ratio, and the halo
ledgers (the per-round log, the report total and the run's
``exchanged_bytes``) agree to the byte.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.parallel.cluster import ClusterRuntime
from repro.parallel.plan import distribute
from repro.stencil.kernels import get_kernel
from repro.telemetry.cluster import build_cluster_report
from repro.telemetry.validate import validate_cluster_report


@st.composite
def cluster_runs(draw):
    size = draw(st.integers(min_value=12, max_value=20))
    mesh = draw(st.sampled_from([(1, 1), (2, 1), (1, 2), (2, 2)]))
    steps = draw(st.integers(min_value=1, max_value=5))
    block_steps = draw(st.integers(min_value=1, max_value=3))
    tiling = draw(st.sampled_from(["trapezoid", "diamond"]))
    # process workers cost ~1s each; keep the heavy executor rare
    executor = draw(
        st.sampled_from(["serial", "serial", "thread", "thread", "process"])
    )
    overlap = draw(st.booleans())
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return size, mesh, steps, block_steps, tiling, executor, overlap, seed


class TestReportProperties:
    @given(cluster_runs())
    @settings(max_examples=12, deadline=None)
    def test_accounting_identities_hold(self, case):
        size, mesh, steps, block_steps, tiling, executor, overlap, seed = case
        rng = np.random.default_rng(seed)
        w = get_kernel("Heat-2D").weights
        x = rng.normal(size=(size, size))
        plan = distribute(
            w, x.shape, mesh, block_steps=block_steps, tiling=tiling
        )
        with telemetry.capture() as tracer:
            result = ClusterRuntime(plan).run(
                x, steps, block_steps=block_steps, overlap=overlap,
                executor=executor,
            )
        report = build_cluster_report(result, tracer=tracer)
        validate_cluster_report(report)

        # lanes partition each rank's wall time exactly
        for row in report["ranks"]:
            assert sum(row["lanes_ns"].values()) == row["wall_ns"]

        # rounds are barriers: the critical path dominates every rank
        assert report["critical_path"]["ns"] >= max(
            row["wall_ns"] for row in report["ranks"]
        )

        # overlap efficiency is a ratio, and zero when overlap is off
        eff = report["overlap"]["efficiency"]
        assert 0.0 <= eff <= 1.0
        if not overlap:
            assert eff == 0.0

        # the per-round log sums to the run total
        halo = report["halo"]
        assert halo["reconciled"] is True
        assert halo["total_bytes"] == result.exchanged_bytes
        assert halo["total_bytes"] == sum(
            entry["halo_bytes"] for entry in halo["per_round"]
        )

        # one report row and one critical-path node per (rank, round)
        assert len(report["ranks"]) == plan.num_devices
        assert len(report["critical_path"]["nodes"]) == len(result.phases)
