"""Self-healing sharded sweeps: crashes, hangs, timeouts, backoff.

Injected shard crashes and hangs must never change the numbers: a
supervised sharded sweep retries/recomputes until the result is
bit-identical to the unsharded fault-free sweep, or raises a typed
:class:`~repro.errors.FaultError` — never a partial grid.
"""

import numpy as np
import pytest

import repro
from repro.errors import FaultError
from repro.faults import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    RecoveryPolicy,
)
from repro.parallel import ClusterRuntime, distribute
from repro.stencil.kernels import get_kernel
from tests.faults.conftest import padded_grid

pytestmark = [
    pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning"),
    pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning"),
]

#: fast-failing policy so injected hangs (0.02 s) trip the timeout
FAST = RecoveryPolicy(
    shard_timeout_s=0.5,
    backoff_base_s=0.001,
    backoff_cap_s=0.01,
)


def _setup(kernel_name="Box-2D9P", size=48):
    k, x = padded_grid(kernel_name, size=size)
    compiled = repro.compile(k.weights)
    clean, clean_events = compiled.apply_simulated(x, shards=3)
    return compiled, x, clean, clean_events


class TestShardCrashRecovery:
    def test_crashed_shard_is_retried_bit_exact(self):
        compiled, x, clean, clean_events = _setup()
        inj = FaultInjector(
            FaultPlan(specs=(FaultSpec(kind="shard_crash", site=1),))
        )
        out, events = compiled.apply_simulated(
            x, shards=3, faults=inj, policy=FAST
        )
        assert np.array_equal(out, clean)
        rep = inj.report.as_dict()
        assert rep["shard"]["crashes"] == 1
        assert rep["retries"]["shard"] >= 1
        assert rep["recovered"]["shard_retry"] == 1
        assert rep["unrecovered"] == 0

    def test_every_shard_crashes_once(self):
        compiled, x, clean, _ = _setup()
        specs = tuple(
            FaultSpec(kind="shard_crash", site=i) for i in range(3)
        )
        inj = FaultInjector(FaultPlan(specs=specs))
        out, _ = compiled.apply_simulated(
            x, shards=3, faults=inj, policy=FAST
        )
        assert np.array_equal(out, clean)
        assert inj.report.as_dict()["shard"]["crashes"] == 3
        assert inj.report.as_dict()["unrecovered"] == 0

    def test_merged_counters_match_clean_sharded_sweep(self):
        # recovery work happens in the *discarded* crashed attempt only,
        # so the merged footprint equals the fault-free sharded sweep
        compiled, x, clean, clean_events = _setup()
        inj = FaultInjector(
            FaultPlan(specs=(FaultSpec(kind="shard_crash", site=0),))
        )
        out, events = compiled.apply_simulated(
            x, shards=3, faults=inj, policy=FAST
        )
        assert np.array_equal(out, clean)
        assert events.as_dict() == clean_events.as_dict()


class TestShardHangRecovery:
    def test_hung_shard_times_out_and_retries(self):
        compiled, x, clean, _ = _setup()
        inj = FaultInjector(
            FaultPlan(
                specs=(
                    FaultSpec(kind="shard_hang", site=2, hang_s=1.2),
                )
            )
        )
        policy = RecoveryPolicy(
            shard_timeout_s=0.15, backoff_base_s=0.001, backoff_cap_s=0.01
        )
        out, _ = compiled.apply_simulated(
            x, shards=3, faults=inj, policy=policy
        )
        assert np.array_equal(out, clean)
        rep = inj.report.as_dict()
        assert rep["shard"]["timeouts"] >= 1
        assert rep["unrecovered"] == 0

    def test_hang_within_budget_is_not_a_fault(self):
        compiled, x, clean, _ = _setup()
        inj = FaultInjector(
            FaultPlan(
                specs=(FaultSpec(kind="shard_hang", site=0, hang_s=0.01),)
            )
        )
        out, _ = compiled.apply_simulated(
            x, shards=3, faults=inj, policy=FAST
        )
        assert np.array_equal(out, clean)
        assert inj.report.as_dict()["shard"]["timeouts"] == 0


class TestExhaustion:
    def test_sticky_crash_exhausts_to_fault_error(self):
        compiled, x, _, _ = _setup()
        inj = FaultInjector(
            FaultPlan(
                specs=(FaultSpec(kind="shard_crash", site=0, sticky=True),)
            )
        )
        with pytest.raises(FaultError, match="backoff retries"):
            compiled.apply_simulated(x, shards=3, faults=inj, policy=FAST)
        rep = inj.report.as_dict()
        assert rep["unrecovered"] == 1
        # retried the policy's bound, then attempted inline recomputation
        assert rep["shard"]["crashes"] >= FAST.shard_retries + 1

    def test_inline_fallback_disabled_raises(self):
        compiled, x, _, _ = _setup()
        inj = FaultInjector(
            FaultPlan(
                specs=(FaultSpec(kind="shard_crash", site=1, sticky=True),)
            )
        )
        policy = RecoveryPolicy(
            shard_retries=1,
            backoff_base_s=0.001,
            backoff_cap_s=0.01,
            inline_fallback=False,
        )
        with pytest.raises(FaultError, match="inline fallback disabled"):
            compiled.apply_simulated(x, shards=3, faults=inj, policy=policy)

    def test_inline_fallback_recovers_transient_pool_poison(self):
        # crash fires on the worker rounds; the inline recomputation in
        # the caller thread sees a fresh (reset) site clock — a
        # non-sticky crash pinned to one shard is spent by then
        compiled, x, clean, _ = _setup()
        inj = FaultInjector(
            FaultPlan(
                specs=tuple(
                    FaultSpec(kind="shard_crash", site=1)
                    for _ in range(FAST.shard_retries + 1)
                )
            )
        )
        out, _ = compiled.apply_simulated(
            x, shards=3, faults=inj, policy=FAST
        )
        assert np.array_equal(out, clean)
        rep = inj.report.as_dict()
        assert rep["recovered"]["shard_inline"] == 1
        assert rep["unrecovered"] == 0


class TestShardedWithVerification:
    def test_mma_faults_inside_shards_recovered(self):
        compiled, x, clean, _ = _setup()
        specs = (
            FaultSpec(kind="flip_a", site=2, shard=0, lane=7),
            FaultSpec(kind="nan_acc", site=1, shard=1, lane=11),
            FaultSpec(kind="drop_commit", site=0, shard=2),
        )
        inj = FaultInjector(FaultPlan(specs=specs))
        out, _ = compiled.apply_simulated(
            x, shards=3, verify="abft", faults=inj, policy=FAST
        )
        assert np.array_equal(out, clean)
        assert inj.report.as_dict()["unrecovered"] == 0

    def test_crash_and_corruption_combined(self):
        compiled, x, clean, _ = _setup()
        specs = (
            FaultSpec(kind="shard_crash", site=0),
            FaultSpec(kind="flip_smem", site=0, shard=1, lane=5),
            FaultSpec(kind="nan_acc", site=3, shard=2, lane=19),
        )
        inj = FaultInjector(FaultPlan(specs=specs))
        out, _ = compiled.apply_simulated(
            x, shards=3, verify="abft", faults=inj, policy=FAST
        )
        assert np.array_equal(out, clean)
        rep = inj.report.as_dict()
        assert rep["shard"]["crashes"] == 1
        assert rep["unrecovered"] == 0

    @staticmethod
    def _flip_a_campaign(shard):
        compiled = repro.compile(get_kernel("Star-2D13P").weights)
        _, x = padded_grid("Star-2D13P", size=32)
        spec = FaultSpec(kind="flip_a", site=0, lane=5, shard=shard)
        inj = FaultInjector(FaultPlan(specs=(spec,)))
        out, _ = compiled.apply_simulated(
            x,
            verify="abft",
            faults=inj,
            shards=2,
            policy=FAST,
            backend="interpreter",
        )
        return out, inj

    def test_unaddressed_mma_fault_fires_in_shard_zero_every_run(self):
        outs, reports = [], []
        for _ in range(20):
            out, inj = self._flip_a_campaign(shard=None)
            assert [e["shard"] for e in inj.events] == [0]
            outs.append(out)
            reports.append(inj.report.as_dict())
        assert all(r == reports[0] for r in reports)
        assert all(np.array_equal(o, outs[0]) for o in outs)
        assert reports[0]["injected_total"] == 1
        assert reports[0]["unrecovered"] == 0

    def test_shard_one_spec_detects_and_retries_one_tile(self):
        _, inj = self._flip_a_campaign(shard=1)
        assert [e["shard"] for e in inj.events] == [1]
        report = inj.report.as_dict()
        assert report["detected"]["tile"] == 1
        assert report["retries"]["tile"] == 1
        assert report["recovered"]["tile_retry"] == 1
        assert report["unrecovered"] == 0

    def test_last_fault_report_exposed(self):
        compiled, x, _, _ = _setup()
        inj = FaultInjector(
            FaultPlan(specs=(FaultSpec(kind="shard_crash", site=1),))
        )
        compiled.apply_simulated(x, shards=3, faults=inj, policy=FAST)
        assert compiled.last_fault_report is inj.report

    @pytest.mark.parametrize("path", ["shards=1", "shards=2", "cluster"])
    def test_clean_run_keeps_last_fault_report(self, path):
        # one rule on every entry point: only a fault run replaces the
        # report; a clean run leaves it untouched
        k, x = padded_grid("Box-2D9P", size=16)
        if path == "cluster":
            h = k.weights.radius
            grid = x[h:-h, h:-h]
            owner = ClusterRuntime(distribute(k.weights, grid.shape, (2, 1)))

            def run(**kwargs):
                owner.run(grid, 1, simulate=True, **kwargs)

        else:
            owner = repro.compile(k.weights)
            shards = int(path[-1])

            def run(**kwargs):
                owner.apply_simulated(x, shards=shards, **kwargs)

        run(verify="abft")
        report = owner.last_fault_report
        assert report is not None
        run()
        assert owner.last_fault_report is report
        run(verify="abft")
        assert owner.last_fault_report is not report
