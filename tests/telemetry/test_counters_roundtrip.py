"""EventCounters algebra round-trips through the telemetry layer.

The observatory leans on three counter operations — ``snapshot``/
``diff`` (per-instruction deltas), ``__iadd__`` (profile aggregation)
and ``scaled`` (model extrapolation).  These tests pin the algebra:
composing the operations and summing the outcome must be
indistinguishable from the original, field for field.
"""

import numpy as np
import pytest

from repro.runtime import compile as compile_stencil
from repro.stencil.kernels import get_kernel
from repro.tcu.counters import EventCounters
from repro.tcu.device import Device
from repro.telemetry.perf import InstrProfiler


@pytest.fixture()
def measured():
    """Real counters from a small Box-2D9P sweep (not synthetic)."""
    plan = compile_stencil(get_kernel("Box-2D9P").weights).plan
    rng = np.random.default_rng(0)
    padded = np.pad(rng.normal(size=(16, 16)), plan.radius)
    _, events = plan.engine.apply_simulated(padded)
    return events


class TestAlgebraRoundTrips:
    def test_diff_of_snapshot_recovers_delta(self, measured):
        base = measured.snapshot()
        base.mma_ops += 7
        base.global_load_bytes += 64
        delta = base.diff(measured)
        assert delta.mma_ops == 7
        assert delta.global_load_bytes == 64
        assert delta.shared_load_requests == 0

    def test_iadd_of_diffs_reassembles_total(self, measured):
        # split the total into two snapshots and re-accumulate
        half = measured.scaled(0.5)
        rest = measured.diff(half)
        total = EventCounters()
        total += half
        total += rest
        assert total.as_dict() == measured.as_dict()

    def test_scaled_roundtrip_is_exact_for_integers(self, measured):
        doubled = measured.scaled(2).scaled(0.5)
        assert doubled.as_dict() == measured.as_dict()

    def test_scaled_preserves_derived_quantities(self, measured):
        s = measured.scaled(3)
        assert s.dram_bytes == 3 * measured.dram_bytes
        assert s.tensor_core_flops == 3 * measured.tensor_core_flops


class TestEventSums:
    def test_reassembled_sum_equals_original(self, measured):
        direct, rebuilt = EventCounters(), EventCounters()
        direct += measured
        half = measured.scaled(0.5)
        rebuilt += half
        rebuilt += measured.diff(half)
        assert direct.as_dict() == rebuilt.as_dict()

    def test_per_op_deltas_plus_residue_equal_total(self):
        plan = compile_stencil(get_kernel("Box-2D9P").weights).plan
        rng = np.random.default_rng(1)
        padded = np.pad(rng.normal(size=(16, 16)), plan.radius)

        profiler = InstrProfiler()
        _, events = plan.engine.apply_simulated(
            padded, device=Device(profiler=profiler)
        )

        from_parts = EventCounters()
        for stats in profiler.by_op.values():
            from_parts += stats.events
        from_parts += events.diff(profiler.program_events())
        assert from_parts.as_dict() == events.as_dict()
