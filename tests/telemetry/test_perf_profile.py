"""Per-instruction IR profiling: attribution must close the books.

The profile's defining contract is conservation: the per-opcode event
deltas plus the driver residue must equal the uninstrumented sweep's
totals **bit-exactly** — otherwise attribution is inventing or leaking
events and every downstream consumer (fidelity, regression gating) is
built on sand.
"""

import numpy as np
import pytest

from repro.core import sweep
from repro.errors import BackendError, PerfError
from repro.runtime import compile as compile_stencil
from repro.stencil.kernels import get_kernel
from repro.tcu.counters import EventCounters
from repro.tcu.device import Device
from repro.telemetry.perf import (
    PLAN_PROFILE_SCHEMA,
    SHARED_BUCKET,
    InstrProfiler,
    profile_plan,
    profile_shape,
)


def _padded(plan, size=32, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=profile_shape(plan.ndim, size))
    return np.pad(x, plan.radius)


@pytest.fixture()
def box_plan():
    return compile_stencil(get_kernel("Box-2D9P").weights).plan


class TestBitExactAttribution:
    @pytest.mark.parametrize(
        "kernel", ["Heat-1D", "Box-2D9P", "Star-2D13P", "Heat-3D"]
    )
    def test_profiled_total_matches_uninstrumented_sweep(self, kernel):
        plan = compile_stencil(get_kernel(kernel).weights).plan
        padded = _padded(plan)
        _, bare = plan.engine.apply_simulated(padded)
        profile = profile_plan(plan, padded)
        assert profile.total_events.as_dict() == bare.as_dict()

    def test_per_opcode_sum_plus_driver_equals_total(self, box_plan):
        profile = profile_plan(box_plan, _padded(box_plan))
        recomputed = EventCounters()
        for stats in profile.by_op.values():
            recomputed += stats.events
        recomputed += profile.driver_events
        assert recomputed.as_dict() == profile.total_events.as_dict()

    def test_per_term_sum_equals_per_opcode_sum(self, box_plan):
        profile = profile_plan(box_plan, _padded(box_plan))
        by_term = EventCounters()
        for stats in profile.by_term.values():
            by_term += stats.events
        assert by_term.as_dict() == profile.program_events.as_dict()

    def test_instruction_counts_cover_whole_program(self, box_plan):
        padded = _padded(box_plan)
        profile = profile_plan(box_plan, padded)
        rows, cols = (s - 2 * box_plan.radius for s in padded.shape)
        tile = box_plan.engine.tile
        tiles = -(-rows // tile.out_rows) * (-(-cols // tile.out_cols))
        assert profile.instr_count == tiles * len(box_plan.program.instrs)
        assert sum(s.count for s in profile.by_term.values()) == (
            profile.instr_count
        )

    def test_profiling_does_not_change_the_result(self, box_plan):
        padded = _padded(box_plan)
        bare_out, _ = box_plan.engine.apply_simulated(padded)
        profiler = InstrProfiler()
        prof_out, _ = box_plan.engine.apply_simulated(
            padded, device=Device(profiler=profiler)
        )
        np.testing.assert_array_equal(prof_out, bare_out)
        assert profiler.instr_count() > 0


class TestAttributionSemantics:
    def test_mma_events_charged_to_mma_opcodes_only(self, box_plan):
        profile = profile_plan(box_plan, _padded(box_plan))
        mma_total = profile.total_events.mma_ops
        charged = sum(
            s.events.mma_ops
            for op, s in profile.by_op.items()
            if op in ("mma", "mma2")
        )
        assert mma_total > 0 and charged == mma_total

    def test_load_x_lands_in_shared_bucket(self, box_plan):
        profile = profile_plan(box_plan, _padded(box_plan))
        assert SHARED_BUCKET in profile.by_term
        assert (
            profile.by_term[SHARED_BUCKET].count
            == profile.by_op["load_x"].count
        )

    def test_rank1_terms_are_separated(self):
        # Star-2D13P decomposes to multiple rank-1 terms
        plan = compile_stencil(get_kernel("Star-2D13P").weights).plan
        profile = profile_plan(plan, _padded(plan))
        term_rows = [t for t in profile.by_term if t.startswith("term ")]
        assert len(term_rows) >= 2

    def test_driver_books_global_traffic(self, box_plan):
        profile = profile_plan(box_plan, _padded(box_plan))
        # the program never touches DRAM; staging and stores are driver work
        assert profile.program_events.global_store_bytes == 0
        assert profile.driver_events.global_store_bytes > 0


class TestPlanProfileSurface:
    def test_profile_keyed_by_plan_hash_and_schedule(self, box_plan):
        profile = profile_plan(box_plan, size=16)
        assert profile.plan_key == box_plan.key
        assert profile.schedule == box_plan.schedule
        assert profile.pass_times == tuple(box_plan.lowered.pass_times)

    def test_as_dict_is_schema_tagged_and_joinable(self, box_plan):
        d = profile_plan(box_plan, size=16).as_dict()
        assert d["schema"] == PLAN_PROFILE_SCHEMA
        assert d["plan"]["key"] == box_plan.key
        assert d["plan"]["schedule"] == box_plan.schedule
        assert set(d["by_op"]) == {"load_x", "mma", "split", "mma2", "apex"}

    def test_render_mentions_every_opcode(self, box_plan):
        text = profile_plan(box_plan, size=16).render()
        for op in ("load_x", "mma", "split", "apex", "[driver]", "[total]"):
            assert op in text

    def test_facade_profile_delegates(self):
        compiled = compile_stencil(get_kernel("Box-2D9P").weights)
        profile = compiled.profile(size=16)
        assert profile.plan_key == compiled.key


class TestRefusals:
    def test_cuda_core_plan_refused(self):
        from repro.core.config import OptimizationConfig

        compiled = compile_stencil(
            get_kernel("Box-2D9P").weights,
            config=OptimizationConfig(use_tensor_cores=False),
        )
        with pytest.raises(PerfError, match="tensor-core"):
            compiled.profile(size=16)

    def test_oracle_backend_refused(self, box_plan):
        # the eager tile path is no backend, so there is nothing to profile
        with pytest.raises(BackendError, match="'oracle'"):
            profile_plan(box_plan, size=16, backend="oracle")


class TestBackendChoice:
    """``profile_plan`` alone picks the profiled backend: an explicit
    ``backend=``, else the plan's own."""

    @staticmethod
    def _instrumented(monkeypatch):
        seen = []
        original = sweep.run_block_sweep

        def recording(padded2d, spec, engine, device=None, backend=None, **kw):
            seen.append((backend, device.profiler is not None))
            return original(padded2d, spec, engine, device, backend, **kw)

        monkeypatch.setattr("repro.core.engine2d.run_block_sweep", recording)
        return seen

    @pytest.mark.parametrize(
        "plan_backend,profiled",
        [
            ("interpreter", "interpreter"),
            ("vectorized", "vectorized"),
        ],
    )
    def test_plan_default_picks_the_profiled_backend(
        self, plan_backend, profiled, monkeypatch
    ):
        plan = compile_stencil(
            get_kernel("Box-2D9P").weights, backend=plan_backend
        ).plan
        seen = self._instrumented(monkeypatch)
        profile = profile_plan(plan, size=16)
        assert seen == [(profiled, True)]
        assert profile.instr_count > 0

    def test_explicit_vectorized_wins_over_the_plan_default(self, monkeypatch):
        plan = compile_stencil(
            get_kernel("Box-2D9P").weights, backend="interpreter"
        ).plan
        seen = self._instrumented(monkeypatch)
        profile_plan(plan, size=16, backend="vectorized")
        assert seen == [("vectorized", True)]
