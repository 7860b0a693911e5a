"""Tests for the distribution pass and the DistributedPlan artifact."""

import numpy as np
import pytest

from repro import telemetry
from repro.parallel.plan import (
    TILINGS,
    DistributedPlan,
    HaloSchedule,
    distribute,
)
from repro.stencil.kernels import get_kernel


class TestHaloSchedule:
    def test_per_step_phases(self):
        s = HaloSchedule(radius=1, block_steps=1)
        assert s.phases(4) == (1, 1, 1, 1)
        assert s.rounds(4) == 4
        assert s.depth(1) == 1

    def test_trapezoid_phases(self):
        s = HaloSchedule(radius=2, block_steps=3)
        assert s.phases(9) == (3, 3, 3)
        assert s.depth(3) == 6

    def test_ragged_final_round(self):
        s = HaloSchedule(radius=1, block_steps=4)
        assert s.phases(10) == (4, 4, 2)
        assert sum(s.phases(10)) == 10

    def test_diamond_half_rounds(self):
        s = HaloSchedule(radius=1, block_steps=4, tiling="diamond")
        # each 4-step round splits into 2+2; ragged 3 splits into 2+1
        assert s.phases(8) == (2, 2, 2, 2)
        assert HaloSchedule(
            radius=1, block_steps=3, tiling="diamond"
        ).phases(3) == (2, 1)

    def test_diamond_preserves_step_total(self):
        for steps in range(0, 13):
            for k in range(1, 5):
                s = HaloSchedule(radius=1, block_steps=k, tiling="diamond")
                assert sum(s.phases(steps)) == steps

    def test_zero_steps(self):
        assert HaloSchedule(radius=1, block_steps=2).phases(0) == ()

    def test_validation(self):
        with pytest.raises(ValueError):
            HaloSchedule(radius=1, block_steps=0)
        with pytest.raises(ValueError):
            HaloSchedule(radius=1, block_steps=1, tiling="hexagon")
        with pytest.raises(ValueError):
            HaloSchedule(radius=1, block_steps=1, boundary="edge")
        with pytest.raises(ValueError):
            HaloSchedule(radius=1, block_steps=1).phases(-1)

    def test_tilings_registry(self):
        assert set(TILINGS) == {"trapezoid", "diamond"}


class TestDistribute:
    def test_basic_plan(self):
        w = get_kernel("Heat-2D").weights
        plan = distribute(w, (16, 24), (2, 2))
        assert isinstance(plan, DistributedPlan)
        assert plan.ndim == 2
        assert plan.radius == w.radius
        assert plan.global_shape == (16, 24)
        assert plan.mesh == (2, 2)
        assert plan.num_devices == 4
        assert plan.schedule.block_steps == 1

    @pytest.mark.parametrize(
        "kernel,shape,mesh",
        [
            ("Heat-1D", (32,), (4,)),
            ("Heat-2D", (16, 16), (2, 2)),
            ("Heat-3D", (6, 12, 12), (1, 2, 2)),
        ],
    )
    def test_all_dimensions(self, kernel, shape, mesh):
        w = get_kernel(kernel).weights
        plan = distribute(w, shape, mesh)
        assert plan.ndim == len(shape)
        assert plan.part.num_devices == int(np.prod(mesh))

    def test_rank_programs_shared(self):
        w = get_kernel("Heat-2D").weights
        plan = distribute(w, (16, 16), (2, 2))
        assert plan.program(0) is plan.program(3)
        assert plan.program(0) is plan.compiled.plan.program

    def test_plan_cache_collapses_mesh(self):
        w = get_kernel("Box-2D9P").weights
        a = distribute(w, (16, 16), (2, 2))
        b = distribute(w, (32, 16), (4, 1))
        # same stencil: both distributed plans share one compiled plan
        assert a.compiled.key == b.compiled.key
        assert a.key != b.key  # but the distributed keys differ

    def test_key_covers_schedule(self):
        w = get_kernel("Heat-2D").weights
        base = distribute(w, (16, 16), (2, 2))
        assert (
            distribute(w, (16, 16), (2, 2), block_steps=4).key != base.key
        )
        assert (
            distribute(
                w, (16, 16), (2, 2), block_steps=4, tiling="diamond"
            ).key
            != distribute(w, (16, 16), (2, 2), block_steps=4).key
        )
        assert (
            distribute(w, (16, 16), (2, 2), boundary="periodic").key
            != base.key
        )

    def test_backend_threads_through(self):
        w = get_kernel("Heat-2D").weights
        plan = distribute(w, (16, 16), (2, 2), backend="vectorized")
        assert plan.backend == "vectorized"
        assert plan.compiled.plan.backend == "vectorized"

    def test_dimension_mismatch_rejected(self):
        w = get_kernel("Heat-2D").weights
        with pytest.raises(ValueError):
            distribute(w, (4, 8, 8), (1, 2, 2))

    def test_exchanger_depths(self):
        w = get_kernel("Heat-2D").weights
        plan = distribute(w, (16, 16), (2, 2))
        assert plan.exchanger().radius == w.radius
        assert plan.exchanger(depth=3).radius == 3

    def test_describe(self):
        w = get_kernel("Heat-2D").weights
        plan = distribute(w, (16, 16), (2, 2), block_steps=2)
        text = plan.describe()
        assert "mesh (2, 2)" in text
        assert "block_steps=2" in text
