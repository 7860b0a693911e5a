"""Unit tests for the lowering route and the shared block-sweep
driver."""

import numpy as np
import pytest

import repro
from repro import telemetry
from repro.core.config import OptimizationConfig
from repro.core.engine1d import LoRAStencil1D
from repro.core.engine2d import LoRAStencil2D
from repro.core.engine3d import LoRAStencil3D
from repro.core.lowering import (
    available_schedules,
    get_schedule,
    lower,
    lower_engine,
    register_schedule,
)
from repro.core.sweep import SweepSpec, validate_padded
from repro.errors import LoweringError, ShapeError
from repro.tcu.program import TileProgram

W2 = repro.box_weights(1, 2)
W1 = repro.box_weights(2, 1)
W3 = repro.star_weights(1, 3)


class TestScheduleRegistry:
    def test_builtins_registered(self):
        assert "eager" in available_schedules()
        assert "prefetch" in available_schedules()

    def test_unknown_schedule_raises_lowering_error(self):
        with pytest.raises(LoweringError, match="unknown schedule"):
            get_schedule("definitely-not-registered")

    def test_unknown_schedule_fails_fast_at_compile(self):
        config = OptimizationConfig(schedule="nope")
        with pytest.raises(LoweringError, match="available"):
            repro.compile(W2, config=config, cache=None)

    def test_dependence_breaking_schedule_rejected(self):
        register_schedule(
            "reversed-for-test",
            lambda p: TileProgram(tile=p.tile, instrs=list(p.instrs[::-1])),
        )
        config = OptimizationConfig(schedule="reversed-for-test")
        with pytest.raises(LoweringError, match="broke a dependence"):
            repro.compile(W2, config=config, cache=None)


class TestPipeline:
    def test_lower_records_pass_times(self):
        _, lowered = lower(W2.as_matrix(), 2)
        assert [n for n, _ in lowered.pass_times] == [
            "decompose",
            "build_tile_ir",
            "schedule",
            "vectorize",
        ]
        assert all(t >= 0.0 for _, t in lowered.pass_times)

    def test_lower_binds_engine(self):
        engine, lowered = lower(W2.as_matrix(), 2)
        assert engine.lowered is lowered.tile
        assert lowered.tile.program.tile is engine.tile

    def test_lower_3d_binds_plane_engines(self):
        engine, lowered = lower(W3.array, 3)
        assert len(lowered.tiles) == len(engine.planes)
        for task, tile in zip(engine.planes, lowered.tiles):
            if task.engine is not None:
                assert tile is not None
                assert task.engine.lowered is tile
            else:
                assert tile is None

    def test_cuda_core_config_lowers_to_no_program(self):
        config = OptimizationConfig(use_tensor_cores=False)
        _, lowered = lower(W2.as_matrix(), 2, config=config)
        assert lowered.tile is None
        assert lowered.n_instrs == 0
        assert lowered.load_use_distance == 0.0

    def test_lower_emits_stage_spans(self):
        telemetry.reset()
        telemetry.enable()
        try:
            with telemetry.TRACER.span("root", category="test") as root:
                lower(W2.as_matrix(), 2)
        finally:
            telemetry.disable()
        names = [c.name for c in root.children]
        assert names == [
            "lowering.decompose",
            "lowering.build_tile_ir",
            "lowering.schedule",
            "lowering.vectorize",
        ]


class TestLoweredArtifacts:
    def test_op_counts_and_render(self):
        _, lowered = lower(W2.as_matrix(), 2)
        counts = lowered.tile.op_counts()
        assert counts["mma"] > 0 and counts["load_x"] > 0
        text = lowered.tile.render(limit=3)
        assert "more" in text and len(text.splitlines()) == 4
        full = lowered.render_ir()
        assert full.count("\n") >= lowered.n_instrs

    def test_describe_mentions_schedule(self):
        config = OptimizationConfig(schedule="prefetch")
        _, lowered = lower(W2.as_matrix(), 2, config=config)
        assert "prefetch" in lowered.describe()
        assert lowered.schedule == "prefetch"

    def test_1d_program_ops(self):
        _, lowered = lower(W1.as_vector(), 1)
        counts = lowered.tile.op_counts()
        # radius 2: k_rows = round_up(12, 4) = 12 -> 3 k-blocks
        assert counts == {"load_x": 3, "mma": 3}

    def test_lower_engine_matches_pipeline(self):
        # a directly constructed engine lowers to the plan's program
        cases = [
            (W1.as_vector(), 1, None, None),
            (W2.as_matrix(), 2, None, None),
            (W2.as_matrix(), 2, OptimizationConfig(schedule="prefetch"), None),
            (W2.as_matrix(), 2, None, (16, 8)),
            (W3.array, 3, None, None),
            (W2.as_matrix(), 2, OptimizationConfig(use_tensor_cores=False), None),
        ]
        for weights, ndim, config, tile_shape in cases:
            _, lowered = lower(weights, ndim, config=config, tile_shape=tile_shape)
            if ndim == 1:
                direct = (LoRAStencil1D(weights, config=config).lowered,)
            elif ndim == 2:
                kwargs = {"tile_shape": tile_shape} if tile_shape else {}
                direct = (LoRAStencil2D(weights, config=config, **kwargs).lowered,)
            else:
                direct = tuple(
                    t.engine.lowered if t.engine is not None else None
                    for t in LoRAStencil3D(weights, config=config).planes
                )
            assert len(direct) == len(lowered.tiles)
            for mine, plans in zip(direct, lowered.tiles):
                _assert_same_tile(mine, plans)
            if config is not None and not config.use_tensor_cores:
                assert direct == (None,)
            else:
                assert any(t is not None for t in direct)


def _assert_same_tile(a, b):
    """Two lowered tiles hold the same program, schedule and operands."""
    if a is None or b is None:
        assert a is None and b is None
        return
    assert (a.schedule, a.load_use_distance) == (
        b.schedule,
        b.load_use_distance,
    )
    assert len(a.program.instrs) == len(b.program.instrs)
    for x, y in zip(a.program.instrs, b.program.instrs):
        assert (x.op, x.dst, x.srcs) == (y.op, y.dst, y.srcs)
        assert x.meta.keys() == y.meta.keys()
        for key in x.meta:
            assert np.array_equal(x.meta[key], y.meta[key])
    va, vb = a.vector, b.vector
    assert (va.kind, va.scalar_weights) == (vb.kind, vb.scalar_weights)
    assert (va.slots, va.last_use) == (vb.slots, vb.last_use)
    for ops_a, ops_b in ((va.u_ops, vb.u_ops), (va.v_ops, vb.v_ops)):
        assert ops_a.keys() == ops_b.keys()
        for key in ops_a:
            assert np.array_equal(ops_a[key], ops_b[key])


class TestSweepSpec:
    def _spec(self, interior, block, tile=(8, 8), halo=(4, 8)):
        return SweepSpec(
            interior=interior,
            tile=tile,
            block=block,
            smem_halo=halo,
            use_async_copy=True,
            ndim=2,
            shape_label="x",
        )

    def test_block_rounds_up_to_tile(self):
        assert self._spec((64, 64), (30, 60)).blocked() == (32, 64)

    def test_block_clamps_to_interior(self):
        assert self._spec((16, 24), (32, 64)).blocked() == (16, 24)

    def test_block_at_least_one_tile(self):
        assert self._spec((64, 64), (1, 1)).blocked() == (8, 8)

    def test_1d_rounding_matches_legacy_formula(self):
        # legacy 1D: max(64, round_up(min(block, n), 64))
        for n in (64, 130, 1024, 4096):
            for block in (1, 64, 100, 1024, 9999):
                spec = SweepSpec(
                    interior=(1, n),
                    tile=(1, 64),
                    block=(1, block),
                    smem_halo=(0, 60),
                    use_async_copy=False,
                    ndim=1,
                    shape_label=str(n),
                )
                legacy = max(64, -(-min(block, n) // 64) * 64)
                assert spec.blocked() == (1, legacy)

    def test_smem_shape_adds_halo(self):
        assert self._spec((64, 64), (32, 64)).smem_shape() == (36, 72)

    def test_validate_padded(self):
        arr, interior = validate_padded(np.zeros((10, 12)), 2, 2)
        assert arr.dtype == np.float64
        assert interior == (6, 8)
        with pytest.raises(ShapeError, match="expected 3D"):
            validate_padded(np.zeros((10, 12)), 3, 1)
        with pytest.raises(ShapeError, match="too small"):
            validate_padded(np.zeros((4, 4)), 2, 2)


class TestPlanCarriesProgram:
    def test_plan_program_and_schedule(self):
        compiled = repro.compile(W2, cache=None)
        assert isinstance(compiled.plan.program, TileProgram)
        assert compiled.plan.schedule == "eager"
        assert "lowering" in compiled.describe()

    def test_3d_plan_program_tuple(self):
        compiled = repro.compile(W3, cache=None)
        programs = compiled.plan.program
        assert isinstance(programs, tuple)
        assert len(programs) == len(compiled.engine.planes)
        assert any(p is not None for p in programs)
        assert any(p is None for p in programs)  # star points -> CUDA cores

    def test_plan_key_covers_schedule(self):
        k_eager = repro.runtime.plan.plan_key(W2.as_matrix(), 2)
        k_prefetch = repro.runtime.plan.plan_key(
            W2.as_matrix(), 2, OptimizationConfig(schedule="prefetch")
        )
        assert k_eager != k_prefetch
