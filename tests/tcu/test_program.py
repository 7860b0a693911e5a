"""Tests for tile programs and schedules."""

import numpy as np
import pytest

from repro.core.config import OptimizationConfig
from repro.core.lowrank import decompose
from repro.core.rdg import RDGTileCompute
from repro.stencil.reference import reference_apply
from repro.stencil.weights import radially_symmetric_weights
from repro.tcu.counters import EventCounters
from repro.tcu.device import Device
from repro.tcu.program import (
    build_tile_program,
    execute_program,
    load_use_distance,
    schedule_prefetch,
    validate_schedule,
)
from repro.tcu.warp import Warp


def _setup(rng, h=3, config=None, tile_shape=(8, 8)):
    w = radially_symmetric_weights(h, 2, rng=rng)
    tile = RDGTileCompute(
        decompose(w.as_matrix()), h, config,
        out_rows=tile_shape[0], out_cols=tile_shape[1],
    )
    device = Device()
    warp = device.warp()
    smem = device.shared((tile.k_rows, tile.w_cols))
    window = rng.normal(size=smem.shape)
    smem.data[:] = window
    return w, tile, device, warp, smem, window


class TestBuild:
    def test_ssa_property(self, rng):
        _, tile, *_ = _setup(rng)
        program = build_tile_program(tile)
        program.writers()  # raises on double writes

    def test_canonical_is_valid(self, rng):
        _, tile, *_ = _setup(rng)
        validate_schedule(build_tile_program(tile))

    def test_instruction_counts(self, rng):
        _, tile, *_ = _setup(rng)
        program = build_tile_program(tile)
        ops = [i.op for i in program.instrs]
        assert ops.count("load_x") == tile.fragment_loads_per_tile
        assert ops.count("mma") + ops.count("mma2") == tile.mma_per_tile
        assert ops.count("split") == len(tile.decomposition.matrix_terms) * (
            tile.w_cols // 8
        )

    def test_cuda_config_rejected(self, rng):
        w = radially_symmetric_weights(1, 2, rng=rng)
        tile = RDGTileCompute(
            decompose(w.as_matrix()), 1, OptimizationConfig(use_tensor_cores=False)
        )
        with pytest.raises(ValueError):
            build_tile_program(tile)


class TestExecution:
    @pytest.mark.parametrize("h", [1, 2, 3])
    def test_matches_reference(self, rng, h):
        w, tile, device, warp, smem, window = _setup(rng, h=h)
        program = build_tile_program(tile)
        out = execute_program(program, warp, smem, 0, 0)
        ref = reference_apply(window[: 8 + 2 * h, : 8 + 2 * h], w)
        assert np.allclose(out, ref[:8, :8], atol=1e-12)

    def test_matches_eager_compute_tile(self, rng):
        w, tile, device, warp, smem, _ = _setup(rng)
        program = build_tile_program(tile)
        out_prog = execute_program(program, warp, smem, 0, 0)
        out_eager = tile.compute_tile(warp, smem, 0, 0)
        assert np.array_equal(out_prog, out_eager)

    def test_event_counts_match_eager(self, rng):
        w, tile, _, _, _, window = _setup(rng)
        d1, d2 = Device(), Device()
        s1 = d1.shared((tile.k_rows, tile.w_cols)); s1.data[:] = window
        s2 = d2.shared((tile.k_rows, tile.w_cols)); s2.data[:] = window
        execute_program(build_tile_program(tile), d1.warp(), s1, 0, 0)
        tile.compute_tile(d2.warp(), s2, 0, 0)
        assert d1.counters.as_dict() == d2.counters.as_dict()

    def test_multi_accumulator_tile(self, rng):
        w, tile, device, warp, smem, window = _setup(rng, h=2, tile_shape=(16, 16))
        out = execute_program(build_tile_program(tile), warp, smem, 0, 0)
        ref = reference_apply(window[: 16 + 4, : 16 + 4], w)
        assert np.allclose(out, ref[:16, :16], atol=1e-12)

    def test_no_bvs_program(self, rng):
        w, tile, device, warp, smem, window = _setup(
            rng, h=2, config=OptimizationConfig(use_bvs=False)
        )
        out = execute_program(build_tile_program(tile), warp, smem, 0, 0)
        ref = reference_apply(window[:12, :12], w)
        assert np.allclose(out, ref[:8, :8], atol=1e-12)
        assert device.counters.shuffle_ops > 0


class TestScheduling:
    def test_prefetch_preserves_semantics(self, rng):
        w, tile, device, warp, smem, _ = _setup(rng)
        base = build_tile_program(tile)
        pre = schedule_prefetch(base)
        out_a = execute_program(base, warp, smem, 0, 0)
        out_b = execute_program(pre, warp, smem, 0, 0)
        assert np.array_equal(out_a, out_b)

    def test_prefetch_increases_load_use_distance(self, rng):
        """The point of pipelining: more slack between a load and its
        first consumer.  (The canonical program already loads everything
        up front, so measure against a load-late variant.)"""
        _, tile, *_ = _setup(rng)
        base = build_tile_program(tile)
        # a deliberately lazy schedule: sink each load right before its
        # first use
        lazy_instrs = [i for i in base.instrs if i.op != "load_x"]
        for load in [i for i in base.instrs if i.op == "load_x"]:
            first = next(
                idx
                for idx, ins in enumerate(lazy_instrs)
                if load.dst[0] in ins.srcs
            )
            lazy_instrs.insert(first, load)
        from repro.tcu.program import TileProgram

        lazy = TileProgram(tile=tile, instrs=lazy_instrs)
        validate_schedule(lazy)
        assert load_use_distance(schedule_prefetch(lazy)) > load_use_distance(lazy)

    def test_invalid_schedule_detected(self, rng):
        _, tile, *_ = _setup(rng)
        program = build_tile_program(tile)
        # move the first load after its first consumer
        from repro.tcu.program import TileProgram

        bad = TileProgram(
            tile=tile, instrs=program.instrs[1:] + [program.instrs[0]]
        )
        with pytest.raises(ValueError):
            validate_schedule(bad)

    def test_random_valid_schedules_agree(self, rng):
        """Any dependence-respecting topological order gives the same
        numeric answer (list scheduling freedom is real)."""
        w, tile, device, warp, smem, _ = _setup(rng, h=1)
        base = build_tile_program(tile)
        expected = execute_program(base, warp, smem, 0, 0)
        for seed in range(3):
            shuffled = _random_topological(base, np.random.default_rng(seed))
            out = execute_program(shuffled, warp, smem, 0, 0)
            assert np.allclose(out, expected, atol=1e-12)


def _random_topological(program, rng):
    """Random dependence-respecting permutation of a program."""
    from repro.tcu.program import TileProgram

    remaining = list(program.instrs)
    written: set[str] = set()
    out = []
    while remaining:
        ready = [i for i in remaining if all(s in written for s in i.srcs)]
        pick = ready[rng.integers(len(ready))]
        remaining.remove(pick)
        written.update(pick.dst)
        out.append(pick)
    result = TileProgram(tile=program.tile, instrs=out)
    validate_schedule(result)
    return result


class TestInstrMetadata:
    """The IR carries structured metadata instead of encoding facts in
    SSA names (``mma2`` result-block index) or writing sentinel values
    (``apex`` has no register destination)."""

    def test_mma2_carries_rb_in_meta(self, rng):
        _, tile, *_ = _setup(rng)
        program = build_tile_program(tile)
        mma2s = [i for i in program.instrs if i.op == "mma2"]
        assert mma2s
        for ins in mma2s:
            assert isinstance(ins.meta["rb"], int)
            # meta agrees with the (legacy) name encoding acc{t}_{rb}_...
            assert ins.meta["rb"] == int(ins.dst[0].split("_")[1])

    def test_apex_has_no_destination(self, rng):
        _, tile, *_ = _setup(rng)
        program = build_tile_program(tile)
        apexes = [i for i in program.instrs if i.op == "apex"]
        for ins in apexes:
            assert ins.dst == ()

    def test_apex_not_in_writers(self, rng):
        _, tile, *_ = _setup(rng)
        program = build_tile_program(tile)
        writers = program.writers()
        for name in writers:
            assert program.instrs[writers[name]].op != "apex"


class TestProgram1D:
    def _setup_1d(self, rng, h=2, n=64):
        from repro.core.engine1d import LoRAStencil1D

        engine = LoRAStencil1D(rng.normal(size=2 * h + 1))
        device = Device()
        warp = device.warp()
        smem = device.shared((engine.k_rows - 8 + n + 56,))
        smem.data[:] = rng.normal(size=smem.shape)
        return engine, device, warp, smem

    def test_build_and_execute_matches_eager(self, rng):
        from repro.tcu.program import build_tile_program_1d, execute_program_1d

        engine, device, warp, smem = self._setup_1d(rng)
        program = build_tile_program_1d(engine)
        kb_n = engine.k_rows // 4
        assert [i.op for i in program.instrs] == ["load_x"] * kb_n + [
            "mma"
        ] * kb_n
        out = execute_program_1d(program, warp, smem, 0)
        expected = engine._compute_tile(device.warp(), smem, 0)
        assert np.array_equal(out, expected)

    def test_event_counts_match_eager(self, rng):
        from repro.tcu.program import build_tile_program_1d, execute_program_1d

        engine, device, warp, smem = self._setup_1d(rng)
        program = build_tile_program_1d(engine)
        start = device.snapshot()
        execute_program_1d(program, warp, smem, 0)
        prog_events = device.events_since(start)
        start = device.snapshot()
        engine._compute_tile(warp, smem, 0)
        eager_events = device.events_since(start)
        assert prog_events == eager_events

    def test_rejects_cuda_core_engine(self, rng):
        from repro.core.engine1d import LoRAStencil1D
        from repro.tcu.program import build_tile_program_1d

        engine = LoRAStencil1D(
            rng.normal(size=5),
            config=OptimizationConfig(use_tensor_cores=False),
        )
        with pytest.raises(ValueError, match="tensor-core"):
            build_tile_program_1d(engine)


class _Recorder:
    """A profiler stand-in: keeps every ``record`` call."""

    def __init__(self):
        self.calls = []

    def record(self, ins, ns, delta):
        self.calls.append((ins, ns, delta))


class TestDecode:
    """Each program is decoded once, on first execution, and the decode
    belongs to that program."""

    def test_decode_is_cached_on_the_program(self, rng):
        _, tile, _, warp, smem, _ = _setup(rng)
        program = build_tile_program(tile)
        assert program._decoded is None
        first = execute_program(program, warp, smem, 0, 0)
        decoded = program._decoded
        assert decoded is not None
        assert [d[1] for d in decoded.instrs] == program.instrs
        assert np.array_equal(execute_program(program, warp, smem, 0, 0), first)
        assert program._decoded is decoded

    def test_prefetch_schedule_gets_its_own_decode(self, rng):
        _, tile, _, warp, smem, _ = _setup(rng)
        base = build_tile_program(tile)
        execute_program(base, warp, smem, 0, 0)
        pre = schedule_prefetch(base)
        assert pre._decoded is None
        execute_program(pre, warp, smem, 0, 0)
        assert pre._decoded is not base._decoded
        assert [d[1] for d in pre._decoded.instrs] == pre.instrs
        assert [d[1] for d in base._decoded.instrs] == base.instrs

    @pytest.mark.parametrize("use_bvs", [True, False], ids=["bvs", "naive"])
    def test_permuted_schedules_identical_bits_and_counters(self, rng, use_bvs):
        w, tile, _, _, _, window = _setup(
            rng, h=2, config=OptimizationConfig(use_bvs=use_bvs), tile_shape=(16, 16)
        )
        base = build_tile_program(tile)

        def run(program):
            device = Device()
            smem = device.shared((tile.k_rows, tile.w_cols))
            smem.data[:] = window
            out = execute_program(program, device.warp(), smem, 0, 0)
            return out, device.counters.as_dict()

        expected, counters = run(base)
        for seed in range(4):
            shuffled = _random_topological(base, np.random.default_rng(seed))
            assert [i.op for i in shuffled.instrs] != [i.op for i in base.instrs]
            out, got = run(shuffled)
            assert np.array_equal(out.view(np.uint64), expected.view(np.uint64))
            assert got == counters

    @pytest.mark.parametrize("use_bvs", [True, False], ids=["bvs", "naive"])
    def test_profiler_records_each_instr_in_schedule_order(self, rng, use_bvs):
        _, tile, device, _, smem, _ = _setup(
            rng, config=OptimizationConfig(use_bvs=use_bvs)
        )
        program = _random_topological(
            build_tile_program(tile), np.random.default_rng(1)
        )
        recorder = _Recorder()
        warp = Warp(device.counters, profiler=recorder)
        execute_program(program, warp, smem, 0, 0)
        assert len(recorder.calls) == len(program.instrs)
        assert all(c[0] is ins for c, ins in zip(recorder.calls, program.instrs))
        total = EventCounters()
        for ins, ns, delta in recorder.calls:
            assert ns >= 0
            total += delta
            if ins.op in ("mma", "mma2"):
                assert delta == EventCounters(mma_ops=1)
            elif ins.op == "load_x":
                assert delta.shared_load_requests == 1
                assert delta.mma_ops == delta.cuda_core_flops == 0
            elif ins.op == "split" and use_bvs:
                assert delta == EventCounters()
            elif ins.op == "split":
                assert delta == EventCounters(shuffle_ops=6, register_moves=48)
            else:
                assert ins.op == "apex"
                assert delta == EventCounters(
                    shared_load_requests=2, cuda_core_flops=2 * 64
                )
        assert total == device.counters

    def test_profiler_records_1d_program(self, rng):
        from repro.core.engine1d import LoRAStencil1D
        from repro.tcu.program import build_tile_program_1d, execute_program_1d

        engine = LoRAStencil1D(rng.normal(size=5))
        device = Device()
        smem = device.shared((engine.k_rows + 56,))
        smem.data[:] = rng.normal(size=smem.shape)
        program = build_tile_program_1d(engine)
        recorder = _Recorder()
        warp = Warp(device.counters, profiler=recorder)
        out = execute_program_1d(program, warp, smem, 0)
        assert np.array_equal(out, engine._compute_tile(Device().warp(), smem, 0))
        assert [c[0] for c in recorder.calls] == program.instrs
        assert [c[2].mma_ops for c in recorder.calls] == [
            int(i.op == "mma") for i in program.instrs
        ]
