"""Schedule equivalence: every dependence-valid instruction schedule of
a lowered tile program produces bit-identical numerics AND identical
hardware event counts.

This is the contract that lets the lowering pipeline treat scheduling as
a free optimization knob: the canonical ("eager") emission order, the
prefetch schedule, and arbitrary randomized topological orders must all
match the eager engine path exactly — across 1D/2D/3D plans and the
BVS / async-copy config ablations.

The same contract now gates the **vectorized backend**: the batched
NumPy walk of the scheduled program must match both the interpreter and
the eager tile path (``tile_source(oracle=True)``, reached through the
``eager_tiles`` fixture) bit-for-bit, grids and EventCounters alike,
under every schedule and ablation this suite sweeps.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.config import OptimizationConfig
from repro.core.lowering import (
    available_schedules,
    register_schedule,
)
from repro.core.lowrank import decompose
from repro.core.rdg import RDGTileCompute
from repro.stencil.reference import reference_apply
from repro.stencil.weights import radially_symmetric_weights
from repro.tcu.device import Device
from repro.tcu.program import (
    TileProgram,
    build_tile_program,
    execute_program,
    schedule_prefetch,
    validate_schedule,
)


# ---------------------------------------------------------------------------
# a randomized (but seeded, hence plan-cacheable) topological schedule
# ---------------------------------------------------------------------------
def _random_topological(program: TileProgram, seed: int) -> TileProgram:
    """A uniformly sampled dependence-valid instruction order."""
    rng = np.random.default_rng(seed)
    instrs = list(program.instrs)
    writers = {}
    for i, ins in enumerate(instrs):
        for d in ins.dst:
            writers[d] = i
    deps = [
        {writers[s] for s in ins.srcs if s in writers} for ins in instrs
    ]
    done: set[int] = set()
    order: list[int] = []
    remaining = set(range(len(instrs)))
    while remaining:
        ready = sorted(i for i in remaining if deps[i] <= done)
        pick = ready[rng.integers(len(ready))]
        order.append(pick)
        done.add(pick)
        remaining.remove(pick)
    out = TileProgram(tile=program.tile, instrs=[instrs[i] for i in order])
    validate_schedule(out)
    return out


def _shuffle_name(seed: int) -> str:
    name = f"shuffle{seed}"
    if name not in available_schedules():
        register_schedule(
            name, lambda p, _s=seed: _random_topological(p, _s)
        )
    return name


_CONFIG_ABLATIONS = list(itertools.product([True, False], [True, False]))


def _configs(schedule: str):
    for use_bvs, use_async in _CONFIG_ABLATIONS:
        yield OptimizationConfig(
            use_bvs=use_bvs, use_async_copy=use_async, schedule=schedule
        )


def _grid(shape, radius, seed=0):
    rng = np.random.default_rng(seed)
    return np.pad(rng.normal(size=shape), radius)


WEIGHTS_2D = repro.radially_symmetric_weights(
    2, 2, rng=np.random.default_rng(7)
)
WEIGHTS_1D = repro.box_weights(2, 1)
WEIGHTS_3D = repro.star_weights(1, 3)


# ---------------------------------------------------------------------------
# program path == oracle path, per schedule, per config ablation
# ---------------------------------------------------------------------------
def _assert_three_way(weights, padded, schedule, eager_tiles):
    """Interpreter, eager tile path and vectorized walk agree bit for bit,
    grids and counters, under every config ablation of ``schedule``."""
    for config in _configs(schedule):
        compiled = repro.compile(weights, config=config, cache=None)
        out, ev = compiled.apply_simulated(padded, backend="interpreter")
        with eager_tiles():
            ref_out, ref_ev = compiled.apply_simulated(
                padded, backend="interpreter"
            )
        vec_out, vec_ev = compiled.apply_simulated(
            padded, backend="vectorized"
        )
        assert np.array_equal(out, ref_out)
        assert ev == ref_ev
        assert np.array_equal(out, vec_out)
        assert ev == vec_ev
        assert np.allclose(out, reference_apply(padded, weights), atol=1e-10)


class TestProgramMatchesOracle:
    @pytest.mark.parametrize("schedule", ["eager", "prefetch"])
    def test_2d(self, schedule, eager_tiles):
        padded = _grid((24, 28), WEIGHTS_2D.radius)
        _assert_three_way(WEIGHTS_2D, padded, schedule, eager_tiles)

    @pytest.mark.parametrize("schedule", ["eager", "prefetch"])
    def test_1d(self, schedule, eager_tiles):
        padded = _grid((130,), WEIGHTS_1D.radius)
        _assert_three_way(WEIGHTS_1D, padded, schedule, eager_tiles)

    @pytest.mark.parametrize("schedule", ["eager", "prefetch"])
    def test_3d(self, schedule, eager_tiles):
        padded = _grid((3, 10, 12), WEIGHTS_3D.radius)
        _assert_three_way(WEIGHTS_3D, padded, schedule, eager_tiles)


# ---------------------------------------------------------------------------
# all schedules agree with each other (numerics + counters)
# ---------------------------------------------------------------------------
class TestSchedulesAgree:
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=8, deadline=None)
    def test_2d_random_topological(self, seed):
        padded = _grid((16, 24), WEIGHTS_2D.radius, seed=1)
        base = repro.compile(
            WEIGHTS_2D, config=OptimizationConfig(), cache=None
        )
        out0, ev0 = base.apply_simulated(padded, backend="interpreter")
        config = OptimizationConfig(schedule=_shuffle_name(seed))
        shuffled = repro.compile(WEIGHTS_2D, config=config, cache=None)
        # a different dependence-valid order, same instruction multiset
        assert sorted(
            (i.op,) + i.dst for i in shuffled.program.instrs
        ) == sorted((i.op,) + i.dst for i in base.program.instrs)
        # the vectorized walk shares chain steps across reordered chains
        out1, ev1 = shuffled.apply_simulated(padded, backend="vectorized")
        assert np.array_equal(out0, out1)
        assert ev0 == ev1

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=6, deadline=None)
    def test_1d_random_topological(self, seed):
        padded = _grid((96,), WEIGHTS_1D.radius, seed=1)
        base = repro.compile(
            WEIGHTS_1D, config=OptimizationConfig(), cache=None
        )
        out0, ev0 = base.apply_simulated(padded, backend="interpreter")
        config = OptimizationConfig(schedule=_shuffle_name(seed))
        shuffled = repro.compile(WEIGHTS_1D, config=config, cache=None)
        out1, ev1 = shuffled.apply_simulated(padded, backend="vectorized")
        assert np.array_equal(out0, out1)
        assert ev0 == ev1

    def test_3d_prefetch_equals_eager(self):
        padded = _grid((3, 10, 12), WEIGHTS_3D.radius, seed=2)
        outs, evs = [], []
        for schedule in ("eager", "prefetch", _shuffle_name(12345)):
            config = OptimizationConfig(schedule=schedule)
            compiled = repro.compile(WEIGHTS_3D, config=config, cache=None)
            out, ev = compiled.apply_simulated(padded)
            outs.append(out)
            evs.append(ev)
        assert all(np.array_equal(outs[0], o) for o in outs[1:])
        assert all(evs[0] == e for e in evs[1:])


# ---------------------------------------------------------------------------
# the eager reference wiring itself
# ---------------------------------------------------------------------------
class TestOracleWiring:
    def test_eager_tiles_reach_the_eager_tile_path(self, eager_tiles):
        engine = repro.compile(WEIGHTS_2D, cache=None).plan.engine
        assert engine.tile_source() != engine.tile.compute_tile
        with eager_tiles():
            assert engine.tile_source() == engine.tile.compute_tile

    def test_oracle_counters_match_on_cuda_core_config(self, eager_tiles):
        # no tensor-core program exists: eager and default path are the
        # same eager code, trivially identical
        config = OptimizationConfig(use_tensor_cores=False)
        compiled = repro.compile(WEIGHTS_2D, config=config, cache=None)
        assert compiled.program is None
        padded = _grid((16, 16), WEIGHTS_2D.radius)
        out, ev = compiled.apply_simulated(padded, backend="interpreter")
        with eager_tiles():
            ref_out, ref_ev = compiled.apply_simulated(
                padded, backend="interpreter"
            )
        assert np.array_equal(out, ref_out)
        assert ev == ref_ev

    def test_program_is_exposed_and_scheduled(self):
        compiled = repro.compile(
            WEIGHTS_2D,
            config=OptimizationConfig(schedule="prefetch"),
            cache=None,
        )
        program = compiled.program
        ops = [i.op for i in program.instrs]
        # prefetch hoists every load to the front
        n_loads = ops.count("load_x")
        assert all(op == "load_x" for op in ops[:n_loads])
        assert compiled.schedule == "prefetch"
        assert compiled.lowered.tile.schedule == "prefetch"


# ---------------------------------------------------------------------------
# one prefetch-scheduled tile program == the reference, any radial kernel
# ---------------------------------------------------------------------------
@st.composite
def radial_weights(draw):
    h = draw(st.integers(min_value=1, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return radially_symmetric_weights(h, 2, rng=np.random.default_rng(seed))


class TestProgramProperties:
    @given(radial_weights(), st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=12, deadline=None)
    def test_program_matches_reference(self, w, seed):
        h = w.radius
        tile = RDGTileCompute(decompose(w.as_matrix()), h)
        device = Device()
        warp = device.warp()
        smem = device.shared((tile.k_rows, tile.w_cols))
        rng = np.random.default_rng(seed)
        smem.data[:] = rng.normal(size=smem.shape)
        program = schedule_prefetch(build_tile_program(tile))
        out = execute_program(program, warp, smem, 0, 0)
        ref = reference_apply(smem.data[: 8 + 2 * h, : 8 + 2 * h], w)
        scale = max(1.0, np.abs(ref).max())
        assert np.abs(out - ref[:8, :8]).max() < 1e-10 * scale
