"""The vector walk's per-thread arena.

Every value of a batched walk lives in one flat float64 buffer per
thread, at an offset planned once per batch geometry; only the grid a
walk returns is fresh memory.  These tests pin what that must not
change: no returned grid aliases the arena, thread ranks sharing one
``VectorProgram`` do not share memory, the walk stays bit-identical to
the interpreter in grids and every ``EventCounters`` field, and a warm
sweep allocates little beyond its output.
"""

import sys
import threading
import tracemalloc

import numpy as np
import pytest

import repro
from repro.core import vectorize
from repro.core.config import OptimizationConfig
from repro.core.engine1d import LoRAStencil1D
from repro.core.engine2d import LoRAStencil2D
from repro.stencil.kernels import get_kernel


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


def _engine(kernel: str, config=None, tile_shape=None):
    weights = get_kernel(kernel).weights
    if weights.ndim == 1:
        return LoRAStencil1D(weights, config=config)
    if tile_shape is None:
        return LoRAStencil2D(weights, config=config)
    return LoRAStencil2D(weights, config=config, tile_shape=tile_shape)


def _padded(engine, shape, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=tuple(s + 2 * engine.radius for s in shape))


def _walk(engine, padded, shape):
    """One ``walk_tiles`` pass over the whole padded input."""
    vector = engine.lowered.vector
    tile = vector.program.tile
    if vector.kind == "1d":
        return vectorize.walk_tiles(
            padded.reshape(1, -1), (1, shape[0]), (1, 64), vector
        )
    return vectorize.walk_tiles(
        padded, shape, (tile.out_rows, tile.out_cols), vector
    )


class TestNoAliasing:
    """A walk's result is the caller's: a later walk never rewrites it."""

    @pytest.mark.parametrize(
        "kernel,shape",
        [("Heat-1D", (300,)), ("Star-2D13P", (37, 53)), ("Box-2D9P", (64, 64))],
    )
    def test_results_survive_a_second_walk(self, kernel, shape):
        engine = _engine(kernel)
        first = _padded(engine, shape, 1)
        grid, _ = engine.apply_simulated(first, backend="vectorized")
        walked = _walk(engine, first, shape)
        kept = grid.copy(), walked.copy()
        engine.apply_simulated(_padded(engine, shape, 2), backend="vectorized")
        _walk(engine, _padded(engine, shape, 3), shape)
        assert np.array_equal(_bits(grid), _bits(kept[0]))
        assert np.array_equal(_bits(walked), _bits(kept[1]))

    @pytest.mark.parametrize(
        "kernel,shape", [("1D5P", (200,)), ("Heat-2D", (40, 24))]
    )
    def test_batch_results_are_fresh(self, kernel, shape, monkeypatch):
        """``execute_batch_1d``/``_2d`` hand back memory no later walk
        writes, whatever view ``walk_tiles`` makes of it."""
        returned = []
        for name in ("execute_batch_1d", "execute_batch_2d"):
            original = getattr(vectorize.VectorProgram, name)

            def spy(self, *args, _original=original, **kw):
                out = _original(self, *args, **kw)
                returned.append((out, out.copy()))
                return out

            monkeypatch.setattr(vectorize.VectorProgram, name, spy)
        engine = _engine(kernel)
        _walk(engine, _padded(engine, shape, 1), shape)
        _walk(engine, _padded(engine, shape, 2), shape)
        assert len(returned) == 2
        out, copy = returned[0]
        assert np.array_equal(_bits(out), _bits(copy))


class TestThreads:
    def test_shared_program_two_shapes_at_once(self):
        """Two threads walk different geometries on one shared program
        at the same time and each gets its serial bits."""
        engine = _engine("Box-2D9P")
        jobs = [
            ((56, 72), _padded(engine, (56, 72), 4)),
            ((21, 90), _padded(engine, (21, 90), 5)),
        ]
        serial = [_walk(engine, padded, shape) for shape, padded in jobs]
        barrier = threading.Barrier(len(jobs))
        failures = []

        def run(i):
            shape, padded = jobs[i]
            barrier.wait(timeout=10)
            for _ in range(30):
                try:
                    got = _walk(engine, padded, shape)
                except Exception as exc:  # a crash in a rank fails the test
                    failures.append((i, exc))
                    return
                if not np.array_equal(_bits(got), _bits(serial[i])):
                    failures.append((i, "bits"))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(len(jobs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert failures == []


#: (kernel, config, tile_shape, interior): BVS off, a 16x8 tile, shapes
#: off the 8-grid (edge tiles overhang and the input is copied into the
#: arena), a kernel with a scalar apex term (Box-2D9P), and 1D
CASES = [
    ("Star-2D13P", OptimizationConfig(use_bvs=False), None, (40, 48)),
    ("Box-2D49P", OptimizationConfig(use_bvs=False), None, (37, 29)),
    ("Star-2D13P", None, (16, 8), (48, 40)),
    ("Heat-2D", None, (16, 8), (35, 21)),
    ("Star-2D13P", None, None, (37, 53)),
    ("Box-2D49P", None, None, (9, 70)),
    ("Box-2D9P", None, None, (64, 64)),
    ("Box-2D9P", None, None, (45, 31)),
    ("Box-2D9P", None, (16, 8), (27, 19)),
    ("Heat-1D", None, None, (300,)),
    ("1D5P", OptimizationConfig(use_bvs=False), None, (77,)),
]


@pytest.mark.parametrize(
    "kernel,config,tile_shape,shape",
    CASES,
    ids=[
        f"{k}-{'nobvs' if c else 'bvs'}-tile{'x'.join(map(str, t or (8, 8)))}-"
        f"{'x'.join(map(str, s))}"
        for k, c, t, s in CASES
    ],
)
def test_walk_matches_interpreter(kernel, config, tile_shape, shape):
    engine = _engine(kernel, config, tile_shape)
    padded = _padded(engine, shape, 6)
    want, want_events = engine.apply_simulated(padded, backend="interpreter")
    # twice: a cold plan, then the warm arena left by the first sweep
    for _ in range(2):
        got, events = engine.apply_simulated(padded, backend="vectorized")
        assert np.array_equal(_bits(got), _bits(want))
        assert events == want_events


def test_warm_sweep_allocates_about_its_output():
    """A warm Star-2D13P 256^2 sweep allocates little beyond the grid it
    returns (it was 6.1x the output while every value was fresh)."""
    compiled = repro.compile(get_kernel("Star-2D13P").weights)
    padded = np.pad(np.random.default_rng(0).normal(size=(256, 256)), 3)
    compiled.apply_simulated(padded, backend="vectorized")
    tracemalloc.start()
    try:
        grid, _ = compiled.apply_simulated(padded, backend="vectorized")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * grid.nbytes
