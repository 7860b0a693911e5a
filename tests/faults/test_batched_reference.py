"""The ABFT guard's batched vector-walk reference.

A guarded tensor-core sweep takes every tile's reference from one
batched walk of the engine's ``VectorProgram`` over the sweep's padded
input (``repro.core.vectorize.walk_tiles``), not from a per-tile oracle
replay.  Tolerance-0 verification rests on the two being bitwise equal
on every *full* tile, grid-overhanging outputs included.  CUDA-core
configs have no program to batch and no MMA to fault: their guard only
scrubs staging.
"""

import numpy as np
import pytest

import repro
from repro.core.config import OptimizationConfig
from repro.core.engine1d import LoRAStencil1D
from repro.core.engine2d import LoRAStencil2D
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.core import vectorize
from repro.faults.abft import SweepGuard
from repro.stencil.kernels import get_kernel
from repro.tcu.counters import EventCounters
from repro.tcu.warp import Warp

#: (kernel, interior shape): shapes off the 8-grid and below one tile,
#: and sweeps of several blocks (1D blocks are 1024 outputs, 2D 32x64)
CASES = [
    ("1D5P", (100,)),
    ("1D5P", (5,)),
    ("1D5P", (2100,)),
    ("Heat-1D", (130,)),
    ("Box-2D9P", (37, 53)),
    ("Box-2D9P", (8, 8)),
    ("Box-2D9P", (5, 3)),
    ("Box-2D9P", (70, 140)),
    ("Star-2D13P", (37, 53)),
    ("Box-2D49P", (21, 19)),
    ("Heat-2D", (12, 30)),
    ("Box-3D27P", (3, 11, 13)),
]


@pytest.fixture
def recorded_references(monkeypatch):
    """Record, for every checked tile, the guard's reference (a slice
    of the sweep's walk) and the per-tile oracle replay of the same
    tile."""
    pairs = []
    original = SweepGuard.check_tile

    def check_tile(self, out_tile, compute_tile, warp, smem, tr, tc, block, **kw):
        assert self.walk is not None, "a tensor-core sweep must batch"
        batched = self.reference(tr, tc, block, out_tile.shape)
        oracle = self.oracle(Warp(EventCounters()), smem, tr, tc)
        pairs.append((batched.copy(), oracle))
        return original(
            self, out_tile, compute_tile, warp, smem, tr, tc, block, **kw
        )

    monkeypatch.setattr(SweepGuard, "check_tile", check_tile)
    return pairs


def _padded(shape, radius, seed):
    """A random padded grid; its halo is nonzero too, so a reference
    that dropped or shifted the halo would differ."""
    rng = np.random.default_rng(seed)
    return rng.normal(size=tuple(s + 2 * radius for s in shape))


def _n_tiles(shape, tile):
    return int(np.prod([-(-s // t) for s, t in zip(shape, tile)]))


@pytest.mark.parametrize("use_bvs", [True, False], ids=["bvs", "naive"])
@pytest.mark.parametrize(
    "kernel_name,shape", CASES, ids=[f"{k}-{'x'.join(map(str, s))}" for k, s in CASES]
)
def test_batched_reference_equals_oracle_replay(
    kernel_name, shape, use_bvs, recorded_references
):
    k = get_kernel(kernel_name)
    compiled = repro.compile(k.weights, config=OptimizationConfig(use_bvs=use_bvs))
    x = _padded(shape, compiled.radius, seed=7)
    out, _ = compiled.apply_simulated(x, verify="abft", backend="interpreter")
    assert np.array_equal(out, compiled.apply_simulated(x, backend="interpreter")[0])
    assert compiled.last_fault_report.total_detected == 0
    assert recorded_references
    for batched, oracle in recorded_references:
        assert batched.shape == oracle.shape
        assert np.array_equal(batched, oracle)
    if len(shape) == 1:
        assert len(recorded_references) == _n_tiles(shape, (64,))
    elif len(shape) == 2:
        assert len(recorded_references) == _n_tiles(shape, (8, 8))


@pytest.mark.parametrize("shape", [(20, 12), (16, 8), (5, 3)])
def test_batched_reference_rectangular_tiles(shape, recorded_references):
    compiled = repro.compile(get_kernel("Star-2D13P").weights, tile_shape=(16, 8))
    x = _padded(shape, compiled.radius, seed=3)
    compiled.apply_simulated(x, verify="abft", backend="interpreter")
    assert len(recorded_references) == _n_tiles(shape, (16, 8))
    for batched, oracle in recorded_references:
        assert batched.shape == oracle.shape == (16, 8)
        assert np.array_equal(batched, oracle)


@pytest.mark.parametrize(
    "kernel_name,shape,grid_shape",
    [("Box-2D9P", (70, 140), (72, 144)), ("1D5P", (2100,), (1, 2112))],
)
def test_guard_walks_the_sweep_once(kernel_name, shape, grid_shape, monkeypatch):
    """A sweep of several blocks (9 in 2D, 3 in 1D) walks once: one
    grid of the whole sweep's full tiles, which every block slices."""
    grids = []
    original = vectorize.walk_tiles

    def walk_tiles(*args, **kw):
        grid = original(*args, **kw)
        grids.append(grid.shape)
        return grid

    monkeypatch.setattr(vectorize, "walk_tiles", walk_tiles)
    compiled = repro.compile(get_kernel(kernel_name).weights)
    x = _padded(shape, compiled.radius, seed=11)
    out, _ = compiled.apply_simulated(x, verify="abft", backend="interpreter")
    assert np.array_equal(out, compiled.apply_simulated(x, backend="interpreter")[0])
    assert grids == [grid_shape]


@pytest.fixture
def oracle_calls(monkeypatch):
    """Count every call of an oracle tile provider the engines hand out."""
    calls = []

    def counting(cls):
        original = cls.tile_source

        def tile_source(self, oracle=False):
            source = original(self, oracle=oracle)
            if not oracle:
                return source

            def counted(*args):
                calls.append(args[2:])
                return source(*args)

            return counted

        monkeypatch.setattr(cls, "tile_source", tile_source)

    counting(LoRAStencil1D)
    counting(LoRAStencil2D)
    return calls


@pytest.mark.parametrize(
    "kernel_name,shape", [("1D5P", (200,)), ("Box-2D9P", (37, 53)), ("Heat-3D", (3, 10, 9))]
)
def test_clean_tensor_core_verify_never_replays_the_oracle(
    kernel_name, shape, oracle_calls
):
    compiled = repro.compile(get_kernel(kernel_name).weights)
    x = _padded(shape, compiled.radius, seed=5)
    out, events = compiled.apply_simulated(x, verify="abft", backend="interpreter")
    assert oracle_calls == []
    plain, plain_events = compiled.apply_simulated(x, backend="interpreter")
    assert np.array_equal(out, plain)
    assert events == plain_events


def test_cuda_core_config_scrubs_staging_only(
    oracle_calls,
):
    shape = (20, 12)
    compiled = repro.compile(
        get_kernel("Box-2D9P").weights,
        config=OptimizationConfig(use_tensor_cores=False),
    )
    x = _padded(shape, compiled.radius, seed=9)
    clean, clean_events = compiled.apply_simulated(x, backend="interpreter")
    out, events = compiled.apply_simulated(x, verify="abft", backend="interpreter")
    assert oracle_calls == []  # no per-tile replay
    assert np.array_equal(out, clean)
    assert events == clean_events  # no replay re-reads shared memory

    inj = FaultInjector(FaultPlan(specs=(FaultSpec(kind="flip_smem", site=0, lane=40),)))
    out, _ = compiled.apply_simulated(
        x, verify="abft", faults=inj, backend="interpreter"
    )
    report = inj.report.as_dict()
    assert report["injected_total"] == 1
    assert report["detected"]["stage"] == 1
    assert report["recovered"]["restage"] == 1
    assert report["unrecovered"] == 0
    assert np.array_equal(out, clean)
    assert oracle_calls == []


class TestTileComparisonDecidesAsChecksums:
    """``check_tile`` passes a tile equal to its reference without
    summing; every verdict must still be the checksum comparison's."""

    def _guard(self, grid):
        def oracle(warp, smem, tr, tc):
            return grid[tr : tr + 8, tc : tc + 8].copy()

        return SweepGuard(oracle, walk=lambda: grid)

    def _check(self, guard, tile, recompute):
        return guard.check_tile(
            tile, lambda *a: recompute.copy(), None, None, 0, 0, block=(0, 0)
        )

    def test_equal_tile_passes(self):
        grid = np.random.default_rng(1).normal(size=(8, 8))
        guard = self._guard(grid)
        self._check(guard, grid.copy(), grid)
        assert guard.report.counts["tile_detections"] == 0

    def test_checksum_preserving_change_is_benign(self):
        """A tile that differs from its reference but keeps every row
        and column sum passes, as the checksum guard always let it."""
        grid = np.arange(64.0).reshape(8, 8)
        tile = grid.copy()
        tile[0, 0] += 1.0
        tile[1, 1] += 1.0
        tile[0, 1] -= 1.0
        tile[1, 0] -= 1.0
        guard = self._guard(grid)
        assert self._check(guard, tile, grid) is tile
        assert guard.report.counts["tile_detections"] == 0

    def test_overflowing_checksum_still_flags_an_equal_tile(self):
        """Above the overflow bound an equal tile's checksums can be NaN
        (+Inf + -Inf); the guard then compares checksums as before and
        detects, although the tile equals its reference."""
        grid = np.zeros((8, 8))
        grid[0, :4] = 1.5e308
        grid[0, 4:] = -1.5e308
        guard = self._guard(grid)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(repro.errors.FaultError):
                self._check(guard, grid.copy(), grid)
        assert guard.report.counts["tile_detections"] == 1
