"""Tests for multi-accumulator output tiles (beyond the paper's 8x8)."""

import numpy as np
import pytest

from repro.core.config import OptimizationConfig
from repro.core.engine2d import LoRAStencil2D
from repro.core.lowrank import decompose
from repro.core.rdg import RDGTileCompute
from repro.stencil.reference import reference_apply
from repro.stencil.weights import box_weights, radially_symmetric_weights

TILE_SHAPES = [(8, 8), (8, 16), (16, 8), (16, 16), (24, 16)]


class TestGeometry:
    def test_invalid_tile_shapes_rejected(self, rng):
        w = radially_symmetric_weights(1, 2, rng=rng).as_matrix()
        d = decompose(w)
        for bad in [(4, 8), (8, 12), (0, 8), (8, 0)]:
            with pytest.raises(ValueError):
                RDGTileCompute(d, 1, out_rows=bad[0], out_cols=bad[1])

    @pytest.mark.parametrize("ts", TILE_SHAPES)
    def test_window_covers_tile(self, rng, ts):
        w = radially_symmetric_weights(3, 2, rng=rng).as_matrix()
        tile = RDGTileCompute(decompose(w), 3, out_rows=ts[0], out_cols=ts[1])
        assert tile.k_rows >= ts[0] + 6
        assert tile.w_cols >= ts[1] + 6
        assert tile.points_per_tile == ts[0] * ts[1]

    def test_larger_tiles_load_fewer_fragments_per_point(self, rng):
        """The reuse argument for the "ideal 2h x 2h" tile: loads/point
        decrease monotonically as the tile grows."""
        w = radially_symmetric_weights(4, 2, rng=rng).as_matrix()
        d = decompose(w)
        rates = []
        for ts in [(8, 8), (16, 16), (24, 24)]:
            tile = RDGTileCompute(d, 4, out_rows=ts[0], out_cols=ts[1])
            rates.append(tile.fragment_loads_per_tile / tile.points_per_tile)
        assert rates == sorted(rates, reverse=True)

    def test_default_is_paper_config(self, rng):
        w = radially_symmetric_weights(3, 2, rng=rng).as_matrix()
        tile = RDGTileCompute(decompose(w), 3)
        assert (tile.out_rows, tile.out_cols) == (8, 8)
        assert tile.mma_per_tile == 36


def _simulate(eng, x):
    """Interpreter sweep, checked bit for bit against the vectorized
    backend (grid and EventCounters); returns the interpreter's."""
    out, cnt = eng.apply_simulated(x, backend="interpreter")
    vec_out, vec_cnt = eng.apply_simulated(x, backend="vectorized")
    assert np.array_equal(vec_out, out)
    assert vec_cnt == cnt
    return out, cnt


class TestCorrectness:
    """Every tensor-core sweep runs on both backends (see ``_simulate``)."""

    @pytest.mark.parametrize("ts", TILE_SHAPES)
    @pytest.mark.parametrize("h", [1, 3])
    def test_simulated_matches_reference(self, rng, ts, h):
        w = radially_symmetric_weights(h, 2, rng=rng)
        eng = LoRAStencil2D(w.as_matrix(), tile_shape=ts)
        x = rng.normal(size=(27 + 2 * h, 34 + 2 * h))
        out, _ = _simulate(eng, x)
        assert np.allclose(out, reference_apply(x, w), atol=1e-11)

    @pytest.mark.parametrize("ts", TILE_SHAPES)
    def test_svd_kernel_on_ragged_grid(self, rng, ts):
        # a non-symmetric 7x7 kernel decomposes by SVD, not by pyramid
        w = box_weights(3, 2, rng=rng)
        eng = LoRAStencil2D(w.as_matrix(), tile_shape=ts)
        x = rng.normal(size=(13 + 6, 37 + 6))
        out, _ = _simulate(eng, x)
        assert np.allclose(out, reference_apply(x, w), atol=1e-11)

    @pytest.mark.parametrize("ts", [(16, 16), (8, 16)])
    def test_without_bvs(self, rng, ts):
        w = radially_symmetric_weights(2, 2, rng=rng)
        eng = LoRAStencil2D(
            w.as_matrix(),
            config=OptimizationConfig(use_bvs=False),
            tile_shape=ts,
        )
        x = rng.normal(size=(20, 24))
        out, cnt = _simulate(eng, x)
        assert np.allclose(out, reference_apply(x, w), atol=1e-11)
        assert cnt.shuffle_ops > 0

    def test_cuda_path_with_large_tile(self, rng):
        w = radially_symmetric_weights(2, 2, rng=rng)
        eng = LoRAStencil2D(
            w.as_matrix(),
            config=OptimizationConfig(use_tensor_cores=False),
            tile_shape=(16, 16),
        )
        x = rng.normal(size=(20, 24))
        out, _ = eng.apply_simulated(x)
        assert np.allclose(out, reference_apply(x, w), atol=1e-11)

    def test_mma_counter_matches_model(self, rng):
        w = radially_symmetric_weights(3, 2, rng=rng)
        eng = LoRAStencil2D(w.as_matrix(), tile_shape=(16, 16))
        x = rng.normal(size=(32 + 6, 32 + 6))
        _, cnt = _simulate(eng, x)
        tiles = (32 // 16) * (32 // 16)
        assert cnt.mma_ops == tiles * eng.tile.mma_per_tile
