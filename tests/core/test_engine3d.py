"""Tests for the 3D LoRAStencil executor (Algorithm 2)."""

import numpy as np
import pytest

from repro.core.engine3d import LoRAStencil3D
from repro.stencil.kernels import get_kernel
from repro.stencil.reference import reference_apply
from repro.stencil.weights import radially_symmetric_weights


class TestPlaneDispatch:
    def test_heat3d_plane_split(self):
        """Star-3D7P: outer planes are single-weight (CUDA cores), the
        middle plane is a Star-2D5P (tensor cores) — Algorithm 2."""
        eng = LoRAStencil3D(get_kernel("Heat-3D").weights)
        assert eng.cuda_core_planes == [0, 2]
        assert eng.tensor_core_planes == [1]

    def test_box3d_all_planes_on_tcu(self):
        eng = LoRAStencil3D(get_kernel("Box-3D27P").weights)
        assert eng.tensor_core_planes == [0, 1, 2]
        assert eng.cuda_core_planes == []

    def test_2d_weights_rejected(self):
        with pytest.raises(ValueError):
            LoRAStencil3D(get_kernel("Box-2D9P").weights)

    def test_non_cube_rejected(self):
        with pytest.raises(ValueError):
            LoRAStencil3D(np.ones((3, 3, 5)))


class TestFunctional:
    @pytest.mark.parametrize("name", ["Heat-3D", "Box-3D27P"])
    def test_matches_reference(self, rng, name):
        w = get_kernel(name).weights
        eng = LoRAStencil3D(w)
        x = rng.normal(size=(7 + 2, 15 + 2, 18 + 2))
        assert np.allclose(eng.apply(x), reference_apply(x, w), atol=1e-12)

    def test_radius2_kernel(self, rng):
        w = radially_symmetric_weights(2, 3, rng=rng)
        eng = LoRAStencil3D(w)
        x = rng.normal(size=(5 + 4, 10 + 4, 12 + 4))
        assert np.allclose(eng.apply(x), reference_apply(x, w), atol=1e-12)

    @pytest.mark.parametrize("name", ["Heat-3D", "Box-3D27P"])
    def test_stacked_planes_match_per_slab_loop(self, rng, name):
        """One 2D kernel call per plane over its whole slab stack is
        bit-identical to one call per output slab."""
        eng = LoRAStencil3D(get_kernel(name).weights)
        zs, rs, cs = 6, 9, 11
        x = rng.normal(size=(zs + 2, rs + 2, cs + 2))
        expected = np.zeros((zs, rs, cs))
        for task in eng.planes:
            if task.pointwise is not None:
                pi, pj, wt = task.pointwise
                expected += wt * x[
                    task.index : task.index + zs, pi : pi + rs, pj : pj + cs
                ]
            elif task.engine is not None:
                for z in range(zs):
                    expected[z] += task.engine.apply(x[z + task.index])
        np.testing.assert_array_equal(eng.apply(x), expected)

    def test_too_small_rejected(self, rng):
        eng = LoRAStencil3D(get_kernel("Heat-3D").weights)
        with pytest.raises(ValueError):
            eng.apply(rng.normal(size=(2, 8, 8)))


class TestSimulated:
    @pytest.mark.parametrize("name", ["Heat-3D", "Box-3D27P"])
    def test_matches_reference(self, rng, name):
        w = get_kernel(name).weights
        eng = LoRAStencil3D(w)
        x = rng.normal(size=(4 + 2, 11 + 2, 14 + 2))
        out, _ = eng.apply_simulated(x)
        assert np.allclose(out, reference_apply(x, w), atol=1e-12)

    def test_pointwise_planes_skip_tcu(self, rng):
        """Heat-3D's outer planes generate CUDA-core FLOPs but only the
        middle plane generates MMA instructions."""
        heat = LoRAStencil3D(get_kernel("Heat-3D").weights)
        box = LoRAStencil3D(get_kernel("Box-3D27P").weights)
        x = rng.normal(size=(4 + 2, 10 + 2, 10 + 2))
        _, c_heat = heat.apply_simulated(x)
        _, c_box = box.apply_simulated(x)
        assert c_heat.cuda_core_flops > 0
        assert c_heat.mma_ops > 0
        # the box kernel runs 3 TCU planes to heat's single (rank-2) one
        assert c_box.mma_ops > c_heat.mma_ops

    def test_non_3d_input_rejected(self, rng):
        eng = LoRAStencil3D(get_kernel("Heat-3D").weights)
        with pytest.raises(ValueError):
            eng.apply_simulated(rng.normal(size=(8, 8)))
