"""Edge-case coverage: extreme shapes, aspect ratios, and misuse."""

import numpy as np
import pytest

from repro.core.engine1d import LoRAStencil1D
from repro.core.engine2d import LoRAStencil2D
from repro.core.engine3d import LoRAStencil3D
from repro.errors import ShapeError
from repro.stencil.kernels import get_kernel
from repro.stencil.reference import reference_apply
from repro.stencil.weights import radially_symmetric_weights


class TestExtremeShapes2D:
    @pytest.mark.parametrize("shape", [(1, 40), (40, 1), (1, 1), (2, 3)])
    def test_degenerate_interiors(self, rng, shape):
        w = get_kernel("Box-2D9P").weights
        eng = LoRAStencil2D(w.as_matrix())
        x = rng.normal(size=(shape[0] + 2, shape[1] + 2))
        ref = reference_apply(x, w)
        assert np.allclose(eng.apply(x), ref, atol=1e-12)
        out, _ = eng.apply_simulated(x)
        assert out.shape == shape
        assert np.allclose(out, ref, atol=1e-12)

    @pytest.mark.parametrize("shape", [(7, 103), (103, 7), (9, 9)])
    def test_prime_aspect_ratios(self, rng, shape):
        w = get_kernel("Box-2D49P").weights
        eng = LoRAStencil2D(w.as_matrix())
        x = rng.normal(size=(shape[0] + 6, shape[1] + 6))
        out, _ = eng.apply_simulated(x)
        assert np.allclose(out, reference_apply(x, w), atol=1e-11)

    def test_exactly_minimum_input(self, rng):
        """Padded input exactly (2h+1)^2: a single output point."""
        w = radially_symmetric_weights(3, 2, rng=rng)
        eng = LoRAStencil2D(w.as_matrix())
        x = rng.normal(size=(7, 7))
        out, _ = eng.apply_simulated(x)
        assert out.shape == (1, 1)
        assert out[0, 0] == pytest.approx(float((w.array * x).sum()), rel=1e-12)


class TestExtremeShapes1D3D:
    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65])
    def test_1d_lengths(self, rng, n):
        w = get_kernel("1D5P").weights
        eng = LoRAStencil1D(w)
        x = rng.normal(size=n + 4)
        out, _ = eng.apply_simulated(x, block=64)
        assert out.shape == (n,)
        assert np.allclose(out, reference_apply(x, w), atol=1e-12)

    @pytest.mark.parametrize(
        "engine,kernel,shape",
        [
            (LoRAStencil1D, "1D5P", (2, 20)),
            (LoRAStencil2D, "Box-2D9P", (2, 10, 10)),
            (LoRAStencil3D, "Heat-3D", (2, 6, 6, 6)),
        ],
    )
    def test_apply_rejects_a_stack(self, rng, engine, kernel, shape):
        """Single-grid apply validates ndim; only apply_stack broadcasts."""
        eng = engine(get_kernel(kernel).weights)
        with pytest.raises(ShapeError, match=f"expected {len(shape) - 1}D"):
            eng.apply(rng.normal(size=shape))

    def test_3d_single_slab(self, rng):
        w = get_kernel("Heat-3D").weights
        eng = LoRAStencil3D(w)
        x = rng.normal(size=(3, 10, 10))  # one output plane
        out, _ = eng.apply_simulated(x)
        assert out.shape == (1, 8, 8)
        assert np.allclose(out, reference_apply(x, w), atol=1e-12)


class TestNumericalExtremes:
    def test_huge_magnitudes(self, rng):
        w = get_kernel("Box-2D9P").weights
        eng = LoRAStencil2D(w.as_matrix())
        x = rng.normal(size=(18, 18)) * 1e150
        ref = reference_apply(x, w)
        out, _ = eng.apply_simulated(x)
        assert np.allclose(out, ref, rtol=1e-12)

    def test_tiny_magnitudes(self, rng):
        w = get_kernel("Box-2D9P").weights
        eng = LoRAStencil2D(w.as_matrix())
        x = rng.normal(size=(18, 18)) * 1e-150
        ref = reference_apply(x, w)
        out, _ = eng.apply_simulated(x)
        assert np.allclose(out, ref, rtol=1e-12, atol=0)

    def test_all_zero_input(self):
        w = get_kernel("Box-2D49P").weights
        eng = LoRAStencil2D(w.as_matrix())
        out, _ = eng.apply_simulated(np.zeros((20, 20)))
        assert np.all(out == 0.0)

    def test_zero_weight_matrix(self, rng):
        eng = LoRAStencil2D(np.zeros((3, 3)))
        assert eng.decomposition.rank == 0
        x = rng.normal(size=(12, 12))
        out, _ = eng.apply_simulated(x)
        assert np.all(out == 0.0)

    def test_integer_input_coerced(self):
        w = get_kernel("Heat-2D").weights
        eng = LoRAStencil2D(w.as_matrix())
        x = np.arange(144, dtype=np.int64).reshape(12, 12)
        out = eng.apply(x)
        assert out.dtype == np.float64
        assert np.allclose(out, reference_apply(x.astype(float), w))
