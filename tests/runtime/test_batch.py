"""Vectorized batch execution equals looped single-grid execution."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.runtime import compile as compile_stencil
from repro.stencil.kernels import get_kernel

BATCH = 5


def _batch_for(kernel_name: str, rng, interior):
    k = get_kernel(kernel_name)
    h = k.weights.radius
    shape = tuple(s + 2 * h for s in interior)
    compiled = compile_stencil(k.weights)
    grids = rng.normal(size=(BATCH, *shape))
    return compiled, grids


class TestApplyBatchEquality:
    @pytest.mark.parametrize(
        "kernel,interior",
        [
            ("Heat-1D", (200,)),
            ("1D5P", (150,)),
            ("Heat-2D", (20, 24)),
            ("Box-2D49P", (17, 23)),
            ("Heat-3D", (5, 10, 12)),
            ("Box-3D27P", (4, 9, 11)),
        ],
    )
    def test_matches_looped_apply(self, kernel, interior, rng):
        compiled, grids = _batch_for(kernel, rng, interior)
        batched = compiled.apply_batch(grids)
        looped = np.stack([compiled.apply(g) for g in grids])
        np.testing.assert_array_equal(batched, looped)
        assert batched.shape == (BATCH, *interior)

    def test_accepts_list_of_grids(self, rng):
        compiled, grids = _batch_for("Heat-2D", rng, (12, 12))
        np.testing.assert_array_equal(
            compiled.apply_batch(list(grids)), compiled.apply_batch(grids)
        )

    def test_matches_reference(self, rng):
        from repro.stencil.reference import reference_apply

        k = get_kernel("Star-2D13P")
        compiled, grids = _batch_for("Star-2D13P", rng, (14, 15))
        batched = compiled.apply_batch(grids)
        for i, g in enumerate(grids):
            np.testing.assert_allclose(
                batched[i], reference_apply(g, k.weights), atol=1e-12
            )


class TestBatchValidation:
    def test_empty_batch_rejected(self):
        compiled = compile_stencil(get_kernel("Heat-2D").weights)
        with pytest.raises(ShapeError):
            compiled.apply_batch([])
        with pytest.raises(ShapeError):
            compiled.apply_batch(np.empty((0, 10, 10)))

    def test_mixed_shapes_rejected(self, rng):
        compiled = compile_stencil(get_kernel("Heat-2D").weights)
        with pytest.raises(ShapeError):
            compiled.apply_batch(
                [rng.normal(size=(10, 10)), rng.normal(size=(12, 12))]
            )

    def test_wrong_rank_rejected(self, rng):
        compiled = compile_stencil(get_kernel("Heat-2D").weights)
        with pytest.raises(ShapeError):
            compiled.apply_batch(rng.normal(size=(2, 3, 10, 10)))

    def test_too_small_rejected(self, rng):
        compiled = compile_stencil(get_kernel("Box-2D49P").weights)
        with pytest.raises(ShapeError):
            compiled.apply_batch(rng.normal(size=(2, 6, 6)))
