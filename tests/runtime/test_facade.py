"""The repro.compile facade: apply_grid, deprecations, compatibility."""

import numpy as np
import pytest

import repro
from repro.runtime import DEFAULT_PLAN_CACHE, PlanCache
from repro.stencil.kernels import get_kernel
from repro.stencil.reference import reference_apply


class TestCompileFacade:
    def test_exported_at_top_level(self):
        assert repro.compile is not None
        for name in ("compile", "CompiledStencil", "StencilPlan", "PlanCache"):
            assert name in repro.__all__

    def test_infers_ndim(self):
        assert repro.compile(get_kernel("Heat-1D").weights).ndim == 1
        assert repro.compile(get_kernel("Heat-2D").weights).ndim == 2
        assert repro.compile(get_kernel("Heat-3D").weights).ndim == 3

    def test_apply_matches_engine(self, rng):
        k = get_kernel("Box-2D9P")
        compiled = repro.compile(k.weights)
        x = rng.normal(size=(20, 20))
        np.testing.assert_array_equal(
            compiled.apply(x), compiled.engine.apply(x)
        )

    def test_default_cache_is_shared(self):
        w = get_kernel("Star-2D13P").weights
        a = repro.compile(w)
        b = repro.compile(w)
        assert a.plan is b.plan
        assert a.key in DEFAULT_PLAN_CACHE

    def test_private_cache_isolated(self):
        w = get_kernel("Star-2D13P").weights
        mine = PlanCache(maxsize=2)
        c = repro.compile(w, cache=mine)
        assert c.key in mine
        assert len(mine) == 1


class TestApplyGrid:
    def test_constant_boundary_matches_manual_pad(self, rng):
        k = get_kernel("Box-2D49P")
        compiled = repro.compile(k.weights)
        x = rng.normal(size=(20, 20))
        padded = np.pad(x, k.weights.radius)
        np.testing.assert_array_equal(
            compiled.apply_grid(x), compiled.apply(padded)
        )

    def test_output_shape_matches_input(self, rng):
        for name, shape in [
            ("Heat-1D", (40,)),
            ("Heat-2D", (12, 14)),
            ("Heat-3D", (4, 6, 8)),
        ]:
            compiled = repro.compile(get_kernel(name).weights)
            x = rng.normal(size=shape)
            assert compiled.apply_grid(x).shape == shape

    def test_periodic_boundary(self, rng):
        k = get_kernel("Heat-2D")
        compiled = repro.compile(k.weights)
        x = rng.normal(size=(16, 16))
        h = k.weights.radius
        padded = np.pad(x, h, mode="wrap")
        np.testing.assert_array_equal(
            compiled.apply_grid(x, boundary="periodic"), compiled.apply(padded)
        )

    def test_matches_reference(self, rng):
        k = get_kernel("Box-2D9P")
        compiled = repro.compile(k.weights)
        x = rng.normal(size=(18, 18))
        padded = np.pad(x, k.weights.radius)
        np.testing.assert_allclose(
            compiled.apply_grid(x), reference_apply(padded, k.weights),
            atol=1e-12,
        )


class TestDeprecations:
    def test_direct_construction_does_not_warn(self, recwarn):
        repro.LoRAStencil1D(get_kernel("Heat-1D").weights.as_vector())
        repro.LoRAStencil2D(get_kernel("Heat-2D").weights.as_matrix())
        repro.LoRAStencil3D(get_kernel("Heat-3D").weights)
        assert not [
            w for w in recwarn if issubclass(w.category, DeprecationWarning)
        ]

    def test_lowrank_import_does_not_warn(self, recwarn):
        from repro.core.lowrank import decompose  # noqa: F401

        assert not [
            w for w in recwarn if issubclass(w.category, DeprecationWarning)
        ]

    def test_compile_does_not_warn(self, recwarn):
        repro.compile(get_kernel("Box-2D9P").weights)
        assert not [
            w for w in recwarn if issubclass(w.category, DeprecationWarning)
        ]


class TestBackwardsCompatibility:
    def test_old_engine_still_computes(self, rng):
        """Direct construction computes exactly like the compiled plan."""
        k = get_kernel("Box-2D9P")
        engine = repro.LoRAStencil2D(k.weights.as_matrix())
        x = rng.normal(size=(16, 16))
        np.testing.assert_array_equal(
            engine.apply(x), repro.compile(k.weights).apply(x)
        )

    def test_unknown_attribute_still_raises(self):
        import repro.core

        with pytest.raises(AttributeError):
            repro.core.does_not_exist
