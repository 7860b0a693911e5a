"""The typed exception hierarchy and its backwards compatibility."""

import numpy as np
import pytest

import repro
from repro.errors import (
    DecompositionError,
    KernelNotFoundError,
    ReproError,
    ShapeError,
)


class TestHierarchy:
    def test_common_base(self):
        for exc in (KernelNotFoundError, DecompositionError, ShapeError):
            assert issubclass(exc, ReproError)

    def test_builtin_compat_bases(self):
        """Old `except ValueError` / `except KeyError` code keeps working."""
        assert issubclass(ShapeError, ValueError)
        assert issubclass(DecompositionError, ValueError)
        assert issubclass(KernelNotFoundError, KeyError)

    def test_pivot_error_is_decomposition_error(self):
        from repro.core.lowrank import PivotError

        assert issubclass(PivotError, DecompositionError)

    def test_kernel_not_found_str_is_plain(self):
        # KeyError.__str__ would repr-quote the message
        assert str(KernelNotFoundError("no such kernel")) == "no such kernel"

    def test_exported_at_top_level(self):
        for name in (
            "ReproError",
            "KernelNotFoundError",
            "DecompositionError",
            "ShapeError",
        ):
            assert name in repro.__all__


class TestRaisedFromRegistries:
    def test_get_kernel(self):
        with pytest.raises(KernelNotFoundError, match="unknown benchmark"):
            repro.get_kernel("Nope-99P")

    def test_get_extended_kernel(self):
        from repro.stencil.extended import get_extended_kernel

        with pytest.raises(KernelNotFoundError, match="unknown extended"):
            get_extended_kernel("Nope-99P")

    def test_old_key_error_handler_still_catches(self):
        with pytest.raises(KeyError):
            repro.get_kernel("Nope-99P")


class TestRaisedFromDecomposition:
    def test_pyramidal_shape_error(self):
        from repro.core.lowrank import pyramidal_decompose

        with pytest.raises(ShapeError):
            pyramidal_decompose(np.ones((3, 5)))

    def test_svd_shape_error(self):
        from repro.core.lowrank import svd_decompose

        with pytest.raises(ShapeError):
            svd_decompose(np.ones((4, 4)))

    def test_asymmetric_matrix_pivot_error(self):
        from repro.core.lowrank import PivotError, pyramidal_decompose

        w = np.arange(9.0).reshape(3, 3)
        with pytest.raises(PivotError):
            pyramidal_decompose(w)
        # ...which old code caught as ValueError
        with pytest.raises(ValueError):
            pyramidal_decompose(w)


class TestRaisedFromEngines:
    def test_engine_constructors_shape_error(self):
        with pytest.raises(ShapeError):
            repro.LoRAStencil1D(np.ones(4))
        with pytest.raises(ShapeError):
            repro.LoRAStencil2D(np.ones((3, 5)))
        with pytest.raises(ShapeError):
            repro.LoRAStencil3D(np.ones((3, 3, 5)))

    def test_apply_shape_error(self, rng):
        compiled = repro.compile(repro.get_kernel("Heat-2D").weights)
        with pytest.raises(ShapeError):
            compiled.apply(rng.normal(size=(10,)))
        with pytest.raises(ShapeError):
            compiled.apply(rng.normal(size=(2, 2)))

    def test_old_value_error_handler_still_catches(self, rng):
        compiled = repro.compile(repro.get_kernel("Heat-2D").weights)
        with pytest.raises(ValueError):
            compiled.apply(rng.normal(size=(10,)))
