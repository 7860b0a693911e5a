"""Shared fixtures for the test suite."""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from unittest import mock

import numpy as np
import pytest

from repro.core.engine1d import LoRAStencil1D
from repro.core.engine2d import LoRAStencil2D


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG, fresh per test."""
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture
def rng2() -> np.random.Generator:
    """A second independent deterministic RNG."""
    return np.random.default_rng(0xBEEF)


@pytest.fixture
def eager_tiles():
    """A context manager under which every interpreter sweep computes its
    tiles through the engines' eager tile path (``tile_source(oracle=True)``,
    the ABFT fallback) instead of the lowered program — the reference the
    schedule-equivalence suite holds both backends to.  The 3D engine
    sweeps its planes through :class:`LoRAStencil2D`, so two patches
    cover every dimension."""

    @contextmanager
    def patched():
        with ExitStack() as stack:
            for cls in (LoRAStencil1D, LoRAStencil2D):
                original = cls.tile_source
                stack.enter_context(
                    mock.patch.object(
                        cls,
                        "tile_source",
                        lambda self, oracle=False, _src=original: _src(
                            self, oracle=True
                        ),
                    )
                )
            yield

    return patched
