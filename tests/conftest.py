"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG, fresh per test."""
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture
def rng2() -> np.random.Generator:
    """A second independent deterministic RNG."""
    return np.random.default_rng(0xBEEF)
