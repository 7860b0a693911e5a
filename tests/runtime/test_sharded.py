"""Sharded simulated execution: numerics and merged counters."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.runtime import compile as compile_stencil
from repro.runtime.executor import _shard_bounds
from repro.stencil.kernels import get_kernel


class TestShardBounds:
    def test_covers_range_contiguously(self):
        bounds = _shard_bounds(100, 3, align=8)
        assert bounds[0][0] == 0
        assert bounds[-1][1] == 100
        for (_, e0), (s1, _) in zip(bounds, bounds[1:]):
            assert e0 == s1

    def test_alignment(self):
        for start, end in _shard_bounds(100, 3, align=8)[:-1]:
            assert (end - start) % 8 == 0

    def test_degenerate_single_shard(self):
        assert _shard_bounds(10, 4, align=64) == [(0, 10)]


class TestShardedSimulated:
    @pytest.mark.parametrize(
        "kernel,interior,shards",
        [
            ("Heat-1D", (256,), 2),
            ("Box-2D49P", (24, 24), 3),
            ("Heat-3D", (6, 10, 10), 2),
            ("1D5P", (200,), 4),
            ("Box-3D27P", (5, 9, 11), 4),
        ],
    )
    def test_matches_unsharded(self, kernel, interior, shards, rng):
        k = get_kernel(kernel)
        h = k.weights.radius
        compiled = compile_stencil(k.weights)
        x = rng.normal(size=tuple(s + 2 * h for s in interior))

        single, counters_single = compiled.apply_simulated(x)
        sharded, counters_sharded = compiled.apply_simulated(x, shards=shards)

        np.testing.assert_array_equal(sharded, single)
        # tile-aligned shards compute exactly the same warp tiles
        assert counters_sharded.mma_ops == counters_single.mma_ops
        assert (
            counters_sharded.shared_load_requests
            == counters_single.shared_load_requests
        )

    def test_counters_sum_over_shards(self, rng):
        """The merged footprint is the sum of the per-shard sweeps."""
        k = get_kernel("Box-2D9P")
        h = k.weights.radius
        compiled = compile_stencil(k.weights)
        x = rng.normal(size=(16 + 2 * h, 16 + 2 * h))
        _, merged = compiled.apply_simulated(x, shards=2)

        total = 0
        for s0, s1 in _shard_bounds(16, 2, compiled.engine.tile.out_rows):
            _, c = compiled.apply_simulated(x[s0 : s1 + 2 * h])
            total += c.mma_ops
        assert merged.mma_ops == total

    @pytest.mark.parametrize("shards", [0, -2, 2.5, True, "2", None])
    def test_invalid_shards_rejected(self, shards, rng):
        compiled = compile_stencil(get_kernel("Heat-2D").weights)
        with pytest.raises(ShapeError, match="shards"):
            compiled.apply_simulated(rng.normal(size=(20, 20)), shards=shards)

    def test_shards_one_equals_plain(self, rng):
        k = get_kernel("Heat-2D")
        compiled = compile_stencil(k.weights)
        x = rng.normal(size=(20, 20))
        a, ca = compiled.apply_simulated(x)
        b, cb = compiled.apply_simulated(x, shards=1)
        np.testing.assert_array_equal(a, b)
        assert ca.mma_ops == cb.mma_ops
