"""Tests for 3D pencil decompositions on the cluster runtime.

A ``(1, P, Q)`` mesh keeps the vertical axis whole on every device (the
pencil decomposition of RTM / weather codes); halo bytes come from the
exchanger's ledger like every other cluster run.
"""

import numpy as np
import pytest

from repro.parallel import ClusterRuntime, distribute, temporal_halo_bytes
from repro.stencil.kernels import get_kernel
from repro.stencil.reference import reference_iterate


def pencils(w, shape, mesh, **kwargs) -> ClusterRuntime:
    return ClusterRuntime(distribute(w, shape, (1, *mesh), **kwargs))


class TestCluster3D:
    @pytest.mark.parametrize("mesh", [(1, 1), (2, 2), (2, 3)])
    @pytest.mark.parametrize("boundary", ["constant", "periodic"])
    def test_trajectory_matches_reference(self, rng, mesh, boundary):
        w = get_kernel("Heat-3D").weights
        x = rng.normal(size=(6, 12, 18))
        out = pencils(w, x.shape, mesh, boundary=boundary).run(x, 3).field
        ref = reference_iterate(x, w, 3, boundary=boundary)
        assert np.allclose(out, ref, atol=1e-10)

    def test_box_kernel(self, rng):
        w = get_kernel("Box-3D27P").weights
        x = rng.normal(size=(5, 10, 14))
        out = pencils(w, x.shape, (2, 2)).run(x, 2).field
        ref = reference_iterate(x, w, 2)
        assert np.allclose(out, ref, atol=1e-10)

    def test_scatter_gather_round_trip(self, rng):
        w = get_kernel("Heat-3D").weights
        x = rng.normal(size=(4, 8, 12))
        cluster = pencils(w, x.shape, (2, 3))
        assert np.array_equal(cluster.gather(cluster.scatter(x)), x)

    def test_pencils_keep_z_whole(self, rng):
        w = get_kernel("Heat-3D").weights
        cluster = pencils(w, (6, 12, 12), (2, 2))
        blocks = cluster.scatter(rng.normal(size=(6, 12, 12)))
        for block in blocks.values():
            assert block.shape[0] == 6

    def test_halo_bytes_scale_with_depth(self):
        w = get_kernel("Heat-3D").weights
        shallow = pencils(w, (4, 16, 16), (2, 2)).halo
        deep = pencils(w, (16, 16, 16), (2, 2)).halo
        assert deep.bytes_per_exchange(0) > shallow.bytes_per_exchange(0)
        # proportional to pencil depth: z stays whole on every device,
        # so no z halo crosses the interconnect
        ratio = deep.bytes_per_exchange(0) / shallow.bytes_per_exchange(0)
        assert ratio == pytest.approx(16 / 4)

    def test_single_device_no_traffic(self, rng):
        w = get_kernel("Heat-3D").weights
        x = rng.normal(size=(4, 8, 8))
        result = pencils(w, x.shape, (1, 1)).run(x, 2)
        assert result.exchanged_bytes == 0

    def test_exchanged_bytes_accumulate(self, rng):
        w = get_kernel("Heat-3D").weights
        x = rng.normal(size=(4, 8, 8))
        cluster = pencils(w, x.shape, (2, 2))
        first = cluster.run(x, 2).exchanged_bytes
        second = cluster.run(x, 2).exchanged_bytes
        # the shared exchanger's ledger spans every run of the runtime
        assert first == second > 0
        assert cluster.halo.exchanged_bytes == first + second

    @pytest.mark.parametrize("block_steps", [1, 2, 4])
    def test_ledgers_reconcile(self, rng, block_steps):
        w = get_kernel("Heat-3D").weights
        x = rng.normal(size=(4, 16, 16))
        cluster = pencils(w, x.shape, (2, 2))
        result = cluster.run(x, 4, block_steps=block_steps)
        logged = sum(entry["halo_bytes"] for entry in result.round_log)
        _, modelled = temporal_halo_bytes(cluster, 4, block_steps)
        assert result.exchanged_bytes == logged
        assert result.exchanged_bytes == modelled

    def test_2d_weights_rejected(self):
        with pytest.raises(ValueError):
            pencils(get_kernel("Heat-2D").weights, (4, 8, 8), (1, 1))

    def test_bad_boundary_rejected(self):
        with pytest.raises(ValueError):
            pencils(
                get_kernel("Heat-3D").weights, (4, 8, 8), (1, 1), boundary="edge"
            )

    def test_field_shape_checked(self, rng):
        w = get_kernel("Heat-3D").weights
        cluster = pencils(w, (4, 8, 8), (1, 1))
        with pytest.raises(ValueError):
            cluster.scatter(rng.normal(size=(4, 8, 9)))
