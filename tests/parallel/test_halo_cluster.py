"""Tests for halo exchange and 2D cluster runs."""

import numpy as np
import pytest

from repro.parallel import ClusterRuntime, HaloExchanger, distribute, partition
from repro.stencil.kernels import get_kernel
from repro.stencil.reference import reference_iterate


class TestHaloExchange:
    def test_windows_match_global_pad_constant(self, rng):
        part = partition((12, 16), (2, 2))
        ex = HaloExchanger(part, radius=2, boundary="constant")
        field = rng.normal(size=(12, 16))
        blocks = {
            s.rank: field[s.row_slice, s.col_slice].copy()
            for s in part.subdomains
        }
        windows = ex.exchange(blocks)
        padded = np.pad(field, 2)
        for s in part.subdomains:
            expected = padded[
                s.row_slice.start : s.row_slice.stop + 4,
                s.col_slice.start : s.col_slice.stop + 4,
            ]
            assert np.array_equal(windows[s.rank], expected)

    def test_windows_match_global_pad_periodic(self, rng):
        part = partition((12, 16), (2, 2))
        ex = HaloExchanger(part, radius=1, boundary="periodic")
        field = rng.normal(size=(12, 16))
        blocks = {
            s.rank: field[s.row_slice, s.col_slice].copy()
            for s in part.subdomains
        }
        windows = ex.exchange(blocks)
        padded = np.pad(field, 1, mode="wrap")
        for s in part.subdomains:
            expected = padded[
                s.row_slice.start : s.row_slice.stop + 2,
                s.col_slice.start : s.col_slice.stop + 2,
            ]
            assert np.array_equal(windows[s.rank], expected)

    def test_single_device_no_traffic(self):
        part = partition((8, 8), (1, 1))
        ex = HaloExchanger(part, radius=1, boundary="constant")
        assert ex.bytes_per_exchange(0) == 0

    def test_single_device_periodic_wrap_is_local(self):
        part = partition((8, 8), (1, 1))
        ex = HaloExchanger(part, radius=1, boundary="periodic")
        assert ex.bytes_per_exchange(0) == 0

    def test_constant_traffic_is_interior_edges_only(self):
        """2x1 mesh of 8x8 blocks, radius 1: each device receives one
        8-wide edge row = 64 bytes."""
        part = partition((16, 8), (2, 1))
        ex = HaloExchanger(part, radius=1, boundary="constant")
        assert ex.bytes_per_exchange(0) == 8 * 8
        assert ex.bytes_per_exchange(1) == 8 * 8

    def test_periodic_more_traffic_than_constant(self):
        part = partition((16, 16), (2, 2))
        const = HaloExchanger(part, radius=1, boundary="constant")
        wrap = HaloExchanger(part, radius=1, boundary="periodic")
        for rank in range(4):
            assert wrap.bytes_per_exchange(rank) > const.bytes_per_exchange(rank)

    def test_exchanged_bytes_accumulate(self, rng):
        part = partition((8, 8), (2, 2))
        ex = HaloExchanger(part, radius=1, boundary="constant")
        field = rng.normal(size=(8, 8))
        blocks = {
            s.rank: field[s.row_slice, s.col_slice].copy()
            for s in part.subdomains
        }
        ex.exchange(blocks)
        once = ex.exchanged_bytes
        ex.exchange(blocks)
        assert ex.exchanged_bytes == 2 * once

    def test_bad_boundary_rejected(self):
        part = partition((8, 8), (1, 1))
        with pytest.raises(ValueError):
            HaloExchanger(part, radius=1, boundary="reflect")

    def test_block_shape_checked(self, rng):
        part = partition((8, 8), (2, 2))
        ex = HaloExchanger(part, radius=1)
        with pytest.raises(ValueError):
            ex.exchange({r: rng.normal(size=(3, 3)) for r in range(4)})


class TestCluster2D:
    @pytest.mark.parametrize("mesh", [(1, 1), (2, 2), (3, 2), (1, 4)])
    @pytest.mark.parametrize("boundary", ["constant", "periodic"])
    def test_trajectory_matches_reference(self, rng, mesh, boundary):
        w = get_kernel("Box-2D9P").weights
        x = rng.normal(size=(24, 28))
        plan = distribute(w, x.shape, mesh, boundary=boundary)
        out = ClusterRuntime(plan).run(x, 5).field
        ref = reference_iterate(x, w, 5, boundary=boundary)
        assert np.allclose(out, ref, atol=1e-10)

    def test_radius3_kernel(self, rng):
        w = get_kernel("Box-2D49P").weights
        x = rng.normal(size=(32, 32))
        out = ClusterRuntime(distribute(w, x.shape, (2, 2))).run(x, 3).field
        ref = reference_iterate(x, w, 3)
        assert np.allclose(out, ref, atol=1e-10)

    def test_scatter_gather_round_trip(self, rng):
        w = get_kernel("Box-2D9P").weights
        x = rng.normal(size=(16, 24))
        cluster = ClusterRuntime(distribute(w, x.shape, (2, 3)))
        assert np.array_equal(cluster.gather(cluster.scatter(x)), x)

    def test_zero_steps_identity(self, rng):
        w = get_kernel("Box-2D9P").weights
        x = rng.normal(size=(16, 16))
        cluster = ClusterRuntime(distribute(w, x.shape, (2, 2)))
        assert np.array_equal(cluster.run(x, 0).field, x)

    def test_3d_rejected(self):
        with pytest.raises(ValueError):
            distribute(get_kernel("Heat-3D").weights, (8, 8), (1, 1))


class TestScalingModel:
    def test_strong_scaling_speedup(self):
        w = get_kernel("Box-2D9P").weights
        t1 = ClusterRuntime(distribute(w, (1024, 1024), (1, 1))).timings()
        t4 = ClusterRuntime(distribute(w, (1024, 1024), (2, 2))).timings()
        speedup = t4.speedup_over(t1)
        assert 3.0 < speedup <= 4.0

    def test_comm_fraction_grows_with_devices(self):
        w = get_kernel("Box-2D9P").weights
        t4 = ClusterRuntime(distribute(w, (512, 512), (2, 2))).timings()
        t16 = ClusterRuntime(distribute(w, (512, 512), (4, 4))).timings()
        assert t16.comm_fraction > t4.comm_fraction

    def test_weak_scaling_near_constant_step_time(self):
        """Same per-device block: step time roughly flat in devices."""
        w = get_kernel("Box-2D9P").weights
        t1 = ClusterRuntime(distribute(w, (512, 512), (1, 1))).timings()
        t4 = ClusterRuntime(distribute(w, (1024, 1024), (2, 2))).timings()
        assert t4.step_s == pytest.approx(t1.step_s, rel=0.2)

    def test_timings_fields(self):
        w = get_kernel("Box-2D9P").weights
        t = ClusterRuntime(distribute(w, (256, 256), (2, 2))).timings(steps=10)
        assert t.num_devices == 4
        assert t.total_s == pytest.approx(t.step_s * 10)
        assert 0 <= t.comm_fraction < 1
