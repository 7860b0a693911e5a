"""Property-based tests for the domain-decomposition substrate."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel import ClusterRuntime, distribute, partition
from repro.parallel.halo import HaloExchanger
from repro.stencil.kernels import get_kernel
from repro.stencil.reference import reference_iterate


@st.composite
def grids_and_meshes(draw):
    rows = draw(st.integers(min_value=8, max_value=40))
    cols = draw(st.integers(min_value=8, max_value=40))
    p = draw(st.integers(min_value=1, max_value=min(4, rows)))
    q = draw(st.integers(min_value=1, max_value=min(4, cols)))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return (rows, cols), (p, q), seed


class TestPartitionProperties:
    @given(grids_and_meshes())
    @settings(max_examples=50, deadline=None)
    def test_exact_cover(self, case):
        shape, mesh, _ = case
        part = partition(shape, mesh)
        assert sum(s.shape[0] * s.shape[1] for s in part.subdomains) == (
            shape[0] * shape[1]
        )
        assert part.num_devices == mesh[0] * mesh[1]

    @given(grids_and_meshes())
    @settings(max_examples=50, deadline=None)
    def test_balanced(self, case):
        shape, mesh, _ = case
        part = partition(shape, mesh)
        row_sizes = {s.shape[0] for s in part.subdomains}
        col_sizes = {s.shape[1] for s in part.subdomains}
        assert max(row_sizes) - min(row_sizes) <= 1
        assert max(col_sizes) - min(col_sizes) <= 1


class TestHaloProperties:
    @given(grids_and_meshes(), st.sampled_from(["constant", "periodic"]))
    @settings(max_examples=25, deadline=None)
    def test_windows_equal_global_pad(self, case, boundary):
        shape, mesh, seed = case
        rng = np.random.default_rng(seed)
        field = rng.normal(size=shape)
        part = partition(shape, mesh)
        ex = HaloExchanger(part, radius=1, boundary=boundary)
        blocks = {
            s.rank: field[s.row_slice, s.col_slice].copy()
            for s in part.subdomains
        }
        windows = ex.exchange(blocks)
        mode = "wrap" if boundary == "periodic" else "constant"
        padded = np.pad(field, 1, mode=mode)
        for s in part.subdomains:
            expected = padded[
                s.row_slice.start : s.row_slice.stop + 2,
                s.col_slice.start : s.col_slice.stop + 2,
            ]
            assert np.array_equal(windows[s.rank], expected)


class TestClusterProperties:
    @given(grids_and_meshes(), st.integers(min_value=1, max_value=3))
    @settings(max_examples=12, deadline=None)
    def test_any_mesh_matches_reference(self, case, steps):
        shape, mesh, seed = case
        rng = np.random.default_rng(seed)
        w = get_kernel("Box-2D9P").weights
        x = rng.normal(size=shape)
        out = ClusterRuntime(distribute(w, shape, mesh)).run(x, steps).field
        ref = reference_iterate(x, w, steps)
        assert np.allclose(out, ref, atol=1e-9)
