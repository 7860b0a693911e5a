"""Property-based tests for temporal tiling.

The invariant: a temporally blocked run (one deep exchange per round of
``block_steps`` local steps, trapezoid or diamond) produces the
*bit-identical* trajectory of the per-step run, for every dimension,
radius, boundary condition and block size the runtime accepts.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel.cluster import ClusterRuntime
from repro.parallel.plan import distribute
from repro.parallel.temporal import temporal_halo_bytes
from repro.stencil.kernels import get_kernel
from repro.stencil.reference import reference_iterate

#: kernels by dimensionality — radii 1-3 in 1D/2D, 1 in 3D
KERNELS = {
    1: ("Heat-1D", "1D5P"),
    2: ("Heat-2D", "Box-2D9P", "Star-2D13P"),
    3: ("Heat-3D", "Box-3D27P"),
}


@st.composite
def temporal_cases(draw):
    """A (kernel, shape, mesh, steps, block_steps, seed) tuple whose
    deepest halo still fits inside the smallest block."""
    ndim = draw(st.sampled_from([1, 2, 3]))
    kernel = draw(st.sampled_from(KERNELS[ndim]))
    radius = get_kernel(kernel).weights.radius
    if ndim == 1:
        shape = (draw(st.integers(min_value=24, max_value=48)),)
        mesh = (draw(st.integers(min_value=1, max_value=4)),)
    elif ndim == 2:
        shape = tuple(
            draw(st.integers(min_value=16, max_value=28)) for _ in range(2)
        )
        mesh = tuple(
            draw(st.integers(min_value=1, max_value=2)) for _ in range(2)
        )
    else:
        shape = tuple(
            draw(st.integers(min_value=6, max_value=10)) for _ in range(3)
        )
        mesh = tuple(
            draw(st.integers(min_value=1, max_value=2)) for _ in range(3)
        )
    min_block = min(n // m for n, m in zip(shape, mesh))
    max_k = max(1, min(4, min_block // radius))
    block_steps = draw(st.integers(min_value=1, max_value=max_k))
    steps = draw(st.integers(min_value=1, max_value=7))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return kernel, shape, mesh, steps, block_steps, seed


class TestTemporalProperties:
    @given(
        temporal_cases(),
        st.sampled_from(["trapezoid", "diamond"]),
        st.sampled_from(["constant", "periodic"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_temporal_bit_identical_to_per_step(
        self, case, tiling, boundary
    ):
        kernel, shape, mesh, steps, block_steps, seed = case
        rng = np.random.default_rng(seed)
        w = get_kernel(kernel).weights
        x = rng.normal(size=shape)
        plan = distribute(w, shape, mesh, boundary=boundary)
        runtime = ClusterRuntime(plan)
        blocked = runtime.run(
            x, steps, block_steps=block_steps, tiling=tiling
        )
        per_step = runtime.run(x, steps).field
        assert np.array_equal(blocked.field, per_step)
        ref = reference_iterate(x, w, steps, boundary=boundary)
        assert np.allclose(blocked.field, ref, atol=1e-9)
        _, modelled = temporal_halo_bytes(
            runtime, steps=steps, block_steps=block_steps, tiling=tiling
        )
        assert blocked.exchanged_bytes == modelled

    @given(temporal_cases())
    @settings(max_examples=15, deadline=None)
    def test_overlap_preserves_temporal_bits(self, case):
        kernel, shape, mesh, steps, block_steps, seed = case
        rng = np.random.default_rng(seed)
        w = get_kernel(kernel).weights
        x = rng.normal(size=shape)
        runtime = ClusterRuntime(distribute(w, shape, mesh))
        sync = runtime.run(x, steps, block_steps=block_steps)
        over = runtime.run(x, steps, block_steps=block_steps, overlap=True)
        assert np.array_equal(over.field, sync.field)
        assert over.exchanged_bytes == sync.exchanged_bytes
