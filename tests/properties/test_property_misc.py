"""Property-based tests: FP16 numerics, temporal blocking, fields."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.parallel import ClusterRuntime, distribute
from repro.stencil.fields import checkerboard, gaussian_pulse, random_field
from repro.stencil.kernels import get_kernel
from repro.stencil.reference import reference_iterate
from repro.tcu.fp16 import fp16_matmul, fp16_mma, quantize_fp16

finite = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)


class TestFP16Properties:
    @given(arrays(np.float64, (20,), elements=finite))
    @settings(max_examples=50, deadline=None)
    def test_quantization_idempotent(self, x):
        once = quantize_fp16(x)
        assert np.array_equal(quantize_fp16(once), once)

    @given(arrays(np.float64, (20,), elements=finite))
    @settings(max_examples=50, deadline=None)
    def test_quantization_monotone_error(self, x):
        """|q(x) - x| <= half-ulp bound for normal half-precision."""
        err = np.abs(quantize_fp16(x) - x)
        bound = np.maximum(np.abs(x) * 2.0**-10, 2.0**-24)
        assert np.all(err <= bound)

    @given(
        arrays(np.float64, (16, 16), elements=finite),
        arrays(np.float64, (16, 16), elements=finite),
    )
    @settings(max_examples=25, deadline=None)
    def test_mma_deterministic_and_bounded(self, a, b):
        out1 = fp16_mma(a, b)
        out2 = fp16_mma(a, b)
        assert np.array_equal(out1, out2)
        # error bounded by quantization of the operands
        exact = quantize_fp16(a) @ quantize_fp16(b)
        assert np.abs(out1 - exact).max() <= np.abs(exact).max() * 2**-18 + 1e-3

    @given(st.integers(min_value=1, max_value=3), st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_matmul_matches_blockwise_mma(self, blocks, seed):
        rng = np.random.default_rng(seed)
        n = 16 * blocks
        a = rng.normal(size=(16, n))
        b = rng.normal(size=(n, 16))
        out = fp16_matmul(a, b)
        acc = np.zeros((16, 16), dtype=np.float32)
        for p in range(0, n, 16):
            acc = fp16_mma(a[:, p : p + 16], b[p : p + 16, :], acc)
        assert np.array_equal(out, acc.astype(np.float64))


class TestTemporalProperties:
    @given(
        st.integers(min_value=1, max_value=3),
        st.sampled_from(["constant", "periodic"]),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=10, deadline=None)
    def test_any_block_depth_exact(self, block_steps, boundary, seed):
        w = get_kernel("Box-2D9P").weights
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(20, 24))
        plan = distribute(w, x.shape, (2, 2), boundary=boundary)
        steps = 2 * block_steps
        out = ClusterRuntime(plan).run(x, steps, block_steps=block_steps).field
        ref = reference_iterate(x, w, steps, boundary=boundary)
        assert np.allclose(out, ref, atol=1e-9)


class TestFieldProperties:
    @given(
        st.integers(min_value=4, max_value=40),
        st.integers(min_value=4, max_value=40),
    )
    @settings(max_examples=30, deadline=None)
    def test_gaussian_bounded_and_peaked(self, r, c):
        f = gaussian_pulse((r, c))
        assert 0 < f.max() <= 1.0
        assert f.min() >= 0.0

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_random_field_seed_determinism(self, seed):
        assert np.array_equal(
            random_field((12, 12), seed=seed), random_field((12, 12), seed=seed)
        )

    @given(st.integers(min_value=1, max_value=5))
    @settings(max_examples=20, deadline=None)
    def test_checkerboard_mean_zero_on_even_grids(self, period):
        f = checkerboard((4 * period, 4 * period), period=period)
        assert abs(f.mean()) < 1e-12
