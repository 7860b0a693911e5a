"""Tests for warp-level WMMA operations and accumulator splitting."""

import numpy as np
import pytest

from repro.tcu.device import Device
from repro.tcu.fragment import Fragment
from repro.tcu.layouts import FragmentKind
from repro.tcu.warp import BVS_EVEN_ODD_ORDER


@pytest.fixture
def device():
    return Device()


@pytest.fixture
def warp(device):
    return device.warp()


def _frags(rng):
    a = rng.normal(size=(8, 4))
    b = rng.normal(size=(4, 8))
    c = rng.normal(size=(8, 8))
    return (
        a,
        b,
        c,
        Fragment.from_matrix(FragmentKind.A, a),
        Fragment.from_matrix(FragmentKind.B, b),
        Fragment.from_matrix(FragmentKind.ACC, c),
    )


class TestMMA:
    def test_mma_math(self, warp, rng):
        a, b, c, fa, fb, fc = _frags(rng)
        d = warp.mma_sync(fa, fb, fc)
        assert np.allclose(d.to_matrix(), a @ b + c)

    def test_mma_without_accumulator(self, warp, rng):
        a, b, _, fa, fb, _ = _frags(rng)
        d = warp.mma_sync(fa, fb)
        assert np.allclose(d.to_matrix(), a @ b)

    def test_mma_counts(self, warp, device, rng):
        _, _, _, fa, fb, fc = _frags(rng)
        warp.mma_sync(fa, fb, fc)
        warp.mma_sync(fa, fb)
        assert device.counters.mma_ops == 2

    def test_mma_operand_kind_checked(self, warp, rng):
        _, _, _, fa, fb, fc = _frags(rng)
        with pytest.raises(TypeError):
            warp.mma_sync(fb, fb)
        with pytest.raises(TypeError):
            warp.mma_sync(fa, fa)
        with pytest.raises(TypeError):
            warp.mma_sync(fa, fb, fa)

    def test_mma_chain_accumulates(self, warp, rng):
        a, b, _, fa, fb, _ = _frags(rng)
        acc = None
        for _ in range(3):
            acc = warp.mma_sync(fa, fb, acc)
        assert np.allclose(acc.to_matrix(), 3 * (a @ b))


class TestTraffic:
    def test_load_matrix_sync(self, warp, device, rng):
        smem = device.shared((8, 16))
        smem.data[:] = rng.normal(size=(8, 16))
        frag = warp.load_matrix_sync(FragmentKind.B, smem, 2, 4)
        assert np.array_equal(frag.to_matrix(), smem.data[2:6, 4:12])
        assert device.counters.shared_load_requests == 1

    def test_fill_fragment_free(self, warp, device, rng):
        warp.fill_fragment(FragmentKind.A, rng.normal(size=(8, 4)))
        assert device.counters.shared_load_requests == 0

    def test_store_matrix_sync(self, warp, device, rng):
        smem = device.shared((8, 8))
        _, _, c, _, _, fc = _frags(rng)
        warp.store_matrix_sync(fc, smem, 0, 0)
        assert np.array_equal(smem.data, c)
        assert device.counters.shared_store_requests == 2

    def test_store_matrix_global(self, warp, device, rng):
        gmem = device.global_array(np.zeros((8, 8)))
        _, _, c, _, _, fc = _frags(rng)
        warp.store_matrix_global(fc, gmem, (slice(0, 8), slice(0, 8)))
        assert np.array_equal(gmem.data, c)

    def test_cuda_core_axpy(self, warp, device):
        out = np.zeros((4, 4))
        warp.cuda_core_axpy(out, 2.0, np.ones((4, 4)))
        assert np.all(out == 2.0)
        assert device.counters.cuda_core_flops == 32

    def test_axpy_shape_mismatch(self, warp):
        with pytest.raises(ValueError):
            warp.cuda_core_axpy(np.zeros((2, 2)), 1.0, np.zeros((3, 3)))


class TestAccumulatorSplitting:
    def test_bvs_split_values(self, warp, rng):
        _, _, c, _, _, fc = _frags(rng)
        even, odd = warp.split_accumulator_bvs(fc)
        assert np.array_equal(even.to_matrix(), c[:, 0::2])
        assert np.array_equal(odd.to_matrix(), c[:, 1::2])

    def test_bvs_split_is_shuffle_free(self, warp, device, rng):
        _, _, _, _, _, fc = _frags(rng)
        warp.split_accumulator_bvs(fc)
        assert device.counters.shuffle_ops == 0
        assert device.counters.register_moves == 0

    def test_bvs_split_kinds(self, warp, rng):
        _, _, _, _, _, fc = _frags(rng)
        even, odd = warp.split_accumulator_bvs(fc)
        assert even.kind is FragmentKind.A
        assert odd.kind is FragmentKind.A

    def test_bvs_requires_accumulator(self, warp, rng):
        _, _, _, fa, _, _ = _frags(rng)
        with pytest.raises(TypeError):
            warp.split_accumulator_bvs(fa)

    def test_naive_split_values(self, warp, rng):
        _, _, c, _, _, fc = _frags(rng)
        left, right = warp.split_accumulator_naive(fc)
        assert np.array_equal(left.to_matrix(), c[:, 0:4])
        assert np.array_equal(right.to_matrix(), c[:, 4:8])

    def test_naive_split_costs_shuffles(self, warp, device, rng):
        _, _, _, _, _, fc = _frags(rng)
        warp.split_accumulator_naive(fc)
        assert device.counters.shuffle_ops == 6
        assert device.counters.register_moves == 48

    def test_naive_split_passes_nan_through(self, warp, rng):
        # a poisoned accumulator is the ABFT guard's to catch, not the
        # shuffle self-check's
        _, _, c, _, _, _ = _frags(rng)
        c[3, 5] = np.nan
        left, right = warp.split_accumulator_naive(
            Fragment.from_matrix(FragmentKind.ACC, c)
        )
        assert np.array_equal(left.to_matrix(), c[:, 0:4])
        assert np.array_equal(right.to_matrix(), c[:, 4:8], equal_nan=True)

    def test_naive_split_shuffle_mismatch_is_typed(
        self, warp, rng, monkeypatch
    ):
        from repro.errors import ExecutionError

        _, _, _, _, _, fc = _frags(rng)
        shuffle = type(warp)._shuffle_into_a

        def misrouted(self, acc, col_offset):
            frag = shuffle(self, acc, col_offset)
            frag.registers[0, 0] += 1.0
            return frag

        monkeypatch.setattr(type(warp), "_shuffle_into_a", misrouted)
        with pytest.raises(ExecutionError, match="naive split"):
            warp.split_accumulator_naive(fc)

    def test_naive_requires_accumulator(self, warp, rng):
        _, _, _, _, fb, _ = _frags(rng)
        with pytest.raises(TypeError):
            warp.split_accumulator_naive(fb)

    def test_split_equivalence_theorem(self, warp, rng):
        """Eq. 17: T @ V == T'_even @ V_even + T'_odd @ V_odd."""
        _, _, c, _, _, fc = _frags(rng)
        v = rng.normal(size=(8, 8))
        even, odd = warp.split_accumulator_bvs(fc)
        lhs = c @ v
        rhs = even.to_matrix() @ v[0::2, :] + odd.to_matrix() @ v[1::2, :]
        assert np.allclose(lhs, rhs)

    def test_butterfly_order_constant(self):
        assert BVS_EVEN_ODD_ORDER == (0, 2, 4, 6, 1, 3, 5, 7)
        assert sorted(BVS_EVEN_ODD_ORDER) == list(range(8))

    def test_bvs_vs_naive_same_product(self, warp, rng):
        """Both split strategies compute the same T @ V."""
        _, _, c, _, _, fc = _frags(rng)
        v = rng.normal(size=(8, 8))
        even, odd = warp.split_accumulator_bvs(fc)
        left, right = warp.split_accumulator_naive(fc)
        bvs = even.to_matrix() @ v[0::2, :] + odd.to_matrix() @ v[1::2, :]
        naive = left.to_matrix() @ v[0:4, :] + right.to_matrix() @ v[4:8, :]
        assert np.allclose(bvs, naive)
