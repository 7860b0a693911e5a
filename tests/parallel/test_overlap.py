"""Overlapped (cp.async-modeled) halo pipeline: equivalence and bytes.

The contract under test: every execution mode — synchronous or
overlapped exchange, serial or thread executor, functional or simulated
sweep, interpreter or vectorized backend — produces the *bit-identical*
global trajectory, and every exchanged byte lands exactly once on the
exchanger ledger and the ``repro_halo_bytes_total`` counter.
"""

import numpy as np
import pytest

from repro.parallel import ClusterRuntime, distribute, partition
from repro.parallel.distributed import frame_regions
from repro.parallel.halo import HaloExchanger
from repro.stencil.kernels import get_kernel
from repro.stencil.reference import reference_iterate


def _blocks(part, field):
    return {
        s.rank: field[s.slices].copy() for s in part.subdomains
    }


class TestAsyncHalo:
    def test_async_windows_bit_identical_to_sync(self, rng):
        part = partition((12, 16), (2, 2))
        field = rng.normal(size=(12, 16))
        sync = HaloExchanger(part, 2).exchange(_blocks(part, field))
        ex = HaloExchanger(part, 2)
        handle = ex.exchange_async(_blocks(part, field))
        windows = handle.wait()
        for rank, win in sync.items():
            assert np.array_equal(windows[rank], win)

    def test_commit_snapshots_blocks(self, rng):
        # the cp.async commit: mutating a source block after issue must
        # not affect the transfer in flight
        part = partition((8, 8), (2, 1))
        field = rng.normal(size=(8, 8))
        blocks = _blocks(part, field)
        ex = HaloExchanger(part, 1)
        expected = HaloExchanger(part, 1).exchange(
            {r: b.copy() for r, b in blocks.items()}
        )
        handle = ex.exchange_async(blocks)
        blocks[0][:] = 1e9
        windows = handle.wait()
        for rank, win in expected.items():
            assert np.array_equal(windows[rank], win)

    def test_single_exchange_in_flight(self, rng):
        part = partition((8, 8), (2, 1))
        ex = HaloExchanger(part, 1)
        blocks = _blocks(part, rng.normal(size=(8, 8)))
        handle = ex.exchange_async(blocks)
        if not handle.done:
            with pytest.raises(RuntimeError):
                ex.exchange_async(blocks)
        handle.wait()
        # after the wait the double buffer frees a slot
        ex.exchange_async(blocks).wait()

    def test_wait_is_idempotent_and_accounts_once(self, rng):
        part = partition((8, 8), (2, 1))
        ex = HaloExchanger(part, 1)
        blocks = _blocks(part, rng.normal(size=(8, 8)))
        handle = ex.exchange_async(blocks)
        first = handle.wait()
        assert handle.wait() is first
        assert ex.exchanged_bytes == handle.bytes_issued
        assert handle.bytes_issued == ex.total_bytes_per_exchange()

    def test_sync_exchange_accounts_once(self, rng):
        part = partition((8, 8), (2, 1))
        ex = HaloExchanger(part, 1)
        ex.exchange(_blocks(part, rng.normal(size=(8, 8))))
        assert ex.exchanged_bytes == ex.total_bytes_per_exchange() > 0


class TestFrameRegions:
    @pytest.mark.parametrize(
        "shape,depth", [((10, 12), 2), ((9, 9, 9), 1), ((40,), 3)]
    )
    def test_cover_is_exact_and_disjoint(self, shape, depth):
        interior, strips = frame_regions(shape, depth)
        mask = np.zeros(shape, dtype=int)
        assert interior is not None
        mask[interior] += 1
        for region in strips:
            mask[region] += 1
        assert np.array_equal(mask, np.ones(shape, dtype=int))

    def test_small_block_has_no_interior(self):
        interior, strips = frame_regions((4, 4), 2)
        assert interior is None
        assert strips == [(slice(0, 4), slice(0, 4))]

    def test_zero_depth_is_all_interior(self):
        interior, strips = frame_regions((6, 6), 0)
        assert strips == []
        assert interior == (slice(0, 6), slice(0, 6))


MATRIX = [
    ("Heat-1D", (48,), (3,)),
    ("Heat-2D", (20, 24), (2, 2)),
    ("Box-2D49P", (26, 26), (2, 2)),
    ("Heat-3D", (6, 10, 12), (1, 2, 2)),
]


class TestOverlapEquivalence:
    @pytest.mark.parametrize("kernel,shape,mesh", MATRIX)
    @pytest.mark.parametrize("boundary", ["constant", "periodic"])
    def test_overlap_bit_identical_to_sync(
        self, rng, kernel, shape, mesh, boundary
    ):
        w = get_kernel(kernel).weights
        x = rng.normal(size=shape)
        plan = distribute(w, shape, mesh, boundary=boundary)
        sync = ClusterRuntime(plan).run(x, 3).field
        over = ClusterRuntime(plan).run(x, 3, overlap=True).field
        assert np.array_equal(over, sync)
        ref = reference_iterate(x, w, 3, boundary=boundary)
        assert np.allclose(sync, ref, atol=1e-9)

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_executors_bit_identical(self, rng, executor):
        w = get_kernel("Box-2D9P").weights
        x = rng.normal(size=(24, 24))
        cluster = ClusterRuntime(distribute(w, x.shape, (2, 2)))
        base = cluster.run(x, 3).field
        assert np.array_equal(
            cluster.run(x, 3, executor=executor).field, base
        )
        assert np.array_equal(
            cluster.run(x, 3, executor=executor, overlap=True).field, base
        )

    def test_overlap_with_temporal_rounds(self, rng):
        w = get_kernel("Heat-2D").weights
        x = rng.normal(size=(28, 28))
        cluster = ClusterRuntime(distribute(w, x.shape, (2, 2)))
        sync = cluster.run(x, 6, block_steps=3)
        over = cluster.run(x, 6, block_steps=3, overlap=True)
        assert np.array_equal(over.field, sync.field)
        assert over.exchanged_bytes == sync.exchanged_bytes

    def test_overlap_blocks_smaller_than_two_halos(self, rng):
        # blocks too small to hold a depth-inset interior advance like
        # any other: wait, then sweep the window — still bit-identical
        w = get_kernel("Box-2D49P").weights  # radius 3
        x = rng.normal(size=(10, 10))
        cluster = ClusterRuntime(distribute(w, x.shape, (2, 2)))
        assert np.array_equal(
            cluster.run(x, 2, overlap=True).field, cluster.run(x, 2).field
        )

    def test_one_engine_call_per_rank_per_step(self, rng, monkeypatch):
        # an overlapped rank waits for its window and sweeps it once per
        # step: 4 ranks x 4 steps, whatever the round structure
        from repro.core.engine2d import LoRAStencil2D

        calls = []
        apply = LoRAStencil2D.apply

        def counted(self, x):
            calls.append(x.shape)
            return apply(self, x)

        monkeypatch.setattr(LoRAStencil2D, "apply", counted)
        w = get_kernel("Box-2D9P").weights
        x = rng.normal(size=(32, 32))
        cluster = ClusterRuntime(distribute(w, x.shape, (2, 2)))
        over = cluster.run(
            x, 4, block_steps=2, overlap=True, executor="thread"
        )
        assert len(calls) == 16
        monkeypatch.undo()
        assert np.array_equal(over.field, cluster.run(x, 4).field)


class TestSimulatedEquivalence:
    @pytest.mark.parametrize("overlap", [False, True])
    def test_backends_bit_identical_results_and_counters(
        self, rng, overlap
    ):
        w = get_kernel("Heat-2D").weights
        x = rng.normal(size=(20, 20))
        cluster = ClusterRuntime(distribute(w, x.shape, (2, 2)))
        interp = cluster.run(
            x, 2, simulate=True, backend="interpreter", overlap=overlap
        )
        vect = cluster.run(
            x, 2, simulate=True, backend="vectorized", overlap=overlap
        )
        assert np.array_equal(interp.field, vect.field)
        assert interp.counters.as_dict() == vect.counters.as_dict()
        assert interp.counters.mma_ops > 0

    def test_simulated_overlap_bit_identical_to_sync(self, rng):
        # within the simulated mode, sync and overlapped exchanges give
        # the same bits (the functional engine is a separate FP chain —
        # only allclose across the simulate boundary)
        w = get_kernel("Box-2D9P").weights
        x = rng.normal(size=(16, 16))
        cluster = ClusterRuntime(distribute(w, x.shape, (2, 2)))
        sync = cluster.run(x, 2, simulate=True)
        over = cluster.run(x, 2, simulate=True, overlap=True)
        assert np.array_equal(over.field, sync.field)
        assert over.counters.as_dict() == sync.counters.as_dict()
        assert np.allclose(sync.field, cluster.run(x, 2).field, atol=1e-10)

    def test_exchanged_bytes_exact_across_modes(self, rng):
        w = get_kernel("Heat-2D").weights
        x = rng.normal(size=(16, 16))
        cluster = ClusterRuntime(distribute(w, x.shape, (2, 2)))
        expected = (
            cluster.halo.total_bytes_per_exchange() * 2
        )  # 2 rounds at radius depth
        for kwargs in (
            {},
            {"overlap": True},
            {"simulate": True},
            {"executor": "thread"},
        ):
            result = cluster.run(x, 2, **kwargs)
            assert result.exchanged_bytes == expected
