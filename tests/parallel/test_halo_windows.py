"""Halo windows built from their owners' blocks, byte for byte.

The oracle is the global construction: assemble every block into one
grid, pad the whole grid by the halo depth (zeros or wrap) and slice
each rank's window out of it.  The exchanger never builds that grid;
every window it returns, from ``exchange``, ``exchange_async`` or
``retransmit``, must equal the oracle's to the byte.
"""

import numpy as np
import pytest

from repro.faults import FaultPlan, FaultSpec
from repro.faults.injector import FaultInjector
from repro.parallel import ClusterRuntime, HaloExchanger, distribute, partition
from repro.stencil.kernels import get_kernel


def oracle_windows(part, blocks, depth, boundary):
    """Assemble + global ``np.pad`` + slice: every rank's window."""
    grid = np.empty(part.global_shape)
    for sub in part.subdomains:
        grid[sub.slices] = blocks[sub.rank]
    mode = "wrap" if boundary == "periodic" else "constant"
    padded = np.pad(grid, depth, mode=mode)
    return {
        sub.rank: padded[
            tuple(slice(s.start, s.stop + 2 * depth) for s in sub.slices)
        ].copy()
        for sub in part.subdomains
    }


def _blocks(part, field):
    return {s.rank: field[s.slices].copy() for s in part.subdomains}


def _same_bytes(got, want):
    assert sorted(got) == sorted(want)
    for rank in want:
        assert got[rank].shape == want[rank].shape
        assert got[rank].dtype == want[rank].dtype
        assert got[rank].tobytes() == want[rank].tobytes(), rank


# uneven shapes: the block distribution puts the remainder on the
# leading ranks, so neighbouring blocks differ in size
GEOMETRIES = [
    ((7, 11), (1, 2)),
    ((9, 10), (2, 2)),
    ((11, 8), (3, 2)),
    ((8, 13), (2, 3)),
]


def _depths(part):
    """1 through past the smallest block edge: the deepest windows reach
    beyond their nearest neighbour (and, periodic, wrap more than once
    on a short axis)."""
    edge = min(min(s.shape) for s in part.subdomains)
    return sorted({1, 2, edge, edge + 1, edge + 3})


CASES = [
    (shape, mesh, boundary, depth)
    for shape, mesh in GEOMETRIES
    for boundary in ("constant", "periodic")
    for depth in _depths(partition(shape, mesh))
]


def _case_id(case):
    shape, mesh, boundary, depth = case
    return f"{shape[0]}x{shape[1]}-mesh{mesh[0]}x{mesh[1]}-{boundary}-d{depth}"


@pytest.mark.parametrize("case", CASES, ids=[_case_id(c) for c in CASES])
class TestWindowsMatchGlobalPad:
    def test_exchange(self, rng, case):
        shape, mesh, boundary, depth = case
        part = partition(shape, mesh)
        blocks = _blocks(part, rng.normal(size=shape))
        ex = HaloExchanger(part, depth, boundary)
        want = oracle_windows(part, blocks, depth, boundary)
        _same_bytes(ex.exchange(blocks), want)
        # later exchanges rebuild every byte from their own blocks
        fresh = _blocks(part, rng.normal(size=shape))
        _same_bytes(
            ex.exchange(fresh), oracle_windows(part, fresh, depth, boundary)
        )
        _same_bytes(ex.exchange(blocks), want)

    def test_exchange_async(self, rng, case):
        shape, mesh, boundary, depth = case
        part = partition(shape, mesh)
        blocks = _blocks(part, rng.normal(size=shape))
        ex = HaloExchanger(part, depth, boundary)
        handle = ex.exchange_async(blocks)
        _same_bytes(handle.wait(), oracle_windows(part, blocks, depth, boundary))

    def test_retransmit(self, rng, case):
        shape, mesh, boundary, depth = case
        part = partition(shape, mesh)
        blocks = _blocks(part, rng.normal(size=shape))
        ex = HaloExchanger(part, depth, boundary)
        want = oracle_windows(part, blocks, depth, boundary)
        windows = ex.exchange(blocks)
        for rank in windows:
            windows[rank][...] = np.nan  # a receiver-side wreck
        _same_bytes(
            {rank: ex.retransmit(rank) for rank in want}, want
        )


class TestWindowsThreeD:
    @pytest.mark.parametrize("boundary", ["constant", "periodic"])
    @pytest.mark.parametrize("depth", [1, 3])
    def test_exchange(self, rng, boundary, depth):
        part = partition((5, 7, 6), (1, 2, 2))
        blocks = _blocks(part, rng.normal(size=(5, 7, 6)))
        ex = HaloExchanger(part, depth, boundary)
        _same_bytes(
            ex.exchange(blocks), oracle_windows(part, blocks, depth, boundary)
        )


class TestIssue:
    def test_round_n_survives_later_issues(self, rng):
        part = partition((9, 10), (2, 2))
        ex = HaloExchanger(part, 2)
        first = _blocks(part, rng.normal(size=(9, 10)))
        held = ex.exchange_async(first).wait()
        for _ in range(2):
            ex.exchange_async(_blocks(part, rng.normal(size=(9, 10))))
        _same_bytes(held, oracle_windows(part, first, 2, "constant"))

    def test_bad_block_shape_is_rejected(self, rng):
        part = partition((8, 8), (2, 1))
        blocks = _blocks(part, rng.normal(size=(8, 8)))
        blocks[1] = blocks[1][:-1]
        with pytest.raises(ValueError, match="rank 1 block has shape"):
            HaloExchanger(part, 1).exchange(blocks)

    def test_retransmit_needs_an_exchange(self):
        with pytest.raises(RuntimeError, match="no exchange"):
            HaloExchanger(partition((8, 8), (2, 1)), 1).retransmit(0)


class TestCorruptionThenRetransmit:
    def test_injected_corruption_is_replaced_with_pristine_bytes(self, rng):
        part = partition((11, 8), (3, 2))
        blocks = _blocks(part, rng.normal(size=(11, 8)))
        ex = HaloExchanger(part, 2)
        want = oracle_windows(part, blocks, 2, "constant")
        windows = ex.exchange(blocks)
        spec = FaultSpec(kind="halo_corrupt", site=0, shard=3)
        FaultInjector(FaultPlan(specs=(spec,))).on_halo(windows, 0, 2)
        assert windows[3].tobytes() != want[3].tobytes()
        windows[3] = ex.retransmit(3)
        _same_bytes(windows, want)
        # the retransmission moved that rank's bytes once more
        assert ex.exchanged_bytes == (
            ex.total_bytes_per_exchange() + ex.bytes_per_exchange(3)
        )

    def test_cluster_run_recovers_bit_identical(self, rng):
        w = get_kernel("Heat-2D").weights
        x = rng.normal(size=(22, 19))
        plan = distribute(w, x.shape, (3, 2))
        clean = ClusterRuntime(plan).run(x, 4, block_steps=2).field
        spec = FaultSpec(kind="halo_corrupt", site=1, shard=2)
        result = ClusterRuntime(plan).run(
            x, 4, block_steps=2, faults=FaultPlan(specs=(spec,))
        )
        assert result.resilience["halo"]["detections"] == 1
        assert result.resilience["halo"]["recoveries"] == 1
        assert result.field.tobytes() == clean.tobytes()
