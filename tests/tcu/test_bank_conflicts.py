"""Tests for the shared-memory bank-conflict model."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.tcu.counters import EventCounters
from repro.tcu.memory import SharedMemory, bank_conflict_cycles


def _brute_force_conflicts(addresses) -> int:
    """The model written out lane by lane: distinct addresses per bank."""
    per_bank: dict[int, set[int]] = {}
    for a in addresses:
        per_bank.setdefault(int(a) % 32, set()).add(int(a))
    return max((len(s) for s in per_bank.values()), default=1) - 1


class TestConflictModel:
    def test_contiguous_access_is_free(self):
        assert bank_conflict_cycles(np.arange(32)) == 0

    def test_broadcast_is_free(self):
        """All lanes reading one address broadcast without replay."""
        assert bank_conflict_cycles(np.full(32, 7)) == 0

    def test_same_bank_distinct_addresses_serialize(self):
        # lanes hit bank 0 with 4 distinct addresses -> 3 replays
        addrs = np.array([0, 32, 64, 96] + list(range(1, 29)))
        assert bank_conflict_cycles(addrs) == 3

    def test_stride_32_worst_case(self):
        """Stride equal to the bank count: all 32 lanes on one bank."""
        assert bank_conflict_cycles(np.arange(32) * 32) == 31

    def test_odd_stride_conflict_free(self):
        """Odd strides permute the banks (gcd(stride, 32) == 1)."""
        for stride in (1, 3, 5, 7, 9, 31):
            assert bank_conflict_cycles(np.arange(32) * stride) == 0

    def test_empty(self):
        assert bank_conflict_cycles(np.array([])) == 0

    def test_matches_brute_force_on_random_sets(self):
        """Random warp-sized address sets over a narrow range, so many
        lanes repeat an address (broadcast) or share a bank."""
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = int(rng.integers(1, 65))
            hi = int(rng.integers(1, 300))
            addrs = rng.integers(0, hi, size=n)
            assert bank_conflict_cycles(addrs) == _brute_force_conflicts(addrs)

    def test_duplicates_broadcast(self):
        """Repeating an address adds no replay; only distinct ones do."""
        addrs = np.array([0, 0, 0, 32, 32, 64] + [5] * 26)
        assert bank_conflict_cycles(addrs) == 2 == _brute_force_conflicts(addrs)


def _grid(origin, rows, cols, row_stride, col_stride):
    return (
        origin
        + np.arange(rows)[:, None] * row_stride
        + np.arange(cols)[None, :] * col_stride
    )


class TestLoadersChargeTheirAddressGrid:
    """Each loader charges exactly the conflicts of the addresses it
    reads, wherever the fragment sits: the count is shift-invariant, so
    a charge cached per access shape is the same number."""

    @given(
        height=st.integers(1, 24),
        width=st.integers(1, 80),
        rows=st.integers(1, 8),
        cols=st.integers(1, 8),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_read_fragment(self, height, width, rows, cols, data):
        rows, cols = min(rows, height), min(cols, width)
        row = data.draw(st.integers(0, height - rows))
        col = data.draw(st.integers(0, width - cols))
        counters = EventCounters()
        SharedMemory((height, width), counters).read_fragment(row, col, (rows, cols))
        addrs = _grid(row * width + col, rows, cols, width, 1)
        assert counters.shared_bank_conflicts == bank_conflict_cycles(addrs)

    @given(
        size=st.integers(8, 600),
        rows=st.integers(1, 8),
        cols=st.integers(1, 8),
        col_stride=st.integers(0, 70),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_read_fragment_strided(self, size, rows, cols, col_stride, data):
        span = (cols - 1) * col_stride + rows
        assume(span <= size)
        start = data.draw(st.integers(0, size - span))
        counters = EventCounters()
        smem = SharedMemory((1, size), counters)
        smem.data[0] = np.arange(size)
        tile = smem.read_fragment_strided(start, (rows, cols), col_stride)
        addrs = _grid(start, rows, cols, 1, col_stride)
        assert counters.shared_bank_conflicts == bank_conflict_cycles(addrs)
        assert np.array_equal(tile, addrs)

    @given(
        size=st.integers(8, 600),
        rows=st.integers(1, 8),
        cols=st.integers(1, 8),
        row_stride=st.integers(0, 70),
        col_stride=st.integers(0, 70),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_read_fragment_view(self, size, rows, cols, row_stride, col_stride, data):
        last = (rows - 1) * row_stride + (cols - 1) * col_stride
        assume(last < size)
        start = data.draw(st.integers(0, size - 1 - last))
        counters = EventCounters()
        smem = SharedMemory((1, size), counters)
        smem.data[0] = np.arange(size)
        tile = smem.read_fragment_view(start, (rows, cols), row_stride, col_stride)
        addrs = _grid(start, rows, cols, row_stride, col_stride)
        assert counters.shared_bank_conflicts == bank_conflict_cycles(addrs)
        assert np.array_equal(tile, addrs)


class TestSharedMemoryIntegration:
    def test_fragment_read_width_multiple_of_32_conflicts(self):
        """A 4x8 fragment in a 32-wide buffer puts all rows on the same
        banks: 4-way conflict -> 3 replays."""
        counters = EventCounters()
        smem = SharedMemory((16, 32), counters)
        smem.read_fragment(0, 0, (4, 8))
        assert counters.shared_bank_conflicts == 3

    def test_fragment_read_padded_width_free(self):
        """A width of 8 mod 32 maps a 4x8 tile's rows onto disjoint bank
        groups (banks = 8r + c cover 0..31 exactly once) — the padding
        trick real kernels use."""
        counters = EventCounters()
        smem = SharedMemory((16, 40), counters)
        smem.read_fragment(0, 0, (4, 8))
        assert counters.shared_bank_conflicts == 0

    def test_lorastencil_layout_is_conflict_light(self, rng):
        """The engine's default block layout keeps fragment loads nearly
        replay-free, while ConvStencil's strided stencil2row views pay
        a replay per load — extra hardware texture behind Fig. 10."""
        from repro.baselines.convstencil import ConvStencil2D
        from repro.core.engine2d import LoRAStencil2D
        from repro.stencil.kernels import get_kernel

        w = get_kernel("Box-2D49P").weights
        x = rng.normal(size=(38, 38))
        _, lora = LoRAStencil2D(w.as_matrix()).apply_simulated(x)
        _, conv = ConvStencil2D(w.as_matrix()).apply_simulated(x)
        lora_rate = lora.shared_bank_conflicts / max(1, lora.shared_load_requests)
        conv_rate = conv.shared_bank_conflicts / max(1, conv.shared_load_requests)
        assert lora_rate < 0.25
        assert conv_rate > lora_rate
