"""Tests for warp-distributed fragments."""

import numpy as np
import pytest

from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.tcu.counters import EventCounters
from repro.tcu.fragment import Fragment
from repro.tcu.layouts import FP64_FRAGMENT_SHAPES, FragmentKind, owner_of
from repro.tcu.memory import SharedMemory
from repro.tcu.warp import Warp


class TestRoundTrip:
    @pytest.mark.parametrize("kind", list(FragmentKind))
    def test_matrix_round_trip(self, rng, kind):
        mat = rng.normal(size=FP64_FRAGMENT_SHAPES[kind])
        frag = Fragment.from_matrix(kind, mat)
        assert np.array_equal(frag.to_matrix(), mat)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            Fragment.from_matrix(FragmentKind.A, np.zeros((4, 8)))

    def test_register_file_shape(self):
        assert Fragment(FragmentKind.A).registers.shape == (32, 1)
        assert Fragment(FragmentKind.ACC).registers.shape == (32, 2)

    def test_bad_register_file_rejected(self):
        with pytest.raises(ValueError):
            Fragment(FragmentKind.A, np.zeros((32, 2)))

    def test_zero_initialized(self):
        assert np.all(Fragment(FragmentKind.ACC).to_matrix() == 0.0)


class TestAccess:
    def test_element(self, rng):
        mat = rng.normal(size=(8, 8))
        frag = Fragment.from_matrix(FragmentKind.ACC, mat)
        assert frag.element(3, 5) == mat[3, 5]

    def test_thread_view(self, rng):
        mat = rng.normal(size=(8, 8))
        frag = Fragment.from_matrix(FragmentKind.ACC, mat)
        view = frag.thread_view(0)
        assert view == [((0, 0), mat[0, 0]), ((0, 1), mat[0, 1])]

    def test_copy_is_independent(self, rng):
        frag = Fragment.from_matrix(FragmentKind.A, rng.normal(size=(8, 4)))
        c = frag.copy()
        frag.registers[:] = 0.0
        assert not np.all(c.registers == 0.0)

    def test_acc_thread_holds_consecutive_pair(self, rng):
        """Fig. 6(a): thread t's registers are C[t//4][2(t%4)] and the
        element right of it."""
        mat = rng.normal(size=(8, 8))
        frag = Fragment.from_matrix(FragmentKind.ACC, mat)
        for t in range(32):
            row, pair = t // 4, t % 4
            assert frag.registers[t, 0] == mat[row, 2 * pair]
            assert frag.registers[t, 1] == mat[row, 2 * pair + 1]


class TestConversionTables:
    """``from_matrix``/``to_matrix`` run on precomputed permutations; they
    must agree with the PTX ownership map and never alias their input."""

    @pytest.mark.parametrize("kind", list(FragmentKind))
    def test_every_element_follows_owner_of(self, rng, kind):
        mat = rng.normal(size=FP64_FRAGMENT_SHAPES[kind])
        frag = Fragment.from_matrix(kind, mat)
        rows, cols = mat.shape
        for i in range(rows):
            for j in range(cols):
                t, r = owner_of(kind, i, j)
                assert frag.registers[t, r] == mat[i, j]
        regs = rng.normal(size=frag.registers.shape)
        back = Fragment(kind, regs).to_matrix()
        for i in range(rows):
            for j in range(cols):
                t, r = owner_of(kind, i, j)
                assert back[i, j] == regs[t, r]

    @pytest.mark.parametrize("kind", list(FragmentKind))
    def test_from_matrix_copies_its_input(self, rng, kind):
        mat = rng.normal(size=FP64_FRAGMENT_SHAPES[kind])
        frag = Fragment.from_matrix(kind, mat)
        before = frag.registers.copy()
        mat[...] = 99.0
        assert np.array_equal(frag.registers, before)

    @pytest.mark.parametrize("kind", list(FragmentKind))
    def test_to_matrix_returns_fresh_array(self, rng, kind):
        frag = Fragment.from_matrix(kind, rng.normal(size=FP64_FRAGMENT_SHAPES[kind]))
        before = frag.registers.copy()
        frag.to_matrix()[...] = 99.0
        assert np.array_equal(frag.registers, before)


def _agree(frag: Fragment, read_registers_first: bool) -> None:
    """``registers`` and ``to_matrix()`` hold the same values under
    ``owner_of``, whichever view is read (and so derived) first."""
    if read_registers_first:
        regs, mat = frag.registers, frag.to_matrix()
    else:
        mat, regs = frag.to_matrix(), frag.registers
    rows, cols = FP64_FRAGMENT_SHAPES[frag.kind]
    assert mat.shape == (rows, cols)
    for i in range(rows):
        for j in range(cols):
            t, r = owner_of(frag.kind, i, j)
            assert np.array_equal(regs[t, r], mat[i, j], equal_nan=True)


def _producers(rng):
    """One fragment from every producer, built fresh per call."""
    injector = FaultInjector(
        FaultPlan(
            specs=(
                FaultSpec(kind="flip_a", site=0, lane=5, bit=62),
                FaultSpec(kind="nan_acc", site=1, lane=9, reg=1),
            )
        )
    )
    counters = EventCounters()
    warp = Warp(counters)
    smem = SharedMemory((8, 16), counters)
    smem.data[:] = rng.normal(size=(8, 16))
    a = Fragment.from_matrix(FragmentKind.A, rng.normal(size=(8, 4)))
    b = warp.load_matrix_sync(FragmentKind.B, smem, 2, 3)
    acc = warp.mma_sync(a, b)
    flipped, _, _ = injector.on_mma(a, b, None)
    _, _, poisoned = injector.on_mma(a, b, acc)
    return {
        "from_matrix": Fragment.from_matrix(
            FragmentKind.ACC, rng.normal(size=(8, 8))
        ),
        "registers": Fragment(FragmentKind.B, rng.normal(size=(32, 1))),
        "load": b,
        "mma": warp.mma_sync(a, b, acc),
        "bvs_even": warp.split_accumulator_bvs(acc)[0],
        "bvs_odd": warp.split_accumulator_bvs(acc)[1],
        "naive_left": warp.split_accumulator_naive(acc)[0],
        "naive_right": warp.split_accumulator_naive(acc)[1],
        "flip": flipped,
        "poison": poisoned,
    }


PRODUCERS = [
    "from_matrix",
    "registers",
    "load",
    "mma",
    "bvs_even",
    "bvs_odd",
    "naive_left",
    "naive_right",
    "flip",
    "poison",
]


class TestProducers:
    """Each producer stores the view it has and derives the other on
    first read; both views must always hold the same fragment."""

    @pytest.mark.parametrize("registers_first", [True, False], ids=["regs", "matrix"])
    @pytest.mark.parametrize("producer", PRODUCERS)
    def test_views_agree_through_owner_of(self, rng, producer, registers_first):
        _agree(_producers(rng)[producer], registers_first)

    def test_poison_and_flip_took_effect(self, rng):
        frags = _producers(rng)
        assert np.isnan(frags["poison"].registers).sum() == 1
        assert np.isnan(frags["poison"].to_matrix()).sum() == 1
        a = Fragment.from_matrix(FragmentKind.A, rng.normal(size=(8, 4)))
        assert not np.array_equal(frags["flip"].to_matrix(), a.to_matrix())

    def test_load_does_not_alias_shared_memory(self, rng):
        counters = EventCounters()
        smem = SharedMemory((8, 8), counters)
        smem.data[:] = rng.normal(size=(8, 8))
        frag = Warp(counters).load_matrix_sync(FragmentKind.B, smem, 0, 0)
        expected = smem.data[:4, :8].copy()
        smem.data[...] = 99.0
        assert np.array_equal(frag.to_matrix(), expected)

    def test_mma_aliases_no_operand(self, rng):
        a = Fragment.from_matrix(FragmentKind.A, rng.normal(size=(8, 4)))
        b = Fragment.from_matrix(FragmentKind.B, rng.normal(size=(4, 8)))
        acc = Fragment.from_matrix(FragmentKind.ACC, rng.normal(size=(8, 8)))
        before = [f.to_matrix() for f in (a, b, acc)]
        warp = Warp(EventCounters())
        d = warp.mma_sync(a, b, acc)
        expected = before[0] @ before[1] + before[2]
        assert np.array_equal(d.to_matrix(), expected)
        for frag, mat in zip((a, b, acc), before):
            assert np.array_equal(frag.to_matrix(), mat)
            assert not np.shares_memory(d.registers, frag.registers)
            assert not np.shares_memory(d.to_matrix(), frag.to_matrix())
        # the next link accumulates into a fresh result, never into ``d``
        d_before = d.to_matrix()
        warp.mma_sync(a, b, d)
        assert np.array_equal(d.to_matrix(), d_before)

    @pytest.mark.parametrize("kind", ["flip_a", "nan_acc"])
    def test_fault_on_shared_weight_leaves_it_intact(self, rng, kind):
        """A weight fragment reused by every tile is corrupted only in
        the MMA the fault hits: its registers and matrix stay intact."""
        weight = Fragment.from_matrix(FragmentKind.A, rng.normal(size=(8, 4)))
        mat, regs = weight.to_matrix(), weight.registers.copy()
        x = Fragment.from_matrix(FragmentKind.B, rng.normal(size=(4, 8)))
        warp = Warp(
            EventCounters(),
            injector=FaultInjector(FaultPlan(specs=(FaultSpec(kind=kind, site=0),))),
        )
        with np.errstate(invalid="ignore", over="ignore"):
            hit = warp.mma_sync(weight, x)
            clean = warp.mma_sync(weight, x)
        assert not np.array_equal(hit.to_matrix(), clean.to_matrix(), equal_nan=True)
        assert np.array_equal(clean.to_matrix(), mat @ x.to_matrix())
        assert np.array_equal(weight.to_matrix(), mat)
        assert np.array_equal(weight.registers, regs)
