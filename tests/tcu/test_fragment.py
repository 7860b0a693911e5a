"""Tests for warp-distributed fragments."""

import numpy as np
import pytest

from repro.tcu.fragment import Fragment
from repro.tcu.layouts import FP64_FRAGMENT_SHAPES, FragmentKind, owner_of


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
