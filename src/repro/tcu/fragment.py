"""Fragments: warp-distributed matrix tiles.

A :class:`Fragment`'s value is its ``(32, registers_per_thread)``
per-thread register file, laid out *as the hardware does* by the PTX
ownership maps in :mod:`repro.tcu.layouts`; that is what lets the
simulator demonstrate (rather than merely assert) that Butterfly Vector
Swapping moves no data between threads.  A fragment holds the register
file, its dense matrix view, or both: each producer stores the form it
has (a load or an MMA has the matrix, a register split the file), and
the other form is derived through the conversion tables on first read
and kept.  An MMA chain therefore multiplies dense matrices without a
conversion per link, and a weight fragment is converted at most once
for its lifetime.  Neither form is written after construction.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.tcu.layouts import (
    FP64_FRAGMENT_SHAPES,
    WARP_SIZE,
    FragmentKind,
    owner_of,
    registers_per_thread,
    thread_slots,
)

__all__ = ["Fragment"]


class _Layout(NamedTuple):
    """One kind's conversion tables: ``registers.reshape(-1)[gather]`` is
    the row-major matrix, ``matrix.reshape(-1)[scatter]`` the register file.

    Both index a flat array with one index array.  On arrays this small
    that path keeps the GIL, whereas ``take`` and 2D fancy indexing
    release it, which hands the GIL to the other thread of a sharded
    sweep once per conversion.
    """

    shape: tuple[int, int]
    file_shape: tuple[int, int]
    gather: np.ndarray
    scatter: np.ndarray


def _layout(kind: FragmentKind) -> _Layout:
    """Derive the tables from :func:`owner_of`, a bijection between the
    matrix elements and the warp's registers (so both are permutations)."""
    rows, cols = FP64_FRAGMENT_SHAPES[kind]
    nregs = registers_per_thread(kind)
    owners = (owner_of(kind, i, j) for i in range(rows) for j in range(cols))
    gather = np.array([t * nregs + r for t, r in owners], dtype=np.intp)
    return _Layout((rows, cols), (WARP_SIZE, nregs), gather, np.argsort(gather))


_LAYOUTS: dict[FragmentKind, _Layout] = {kind: _layout(kind) for kind in FragmentKind}


class Fragment:
    """A warp-distributed FP64 matrix tile.

    Attributes
    ----------
    kind:
        The fragment's role (:class:`FragmentKind`).
    registers:
        ``(32, registers_per_thread(kind))`` float64 register file;
        ``registers[t, r]`` is thread ``t``'s register ``r``.  Derived
        from the dense view on first read when the fragment was built
        from a matrix.
    """

    __slots__ = ("kind", "_regs", "_mat")

    def __init__(self, kind: FragmentKind, registers: np.ndarray | None = None):
        self.kind = kind
        file_shape = _LAYOUTS[kind].file_shape
        if registers is None:
            registers = np.zeros(file_shape, dtype=np.float64)
        else:
            registers = np.asarray(registers, dtype=np.float64)
            if registers.shape != file_shape:
                raise ValueError(
                    f"register file for {kind.name} must be "
                    f"{file_shape}, got {registers.shape}"
                )
        self._regs = registers
        self._mat = None

    # -- construction -------------------------------------------------------
    @classmethod
    def from_matrix(cls, kind: FragmentKind, matrix: np.ndarray) -> "Fragment":
        """A fragment holding a copy of ``matrix``; the per-thread
        register file is derived from it on first read."""
        matrix = np.asarray(matrix, dtype=np.float64)
        expected = _LAYOUTS[kind].shape
        if matrix.shape != expected:
            raise ValueError(
                f"{kind.name} fragment expects shape {expected}, got {matrix.shape}"
            )
        # the fragment never aliases ``matrix``
        return cls._own(kind, matrix.copy())

    @classmethod
    def _own(cls, kind: FragmentKind, matrix: np.ndarray) -> "Fragment":
        """Wrap a fresh C-contiguous ``kind``-shaped float64 matrix that
        the caller hands over (no copy, no check)."""
        frag = object.__new__(cls)
        frag.kind = kind
        frag._regs = None
        frag._mat = matrix
        return frag

    # -- views ---------------------------------------------------------------
    @property
    def registers(self) -> np.ndarray:
        """The register file (see the class docstring)."""
        regs = self._regs
        if regs is None:
            _, file_shape, _, scatter = _LAYOUTS[self.kind]
            # indexing by an array copies: the file never aliases the view
            regs = self._regs = self._mat.reshape(-1)[scatter].reshape(file_shape)
        return regs

    def _matrix(self) -> np.ndarray:
        """The cached dense view; callers read it and never write it."""
        mat = self._mat
        if mat is None:
            shape, _, gather, _ = _LAYOUTS[self.kind]
            mat = self._mat = self._regs.reshape(-1)[gather].reshape(shape)
        return mat

    def to_matrix(self) -> np.ndarray:
        """The dense matrix, as a fresh array."""
        return self._matrix().copy()

    @property
    def shape(self) -> tuple[int, int]:
        return FP64_FRAGMENT_SHAPES[self.kind]

    def element(self, row: int, col: int) -> float:
        """One matrix element, read through its owner's register."""
        t, r = owner_of(self.kind, row, col)
        return float(self.registers[t, r])

    def thread_view(self, thread: int) -> list[tuple[tuple[int, int], float]]:
        """The (position, value) pairs held by one thread."""
        return [
            ((i, j), float(self.registers[thread, r]))
            for r, (i, j) in enumerate(thread_slots(self.kind, thread))
        ]

    def copy(self) -> "Fragment":
        """Independent copy of the register file."""
        return Fragment(self.kind, self.registers.copy())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Fragment({self.kind.name}, {self.shape[0]}x{self.shape[1]})"
