"""FP64 ``m8n8k4`` fragment layouts (per-thread register ownership).

On the A100 the FP64 tensor-core MMA is a warp-wide instruction over

* fragment **A** — the 8x4 left operand, one element per thread,
* fragment **B** — the 4x8 right operand, one element per thread,
* fragment **ACC** — the 8x8 accumulator, two elements per thread
  (registers R0 and R1).

The ownership functions below reproduce the PTX layout the paper draws in
Fig. 6(a):

* ``A[i][j]``   is held by thread ``4*i + j``;
* ``B[i][j]``   is held by thread ``4*j + i``;
* ``C[i][j]``   is held by thread ``4*i + j//2`` in register ``j % 2`` —
  i.e. thread T0 holds the two *consecutive* elements ``C[0][0], C[0][1]``.

This last fact is the entire foundation of Butterfly Vector Swapping: the
R0 registers of a warp, read across threads, form exactly the even
columns ``{0,2,4,6}`` of the accumulator *already laid out like a
fragment A*, and the R1 registers form the odd columns.
"""

from __future__ import annotations

import enum

__all__ = [
    "FragmentKind",
    "FP64_FRAGMENT_SHAPES",
    "WARP_SIZE",
    "owner_of",
    "thread_slots",
    "registers_per_thread",
]

#: Threads per warp.
WARP_SIZE = 32


class FragmentKind(enum.Enum):
    """Role of a fragment in ``D = A @ B + C``."""

    A = "matrix_a"
    B = "matrix_b"
    ACC = "accumulator"

    # members are singletons compared by identity, so the identity hash is
    # exact; it spares every per-kind table lookup Enum's Python-level hash
    __hash__ = object.__hash__

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: (rows, cols) of each FP64 fragment kind.
FP64_FRAGMENT_SHAPES: dict[FragmentKind, tuple[int, int]] = {
    FragmentKind.A: (8, 4),
    FragmentKind.B: (4, 8),
    FragmentKind.ACC: (8, 8),
}


def registers_per_thread(kind: FragmentKind) -> int:
    """How many FP64 registers each thread dedicates to ``kind``."""
    rows, cols = FP64_FRAGMENT_SHAPES[kind]
    return (rows * cols) // WARP_SIZE


def owner_of(kind: FragmentKind, row: int, col: int) -> tuple[int, int]:
    """(thread, register) owning element ``(row, col)`` of a fragment."""
    rows, cols = FP64_FRAGMENT_SHAPES[kind]
    if not (0 <= row < rows and 0 <= col < cols):
        raise IndexError(
            f"({row}, {col}) outside {kind.name} fragment of shape {rows}x{cols}"
        )
    if kind is FragmentKind.A:
        return 4 * row + col, 0
    if kind is FragmentKind.B:
        return 4 * col + row, 0
    # accumulator: two consecutive columns per thread
    return 4 * row + col // 2, col % 2


def thread_slots(kind: FragmentKind, thread: int) -> list[tuple[int, int]]:
    """Fragment elements ``(row, col)`` held by ``thread``, register order."""
    if not 0 <= thread < WARP_SIZE:
        raise IndexError(f"thread {thread} outside warp of {WARP_SIZE}")
    if kind is FragmentKind.A:
        return [(thread // 4, thread % 4)]
    if kind is FragmentKind.B:
        return [(thread % 4, thread // 4)]
    row, pair = thread // 4, thread % 4
    return [(row, 2 * pair), (row, 2 * pair + 1)]
