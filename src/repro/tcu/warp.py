"""Warp-level WMMA operations.

:class:`Warp` exposes the operations a CUDA warp has at its disposal in
the paper's implementation:

* ``load_matrix_sync`` / ``store_matrix_sync`` — fragment traffic between
  shared memory and the register file;
* ``mma_sync`` — one FP64 ``m8n8k4`` tensor-core instruction;
* ``split_accumulator_naive`` — the *direct* partition of an 8x8
  accumulator into two 8x4 left operands, which requires inter-thread
  shuffles (counted through a generic transfer planner);
* ``split_accumulator_bvs`` — Butterfly Vector Swapping: reading the R0
  registers as the even-column fragment and the R1 registers as the
  odd-column fragment.  By the PTX ownership maps this is a pure
  register *reinterpretation*; the method performs no inter-thread data
  movement and increments no shuffle counter, which is exactly the
  paper's claim in Section III-D.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ExecutionError
from repro.tcu.counters import EventCounters
from repro.tcu.fragment import Fragment
from repro.tcu.trace import maybe_trace
from repro.tcu.layouts import FP64_FRAGMENT_SHAPES, WARP_SIZE, FragmentKind, owner_of
from repro.tcu.memory import GlobalMemory, SharedMemory

__all__ = ["Warp", "BVS_EVEN_ODD_ORDER"]

#: Column order produced by the BVS accumulator split: the even columns
#: (R0 registers) followed by the odd columns (R1 registers).  The rows of
#: the right-hand operand must be permuted identically (Eq. 17).
BVS_EVEN_ODD_ORDER: tuple[int, ...] = (0, 2, 4, 6, 1, 3, 5, 7)


class Warp:
    """A warp of 32 threads driving one tensor core.

    ``injector`` (a :class:`repro.faults.injector.FaultInjector`) opts
    the warp into deterministic fault injection: each ``mma_sync``
    offers its A/B/C operands to the injector before the tensor core
    fires.  ``None`` (the default) costs one attribute check per MMA.
    ``profiler`` (a :class:`repro.telemetry.perf.InstrProfiler`, or any
    object with its ``record`` hook) opts the programs interpreted on
    this warp into per-instruction attribution (see
    :func:`repro.tcu.program.execute_program`).
    """

    def __init__(
        self, counters: EventCounters, injector=None, profiler=None
    ) -> None:
        self.counters = counters
        self.injector = injector
        self.profiler = profiler

    # ------------------------------------------------------------------
    # fragment traffic
    # ------------------------------------------------------------------
    def load_matrix_sync(
        self,
        kind: FragmentKind,
        shared: SharedMemory,
        row: int,
        col: int,
    ) -> Fragment:
        """Load one fragment from shared memory (one load request)."""
        shape = FP64_FRAGMENT_SHAPES[kind]
        tile = shared.read_fragment(row, col, shape)
        maybe_trace(self.counters, "load_matrix", "{0.name}@({1},{2})", kind, row, col)
        return Fragment._own(kind, tile)

    def fill_fragment(self, kind: FragmentKind, matrix: np.ndarray) -> Fragment:
        """Build a fragment from register-resident values (no memory event).

        Used for weight fragments that a block materializes once and
        reuses for its whole lifetime.
        """
        return Fragment.from_matrix(kind, matrix)

    def store_matrix_sync(
        self,
        frag: Fragment,
        shared: SharedMemory,
        row: int,
        col: int,
    ) -> None:
        """Store an accumulator tile back to shared memory."""
        shared.write_tile(row, col, frag.to_matrix(), via_registers=False)

    def store_matrix_global(
        self,
        frag: Fragment,
        gmem: GlobalMemory,
        index: tuple[slice, ...],
    ) -> None:
        """Store an accumulator tile directly to global memory."""
        gmem.write(index, frag.to_matrix())

    # ------------------------------------------------------------------
    # compute
    # ------------------------------------------------------------------
    def mma_sync(
        self,
        a: Fragment,
        b: Fragment,
        acc: Fragment | None = None,
    ) -> Fragment:
        """``D = A @ B + C`` on the tensor core (one MMA instruction),
        over the operands' cached dense views; the result owns ``D``."""
        if a.kind is not FragmentKind.A:
            raise TypeError(f"left operand must be an A fragment, got {a.kind}")
        if b.kind is not FragmentKind.B:
            raise TypeError(f"right operand must be a B fragment, got {b.kind}")
        if acc is not None and acc.kind is not FragmentKind.ACC:
            raise TypeError(f"accumulator must be an ACC fragment, got {acc.kind}")
        if self.injector is not None:
            a, b, acc = self.injector.on_mma(a, b, acc)
        self.counters.mma_ops += 1
        maybe_trace(self.counters, "mma")
        d = a._matrix() @ b._matrix()
        if acc is not None:
            d += acc._matrix()
        return Fragment._own(FragmentKind.ACC, d)

    def cuda_core_axpy(self, out: np.ndarray, alpha: float, x: np.ndarray) -> None:
        """``out += alpha * x`` on the CUDA cores (2 FLOPs per element)."""
        if out.shape != x.shape:
            raise ValueError(f"axpy shape mismatch: {out.shape} vs {x.shape}")
        maybe_trace(self.counters, "cuda_axpy")
        out += alpha * x
        self.counters.cuda_core_flops += 2 * out.size

    # ------------------------------------------------------------------
    # accumulator splitting (the MCM bottleneck BVS removes)
    # ------------------------------------------------------------------
    def split_accumulator_bvs(self, acc: Fragment) -> tuple[Fragment, Fragment]:
        """Split an accumulator into (even-column, odd-column) A fragments.

        Thread ``t`` holds ``C[t//4][2*(t%4)]`` in R0; an A fragment
        assigns slot ``(t//4, t%4)`` to thread ``t``.  Hence the R0
        register file *is* the fragment holding columns ``0,2,4,6`` and
        R1 the one holding columns ``1,3,5,7`` — no thread exchanges any
        data, so no shuffle is counted.
        """
        if acc.kind is not FragmentKind.ACC:
            raise TypeError(f"expected accumulator fragment, got {acc.kind}")
        maybe_trace(self.counters, "bvs_split")
        even = Fragment(FragmentKind.A, acc.registers[:, 0:1].copy())
        odd = Fragment(FragmentKind.A, acc.registers[:, 1:2].copy())
        return even, odd

    def split_accumulator_naive(self, acc: Fragment) -> tuple[Fragment, Fragment]:
        """Split an accumulator into (columns 0..3, columns 4..7).

        This is the mathematically obvious partition of ``C`` into two
        left operands; it forces inter-thread shuffles, which are counted
        through the transfer planner.
        """
        if acc.kind is not FragmentKind.ACC:
            raise TypeError(f"expected accumulator fragment, got {acc.kind}")
        maybe_trace(self.counters, "naive_split")
        mat = acc.to_matrix()
        left = self._shuffle_into_a(acc, col_offset=0)
        right = self._shuffle_into_a(acc, col_offset=4)
        # functional result identical to a direct slice; NaN-aware, so a
        # poisoned accumulator reaches the ABFT guard instead of failing here
        for half, cols in ((left, slice(0, 4)), (right, slice(4, 8))):
            if not np.array_equal(half.to_matrix(), mat[:, cols], equal_nan=True):
                raise ExecutionError(
                    f"naive split: shuffled columns {cols.start}..{cols.stop - 1} "
                    f"differ from the accumulator's")
        return left, right

    def _shuffle_into_a(self, acc: Fragment, col_offset: int) -> Fragment:
        """Move accumulator columns ``col_offset..col_offset+3`` into an A
        fragment, pricing every cross-thread transfer.

        Transfers are grouped into warp-wide ``__shfl_sync`` instructions:
        all moves that share a source register and a lane delta execute as
        one instruction.
        """
        src = acc.registers
        regs = np.zeros((WARP_SIZE, 1), dtype=np.float64)
        groups: set[tuple[int, int]] = set()
        for i in range(8):
            for j in range(4):
                src_t, src_r = owner_of(FragmentKind.ACC, i, col_offset + j)
                dst_t, dst_r = owner_of(FragmentKind.A, i, j)
                regs[dst_t, dst_r] = src[src_t, src_r]
                if src_t != dst_t:
                    delta = (dst_t - src_t) % WARP_SIZE
                    groups.add((src_r, delta))
                    self.counters.register_moves += 1
        self.counters.shuffle_ops += len(groups)
        return Fragment(FragmentKind.A, regs)
