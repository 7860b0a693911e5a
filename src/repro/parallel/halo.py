"""Halo exchange with interconnect byte accounting (sync and async).

Each timestep, every device needs its block padded by the stencil
radius; the pad cells live on neighbouring devices (or on the global
boundary).  :class:`HaloExchanger` materializes those padded windows —
for 1D, 2D and 3D partitions — and counts every FP64 value that crosses
a device boundary, the quantity the cluster timing model charges to the
interconnect.

Two execution paths share one byte count:

* :meth:`HaloExchanger.exchange` — the synchronous path: assemble,
  pad, slice, return windows.
* :meth:`HaloExchanger.exchange_async` — the ``cp.async``-modeled path:
  boundary data is committed into one of two alternating staging
  buffers at issue time (the async-copy *commit*), the pad + window
  materialization (the *transfer*) runs on a background lane, and
  :meth:`AsyncHaloHandle.wait` is the ``cp.async.wait_group`` barrier.
  The caller computes interior work between issue and wait; the
  windows returned are bit-identical to the synchronous path because
  the staging buffer snapshots the blocks before ``issue`` returns.

The data movement is performed through a global assembly (simulation
convenience); the byte accounting is computed per device from exact
ownership of every halo cell, which is what a point-to-point
implementation would transfer.  Every exchange moves
:meth:`HaloExchanger.total_bytes_per_exchange` bytes and every
retransmission :meth:`HaloExchanger.bytes_per_exchange` of its rank;
:attr:`HaloExchanger.exchanged_bytes` is the exchanger's lifetime total,
and a cluster run keeps its own per-run ledger from the same figures.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor

import numpy as np

from repro.parallel.decomposition import Partition, Subdomain

__all__ = ["HaloExchanger", "AsyncHaloHandle"]

_FP64 = 8


class AsyncHaloHandle:
    """An in-flight halo exchange (the ``cp.async`` commit → wait pair).

    Returned by :meth:`HaloExchanger.exchange_async`; :meth:`wait`
    blocks until the windows are materialized and returns them.  The
    handle resolves exactly one exchange — waiting twice returns the
    same windows without re-transferring (or re-accounting) anything.
    """

    def __init__(self, future: Future, bytes_issued: int) -> None:
        self._future = future
        #: interconnect bytes this exchange moved (already accounted)
        self.bytes_issued = bytes_issued

    @property
    def done(self) -> bool:
        """Whether the transfer has completed (non-blocking probe)."""
        return self._future.done()

    def wait(self) -> dict[int, np.ndarray]:
        """Block until arrival; returns every rank's padded window."""
        return self._future.result()


class HaloExchanger:
    """Pads every subdomain from its neighbours each step."""

    def __init__(
        self,
        part: Partition,
        radius: int,
        boundary: str = "constant",
    ) -> None:
        if boundary not in ("constant", "periodic"):
            raise ValueError(
                f"halo exchange supports 'constant' or 'periodic', got {boundary!r}"
            )
        if radius < 0:
            raise ValueError(f"radius must be >= 0, got {radius}")
        self.part = part
        self.radius = radius
        self.boundary = boundary
        #: total interconnect bytes this exchanger has moved, over every
        #: exchange and retransmission it served
        self.exchanged_bytes = 0
        self._remote_cells = {
            sub.rank: self._count_remote_cells(sub) for sub in part.subdomains
        }
        # cp.async double buffer: two staging buffers alternate between
        # consecutive exchanges, so issue N+1 never overwrites the data
        # transfer N is still reading
        self._buffers: list[np.ndarray | None] = [None, None]
        self._buf_idx = 0
        self._lane: ThreadPoolExecutor | None = None
        self._in_flight: AsyncHaloHandle | None = None
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def bytes_per_exchange(self, rank: int) -> int:
        """Interconnect bytes one device receives per exchange."""
        return self._remote_cells[rank] * _FP64

    def total_bytes_per_exchange(self) -> int:
        """Interconnect bytes one full exchange moves (all ranks)."""
        return sum(
            self.bytes_per_exchange(s.rank) for s in self.part.subdomains
        )

    def _count_remote_cells(self, sub: Subdomain) -> int:
        """Halo cells of ``sub`` owned by a *different* device.

        Both the valid-cell and the locally-owned-cell masks are outer
        products of per-axis masks, so the 2D ``(valid & ~local).sum()``
        generalizes to any dimension as a difference of products of the
        per-axis sums.
        """
        h = self.radius
        n_valid = 1
        n_local = 1
        for ax, n in enumerate(self.part.global_shape):
            idx = np.arange(sub.slices[ax].start - h, sub.slices[ax].stop + h)
            if self.boundary == "periodic":
                src = idx % n
                valid = np.ones_like(idx, dtype=bool)
            else:
                valid = (idx >= 0) & (idx < n)
                src = np.clip(idx, 0, n - 1)
            local = (src >= sub.slices[ax].start) & (src < sub.slices[ax].stop)
            n_valid *= int(valid.sum())
            n_local *= int((valid & local).sum())
        return n_valid - n_local

    # ------------------------------------------------------------------
    def _assemble(self, blocks: dict[int, np.ndarray]) -> np.ndarray:
        """Copy every rank's block into the current staging buffer.

        This is the ``cp.async`` *commit*: after it returns, the source
        blocks may be overwritten — the exchange reads the snapshot.
        """
        buf = self._buffers[self._buf_idx]
        if buf is None or buf.shape != self.part.global_shape:
            buf = np.empty(self.part.global_shape, dtype=np.float64)
            self._buffers[self._buf_idx] = buf
        self._buf_idx = 1 - self._buf_idx
        for sub in self.part.subdomains:
            block = np.asarray(blocks[sub.rank], dtype=np.float64)
            if block.shape != sub.shape:
                raise ValueError(
                    f"rank {sub.rank} block has shape {block.shape}, "
                    f"expected {sub.shape}"
                )
            buf[sub.slices] = block
        return buf

    def _materialize(self, global_arr: np.ndarray) -> dict[int, np.ndarray]:
        """Pad the assembled grid and slice out every rank's window."""
        h = self.radius
        mode = "wrap" if self.boundary == "periodic" else "constant"
        padded_global = np.pad(global_arr, h, mode=mode)
        # kept for retransmission: a receiver that detects a corrupted
        # window re-requests it from this (sender-side) padded snapshot
        self._last_padded = padded_global
        return {
            sub.rank: padded_global[sub.window_slices(h)].copy()
            for sub in self.part.subdomains
        }

    def retransmit(self, rank: int) -> np.ndarray:
        """Re-send one rank's window from the last exchange's snapshot.

        Models the receiver-driven retransmission of a halo transfer
        that failed strip-checksum verification: the sender still holds
        the padded snapshot, so the replacement window is sliced from
        identical bits.  The re-sent bytes are real interconnect
        traffic — they fold into :attr:`exchanged_bytes` like any
        first transmission.
        """
        padded = getattr(self, "_last_padded", None)
        if padded is None:
            raise RuntimeError("no exchange to retransmit from")
        sub = next(s for s in self.part.subdomains if s.rank == rank)
        moved = self.bytes_per_exchange(rank)
        with self._lock:
            self.exchanged_bytes += moved
        return padded[sub.window_slices(self.radius)].copy()

    def _account(self) -> int:
        """Fold one full exchange into the byte ledger; returns bytes."""
        moved = self.total_bytes_per_exchange()
        with self._lock:
            self.exchanged_bytes += moved
        return moved

    # ------------------------------------------------------------------
    def exchange(self, blocks: dict[int, np.ndarray]) -> dict[int, np.ndarray]:
        """One synchronous halo exchange: every rank's padded window."""
        global_arr = self._assemble(blocks)
        self._account()
        return self._materialize(global_arr)

    def exchange_async(
        self, blocks: dict[int, np.ndarray]
    ) -> AsyncHaloHandle:
        """Issue a halo exchange; returns a waitable handle.

        The commit (block snapshot into the staging buffer) happens
        before this returns; the transfer (pad + window materialization)
        proceeds on the exchanger's background lane while the caller
        computes interior work.  At most one exchange may be in flight —
        the two staging buffers back one transfer and one commit.
        """
        with self._lock:
            if self._in_flight is not None and not self._in_flight.done:
                raise RuntimeError(
                    "an async halo exchange is already in flight; wait() "
                    "on its handle before issuing another (double buffer)"
                )
        global_arr = self._assemble(blocks)
        moved = self._account()
        if self._lane is None:
            self._lane = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="halo-dma"
            )
        future = self._lane.submit(self._materialize, global_arr)
        handle = AsyncHaloHandle(future, moved)
        with self._lock:
            self._in_flight = handle
        return handle
