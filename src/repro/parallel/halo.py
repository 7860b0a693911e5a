"""Halo exchange with interconnect byte accounting (sync and async).

Each timestep, every device needs its block padded by the stencil
radius; the pad cells live on neighbouring devices (or on the global
boundary).  :class:`HaloExchanger` builds those padded windows — for
1D, 2D and 3D partitions — straight from the owners' blocks, as §IV-B
gathers a halo from the neighbouring data with no intermediate copy:
each window is the rank's own block plus the intersecting pieces of
its neighbours' blocks, zero outside the domain under ``constant`` and
wrapped under ``periodic``.  No global grid is ever assembled.  Every
exchange returns fresh windows, so a caller still holding round N's
windows is safe while round N+1 is issued.

:meth:`HaloExchanger.exchange` is the synchronous path;
:meth:`HaloExchanger.exchange_async` the ``cp.async``-modeled one,
whose *commit* builds the windows at issue (snapshotting the blocks)
and whose :meth:`AsyncHaloHandle.wait` barrier is resolved at issue.
How much of the transfer the interior sweep would hide is modeled, not
executed (see :class:`~repro.parallel.cluster.ClusterTimings`).

Every exchange moves :meth:`HaloExchanger.total_bytes_per_exchange`
bytes and every retransmission :meth:`HaloExchanger.bytes_per_exchange`
of its rank: the cells a window copies from another rank's block, which
is what a point-to-point implementation would transfer.
:attr:`HaloExchanger.exchanged_bytes` is the exchanger's lifetime
total, and a cluster run keeps its own per-run ledger from the same
figures.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from repro.parallel.decomposition import Partition, Subdomain, _split
from repro.parallel.distributed import _impose_dirichlet

__all__ = ["HaloExchanger", "AsyncHaloHandle"]

_FP64 = 8


class AsyncHaloHandle:
    """An issued halo exchange (the ``cp.async`` commit → wait pair),
    resolved at issue: :meth:`wait` returns the same windows however
    often it is called, without re-accounting anything."""

    def __init__(self, windows: dict[int, np.ndarray], bytes_issued: int) -> None:
        self._windows = windows
        #: interconnect bytes this exchange moved (already accounted)
        self.bytes_issued = bytes_issued

    @property
    def done(self) -> bool:
        """Whether the transfer has completed: always, at issue."""
        return True

    def wait(self) -> dict[int, np.ndarray]:
        """The ``cp.async.wait_group`` barrier: every rank's window."""
        return self._windows


def _axis_pieces(
    bounds: list[slice], lo: int, hi: int, periodic: bool
) -> list[tuple[slice, int | None, slice | None]]:
    """Cover global coordinates ``[lo, hi)`` of one axis with owners:
    ``(window slice, mesh index, block slice)`` pieces in order, where
    ``bounds`` holds each mesh index's range and the mesh index is
    ``None`` outside a non-periodic domain."""
    n = bounds[-1].stop
    pieces = []
    g = lo
    while g < hi:
        q = g % n if periodic else g
        if not 0 <= q < n:
            end = min(hi, 0) if q < 0 else hi
            pieces.append((slice(g - lo, end - lo), None, None))
        else:
            p = next(i for i, s in enumerate(bounds) if q < s.stop)
            end = min(hi, g + bounds[p].stop - q)
            off = q - bounds[p].start
            pieces.append(
                (slice(g - lo, end - lo), p, slice(off, off + end - g))
            )
        g = end
    return pieces


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
        self._copies = {sub.rank: self._plan(sub) for sub in part.subdomains}
        self._remote_cells = {
            rank: sum(
                int(np.prod([s.stop - s.start for s in dst]))
                for dst, owner, _ in copies
                if owner != rank
            )
            for rank, copies in self._copies.items()
        }
        # the senders' blocks of the last exchange, for retransmission
        self._sent: dict[int, np.ndarray] | None = None

    # ------------------------------------------------------------------
    def bytes_per_exchange(self, rank: int) -> int:
        """Interconnect bytes one device receives per exchange."""
        return self._remote_cells[rank] * _FP64

    def total_bytes_per_exchange(self) -> int:
        """Interconnect bytes one full exchange moves (all ranks)."""
        return sum(
            self.bytes_per_exchange(s.rank) for s in self.part.subdomains
        )

    def _plan(self, sub: Subdomain) -> list[tuple]:
        """The pieces ``sub``'s window copies: ``(window slices, owner
        rank, block slices)``, one per intersecting owner block (more
        where a periodic window wraps)."""
        h, part = self.radius, self.part
        axes = [
            _axis_pieces(
                _split(n, m), s.start - h, s.stop + h,
                self.boundary == "periodic",
            )
            for n, m, s in zip(part.global_shape, part.mesh, sub.slices)
        ]
        return [
            (
                tuple(dst for dst, _, _ in combo),
                part.at(*(p for _, p, _ in combo)).rank,
                tuple(src for _, _, src in combo),
            )
            for combo in product(*axes)
            if all(p is not None for _, p, _ in combo)
        ]

    def _build(self, sub: Subdomain) -> np.ndarray:
        """``sub``'s padded window, copied from the last exchange's
        blocks piece by piece."""
        out = np.empty(tuple(n + 2 * self.radius for n in sub.shape))
        for dst, owner, src in self._copies[sub.rank]:
            out[dst] = self._sent[owner][src]
        if self.boundary == "constant":
            _impose_dirichlet(
                out,
                [s.start - self.radius for s in sub.slices],
                self.part.global_shape,
            )
        return out

    def retransmit(self, rank: int) -> np.ndarray:
        """Re-send one rank's window from the last exchange's blocks.

        Models the receiver-driven retransmission of a halo transfer
        that failed strip-checksum verification: the senders keep the
        round's blocks until its windows verify, so the replacement
        window is rebuilt from identical bits.  The re-sent bytes are
        real interconnect traffic — they fold into
        :attr:`exchanged_bytes` like any first transmission.
        """
        if self._sent is None:
            raise RuntimeError("no exchange to retransmit from")
        self.exchanged_bytes += self.bytes_per_exchange(rank)
        return self._build(self.part.subdomains[rank])

    # ------------------------------------------------------------------
    def exchange(self, blocks: dict[int, np.ndarray]) -> dict[int, np.ndarray]:
        """One synchronous halo exchange: every rank's padded window.

        The blocks are only read: once this returns, the caller may
        overwrite them.
        """
        sent = {}
        for sub in self.part.subdomains:
            block = np.asarray(blocks[sub.rank], dtype=np.float64)
            if block.shape != sub.shape:
                raise ValueError(
                    f"rank {sub.rank} block has shape {block.shape}, "
                    f"expected {sub.shape}"
                )
            sent[sub.rank] = block
        self._sent = sent
        self.exchanged_bytes += self.total_bytes_per_exchange()
        return {sub.rank: self._build(sub) for sub in self.part.subdomains}

    def exchange_async(
        self, blocks: dict[int, np.ndarray]
    ) -> AsyncHaloHandle:
        """Issue a halo exchange; returns its handle, resolved at issue
        (the commit snapshots the blocks into the windows)."""
        return AsyncHaloHandle(
            self.exchange(blocks), self.total_bytes_per_exchange()
        )
