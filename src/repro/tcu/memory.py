"""Simulated GPU memories with request counting.

Two levels are modelled, matching what the paper measures:

* :class:`GlobalMemory` — DRAM; traffic is counted in bytes.
* :class:`SharedMemory` — per-SM scratchpad; traffic is counted in
  *requests*, the unit Nsight Compute reports in Fig. 10.  A fragment
  load is one request (one warp-wide ``ldmatrix``-style instruction); a
  store counts one request per 32 FP64 elements (one warp-wide store).

Copies from global to shared normally stage through registers; the
``cp.async`` path (Section IV-B) bypasses them, which the simulator
records via ``register_intermediate_bytes`` / ``async_copies`` so the
Fig. 9 breakdown can price the difference.

Bank conflicts are charged once per access shape: every fragment load
reads an affine address grid, and a grid's conflict count does not
depend on its origin (see ``_affine_access``), so each loader charges
a count cached per shape and strides instead of rebuilding addresses.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from repro.tcu.counters import EventCounters
from repro.tcu.trace import maybe_trace

__all__ = ["SharedMemory", "GlobalMemory", "bank_conflict_cycles"]

_FP64_BYTES = 8
#: FP64 elements moved by one warp-wide shared-memory store instruction.
_STORE_LANES = 32
#: FP64 word-banks of the shared memory (32 x 8B banking model).
_NUM_BANKS = 32


def bank_conflict_cycles(flat_addresses: np.ndarray) -> int:
    """Replay cycles for one warp-wide access to ``flat_addresses``.

    Model: 32 FP64 word-banks, bank = address mod 32.  Lanes reading the
    *same* address broadcast for free; distinct addresses on the same
    bank serialize.  The cost is ``max_bank_degree - 1`` replays.
    """
    flat = np.asarray(flat_addresses).reshape(-1)
    if flat.size == 0:
        return 0
    distinct = np.unique(flat).astype(np.int64)
    return int(np.bincount(distinct % _NUM_BANKS).max()) - 1


@functools.lru_cache(maxsize=256)
def _affine_access(
    rows: int, cols: int, row_stride: int, col_stride: int
) -> tuple[np.ndarray, int]:
    """Offsets and replay cycles of a load whose element ``(r, c)`` is at
    ``origin + r*row_stride + c*col_stride``, for any integer origin.

    The offsets are taken from origin 0.  The replay count holds for
    every origin: shifting every address by a constant ``s`` keeps
    distinct addresses distinct and maps bank ``b`` to bank
    ``(b + s) mod 32``, a permutation of the 32 banks.  The number of
    distinct addresses per bank is therefore only permuted, and its
    maximum, which sets the replay count, is unchanged.  So the count
    depends on the shape and strides alone, and is computed once per
    ``(rows, cols, row_stride, col_stride)``.
    """
    offsets = (
        np.arange(rows)[:, None] * row_stride
        + np.arange(cols)[None, :] * col_stride
    )
    # loaders gather ``flat[start + offsets]``: like the fragment tables,
    # flat indexing keeps the GIL where ``take`` would release it
    offsets.flags.writeable = False
    return offsets, bank_conflict_cycles(offsets)


class SharedMemory:
    """A 2D shared-memory tile owned by one thread block."""

    def __init__(
        self,
        shape: tuple[int, int],
        counters: EventCounters,
        name: str = "smem",
    ) -> None:
        self.data = np.zeros(shape, dtype=np.float64)
        self.counters = counters
        self.name = name

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    @property
    def nbytes(self) -> int:
        return self.data.size * _FP64_BYTES

    # -- loads ----------------------------------------------------------
    def read_fragment(self, row: int, col: int, shape: tuple[int, int]) -> np.ndarray:
        """Warp-level fragment load: one shared-memory load request."""
        r, c = shape
        tile = self.data[row : row + r, col : col + c]
        if tile.shape != shape:
            raise IndexError(
                f"fragment read ({row},{col})+{shape} exceeds {self.name} "
                f"of shape {self.data.shape}"
            )
        self.counters.shared_load_requests += 1
        _, conflicts = _affine_access(r, c, self.data.shape[1], 1)
        self.counters.shared_bank_conflicts += conflicts
        return tile.copy()

    def read_fragment_strided(
        self,
        start: int,
        shape: tuple[int, int],
        col_stride: int,
    ) -> np.ndarray:
        """Fragment load with a column stride over the flattened buffer.

        Element ``(r, q)`` comes from flat offset ``start + q*col_stride + r``.
        Used by the 1D engine, whose input windows are overlapping
        segments of a flat buffer; like :meth:`read_fragment` it costs a
        single load request.
        """
        rows, cols = shape
        flat = self.data.reshape(-1)
        end = start + (cols - 1) * col_stride + rows
        if start < 0 or end > flat.size:
            raise IndexError(
                f"strided fragment [{start}, {end}) exceeds {self.name} "
                f"of {flat.size} elements"
            )
        offsets, conflicts = _affine_access(rows, cols, 1, col_stride)
        self.counters.shared_load_requests += 1
        self.counters.shared_bank_conflicts += conflicts
        maybe_trace(self.counters, "load_strided", "@{}", start)
        return flat[start + offsets]

    def read_fragment_view(
        self,
        start: int,
        shape: tuple[int, int],
        row_stride: int,
        col_stride: int = 1,
    ) -> np.ndarray:
        """Fragment load through an arbitrary 2D view of the flat buffer.

        Element ``(r, c)`` comes from flat offset
        ``start + r*row_stride + c*col_stride``.  Overlapping views of
        compactly stored data are how ConvStencil's stencil2row matrices
        are consumed; each call costs one load request.
        """
        rows, cols = shape
        flat = self.data.reshape(-1)
        last = start + (rows - 1) * row_stride + (cols - 1) * col_stride
        if start < 0 or last >= flat.size:
            raise IndexError(
                f"fragment view [{start}..{last}] exceeds {self.name} "
                f"of {flat.size} elements"
            )
        offsets, conflicts = _affine_access(rows, cols, row_stride, col_stride)
        self.counters.shared_load_requests += 1
        self.counters.shared_bank_conflicts += conflicts
        maybe_trace(self.counters, "load_view", "@{}", start)
        return flat[start + offsets]

    def read_scalar_tile(self, row: int, col: int, shape: tuple[int, int]) -> np.ndarray:
        """CUDA-core (non-fragment) tile read: one request per 32 lanes."""
        r, c = shape
        tile = self.data[row : row + r, col : col + c]
        if tile.shape != shape:
            raise IndexError(
                f"tile read ({row},{col})+{shape} exceeds {self.name} "
                f"of shape {self.data.shape}"
            )
        self.counters.shared_load_requests += max(1, math.ceil(tile.size / _STORE_LANES))
        return tile.copy()

    # -- stores ----------------------------------------------------------
    def write_tile(
        self,
        row: int,
        col: int,
        tile: np.ndarray,
        via_registers: bool = True,
    ) -> None:
        """Store a tile; counts one request per 32 FP64 elements.

        ``via_registers=True`` models the classic global->register->shared
        copy; the register staging bytes are recorded so the async-copy
        optimization has something to eliminate.
        """
        tile = np.asarray(tile, dtype=np.float64)
        r, c = tile.shape
        dst = self.data[row : row + r, col : col + c]
        if dst.shape != tile.shape:
            raise IndexError(
                f"tile store ({row},{col})+{tile.shape} exceeds {self.name} "
                f"of shape {self.data.shape}"
            )
        dst[...] = tile
        maybe_trace(self.counters, "smem_store", "{}", tile.shape)
        self.counters.shared_store_requests += max(1, math.ceil(tile.size / _STORE_LANES))
        if via_registers:
            self.counters.register_intermediate_bytes += tile.size * _FP64_BYTES


class GlobalMemory:
    """DRAM-resident array (any dimensionality) with byte counting."""

    def __init__(
        self,
        array: np.ndarray,
        counters: EventCounters,
        name: str = "gmem",
    ) -> None:
        self.data = np.asarray(array, dtype=np.float64)
        self.counters = counters
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def read(self, index: tuple[slice, ...] | slice) -> np.ndarray:
        """Read a DRAM tile (byte-counted)."""
        tile = self.data[index]
        self.counters.global_load_bytes += tile.size * _FP64_BYTES
        return np.array(tile, dtype=np.float64)

    def write(self, index: tuple[slice, ...] | slice, value: np.ndarray) -> None:
        """Write a DRAM tile (byte-counted)."""
        value = np.asarray(value, dtype=np.float64)
        dst = self.data[index]
        if dst.shape != value.shape:
            raise IndexError(
                f"global store shape mismatch: {value.shape} into {dst.shape}"
            )
        self.data[index] = value
        self.counters.global_store_bytes += value.size * _FP64_BYTES

    # -- global -> shared copies ------------------------------------------
    def copy_to_shared(
        self,
        index: tuple[slice, ...] | slice,
        shared: SharedMemory,
        row: int = 0,
        col: int = 0,
        use_async: bool = False,
    ) -> None:
        """Copy a global tile into shared memory.

        With ``use_async`` (the ``cp.async`` instruction) the data skips
        the register file; otherwise the staging bytes are charged.
        """
        tile = self.read(index)
        if tile.ndim != 2:
            raise ValueError(
                f"copy_to_shared requires a 2D tile, got shape {tile.shape}"
            )
        shared.write_tile(row, col, tile, via_registers=not use_async)
        if use_async:
            self.counters.async_copies += 1
