"""Block partitioning of an N-D grid onto a device mesh.

Originally 2D-only; the distributed runtime (``repro.parallel.plan``)
partitions 1D, 2D and 3D grids with the same balanced block
distribution, so :class:`Subdomain` carries one slice per axis.  The
2D accessors (``row_slice``/``col_slice``) survive as properties — every
pre-existing consumer reads them, none constructs subdomains directly.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Subdomain", "Partition", "partition"]


@dataclass(frozen=True)
class Subdomain:
    """One device's block of the global grid."""

    rank: int
    mesh_pos: tuple[int, ...]  # position in the device mesh, one per axis
    slices: tuple[slice, ...]  # owned index range per axis

    @property
    def ndim(self) -> int:
        return len(self.slices)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(s.stop - s.start for s in self.slices)

    @property
    def row_slice(self) -> slice:
        """First-axis slice (2D convention kept for existing callers)."""
        return self.slices[0]

    @property
    def col_slice(self) -> slice:
        """Second-axis slice (2D convention kept for existing callers)."""
        return self.slices[1]


@dataclass(frozen=True)
class Partition:
    """A full block partition of an N-D grid on a device mesh."""

    global_shape: tuple[int, ...]
    mesh: tuple[int, ...]
    subdomains: tuple[Subdomain, ...]

    @property
    def ndim(self) -> int:
        return len(self.global_shape)

    @property
    def num_devices(self) -> int:
        n = 1
        for m in self.mesh:
            n *= m
        return n

    def at(self, *pos: int) -> Subdomain:
        """Subdomain at mesh position ``pos`` (one index per mesh axis)."""
        if len(pos) != len(self.mesh):
            raise ValueError(
                f"mesh position {pos} has {len(pos)} axes, mesh is {self.mesh}"
            )
        rank = 0
        for p, m in zip(pos, self.mesh):
            rank = rank * m + p
        return self.subdomains[rank]

    def neighbor(
        self, sub: Subdomain, *deltas: int, periodic: bool
    ) -> Subdomain | None:
        """Mesh neighbor in direction ``deltas`` (None past a
        non-periodic global edge)."""
        if len(deltas) != len(self.mesh):
            raise ValueError(
                f"direction {deltas} has {len(deltas)} axes, mesh is {self.mesh}"
            )
        pos = []
        for p, d, m in zip(sub.mesh_pos, deltas, self.mesh):
            q = p + d
            if periodic:
                q %= m
            elif not 0 <= q < m:
                return None
            pos.append(q)
        return self.at(*pos)


def _split(n: int, parts: int) -> list[slice]:
    """Split ``n`` items into ``parts`` contiguous nearly-equal slices."""
    base, extra = divmod(n, parts)
    slices = []
    start = 0
    for i in range(parts):
        size = base + (1 if i < extra else 0)
        slices.append(slice(start, start + size))
        start += size
    return slices


def partition(
    global_shape: tuple[int, ...], mesh: tuple[int, ...]
) -> Partition:
    """Block-partition ``global_shape`` onto a device ``mesh``.

    ``mesh`` has one entry per grid axis (a 1D mesh for 1D grids, the
    classic ``(P, Q)`` for 2D, ``(Z, P, Q)`` for 3D — use ``Z = 1`` for
    the pencil decomposition).  Every subdomain must be non-empty;
    uneven shapes distribute the remainder over the leading ranks (the
    standard block distribution).
    """
    global_shape = tuple(int(n) for n in global_shape)
    mesh = tuple(int(m) for m in mesh)
    if len(global_shape) != len(mesh):
        raise ValueError(
            f"grid {global_shape} and mesh {mesh} must have the same "
            "number of axes"
        )
    if not 1 <= len(mesh) <= 3:
        raise ValueError(f"partition supports 1-3 axes, got {len(mesh)}")
    if any(m < 1 for m in mesh):
        raise ValueError(f"mesh must be positive, got {mesh}")
    if any(n < m for n, m in zip(global_shape, mesh)):
        raise ValueError(
            f"grid {global_shape} too small for a {mesh} device mesh"
        )
    axis_slices = [_split(n, m) for n, m in zip(global_shape, mesh)]
    positions: list[tuple[int, ...]] = [()]
    for m in mesh:
        positions = [pos + (p,) for pos in positions for p in range(m)]
    subs = tuple(
        Subdomain(
            rank=rank,
            mesh_pos=pos,
            slices=tuple(axis_slices[ax][p] for ax, p in enumerate(pos)),
        )
        for rank, pos in enumerate(positions)
    )
    return Partition(global_shape=global_shape, mesh=mesh, subdomains=subs)
