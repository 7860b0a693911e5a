"""Fault specifications: what to break, where, and when.

A :class:`FaultSpec` names one injectable fault — a bit flip in an
A/B/C fragment register feeding an ``mma.sync``, a corrupted
shared-memory tile load, a dropped ``cp.async`` commit group, NaN
poisoning, or a shard-worker crash/hang — pinned to a deterministic
*site* (the n-th MMA instruction, the n-th block staging, or a shard
index).  A :class:`FaultPlan` is an immutable set of specs, either
written by hand or drawn from a seeded RNG via :meth:`FaultPlan.random`
so an entire chaos campaign replays bit-for-bit from one integer seed.

Site ordinals are counted *per worker thread* (each shard resets its
own instruction/staging clocks when it starts), so a spec targeting
``site=5`` in ``shard=1`` fires at exactly the same instruction no
matter how the thread pool interleaves — the property the chaos suite's
determinism rests on.  An MMA or staging spec that names no shard
addresses shard 0 (an unsharded sweep counts as shard 0).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np

from repro.errors import InputValidationError

__all__ = [
    "FAULT_KINDS",
    "MMA_KINDS",
    "STAGE_KINDS",
    "SHARD_KINDS",
    "HALO_KINDS",
    "RANK_KINDS",
    "DEFAULT_FLIP_BIT",
    "FaultSpec",
    "FaultPlan",
]

#: Faults that fire on the n-th ``mma.sync`` of a worker thread.
MMA_KINDS = ("flip_a", "flip_b", "flip_acc", "nan_acc")
#: Faults that fire on the n-th shared-memory block staging.
STAGE_KINDS = ("flip_smem", "drop_commit", "nan_smem")
#: Faults that fire when the matching shard worker starts.
SHARD_KINDS = ("shard_crash", "shard_hang")
#: Faults that corrupt an exchanged halo window in flight.  ``site``
#: addresses the exchange round ordinal, ``shard`` the receiving rank
#: (``None`` hits whichever rank is visited first that round).
HALO_KINDS = ("halo_corrupt", "halo_drop", "halo_dup")
#: Faults that fire when the matching cluster rank starts a round.
#: Like shard kinds they address their target through ``site``.
RANK_KINDS = ("rank_crash", "rank_hang")
#: Every injectable fault kind.
FAULT_KINDS = MMA_KINDS + STAGE_KINDS + SHARD_KINDS + HALO_KINDS + RANK_KINDS

#: Default bit to flip: the exponent MSB.  Flipping bit 62 of *any*
#: float64 perturbs it by at least ~2 in magnitude (0.0 becomes 2.0,
#: values in [1, 2) become Inf/NaN, larger values collapse toward 0),
#: so the corruption can never be absorbed by rounding in a tile
#: checksum — the basis of the chaos suite's 100%-detection guarantee.
DEFAULT_FLIP_BIT = 62


@dataclass(frozen=True)
class FaultSpec:
    """One deterministic fault.

    ``kind`` selects the mechanism (see :data:`FAULT_KINDS`); ``site``
    is the per-thread ordinal of the MMA instruction or block staging
    to hit (for shard kinds, the shard index).  ``shard`` optionally
    addresses an MMA/stage fault to one shard's worker; ``None`` means
    shard 0, which is also the shard an unsharded sweep counts as, so a
    sharded campaign fires in the same worker on every run.  ``bit``/``lane``/
    ``reg`` pick the register-file element to corrupt; ``sticky``
    faults re-fire on every retry (the path that exhausts a recovery
    policy and proves the typed :class:`~repro.errors.FaultError`
    escape hatch); ``hang_s`` is the injected stall of a
    ``shard_hang``.
    """

    kind: str
    site: int = 0
    shard: int | None = None
    bit: int = DEFAULT_FLIP_BIT
    lane: int = 0
    reg: int = 0
    sticky: bool = False
    hang_s: float = 0.25

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise InputValidationError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{sorted(FAULT_KINDS)}"
            )
        if self.site < 0:
            raise InputValidationError(f"fault site must be >= 0, got {self.site}")
        if not 0 <= self.bit <= 63:
            raise InputValidationError(
                f"flip bit must be in [0, 63], got {self.bit}"
            )
        if self.kind in SHARD_KINDS + RANK_KINDS and self.shard is None:
            # shard/rank faults address their target through ``site``
            object.__setattr__(self, "shard", self.site)

    def as_dict(self) -> dict:
        """JSON-ready view (checkpoint manifests round-trip specs)."""
        return {
            "kind": self.kind,
            "site": self.site,
            "shard": self.shard,
            "bit": self.bit,
            "lane": self.lane,
            "reg": self.reg,
            "sticky": self.sticky,
            "hang_s": self.hang_s,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "FaultSpec":
        """Rebuild a spec serialized by :meth:`as_dict`."""
        return cls(
            kind=doc["kind"],
            site=int(doc.get("site", 0)),
            shard=doc.get("shard"),
            bit=int(doc.get("bit", DEFAULT_FLIP_BIT)),
            lane=int(doc.get("lane", 0)),
            reg=int(doc.get("reg", 0)),
            sticky=bool(doc.get("sticky", False)),
            hang_s=float(doc.get("hang_s", 0.25)),
        )

    def describe(self) -> str:
        """Compact one-line rendering, e.g. ``flip_a@site=2 bit=62``."""
        where = f"site={self.site}"
        if self.shard is not None and self.kind not in SHARD_KINDS + RANK_KINDS:
            where += f" shard={self.shard}"
        extra = " sticky" if self.sticky else ""
        if self.kind.startswith("flip"):
            extra += f" bit={self.bit}"
        return f"{self.kind}@{where}{extra}"


@dataclass(frozen=True)
class FaultPlan:
    """An immutable campaign of :class:`FaultSpec` entries.

    Construct directly, or draw a seeded campaign with :meth:`random`.
    The plan itself is inert — hand it to a
    :class:`~repro.faults.injector.FaultInjector` to arm it.
    """

    specs: tuple[FaultSpec, ...] = ()
    seed: int | None = None
    _kinds: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))

    @classmethod
    def random(
        cls,
        seed: int,
        kinds: Sequence[str] | None = None,
        count: int = 4,
        max_mma_site: int = 64,
        max_stage_site: int = 4,
        shards: int = 1,
        sticky: bool = False,
        ranks: int = 0,
        max_round: int = 4,
    ) -> "FaultPlan":
        """A deterministic campaign drawn from ``seed``.

        Each of the ``count`` faults picks a kind from ``kinds``
        (default: every kind applicable to the run — shard kinds only
        when ``shards > 1``, halo/rank kinds only when ``ranks > 0``)
        and a site uniformly inside the matching range.  ``ranks`` is
        the cluster rank count a halo/rank fault may target;
        ``max_round`` bounds the exchange-round ordinal a halo fault
        fires in.  The same arguments always produce the same plan —
        in particular the historical defaults (``ranks=0``) draw
        exactly the campaigns they always did.
        """
        if kinds is None:
            kinds = MMA_KINDS + STAGE_KINDS
            if shards > 1:
                kinds = kinds + SHARD_KINDS
            if ranks > 0:
                kinds = kinds + HALO_KINDS + RANK_KINDS
        for kind in kinds:
            if kind not in FAULT_KINDS:
                raise InputValidationError(
                    f"unknown fault kind {kind!r}; expected one of "
                    f"{sorted(FAULT_KINDS)}"
                )
        rng = np.random.default_rng(seed)
        specs = []
        for _ in range(count):
            kind = str(rng.choice(list(kinds)))
            if kind in SHARD_KINDS:
                site = int(rng.integers(0, max(1, shards)))
            elif kind in RANK_KINDS:
                site = int(rng.integers(0, max(1, ranks)))
            elif kind in HALO_KINDS:
                site = int(rng.integers(0, max(1, max_round)))
            elif kind in STAGE_KINDS:
                site = int(rng.integers(0, max(1, max_stage_site)))
            else:
                site = int(rng.integers(0, max(1, max_mma_site)))
            shard = None
            if kind in HALO_KINDS and ranks > 0:
                shard = int(rng.integers(0, ranks))
            elif shards > 1 and kind not in SHARD_KINDS + RANK_KINDS:
                shard = int(rng.integers(0, shards))
            specs.append(
                FaultSpec(
                    kind=kind,
                    site=site,
                    shard=shard,
                    lane=int(rng.integers(0, 32)),
                    reg=int(rng.integers(0, 2)),
                    sticky=sticky,
                )
            )
        return cls(specs=tuple(specs), seed=seed)

    def with_specs(self, specs: Iterable[FaultSpec]) -> "FaultPlan":
        """Copy of this plan with ``specs`` replaced (seed kept)."""
        return replace(self, specs=tuple(specs))

    def by_kind(self, *kinds: str) -> tuple[FaultSpec, ...]:
        """The subset of specs whose kind is one of ``kinds``."""
        return tuple(s for s in self.specs if s.kind in kinds)

    def describe(self) -> str:
        """Multi-line rendering: header plus one line per spec."""
        head = f"FaultPlan(seed={self.seed}, {len(self.specs)} faults)"
        return "\n".join([head] + [f"  - {s.describe()}" for s in self.specs])

    def __len__(self) -> int:
        return len(self.specs)
