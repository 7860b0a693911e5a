"""Deterministic fault injection into the TCU simulator.

A :class:`FaultInjector` arms a :class:`~repro.faults.spec.FaultPlan`
against a run.  It hooks three choke points:

* :meth:`on_mma` — called by :meth:`repro.tcu.warp.Warp.mma_sync` (and
  therefore by every ``mma`` the lowered-program interpreter executes)
  just before the tensor core fires; corrupts a *copy* of the A/B/C
  fragment's register file, so shared weight fragments are never
  permanently damaged — exactly the transient single-event-upset model;
* :meth:`on_stage` — called by
  :func:`repro.core.sweep.run_block_sweep` right after a block's
  global→shared staging copy; flips a staged element, drops the last
  ``cp.async`` commit group (zeroing its rows), or writes NaN poison;
* :meth:`on_shard` — called at the top of each sharded worker; raises
  an :class:`InjectedFaultError` (crash) or sleeps (hang) so the
  executor's timeout/retry machinery has something real to survive.

Sites are *per-thread* ordinals (see :mod:`repro.faults.spec`):
:meth:`on_shard` resets the calling thread's instruction/staging clocks
so shard N's "5th MMA" means the same instruction regardless of pool
interleaving.  An MMA or staging spec with no ``shard`` addresses shard
0, as does an unsharded sweep, so no spec races across shard threads.
Every firing is appended to :attr:`events`, tallied in the shared
:class:`~repro.faults.report.FaultReport`, and recorded as a
``fault.inject`` telemetry span when tracing is on.
"""

from __future__ import annotations

import threading
import time
from typing import Any

import numpy as np

from repro.errors import FaultError
from repro.faults.report import FaultReport
from repro.faults.spec import (
    HALO_KINDS,
    MMA_KINDS,
    STAGE_KINDS,
    FaultPlan,
    FaultSpec,
)
from repro.telemetry.spans import TRACER

__all__ = ["FaultInjector", "InjectedFaultError", "flip_float64_bit"]


class InjectedFaultError(FaultError):
    """The injector deliberately crashed a worker (``shard_crash``)."""


def flip_float64_bit(value: float, bit: int) -> float:
    """Flip one bit of a float64's IEEE-754 representation."""
    raw = np.array([value], dtype=np.float64)
    raw.view(np.uint64)[0] ^= np.uint64(1) << np.uint64(bit)
    return float(raw[0])


class _Armed:
    """One spec's firing state (lock-protected, at-most-once unless sticky)."""

    __slots__ = ("spec", "fired", "disabled")

    def __init__(self, spec: FaultSpec) -> None:
        self.spec = spec
        self.fired = 0
        self.disabled = False


class FaultInjector:
    """Arms a :class:`FaultPlan`; attach via ``Device(injector=...)``."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.report = FaultReport()
        self.events: list[dict[str, Any]] = []
        self._lock = threading.Lock()
        self._armed = [_Armed(spec) for spec in plan.specs]
        self._tls = threading.local()

    # ------------------------------------------------------------------
    # per-thread clocks
    # ------------------------------------------------------------------
    def _state(self):
        tls = self._tls
        if not hasattr(tls, "mma_ord"):
            tls.mma_ord = 0
            tls.stage_ord = 0
            tls.shard = None
        return tls

    def reset_thread(self, shard: int | None = None) -> None:
        """Reset the calling thread's site clocks (worker start)."""
        tls = self._state()
        tls.mma_ord = 0
        tls.stage_ord = 0
        tls.shard = shard

    def mma_mark(self) -> int:
        """The calling thread's current MMA ordinal (next site)."""
        return self._state().mma_ord

    def mma_seek(self, ordinal: int) -> None:
        """Rewind the MMA clock — a recovery replay re-executes the same
        instruction span, so its MMAs must see the *same* sites (sticky
        faults re-fire there; one-shot faults stay spent; faults beyond
        the span are not consumed by the replay)."""
        self._state().mma_ord = ordinal

    def stage_site(self) -> int:
        """Allocate the calling thread's next staging-site ordinal.

        The sweep driver takes one site per block staging and re-offers
        it (``on_stage(..., site=...)``) on every re-stage of that
        block, so a sticky staging fault re-fires on the retry instead
        of silently shifting to a later site.
        """
        tls = self._state()
        site = tls.stage_ord
        tls.stage_ord += 1
        return site

    # ------------------------------------------------------------------
    # matching / firing
    # ------------------------------------------------------------------
    def _take(
        self, kinds, site: int, shard: int | None, default_shard=None
    ) -> FaultSpec | None:
        """Claim the first matching un-fired (or sticky) spec.

        A spec with no ``shard`` addresses ``default_shard``; ``None``
        matches any shard.
        """
        with self._lock:
            for armed in self._armed:
                spec = armed.spec
                if armed.disabled:
                    continue
                if spec.kind not in kinds or spec.site != site:
                    continue
                target = default_shard if spec.shard is None else spec.shard
                if target is not None and target != shard:
                    continue
                if armed.fired and not spec.sticky:
                    continue
                armed.fired += 1
                return spec
        return None

    def _fire(self, spec: FaultSpec, **detail: Any) -> None:
        tls = self._state()
        event = {
            "kind": spec.kind,
            "site": spec.site,
            "shard": tls.shard,
            "sticky": spec.sticky,
            **detail,
        }
        with self._lock:
            self.events.append(event)
        self.report.record_injection(spec.kind)
        from repro.telemetry.log import emit

        fields = {
            "fault_kind" if k == "kind" else k: v
            for k, v in event.items()
            if v is not None
        }
        emit(
            "fault.injected",
            level="warning",
            message=f"injected {spec.kind} fault at site {spec.site}",
            **fields,
        )
        if TRACER.enabled:
            with TRACER.span(
                "fault.inject",
                category="faults",
                kind=spec.kind,
                site=spec.site,
                shard=-1 if tls.shard is None else tls.shard,
            ):
                pass

    # ------------------------------------------------------------------
    # hook: mma operands (A/B/C fragment registers)
    # ------------------------------------------------------------------
    def on_mma(self, a, b, acc):
        """Possibly corrupt the operands of the next ``mma.sync``.

        Returns ``(a, b, acc)`` — corrupted operands are *copies*; the
        caller's fragments (often shared weight fragments) are intact.
        """
        tls = self._state()
        site = tls.mma_ord
        tls.mma_ord += 1
        spec = self._take(MMA_KINDS, site, tls.shard or 0, default_shard=0)
        if spec is None:
            return a, b, acc
        if spec.kind == "flip_a":
            a = self._flip_fragment(a, spec)
        elif spec.kind == "flip_b":
            b = self._flip_fragment(b, spec)
        elif spec.kind == "flip_acc":
            if acc is not None:
                acc = self._flip_fragment(acc, spec)
            else:  # first link of the chain has no C yet; hit A instead
                a = self._flip_fragment(a, spec)
        elif spec.kind == "nan_acc":
            target = acc if acc is not None else a
            poisoned = self._poison_fragment(target, spec)
            if acc is not None:
                acc = poisoned
            else:
                a = poisoned
        self._fire(spec, mma=site)
        return a, b, acc

    def _flip_fragment(self, frag, spec: FaultSpec):
        regs = frag.registers.copy()
        lane = spec.lane % regs.shape[0]
        reg = spec.reg % regs.shape[1]
        regs[lane, reg] = flip_float64_bit(regs[lane, reg], spec.bit)
        return type(frag)(frag.kind, regs)

    def _poison_fragment(self, frag, spec: FaultSpec):
        regs = frag.registers.copy()
        lane = spec.lane % regs.shape[0]
        reg = spec.reg % regs.shape[1]
        regs[lane, reg] = np.nan
        return type(frag)(frag.kind, regs)

    # ------------------------------------------------------------------
    # hook: shared-memory staging
    # ------------------------------------------------------------------
    def on_stage(
        self, smem, rows: int, cols: int, site: int | None = None
    ) -> None:
        """Possibly corrupt the freshly staged shared-memory region.

        ``site`` pins the staging ordinal (the sweep driver allocates
        one per block via :meth:`stage_site` and reuses it across
        re-stages); ``None`` draws from the thread clock directly.
        """
        tls = self._state()
        if site is None:
            site = tls.stage_ord
            tls.stage_ord += 1
        spec = self._take(STAGE_KINDS, site, tls.shard or 0, default_shard=0)
        if spec is None:
            return
        data = smem.data
        if spec.kind == "flip_smem":
            flat = spec.lane % (rows * cols)
            r, c = divmod(flat, cols)
            data[r, c] = flip_float64_bit(data[r, c], spec.bit)
            self._fire(spec, stage=site, element=[int(r), int(c)])
        elif spec.kind == "drop_commit":
            # a dropped cp.async commit group: its rows never arrive,
            # leaving the zero-initialized staging tile behind
            group = max(1, rows // 4)
            r0 = max(0, rows - group)
            data[r0:rows, :cols] = 0.0
            self._fire(spec, stage=site, rows=[int(r0), int(rows)])
        elif spec.kind == "nan_smem":
            flat = spec.lane % (rows * cols)
            r, c = divmod(flat, cols)
            data[r, c] = np.nan
            self._fire(spec, stage=site, element=[int(r), int(c)])

    # ------------------------------------------------------------------
    # hook: shard workers
    # ------------------------------------------------------------------
    def on_shard(self, shard: int) -> None:
        """Worker start: reset this thread's clocks, maybe crash/hang."""
        self.reset_thread(shard)
        spec = self._take(("shard_crash",), shard, shard)
        if spec is not None:
            self._fire(spec)
            raise InjectedFaultError(
                f"injected crash in shard {shard} ({spec.describe()})"
            )
        spec = self._take(("shard_hang",), shard, shard)
        if spec is not None:
            self._fire(spec, hang_s=spec.hang_s)
            time.sleep(spec.hang_s)

    # ------------------------------------------------------------------
    # hook: cluster ranks (round start) and exchanged halos
    # ------------------------------------------------------------------
    def on_rank(self, rank: int) -> None:
        """Rank dispatch: maybe crash or stall the whole rank's round."""
        spec = self._take(("rank_crash",), rank, rank)
        if spec is not None:
            self._fire(spec, rank=rank)
            raise InjectedFaultError(
                f"injected crash in rank {rank} ({spec.describe()})"
            )
        spec = self._take(("rank_hang",), rank, rank)
        if spec is not None:
            self._fire(spec, rank=rank, hang_s=spec.hang_s)
            time.sleep(spec.hang_s)

    def on_halo(
        self, windows: dict[int, np.ndarray], round_i: int, depth: int
    ) -> None:
        """Possibly corrupt freshly exchanged halo windows in place.

        ``round_i`` is the exchange-round ordinal a halo spec's ``site``
        addresses; ``spec.shard`` names the receiving rank (``None``
        hits the lowest-numbered rank).  Corruption happens *after* the
        sender computed its strip checksums, modelling a wire/buffer
        fault that only the receiver-side verification can catch.
        """
        if depth <= 0:
            return
        for rank in sorted(windows):
            self.on_halo_window(windows[rank], round_i, rank, depth)

    def on_halo_window(
        self, window: np.ndarray, round_i: int, rank: int, depth: int
    ) -> None:
        """Offer one rank's exchanged window at ``round_i`` (re-offered
        on every retransmit, so sticky halo faults re-corrupt the
        replacement and eventually exhaust the retransmit ladder)."""
        if depth <= 0:
            return
        spec = self._take(HALO_KINDS, round_i, rank)
        if spec is None:
            return
        self._corrupt_window(window, spec, depth)
        self._fire(spec, round=round_i, rank=rank)

    def _corrupt_window(
        self, window: np.ndarray, spec: FaultSpec, depth: int
    ) -> None:
        from repro.parallel.distributed import frame_regions

        _, strips = frame_regions(window.shape, depth)
        if not strips:
            return
        if spec.kind == "halo_corrupt":
            strip = window[strips[spec.reg % len(strips)]]
            flat = strip.reshape(-1)
            idx = spec.lane % flat.size
            flat[idx] = flip_float64_bit(float(flat[idx]), spec.bit)
        elif spec.kind == "halo_drop":
            # the strip never arrives: the receive buffer stays zeroed
            window[strips[spec.reg % len(strips)]] = 0.0
        elif spec.kind == "halo_dup":
            # a duplicated transfer: the boundary slab overwrites its
            # neighbouring interior slab along axis 0
            dup = window[(slice(0, depth),) + (slice(None),) * (window.ndim - 1)]
            window[
                (slice(depth, 2 * depth),) + (slice(None),) * (window.ndim - 1)
            ] = dup

    def disarm_rank(self, rank: int) -> None:
        """Permanently disable every spec targeting ``rank``.

        Called by the elastic re-plan after a rank is declared dead and
        the mesh shrinks: surviving ranks are renumbered, so a sticky
        ``rank_crash`` at the dead rank's old index must not transfer
        onto whichever survivor inherits that number.
        """
        with self._lock:
            for armed in self._armed:
                spec = armed.spec
                if spec.kind in HALO_KINDS + ("rank_crash", "rank_hang"):
                    if spec.shard == rank or spec.site == rank:
                        armed.disabled = True

    # ------------------------------------------------------------------
    # checkpoint round-trip
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, Any]:
        """Firing state for checkpoint manifests (specs + clocks)."""
        with self._lock:
            return {
                "specs": [a.spec.as_dict() for a in self._armed],
                "fired": [a.fired for a in self._armed],
                "disabled": [a.disabled for a in self._armed],
            }

    def load_state(self, state: dict[str, Any]) -> None:
        """Restore firing state saved by :meth:`state_dict` — resumed
        runs must not re-fire one-shot faults already spent before the
        checkpoint."""
        specs = [FaultSpec.from_dict(doc) for doc in state.get("specs", [])]
        armed = [_Armed(spec) for spec in specs]
        for a, fired in zip(armed, state.get("fired", [])):
            a.fired = int(fired)
        for a, disabled in zip(armed, state.get("disabled", [])):
            a.disabled = bool(disabled)
        with self._lock:
            self.plan = self.plan.with_specs(specs)
            self._armed = armed

    def describe(self) -> str:
        """One-line summary: the armed plan plus how many specs fired."""
        fired = sum(a.fired for a in self._armed)
        return f"FaultInjector({self.plan.describe()}; fired={fired})"
