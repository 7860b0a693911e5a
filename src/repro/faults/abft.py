"""ABFT verification and tile-level recovery for block sweeps.

The paper's central identity — a stencil tile is exactly the matrix
chain ``Y = Σ_k U_k X V_k`` (Eq. 12's operand set) — makes the classic
Huang–Abraham algorithm-based fault tolerance apply verbatim: with a
checksum row ``e = (1, …, 1)``,

    e · (Σ_k U_k X V_k)  =  Σ_k ((e · U_k) X) V_k,

so a checksum row carried through the same rank-1 chain must equal the
column sums of the produced tile, and any corrupted accumulator shows
up as a checksum mismatch.  On real hardware the checksum row rides as
one extra row inside the same MMAs (``O(1/m)`` overhead) and the
comparison needs a rounding tolerance.  On this FP64 *simulator* we can
do better: the schedule-equivalence guarantee (eager oracle path and
lowered-program interpretation are bit-identical — pinned by
``tests/properties/test_schedule_equivalence.py``) means the checksum
reference can be recomputed through the oracle chain on a scratch warp
and compared at **tolerance 0** — a fault-free sweep never false-
positives, and any corruption that alters a row/column sum is caught
with certainty.

:class:`SweepGuard` packages verification with the recovery ladder of
:func:`repro.core.sweep.run_block_sweep`:

* staged shared-memory blocks are scrubbed against their DRAM source
  (catches corrupted tile loads, dropped ``cp.async`` commit groups,
  and NaN poison) with bounded re-staging;
* computed tiles are checksum-verified; a mismatch triggers bounded
  recomputation, then the oracle-path fallback, then a typed
  :class:`~repro.errors.FaultError` — never a silently wrong tile.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import FaultError, InputValidationError
from repro.faults.report import FaultReport
from repro.tcu.counters import EventCounters
from repro.tcu.warp import Warp
from repro.telemetry.log import emit as emit_event

__all__ = [
    "VERIFY_MODES",
    "RecoveryPolicy",
    "SweepGuard",
    "make_guard",
    "tile_checksums",
    "term_checksum_vectors",
    "halo_frame_checksums",
]

#: Supported values of the ``verify=`` execution-mode argument.
VERIFY_MODES = ("abft",)


@dataclass(frozen=True)
class RecoveryPolicy:
    """Bounds on the self-healing machinery.

    ``max_tile_retries`` recomputations per corrupted tile (then the
    oracle fallback if ``oracle_fallback``, then
    :class:`~repro.errors.FaultError`); ``max_restages`` re-issues of a
    corrupted shared-memory staging copy; ``shard_retries`` resubmits
    of a crashed/hung shard with exponential backoff starting at
    ``backoff_base_s`` and capped at ``backoff_cap_s``;
    ``shard_timeout_s`` per-shard wall-clock budget (``None`` = wait
    forever); ``inline_fallback`` recomputes an exhausted shard in the
    calling thread as graceful degradation before giving up.

    ``backoff_jitter`` spreads simultaneous retries: each resubmitted
    shard's delay is scaled by ``1 + jitter * u`` where ``u ∈ [0, 1)``
    is drawn deterministically from ``(backoff_seed, attempt, shard)``
    — retries de-synchronize without sacrificing replayability.
    ``max_halo_retransmits`` bounds re-requests of a halo window that
    failed its strip-checksum verification before the receiving rank is
    declared dead.
    """

    max_tile_retries: int = 2
    oracle_fallback: bool = True
    max_restages: int = 2
    shard_retries: int = 2
    shard_timeout_s: float | None = None
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 1.0
    backoff_jitter: float = 0.5
    backoff_seed: int = 0
    inline_fallback: bool = True
    max_halo_retransmits: int = 2


def validate_verify_mode(verify) -> str | None:
    """Normalize the ``verify=`` argument (``None``/``False`` off)."""
    if verify is None or verify is False:
        return None
    if verify is True:
        return "abft"
    if verify in VERIFY_MODES:
        return verify
    raise InputValidationError(
        f"unknown verify mode {verify!r}; expected one of {VERIFY_MODES}"
    )


def tile_checksums(tile: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Huang–Abraham checksum pair ``(e·Y, Y·eᵀ)`` of one tile."""
    return np.sum(tile, axis=0), np.sum(tile, axis=1)


def _checksums_equal(tile: np.ndarray, ref: np.ndarray) -> bool:
    """Tolerance-0 checksum comparison (NaN/Inf never compare equal)."""
    col, row = tile_checksums(tile)
    col_ref, row_ref = tile_checksums(ref)
    return np.array_equal(col, col_ref) and np.array_equal(row, row_ref)


def term_checksum_vectors(
    u_matrices, v_matrices
) -> list[dict[str, np.ndarray]]:
    """Per-term ABFT checksum vectors ``e·U_k`` and ``V_k·eᵀ``.

    Given the banded gather matrices of each rank-1 term, these are the
    column sums of ``U_k`` and the row sums of ``V_k`` — the vectors
    the hardware formulation carries through the chain.  Exposed for
    inspection (``repro chaos``/``plan.abft_checksums()``); the
    simulator's tolerance-0 verification recomputes the checksums
    through the oracle chain instead (see the module docstring).
    """
    return [
        {
            "eU": np.asarray(u, dtype=np.float64).sum(axis=0),
            "Ve": np.asarray(v, dtype=np.float64).sum(axis=1),
        }
        for u, v in zip(u_matrices, v_matrices)
    ]


def halo_frame_checksums(window: np.ndarray, depth: int) -> tuple[float, ...]:
    """Per-strip sums of a halo window's frame at exchange depth.

    The Huang–Abraham identity extends to exchanged halos: the frame
    strips a receiver gathers are sub-blocks of the sender's padded
    grid, so their sums are computable on both sides of the wire from
    the same FP64 values in the same (NumPy reduction) order — the
    sender's strip sums and the receiver's strip sums of an intact
    window are **bit-identical**, and the comparison runs at tolerance
    0 exactly like tile ABFT.  A bit-62 flip, zeroed strip, or
    duplicated slab perturbs at least one strip sum by ≥ 2 in
    magnitude, so corruption can never hide inside rounding.

    Strips come from :func:`repro.parallel.distributed.frame_regions`
    (the onion decomposition used by overlapped exchange), imported
    lazily to keep ``repro.faults`` importable without the parallel
    subsystem.  ``depth <= 0`` means no frame — returns ``()``.
    """
    if depth <= 0:
        return ()
    from repro.parallel.distributed import frame_regions

    _, strips = frame_regions(window.shape, depth)
    return tuple(float(np.sum(window[s])) for s in strips)


class SweepGuard:
    """Verification + recovery hooks for one guarded block sweep.

    ``reference`` is the engine's *oracle* tile provider
    (``tile_source(oracle=True)``); the guard replays it on a private
    scratch warp with its own counter ledger, so the reference is
    immune to warp-level injection and the device's event footprint
    only grows by genuine recovery work (retries/restages).
    """

    def __init__(
        self,
        reference: Callable[..., np.ndarray],
        policy: RecoveryPolicy | None = None,
        report: FaultReport | None = None,
        label: str = "",
    ) -> None:
        self.reference = reference
        self.policy = policy or RecoveryPolicy()
        self.report = report if report is not None else FaultReport()
        self.label = label
        self._scratch = Warp(EventCounters())

    # ------------------------------------------------------------------
    # staged shared memory: scrub against the DRAM source
    # ------------------------------------------------------------------
    def check_stage(
        self,
        smem,
        padded2d: np.ndarray,
        br: int,
        bc: int,
        avail_r: int,
        avail_c: int,
        restage: Callable[[], None],
    ) -> None:
        """Verify a staging copy; re-stage (bounded) on corruption."""
        source = padded2d[br : br + avail_r, bc : bc + avail_c]

        def _clean() -> bool:
            return np.array_equal(smem.data[:avail_r, :avail_c], source)

        if _clean():
            return
        self.report.bump("stage_detections")
        emit_event(
            "recovery.stage_detected",
            level="warning",
            message=f"staged block ({br}, {bc}) differs from its DRAM source",
            block=[int(br), int(bc)],
        )
        for restages in range(self.policy.max_restages):
            self.report.bump("restages")
            emit_event(
                "recovery.restage",
                message=f"re-staging block ({br}, {bc})",
                block=[int(br), int(bc)],
                attempt=restages + 1,
            )
            restage()
            if _clean():
                self.report.bump("stage_recoveries")
                emit_event(
                    "recovery.stage_recovered",
                    message=f"block ({br}, {bc}) clean after re-stage",
                    block=[int(br), int(bc)],
                    restages=restages + 1,
                )
                return
        self.report.bump("unrecovered")
        emit_event(
            "recovery.unrecovered",
            level="error",
            message=f"staging at block ({br}, {bc}) exhausted re-stages",
            block=[int(br), int(bc)],
            restages=self.policy.max_restages,
        )
        raise FaultError(
            f"shared-memory staging at block ({br}, {bc}) stayed corrupted "
            f"after {self.policy.max_restages} re-stage attempts"
        )

    # ------------------------------------------------------------------
    # computed tiles: ABFT checksum verify + recompute ladder
    # ------------------------------------------------------------------
    def check_tile(
        self,
        out_tile: np.ndarray,
        compute_tile: Callable[..., np.ndarray],
        warp,
        smem,
        tr: int,
        tc: int,
        mma_mark: int | None = None,
    ) -> np.ndarray:
        """Verify one tile's checksums; recover or raise on mismatch.

        ``mma_mark`` is the injector's MMA ordinal at the start of the
        original tile computation: each recovery replay seeks the clock
        back there, so the replay traverses the *same* fault sites —
        one-shot faults stay spent (a retry is clean), sticky faults
        re-fire (and eventually exhaust the ladder), and faults armed
        for later sites are not consumed early.
        """
        ref = self.reference(self._scratch, smem, tr, tc)
        if _checksums_equal(out_tile, ref):
            return out_tile
        self.report.bump("tile_detections")
        emit_event(
            "recovery.tile_detected",
            level="warning",
            message=f"tile ({tr}, {tc}) failed ABFT checksum verification",
            tile=[int(tr), int(tc)],
        )
        injector = getattr(warp, "injector", None)

        def _seek() -> None:
            if injector is not None and mma_mark is not None:
                injector.mma_seek(mma_mark)

        for retries in range(self.policy.max_tile_retries):
            self.report.bump("tile_retries")
            emit_event(
                "recovery.tile_retry",
                message=f"recomputing tile ({tr}, {tc})",
                tile=[int(tr), int(tc)],
                attempt=retries + 1,
            )
            _seek()
            candidate = compute_tile(warp, smem, tr, tc)
            if _checksums_equal(candidate, ref):
                self.report.bump("tile_recoveries")
                emit_event(
                    "recovery.tile_recovered",
                    message=f"tile ({tr}, {tc}) verified after recompute",
                    tile=[int(tr), int(tc)],
                    retries=retries + 1,
                )
                return candidate
        if self.policy.oracle_fallback:
            _seek()
            candidate = self.reference(warp, smem, tr, tc)
            if _checksums_equal(candidate, ref):
                self.report.bump("oracle_fallbacks")
                emit_event(
                    "recovery.oracle_fallback",
                    level="warning",
                    message=(
                        f"tile ({tr}, {tc}) fell back to the oracle "
                        "tile computation"
                    ),
                    tile=[int(tr), int(tc)],
                )
                return candidate
        self.report.bump("unrecovered")
        emit_event(
            "recovery.unrecovered",
            level="error",
            message=f"tile ({tr}, {tc}) exhausted the recovery ladder",
            tile=[int(tr), int(tc)],
            retries=self.policy.max_tile_retries,
        )
        raise FaultError(
            f"tile at block-local ({tr}, {tc}) failed ABFT verification "
            f"after {self.policy.max_tile_retries} recomputations"
            + (" and the oracle fallback" if self.policy.oracle_fallback else "")
        )


def make_guard(engine, armed, label: str = "") -> SweepGuard | None:
    """Build an armed run's :class:`SweepGuard` for an engine.

    ``armed`` is the run's :class:`repro.faults.ArmedFaults`; the guard
    verifies under its verify mode, recovers under its policy and counts
    into its report.  ``None`` when the run does not verify.
    """
    if validate_verify_mode(armed.verify) is None:
        return None
    return SweepGuard(
        engine.tile_source(oracle=True),
        policy=armed.policy,
        report=armed.report,
        label=label,
    )
