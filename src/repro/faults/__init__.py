"""``repro.faults`` — fault injection, ABFT verification, recovery.

The robustness layer the paper's matrix-chain formulation earns for
free: because a stencil tile *is* ``Σ_k U_k X V_k`` on tensor-core
fragments, the Huang–Abraham checksum trick for fault-tolerant matrix
multiply detects corrupted tiles at sweep time, and the simulator can
prove detection and bit-exact recovery end-to-end.  Three pieces:

* **spec/injector** (:mod:`repro.faults.spec`,
  :mod:`repro.faults.injector`): a deterministic, seed-driven
  :class:`FaultPlan` of :class:`FaultSpec` entries armed by a
  :class:`FaultInjector` hooked into :class:`~repro.tcu.device.Device`
  warps (A/B/C fragment bit flips, NaN poison), block staging
  (corrupted shared-memory loads, dropped ``cp.async`` commit groups),
  and shard workers (crashes, hangs);
* **abft** (:mod:`repro.faults.abft`): the opt-in ``verify="abft"``
  execution mode — tolerance-0 checksum verification of every tile
  against a batched vector-walk reference, with a bounded recompute →
  oracle-fallback → :class:`~repro.errors.FaultError` recovery ladder
  under a :class:`RecoveryPolicy` (CUDA-core configs issue no MMA and
  scrub staging only);
* **report** (:mod:`repro.faults.report`): the :class:`FaultReport`
  ledger every injection/detection/recovery lands in, stamped into
  the run-record ``faults`` section.

Typical use — the ``repro chaos run`` subcommand in one paragraph::

    import repro
    from repro.faults import FaultInjector, FaultPlan, RecoveryPolicy

    stencil = repro.compile(weights)
    injector = FaultInjector(FaultPlan.random(seed=7, count=4))
    out, events = stencil.apply_simulated(
        padded, faults=injector, verify="abft",
        policy=RecoveryPolicy(max_tile_retries=2),
    )
    print(stencil.last_fault_report.describe())

See ``docs/robustness.md`` for the fault model and the ABFT math.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import BackendError, ExecutionError, FaultError, InputValidationError
from repro.faults.abft import (
    VERIFY_MODES,
    RecoveryPolicy,
    SweepGuard,
    halo_frame_checksums,
    make_guard,
    term_checksum_vectors,
    tile_checksums,
    validate_verify_mode,
)
from repro.faults.injector import (
    FaultInjector,
    InjectedFaultError,
    flip_float64_bit,
)
from repro.faults.report import FaultReport
from repro.faults.spec import (
    DEFAULT_FLIP_BIT,
    FAULT_KINDS,
    HALO_KINDS,
    MMA_KINDS,
    RANK_KINDS,
    SHARD_KINDS,
    STAGE_KINDS,
    FaultPlan,
    FaultSpec,
)
from repro.runtime.backends import resolve_backend

__all__ = [
    "FAULT_KINDS",
    "MMA_KINDS",
    "STAGE_KINDS",
    "SHARD_KINDS",
    "HALO_KINDS",
    "RANK_KINDS",
    "halo_frame_checksums",
    "DEFAULT_FLIP_BIT",
    "VERIFY_MODES",
    "FaultSpec",
    "FaultPlan",
    "FaultInjector",
    "InjectedFaultError",
    "FaultReport",
    "RecoveryPolicy",
    "SweepGuard",
    "make_guard",
    "tile_checksums",
    "term_checksum_vectors",
    "validate_verify_mode",
    "flip_float64_bit",
    "FaultError",
    "ExecutionError",
    "InputValidationError",
    "ArmedFaults",
    "arm_faults",
]


def as_injector(faults) -> FaultInjector | None:
    """Normalize a ``faults=`` argument: plan, injector, or ``None``."""
    if faults is None:
        return None
    if isinstance(faults, FaultInjector):
        return faults
    if isinstance(faults, FaultPlan):
        return FaultInjector(faults)
    raise InputValidationError(
        f"faults must be a FaultPlan or FaultInjector, got {type(faults).__name__}"
    )


@dataclass(frozen=True)
class ArmedFaults:
    """One fault run's armed state, built once by :func:`arm_faults`.

    Passed unread through ``Runtime`` and the engines to
    :func:`repro.core.sweep.run_block_sweep`, which builds the guard
    from it and attaches the injector to the sweep's device.
    ``verify`` is the normalized mode: ``None`` or a name in
    :data:`~repro.faults.abft.VERIFY_MODES`.
    """

    verify: str | None
    injector: FaultInjector | None
    report: FaultReport
    policy: RecoveryPolicy

    def finish(self, span) -> None:
        """Annotate ``span`` with the report's totals."""
        span.annotate(
            faults_injected=self.report.total_injected,
            faults_detected=self.report.total_detected,
            faults_recovered=self.report.total_recovered,
        )


def arm_faults(
    verify,
    faults,
    policy,
    *,
    backend: str | None,
    plan_default: str | None,
    kind: str = "sweep",
) -> tuple[str | None, ArmedFaults | None]:
    """Decide once what a run's fault arguments mean: ``(backend, armed)``.

    With none of ``verify`` / ``faults`` / ``policy`` the run is clean:
    ``armed`` is ``None`` and no injector or report is built.
    Otherwise ``armed`` holds the injector, the report it tallies into
    (the injector's, else a fresh one) and the policy (default
    :class:`RecoveryPolicy`).

    ``kind`` names where the run executes: ``"sweep"`` (a simulated
    sweep in this process), ``"process"`` (simulated sweeps in worker
    processes) or ``"functional"`` (no simulated sweep).  ``verify=``
    and MMA/staging faults hook the simulated sweep, so the other kinds
    refuse them with a :class:`~repro.errors.BackendError`; shard, rank
    and halo faults fire in the dispatcher and arm on every kind.
    ``verify`` is normalized here, before anything runs:
    ``ArmedFaults.verify`` holds ``None`` or a mode name, and an unknown
    mode raises :class:`~repro.errors.InputValidationError`.
    ``backend`` resolves through
    :func:`repro.runtime.backends.resolve_backend` (``None`` for a
    functional run).
    """
    verify = validate_verify_mode(verify)
    armed = None
    if verify or faults is not None or policy is not None:
        injector = as_injector(faults)
        if kind != "sweep" and (
            verify
            or (
                injector is not None
                and injector.plan.by_kind(*MMA_KINDS, *STAGE_KINDS)
            )
        ):
            raise BackendError(
                "verify= and MMA/staging faults need a simulated sweep in "
                f"this process, which {kind} ranks do not run; use "
                "simulate=True with executor='serial' or 'thread'"
            )
        report = injector.report if injector is not None else FaultReport()
        armed = ArmedFaults(
            verify=verify,
            injector=injector,
            report=report,
            policy=policy or RecoveryPolicy(),
        )
    if kind == "functional":
        return None, armed
    return resolve_backend(backend, plan_default, armed is not None), armed
