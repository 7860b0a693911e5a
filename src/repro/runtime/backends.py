"""Execution-backend registry behind the unified ``backend=`` API.

Three backends execute a compiled plan:

* ``interpreter`` — the per-thread :class:`~repro.tcu.program.TileProgram`
  interpreter: every m8n8k4 MMA, shuffle and shared-memory transaction is
  *measured* by stepping fragments one tile at a time.  The reference
  semantics, and the only backend that composes with ABFT verification
  and fault injection.
* ``vectorized`` — one batched NumPy walk of the scheduled program over
  the whole grid: each ``mma`` is a k=4 product over a full-width row
  strip, each ``mma2`` one gemm over all tiles, with the banded U/V
  operands materialized once per plan and staging traffic priced
  analytically.  Bit-identical grids *and* EventCounters to the
  interpreter (the schedule-equivalence suite gates this), because
  every product stays a k=4 BLAS gemm added in schedule order; two
  orders of magnitude faster in wall-clock.
* ``oracle`` — the pre-lowering eager tile math, bypassing the scheduled
  program entirely.  The correctness oracle the property suite checks
  both other backends against.

``default_backend()`` reads the ``REPRO_BACKEND`` environment variable,
so CI can run the whole suite under another backend without touching
call sites.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.errors import BackendError

__all__ = [
    "ENV_BACKEND",
    "DEFAULT_BACKEND",
    "ExecutionBackend",
    "register_backend",
    "get_backend",
    "available_backends",
    "default_backend",
    "resolve_backend",
    "check_fault_support",
]

#: environment variable consulted by :func:`default_backend`
ENV_BACKEND = "REPRO_BACKEND"

#: backend used when neither an argument nor the environment selects one
DEFAULT_BACKEND = "interpreter"


@dataclass(frozen=True)
class ExecutionBackend:
    """One registered way of executing a compiled plan."""

    name: str
    description: str
    #: "measured" — counters accumulate per simulated transaction;
    #: "derived" — counters are priced analytically (still bit-identical)
    counters: str
    #: does this backend compose with verify= / fault injection?
    supports_faults: bool


_BACKENDS: dict[str, ExecutionBackend] = {}


def register_backend(backend: ExecutionBackend) -> ExecutionBackend:
    """Register (or replace) a backend under its name."""
    _BACKENDS[backend.name] = backend
    return backend


register_backend(
    ExecutionBackend(
        name="interpreter",
        description="per-thread TileProgram interpreter (reference)",
        counters="measured",
        supports_faults=True,
    )
)
register_backend(
    ExecutionBackend(
        name="vectorized",
        description="batched NumPy over whole tile sweeps",
        counters="derived",
        supports_faults=False,
    )
)
register_backend(
    ExecutionBackend(
        name="oracle",
        description="eager pre-lowering tile math (correctness oracle)",
        counters="measured",
        supports_faults=True,
    )
)


def get_backend(name: str) -> ExecutionBackend:
    """Look up a backend; raises :class:`BackendError` on unknown names."""
    try:
        return _BACKENDS[name]
    except KeyError:
        known = ", ".join(sorted(_BACKENDS))
        raise BackendError(
            f"unknown execution backend {name!r} (known: {known})"
        ) from None


def available_backends() -> tuple[str, ...]:
    """Registered backend names, registration order."""
    return tuple(_BACKENDS)


def default_backend() -> str:
    """The session default: ``REPRO_BACKEND`` if set, else interpreter."""
    name = os.environ.get(ENV_BACKEND, "").strip()
    if not name:
        return DEFAULT_BACKEND
    if name not in _BACKENDS:
        known = ", ".join(sorted(_BACKENDS))
        raise BackendError(
            f"{ENV_BACKEND}={name!r} is not a known execution backend "
            f"(known: {known})"
        )
    return name


def resolve_backend(
    requested: str | None,
    plan_default: str | None = None,
    fault_mode: bool = False,
) -> str:
    """Resolve the backend an apply path should run.

    ``requested`` (an explicit ``backend=`` argument) wins; otherwise the
    plan's compiled-in backend, otherwise :func:`default_backend`.  Fault
    mode (verify= / faults= / policy=) needs a backend with fault
    support: an *explicit* vectorized request is a typed error (see
    :func:`check_fault_support`), while a merely *defaulted* vectorized
    backend (plan default or ``REPRO_BACKEND``) downgrades to the
    interpreter — loudly, see :func:`_signal_downgrade` — so fault
    tests keep passing under a vectorized session default.
    """
    if requested is not None:
        return check_fault_support(requested, fault_mode)
    backend = get_backend(
        plan_default if plan_default is not None else default_backend()
    )
    if fault_mode and not backend.supports_faults:
        _signal_downgrade(backend.name, DEFAULT_BACKEND)
        return DEFAULT_BACKEND
    return backend.name


def check_fault_support(name: str | None, fault_mode: bool = False) -> str:
    """Validate a sweep's backend name (``None`` means the interpreter).

    The one refusal every layer shares: a backend without fault support
    (the vectorized walk has no per-tile hooks) meeting fault mode —
    ABFT verification, a recovery policy or report, a sweep guard —
    raises a typed :class:`BackendError`.
    """
    backend = get_backend(DEFAULT_BACKEND if name is None else name)
    if fault_mode and not backend.supports_faults:
        raise BackendError(
            f"backend {backend.name!r} does not support ABFT verification "
            "or fault injection; use backend='interpreter'"
        )
    return backend.name


def _signal_downgrade(requested: str, resolved: str) -> None:
    """Make a defaulted-backend downgrade observable.

    A fault run under a vectorized session default (``REPRO_BACKEND``
    or a plan compiled with ``backend="vectorized"``) must fall back to
    the interpreter — but silently losing an order of magnitude of
    speedup is exactly the kind of decision the observability plane
    exists to surface.  One structured warning event per downgrade.
    """
    from repro.telemetry.log import emit

    emit(
        "backend.downgrade",
        level="warning",
        message=(
            f"fault-tolerant execution downgraded backend {requested!r} "
            f"-> {resolved!r} (no fault support)"
        ),
        requested=requested,
        resolved=resolved,
        reason="fault_mode",
    )
