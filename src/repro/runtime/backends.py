"""The fixed set of execution backends behind the unified ``backend=`` API.

Two backends execute a compiled plan:

* ``interpreter`` — the per-thread :class:`~repro.tcu.program.TileProgram`
  interpreter: every m8n8k4 MMA, shuffle and shared-memory transaction is
  *measured* by stepping fragments one tile at a time.  The reference
  semantics; composes with ABFT verification and fault injection.
* ``vectorized`` — one batched NumPy walk of the scheduled program over
  the whole grid: each ``mma`` is a k=4 product over a full-width row
  strip, each ``mma2`` one gemm over all tiles, with the banded U/V
  operands materialized once per plan and staging traffic priced
  analytically (its counters are *derived*, not measured).
  Bit-identical grids *and* EventCounters to the interpreter (the
  schedule-equivalence suite gates this), because every product stays
  a k=4 BLAS gemm added in schedule order; about 50x faster in
  wall-clock on a 256^2 Box-2D9P sweep.  It has no per-tile hooks, so
  it is the one backend without fault support.

:func:`default_backend` is the one function that defaults and validates
a backend name; it reads the ``REPRO_BACKEND`` environment variable, so
CI can run the whole suite under another backend without touching call
sites.
"""

from __future__ import annotations

import os

from repro.errors import BackendError

__all__ = [
    "ENV_BACKEND",
    "DEFAULT_BACKEND",
    "BACKENDS",
    "default_backend",
    "resolve_backend",
    "check_fault_support",
]

#: environment variable consulted by :func:`default_backend`
ENV_BACKEND = "REPRO_BACKEND"

#: backend used when neither an argument nor the environment selects one
DEFAULT_BACKEND = "interpreter"

#: every execution backend, in documentation order
BACKENDS = ("interpreter", "vectorized")


def default_backend(name: str | None = None) -> str:
    """Default and validate a backend name.

    ``name`` if given, else ``REPRO_BACKEND`` if set and non-blank, else
    the interpreter.  A name outside :data:`BACKENDS` raises a typed
    :class:`BackendError`.
    """
    if name is None:
        env = os.environ.get(ENV_BACKEND, "").strip()
        if not env:
            return DEFAULT_BACKEND
        if env in BACKENDS:
            return env
        problem = f"{ENV_BACKEND}={env!r} is not a known execution backend"
    elif name in BACKENDS:
        return name
    else:
        problem = f"unknown execution backend {name!r}"
    raise BackendError(f"{problem} (known: {', '.join(sorted(BACKENDS))})")


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
    backend = plan_default if plan_default is not None else default_backend()
    if fault_mode and backend == "vectorized":
        _signal_downgrade(backend, DEFAULT_BACKEND)
        return DEFAULT_BACKEND
    return backend


def check_fault_support(name: str | None, fault_mode: bool = False) -> str:
    """Validate a sweep's backend name (``None`` means the interpreter).

    The one refusal every layer shares: the vectorized walk (no
    per-tile hooks) meeting fault mode — an armed run or a fault
    injector on the device — raises a typed :class:`BackendError`.
    """
    name = default_backend(DEFAULT_BACKEND if name is None else name)
    if fault_mode and name == "vectorized":
        raise BackendError(
            f"backend {name!r} does not support ABFT verification "
            "or fault injection; use backend='interpreter'"
        )
    return name


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
