"""Typed exception hierarchy for the public API.

Every error the library raises on a user-facing path derives from
:class:`ReproError`, so ``except ReproError`` catches anything the
library itself diagnosed while letting genuine bugs propagate.

For backwards compatibility each concrete error *also* subclasses the
builtin exception the pre-1.1 API raised in its place:

* :class:`KernelNotFoundError` is a :class:`KeyError` (registry lookups
  used to raise bare ``KeyError``);
* :class:`DecompositionError` and :class:`ShapeError` are
  :class:`ValueError` (decomposition and engine constructors used to
  raise bare ``ValueError``).

``except KeyError`` / ``except ValueError`` code written against the old
API therefore keeps working unchanged.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "KernelNotFoundError",
    "DecompositionError",
    "ShapeError",
    "InputValidationError",
    "LoweringError",
    "PerfError",
    "BackendError",
    "ExecutionError",
    "FaultError",
]


class ReproError(Exception):
    """Base class of every exception the repro library raises."""


class KernelNotFoundError(ReproError, KeyError):
    """A kernel (or method) name is not present in its registry."""

    # KeyError renders its message repr()-quoted; restore plain text.
    __str__ = Exception.__str__


class DecompositionError(ReproError, ValueError):
    """A weight matrix cannot be decomposed as requested."""


class ShapeError(ReproError, ValueError):
    """An array has the wrong dimensionality, shape, or size."""


class LoweringError(ReproError, ValueError):
    """Lowering cannot produce a program as configured
    (unknown schedule name, dependence-violating custom schedule, …)."""


class PerfError(ReproError, ValueError):
    """The performance observatory cannot fulfil a request: profiling a
    path with no tensor-core program, fidelity attribution outside the
    2D RDG model, a regression check without a baseline, …"""


class BackendError(ReproError, ValueError):
    """An execution backend cannot fulfil a request: an unknown backend
    name (including via ``REPRO_BACKEND``), an explicit
    ``backend="vectorized"`` combined with fault injection / ABFT
    verification, which only the per-thread interpreter supports, or a
    cluster run on ``executor="process"`` combined with ABFT
    verification or MMA/staging faults, which its workers cannot run."""


class InputValidationError(ReproError, ValueError):
    """An input grid carries values the pipeline must not ingest
    (NaN/Inf poison), or an execution-mode argument is malformed.

    Sibling of :class:`ShapeError`: the *shape* is fine but the
    *contents* are not.  Raised before any sweep starts, so poison
    never propagates silently through a matrix chain."""


class ExecutionError(ReproError, RuntimeError):
    """A batch/shard worker failed; the message carries the shard or
    grid index and row range so the failure is attributable without
    digging through a raw future traceback."""


class FaultError(ReproError, RuntimeError):
    """Fault recovery was exhausted: a corrupted tile or shard could
    not be recomputed within the recovery policy's retry budget.

    The sweep raises instead of returning — callers never observe a
    silently wrong result or a partial grid."""
